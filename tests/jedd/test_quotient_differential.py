"""The equality-quotient encoding against brute force on small graphs.

``DomainAssigner`` encodes one set of ``e_c:p`` variables per equality
component instead of one per attribute.  Here seeded random constraint
graphs (at most 8 attribute nodes, at most 3 physical domains, mixed
widths, random equality/assignment/conflict edges and specified nodes)
are solved both ways:

- by the assigner, whose CNF is the quotient's;
- by enumerating every per-attribute assignment, keeping one that
  ``validate_assignment`` accepts, so in which every attribute also has
  an active flow path of the paper's per-attribute encoding: a path
  from a specified attribute over equality and assignment edges whose
  attributes all carry that attribute's domain.

The two must agree on satisfiability, and every model the assigner
decodes -- raw or after ``minimize_replaces`` -- must pass the same
checks and put each attribute in a domain wide enough for it.  Three
shapes exist only in the quotient (a conflict edge inside one
component, a component specified two different domains, and a
component whose members leave no candidate domain) and get pinned
error messages.
"""

import random

import pytest

from repro.jedd.assignment import (
    AssignmentError,
    DomainAssigner,
    validate_assignment,
)
from repro.jedd.ast import Position
from repro.jedd.constraints import AttrNode, ConstraintGraph

DOMAIN_BITS = {"D1": 1, "D2": 2, "D3": 3}


def random_graph(rng):
    """A constraint graph, its physical domains and their widths."""
    n = rng.randint(1, 8)
    physdoms = {
        f"P{i}": rng.choice([1, 2, 3, 3]) for i in range(rng.randint(1, 3))
    }
    graph = ConstraintGraph()
    for i in range(n):
        graph.nodes.append(AttrNode(
            node_id=i, owner_kind="expr", owner_key=i, attr=f"a{i}",
            desc=f"E{i}", pos=Position(1, i + 1),
            domain=rng.choice(["D1", "D1", "D1", "D2", "D3"]),
        ))
    for a in range(n):
        for b in range(a + 1, n):
            edge = (a, b) if rng.random() < 0.5 else (b, a)
            r = rng.random()
            if r < 0.2:
                graph.equal(*edge)
            elif r < 0.55:
                graph.assign(*edge)
            if rng.random() < 0.15:
                graph.conflict_edges.append(edge)
    first = rng.randrange(n)
    for i in range(n):
        if i == first or rng.random() < 0.25:
            graph.specified[i] = rng.choice(sorted(physdoms))
    return graph, physdoms


def brute_force(graph, physdoms):
    """A per-attribute assignment passing ``validate_assignment``, or
    ``None``.  Backtracks over the attributes in
    order, pruning an edge or specification between two assigned
    attributes that is already broken."""
    names = sorted(physdoms)
    n = len(graph.nodes)
    cands = [
        [p for p in names if physdoms[p] >= DOMAIN_BITS[node.domain]]
        for node in graph.nodes
    ]
    equal = [[] for _ in range(n)]
    differ = [[] for _ in range(n)]
    for edges, into in ((graph.equality_edges, equal),
                        (graph.conflict_edges, differ)):
        for a, b in edges:
            lo, hi = sorted((a, b))
            into[hi].append(lo)
    domains = {}

    def extend(i):
        if i == n:
            if validate_assignment(graph, domains) == []:
                return dict(domains)
            return None
        for p in cands[i]:
            if graph.specified.get(i, p) != p:
                continue
            if any(domains[j] != p for j in equal[i]):
                continue
            if any(domains[j] == p for j in differ[i]):
                continue
            domains[i] = p
            found = extend(i + 1)
            if found is not None:
                return found
        domains.pop(i, None)
        return None

    return extend(0)


def solve(graph, physdoms, minimize=True):
    assigner = DomainAssigner(graph, physdoms, DOMAIN_BITS, minimize=minimize)
    return assigner.solve()


@pytest.mark.parametrize("chunk", range(4))
def test_quotient_agrees_with_brute_force(chunk):
    outcomes = {True: 0, False: 0}
    for seed in range(chunk * 150, (chunk + 1) * 150):
        graph, physdoms = random_graph(random.Random(seed))
        expected = brute_force(graph, physdoms) is not None
        for minimize in (False, True):
            try:
                result = solve(graph, physdoms, minimize)
            except AssignmentError:
                assert not expected, seed
                continue
            assert expected, seed
            domains = result.node_domains
            assert validate_assignment(
                graph, domains, physdoms, DOMAIN_BITS
            ) == [], seed
        outcomes[expected] += 1
    # Both answers are common, so neither side of the check is vacuous.
    assert min(outcomes.values()) >= 30, outcomes


def _two_nodes(domains, physdoms):
    graph = ConstraintGraph()
    for i, domain in enumerate(domains):
        graph.nodes.append(AttrNode(
            node_id=i, owner_kind="expr", owner_key=0, attr=f"a{i}",
            desc="Join_expression", pos=Position(3, 5 + 4 * i),
            domain=domain,
        ))
    graph.equal(0, 1)
    graph.specified[0] = "P0"
    return graph, physdoms


def test_conflict_inside_a_component_is_reported():
    """A conflict edge whose ends the equality edges merge forbids the
    component every domain; the message names that edge."""
    graph, physdoms = _two_nodes(["D1", "D1"], {"P0": 1, "P1": 1})
    graph.conflict_edges.append((0, 1))
    assert brute_force(graph, physdoms) is None
    with pytest.raises(AssignmentError) as err:
        solve(graph, physdoms)
    assert str(err.value) == (
        "Conflict between Join_expression:a0 at 3,5 and "
        "Join_expression:a1 at 3,9 over physical domain P0"
    )


def test_two_specified_domains_in_a_component_are_named():
    """Seed 2160: nodes 0 and 3 are joined by an equality edge but
    specified P2 and P1; the message names both and their domains."""
    graph, physdoms = random_graph(random.Random(2160))
    assert graph.specified[0] == "P2" and graph.specified[3] == "P1"
    assert brute_force(graph, physdoms) is None
    with pytest.raises(AssignmentError) as err:
        solve(graph, physdoms)
    assert str(err.value) == (
        "Equal attributes E0:a0 at 1,1 and E3:a3 at 1,4 are specified "
        "different physical domains P2 and P1"
    )


def test_no_candidate_left_for_a_component_is_reported():
    """``a0`` fits its specified one-bit P0, but ``a1``, which must share
    its domain, needs two bits: no candidate of the component is left,
    and the solver finds the empty clause."""
    graph, physdoms = _two_nodes(["D1", "D2"], {"P0": 1, "P1": 2})
    assert brute_force(graph, physdoms) is None
    with pytest.raises(AssignmentError) as err:
        solve(graph, physdoms)
    assert str(err.value) == "No valid physical domain assignment exists"


def test_empty_candidate_intersection_is_reported():
    """Members whose candidate sets are disjoint (widths alone always
    nest them, so the sets are set by hand) leave the component no
    domain at all: its some-domain clause is empty."""
    graph, physdoms = _two_nodes(["D1", "D1"], {"P0": 1, "P1": 1})
    assigner = DomainAssigner(graph, physdoms, DOMAIN_BITS)
    assigner.comp_candidates[0] = []
    cnf, _, _ = assigner.encode()
    assert () in cnf.clauses
    with pytest.raises(AssignmentError) as err:
        assigner.solve()
    assert str(err.value) == "No valid physical domain assignment exists"
