"""Tests for the SAT-based physical domain assignment (3.3.2 / 3.3.3)."""

import glob
import os

import pytest

from repro.analyses.jedd_sources import ANALYSIS_SOURCES
from repro.jedd.assignment import (
    AssignmentError,
    DomainAssigner,
    validate_assignment,
)
from repro.jedd.ast import Position
from repro.jedd.constraints import AttrNode, ConstraintGraph, build_constraints
from repro.jedd.parser import parse_program
from repro.jedd.typecheck import check
from tests.jedd.helpers import FIGURE4, PRELUDE, UNSAT_333


def domain_bits(tp):
    return {d: tp.domain_bits(d) for d in tp.domains}


def solve_src(src, **kwargs):
    tp = check(parse_program(src))
    graph = build_constraints(tp)
    assigner = DomainAssigner(graph, tp.physdoms, domain_bits(tp), **kwargs)
    return tp, graph, assigner


def problems(tp, graph, node_domains):
    """``validate_assignment`` with the program's widths."""
    return validate_assignment(
        graph, node_domains, tp.physdoms, domain_bits(tp)
    )


class TestSolvable:
    def test_figure4_assignment_valid(self):
        tp, graph, assigner = solve_src(FIGURE4)
        result = assigner.solve()
        assert problems(tp, graph, result.node_domains) == []

    def test_minimal_program(self):
        tp, graph, assigner = solve_src(
            PRELUDE + "<rectype:T1> r;\ndef f() { r = r | r; }"
        )
        result = assigner.solve()
        assert problems(tp, graph, result.node_domains) == []
        # everything in the rectype chain lands in T1
        assert set(result.node_domains.values()) == {"T1"}

    def test_specified_domains_respected(self):
        tp, graph, assigner = solve_src(FIGURE4)
        result = assigner.solve()
        for node_id, pd in graph.specified.items():
            assert result.node_domains[node_id] == pd

    def test_owner_domains_cover_all_owners(self):
        tp, graph, assigner = solve_src(FIGURE4)
        result = assigner.solve()
        assert set(result.owner_domains) == set(graph.owner_maps)

    def test_stats_populated(self):
        tp, graph, assigner = solve_src(FIGURE4)
        result = assigner.solve()
        assert result.stats["sat_vars"] > 0
        assert 0 < result.stats["sat_components"] < len(graph.nodes)
        assert result.stats["sat_clauses"] > 0
        assert result.stats["solve_seconds"] >= 0

    def test_unspecified_completion(self):
        """The algorithm completes an assignment from minimal input --
        the paper's main usability claim."""
        src = (
            PRELUDE
            + """
<rectype, signature> receivers;
<rectype:T1, signature:S1> out;
def f() {
  out = receivers | receivers;
}
"""
        )
        tp, graph, assigner = solve_src(src)
        result = assigner.solve()
        receivers = tp.lookup_var(None, "receivers")
        pds = result.owner_domains[("var", receivers.var_id)]
        assert pds == {"rectype": "T1", "signature": "S1"}


def _specified_components(graph, assigner):
    comp_of = assigner.quotient.comp_of
    return {comp_of[n] for n in graph.specified}


class TestFlowPaths:
    """Flow paths run over the equality quotient: tuples of component
    indices, linked by assignment edges."""

    def test_specified_nodes_have_self_paths(self):
        tp, graph, assigner = solve_src(PRELUDE + "<rectype:T1> r;")
        paths = assigner.enumerate_flow_paths()
        assert graph.specified
        for c in _specified_components(graph, assigner):
            assert (c,) in paths[c]

    def test_paths_never_contain_second_specified(self):
        tp, graph, assigner = solve_src(FIGURE4)
        paths = assigner.enumerate_flow_paths()
        specified = _specified_components(graph, assigner)
        for comp_paths in paths:
            for path in comp_paths:
                assert path[0] in specified
                assert not (set(path[1:]) & specified)

    def test_paths_are_simple(self):
        tp, graph, assigner = solve_src(FIGURE4)
        paths = assigner.enumerate_flow_paths()
        for comp_paths in paths:
            for path in comp_paths:
                assert len(set(path)) == len(path)

    def test_paths_follow_edges(self):
        tp, graph, assigner = solve_src(FIGURE4)
        comp_of = assigner.quotient.comp_of
        links = {
            frozenset((comp_of[a], comp_of[b]))
            for a, b in graph.assignment_edges
        }
        paths = assigner.enumerate_flow_paths()
        followed = 0
        for c, comp_paths in enumerate(paths):
            for path in comp_paths:
                assert path[-1] == c
                for a, b in zip(path, path[1:]):
                    assert a != b and frozenset((a, b)) in links
                    followed += 1
        assert followed > 0

    def test_minimality(self):
        """Recorded paths to one component are pairwise
        subset-incomparable."""
        tp, graph, assigner = solve_src(FIGURE4)
        paths = assigner.enumerate_flow_paths()
        for comp_paths in paths:
            sets = [frozenset(p) for p in comp_paths]
            for i in range(len(sets)):
                for j in range(len(sets)):
                    if i != j:
                        assert not sets[i] <= sets[j]

    def test_validate_reports_node_off_every_flow_path(self):
        """Node 1 is linked to the P0-specified node 0 only by an
        assignment edge, so placed in P1 no flow path reaches it."""
        graph = ConstraintGraph()
        for i in range(2):
            graph.nodes.append(AttrNode(
                node_id=i, owner_kind="expr", owner_key=i, attr=f"a{i}",
                desc=f"E{i}", pos=Position(1, 1 + 4 * i), domain="D",
            ))
        graph.specified[0] = "P0"
        graph.assign(0, 1)
        widths = ({"P0": 1, "P1": 1}, {"D": 1})
        assert validate_assignment(graph, {0: "P0", 1: "P1"}, *widths) == [
            "node 1 (a1) in P1 lies on no flow path from a specified "
            "attribute"
        ]
        assert validate_assignment(graph, {0: "P0", 1: "P0"}, *widths) == []


def _paper_programs():
    """The six Table 1 sources and the seven ``examples/jedd`` programs."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    programs = [(name, build()) for name, build in ANALYSIS_SOURCES.items()]
    for path in sorted(glob.glob(os.path.join(root, "examples", "jedd", "*.jedd"))):
        with open(path, "r", encoding="utf-8") as fh:
            programs.append((os.path.basename(path), fh.read()))
    return programs


class TestFlowPathCap:
    def test_no_node_reaches_the_cap(self):
        """``max_paths_per_node`` is far above what real programs need:
        a component at the cap may have lost paths silently."""
        programs = _paper_programs()
        assert len(programs) == 13
        for name, src in programs:
            tp, graph, assigner = solve_src(src)
            paths = assigner.enumerate_flow_paths()
            most = max(len(comp_paths) for comp_paths in paths)
            assert most < assigner.max_paths_per_node, (name, most)


class TestSpecifications:
    def test_one_specification_per_component(self):
        """jeddc never builds an equality component with two specified
        attributes, so the "specified different physical domains" error
        is reachable only through hand-built constraint graphs."""
        for name, src in _paper_programs():
            tp, graph, assigner = solve_src(src)
            comps = [assigner.quotient.comp_of[n] for n in graph.specified]
            assert len(comps) == len(set(comps)), name


class TestConflictClauses:
    """``encode()``'s third value maps the index of every type-4 clause,
    and nothing else, to a conflict edge and physical domain: one clause
    per distinct pair of equality components and shared domain, named
    by the first conflict edge between the two."""

    @pytest.mark.parametrize(
        "src", [FIGURE4, UNSAT_333, ANALYSIS_SOURCES["All 5 combined"]()],
        ids=["figure4", "unsat-333", "all-5-combined"],
    )
    def test_keys_index_conflict_clauses(self, src):
        tp, graph, assigner = solve_src(src)
        cnf, pd_var, conflicts = assigner.encode()
        comp_of = assigner.quotient.comp_of
        first = {}
        for a, b in graph.conflict_edges:
            first.setdefault(frozenset((comp_of[a], comp_of[b])), (a, b))
        for idx, (a, b, pd) in conflicts.items():
            ca, cb = comp_of[a], comp_of[b]
            assert first[frozenset((ca, cb))] == (a, b)
            assert ca != cb  # no program has a conflict inside a component
            assert cnf.clauses[idx] == (-pd_var[ca][pd], -pd_var[cb][pd])
        assert len(conflicts) == sum(
            len(pd_var[ca].keys() & pd_var[cb].keys())
            for ca, cb in map(tuple, first)
        )
        assert len(first) < len(graph.conflict_edges)

    def test_unsat_still_reports_the_conflict(self):
        tp, graph, assigner = solve_src(UNSAT_333)
        with pytest.raises(AssignmentError) as err:
            assigner.solve()
        assert str(err.value) == (
            "Conflict between Compose_expression:rectype at 18,21 and "
            "Compose_expression:supertype at 18,21 over physical domain T1"
        )


class TestErrors:
    def test_unreachable_attribute(self):
        """An attribute with no path to any specified attribute is
        detected while constructing clause 6 (section 3.3.3, case 1)."""
        src = PRELUDE + "<rectype> r;\ndef f() { r = r | r; }"
        tp, graph, assigner = solve_src(src)
        with pytest.raises(AssignmentError) as err:
            assigner.solve()
        assert "No specified physical domain reaches" in str(err.value)

    def test_section_333_conflict_message(self):
        """The paper's own example: only T1 is available for both
        rectype and supertype of the compose result."""
        tp, graph, assigner = solve_src(UNSAT_333)
        with pytest.raises(AssignmentError) as err:
            assigner.solve()
        message = str(err.value)
        assert message.startswith("Conflict between")
        assert "over physical domain" in message

    def test_section_333_fix_with_t3(self):
        """Adding physdom T3 and specifying it for supertype resolves
        the conflict, exactly as the paper prescribes."""
        fixed = UNSAT_333.replace(
            "physdom T2 4;", "physdom T2 4;\nphysdom T3 4;"
        ).replace(
            "<rectype, signature, supertype> result;",
            "<rectype, signature, supertype:T3> result;",
        )
        tp, graph, assigner = solve_src(fixed)
        result = assigner.solve()
        assert problems(tp, graph, result.node_domains) == []

    def test_unknown_specified_physdom(self):
        # Reachable only through the internal API: build a graph whose
        # specification names a domain that does not exist.
        tp, graph, assigner = solve_src(PRELUDE + "<rectype:T1> r;")
        graph.specified[0] = "NOPE"
        with pytest.raises(AssignmentError) as err:
            DomainAssigner(
                graph, tp.physdoms, {d: tp.domain_bits(d) for d in tp.domains}
            ).solve()
        assert "Unknown physical domain" in str(err.value)

    def test_no_physdom_wide_enough(self):
        """Clause 1 cannot be built when every physical domain is too
        narrow for some attribute's domain."""
        src = """
domain Big 1000;
domain Small 4;
attribute big : Big;
attribute small : Small;
physdom Tiny 2;
<small:Tiny> s;
<big> r;
def f() { r = r | r; }
"""
        tp = check(parse_program(src))
        graph = build_constraints(tp)
        with pytest.raises(AssignmentError) as err:
            DomainAssigner(
                graph, tp.physdoms, {d: tp.domain_bits(d) for d in tp.domains}
            ).solve()
        assert "wide enough" in str(err.value)

    def test_error_message_contains_position(self):
        tp, graph, assigner = solve_src(UNSAT_333)
        with pytest.raises(AssignmentError) as err:
            assigner.solve()
        # positions rendered as line,column like "Test.jedd:4,25"
        assert any(ch.isdigit() for ch in str(err.value))


class TestWidthFeasibility:
    def test_validate_reports_too_narrow_domain(self):
        """One attribute of a 3-bit domain placed in a 1-bit physical
        domain: only the width-aware check sees it."""
        graph = ConstraintGraph()
        graph.nodes.append(AttrNode(
            node_id=0, owner_kind="expr", owner_key=0, attr="a0",
            desc="E0", pos=Position(1, 1), domain="D3",
        ))
        graph.specified[0] = "P"
        assert validate_assignment(graph, {0: "P"}) == []
        assert validate_assignment(graph, {0: "P"}, {"P": 1}, {"D3": 3}) == [
            "node 0 (a0) needs 3 bits, physical domain P has 1"
        ]
        assert validate_assignment(graph, {0: "P"}, {"P": 3}, {"D3": 3}) == []
        with pytest.raises(TypeError):
            validate_assignment(graph, {0: "P"}, {"P": 1})

    def test_narrow_physdom_not_a_candidate(self):
        src = """
domain Big 1000;
domain Small 4;
attribute big : Big;
attribute small : Small;
physdom Wide 10;
physdom Narrow 2;
<big:Wide> r;
<small:Narrow> s;
def f() { s = s | s; r = r | r; }
"""
        tp = check(parse_program(src))
        graph = build_constraints(tp)
        assigner = DomainAssigner(
            graph, tp.physdoms, {d: tp.domain_bits(d) for d in tp.domains}
        )
        result = assigner.solve()
        assert problems(tp, graph, result.node_domains) == []
        for node in graph.nodes:
            if node.domain == "Big":
                assert result.node_domains[node.node_id] == "Wide"


class TestMinimizeReplaces:
    def test_never_increases_breaks_on_analyses(self):
        """For every analysis module, the post-pass yields a valid
        assignment with no more broken assignment edges than the raw
        SAT model."""
        from repro.analyses.jedd_sources import ANALYSIS_SOURCES
        from repro.jedd.compiler import compile_source

        for builder in ANALYSIS_SOURCES.values():
            cp = compile_source(builder())
            assert cp.stats["replaces_final"] <= cp.stats["replaces_raw"]
            assert problems(cp.tp, cp.graph, cp.assignment.node_domains) == []

    def test_reduces_a_deliberately_bad_assignment(self):
        """Hand the post-pass a valid but replace-heavy assignment --
        every unspecified equality component moved, whole, to T2, which
        the flow path from ``d`` allows -- and check it removes the
        unnecessary moves."""
        from repro.jedd.assignment import minimize_replaces

        src = PRELUDE + (
            "<rectype:T1> a;\n<rectype> b;\n<rectype:T1> c;\n"
            "<rectype:T2> d;\n"
            "def f() { b = a; c = b; b = d; }"
        )
        tp, graph, assigner = solve_src(src)
        quotient = assigner.quotient
        specified = {
            quotient.comp_of[n]: pd for n, pd in graph.specified.items()
        }
        bad = [
            specified.get(c, "T2") for c in range(len(quotient.members))
        ]

        def nodes(comp_domains):
            return {
                n: comp_domains[quotient.comp_of[n]]
                for n in range(len(graph.nodes))
            }

        def broken(comp_domains):
            domains = nodes(comp_domains)
            return sum(
                1 for x, y in graph.assignment_edges
                if domains[x] != domains[y]
            )

        assert problems(tp, graph, nodes(bad)) == []
        assert broken(bad) > 0
        improved = minimize_replaces(
            graph, quotient, assigner.comp_candidates, bad
        )
        assert broken(improved) < broken(bad)
        assert problems(tp, graph, nodes(improved)) == []

    def test_move_that_strands_a_neighbour_is_refused(self):
        """S (P) -> Y -> X, Y -> Z1..Z3 (all Q), X conflicts with W (Q).
        Only Y = X = P keeps X on a flow path; moving Y to Q would save
        a replace but leave X, which cannot follow, on no flow path."""
        from repro.jedd.assignment import minimize_replaces

        names = ["S", "W", "Z1", "Z2", "Z3", "Y", "X"]
        graph = ConstraintGraph()
        for i, name in enumerate(names):
            graph.nodes.append(AttrNode(
                node_id=i, owner_kind="expr", owner_key=i, attr=name,
                desc=name, pos=Position(1, 1 + 4 * i), domain="D",
            ))
        ids = {name: i for i, name in enumerate(names)}
        graph.specified.update({ids["S"]: "P", ids["W"]: "Q"})
        for z in ("Z1", "Z2", "Z3"):
            graph.specified[ids[z]] = "Q"
        for a, b in [("S", "Y"), ("Y", "X"), ("Y", "Z1"), ("Y", "Z2"),
                     ("Y", "Z3")]:
            graph.assign(ids[a], ids[b])
        graph.conflict_edges.append((ids["X"], ids["W"]))
        physdoms, bits = {"P": 1, "Q": 1}, {"D": 1}

        assigner = DomainAssigner(graph, physdoms, bits)
        start = [
            {**graph.specified, ids["Y"]: "P", ids["X"]: "P"}[members[0]]
            for members in assigner.quotient.members
        ]
        kept = minimize_replaces(
            graph, assigner.quotient, assigner.comp_candidates, start
        )
        assert kept == start
        result = assigner.solve()
        assert validate_assignment(
            graph, result.node_domains, physdoms, bits
        ) == []
        assert result.node_domains[ids["Y"]] == "P"

    def test_all_t1_chain_has_zero_replaces(self):
        """a -> b -> c all specifiable as T1: no replaces must remain."""
        src = PRELUDE + (
            "<rectype:T1> a;\n<rectype> b;\n<rectype:T1> c;\n"
            "def f() { b = a; c = b; }"
        )
        tp, graph, assigner = solve_src(src)
        result = assigner.solve()
        broken = [
            (x, y) for x, y in graph.assignment_edges
            if result.node_domains[x] != result.node_domains[y]
        ]
        assert broken == []

    def test_minimize_disabled(self):
        tp, graph, assigner = solve_src(
            PRELUDE + "<rectype:T1> a;\ndef f() { a = a | a; }",
        )
        assigner.minimize = False
        result = assigner.solve()
        assert result.stats["replaces_raw"] == result.stats["replaces_final"]
        assert problems(tp, graph, result.node_domains) == []
