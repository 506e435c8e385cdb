"""Physical domain assignment by SAT (sections 3.3.2 and 3.3.3).

The assignment problem -- partition the constraint graph into connected
components (breaking only assignment edges) such that each component
carries one programmer-specified physical domain and no conflict edge
joins two components of equal domain -- is NP-complete.  Following the
paper, it is encoded as CNF and handed to the SAT solver:

- variables ``e_a:p`` ("attribute node a is assigned physical domain p")
  and ``pi(path)`` ("this flow path is active");
- clause types 1-7 exactly as listed in section 3.3.2: some-domain,
  at-most-one-domain, specified-domain, conflict, equality,
  some-path-active, path-forces-domain.

*Flow paths* are enumerated by breadth-first search from the specified
attributes over equality and assignment edges, recording only paths
whose attribute sets are subset-minimal among paths with the same
endpoint (the paper's minimality condition).  Enumeration is capped
(``max_paths_per_node``); the cap is far above what the tree-shaped
expression graphs of real programs produce.

Error reporting follows section 3.3.3: an attribute unreachable from any
specified attribute is detected while building clause 6; on UNSAT, the
solver's unsatisfiable core necessarily contains a conflict clause
(type 4), from which the offending expression, attributes, and physical
domain are reported with their source position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jedd.constraints import AttrNode, ConstraintGraph
from repro.sat import CNF, solve

__all__ = [
    "AssignmentError",
    "AssignmentResult",
    "DomainAssigner",
    "assign_domains",
    "validate_assignment",
]


class AssignmentError(Exception):
    """No valid physical domain assignment exists; message as in 3.3.3."""


@dataclass
class AssignmentResult:
    """A complete, valid assignment plus encoding/solving statistics."""

    #: node_id -> physical domain name
    node_domains: Dict[int, str]
    #: owner key -> {attribute: physical domain}, mirrors graph.owner_maps
    owner_domains: Dict[Tuple[str, object], Dict[str, str]]
    stats: Dict[str, float] = field(default_factory=dict)


class DomainAssigner:
    """Encoder/decoder for one constraint graph."""

    def __init__(
        self,
        graph: ConstraintGraph,
        physdoms: Dict[str, int],
        domain_bits: Dict[str, int],
        max_paths_per_node: int = 64,
        minimize: bool = True,
    ) -> None:
        self.graph = graph
        self.physdoms = physdoms
        self.domain_bits = domain_bits
        self.max_paths_per_node = max_paths_per_node
        self.minimize = minimize
        self.pd_names = sorted(physdoms)
        # Candidate physical domains per node: wide enough for the
        # attribute's domain ("enough bits", section 3.2.1).
        self.candidates: Dict[int, List[str]] = {}
        for node in graph.nodes:
            needed = domain_bits[node.domain]
            cands = [p for p in self.pd_names if physdoms[p] >= needed]
            self.candidates[node.node_id] = cands

    # ------------------------------------------------------------------
    # Flow path enumeration
    # ------------------------------------------------------------------

    def enumerate_flow_paths(self) -> Dict[int, List[Tuple[int, ...]]]:
        """Minimal flow paths ending at each node, as node-id tuples.

        A flow path starts at a specified attribute (its only specified
        one), follows equality/assignment edges without repeating nodes,
        and is subset-minimal among recorded paths with the same
        endpoint.
        """
        adj = self.graph.adjacency()
        specified = set(self.graph.specified)
        recorded: Dict[int, List[Tuple[int, ...]]] = {
            n.node_id: [] for n in self.graph.nodes
        }
        queue: List[Tuple[int, ...]] = []
        for s in sorted(specified):
            path = (s,)
            recorded[s].append(path)
            queue.append(path)
        head = 0
        while head < len(queue):
            path = queue[head]
            head += 1
            tail = path[-1]
            path_set = set(path)
            for nxt in adj[tail]:
                if nxt in path_set or nxt in specified:
                    continue
                existing = recorded[nxt]
                if len(existing) >= self.max_paths_per_node:
                    continue
                new_set = path_set | {nxt}
                # Subset-minimality: BFS order guarantees any strictly
                # smaller path was recorded earlier.
                if any(set(p) <= new_set for p in existing):
                    continue
                new_path = path + (nxt,)
                existing.append(new_path)
                queue.append(new_path)
        return recorded

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(
        self,
    ) -> Tuple[CNF, Dict[int, Dict[str, int]], Dict[int, Tuple[int, int, str]]]:
        """Build the CNF; returns (cnf, node->pd->var, conflict clauses).

        The third value maps the index of each type-4 clause to its
        conflict edge and physical domain ``(a, b, pd)``: the clauses
        :meth:`_conflict_message` reports from an unsatisfiable core.

        Variables are numbered arithmetically: node by node, the
        candidate domains' ``e_a:p`` in candidate order, then the path
        variables node by node and path by path.  Each clause family is
        built in bulk, straight into ``cnf.clauses`` (see below).
        """
        graph = self.graph
        self._check_specified_known()
        paths = self.enumerate_flow_paths()
        nodes, candidates = graph.nodes, self.candidates
        specified = graph.specified
        var_range: Dict[int, range] = {}
        pd_var: Dict[int, Dict[str, int]] = {}
        nv = 0
        for node in nodes:
            cands = candidates[node.node_id]
            r = var_range[node.node_id] = range(nv + 1, nv + 1 + len(cands))
            pd_var[node.node_id] = dict(zip(cands, r))
            nv += len(cands)
        cnf = CNF(nv + sum(map(len, paths.values())))
        # The hand-over: clauses skip ``add_clause``'s dedupe and range
        # checks.  By construction each clause is a tuple of distinct
        # non-zero literals over variables 1..cnf.num_vars: the e_a:p of
        # one node are distinct, conflict edges join distinct nodes, an
        # equality clause pairs opposite polarities, and a path clause
        # pairs a path variable with an e_a:p.
        clauses = cnf.clauses
        # 1. Each attribute gets some physical domain.
        for node in nodes:
            r = var_range[node.node_id]
            if not r:
                raise AssignmentError(
                    f"No physical domain is wide enough for attribute "
                    f"{node.attr} of {node.desc} at {node.pos} "
                    f"(domain {node.domain} needs "
                    f"{self.domain_bits[node.domain]} bits)"
                )
            clauses.append(tuple(r))
        # 2. No attribute gets two physical domains.
        for node in nodes:
            r = var_range[node.node_id]
            clauses += [(-x, -y) for i, x in enumerate(r, 1) for y in r[i:]]
        # 3. Specified attributes get their specified domain.
        for node_id, pd in specified.items():
            if pd not in pd_var[node_id]:
                node = nodes[node_id]
                raise AssignmentError(
                    f"Physical domain {pd} ({self.physdoms[pd]} bits) is "
                    f"too small for attribute {node.attr} of {node.desc} "
                    f"at {node.pos}"
                )
            clauses.append((pd_var[node_id][pd],))
        # 4. Conflict edges: endpoints never share a domain.
        conflicts: Dict[int, Tuple[int, int, str]] = {}
        for a, b in graph.conflict_edges:
            va, vb = pd_var[a], pd_var[b]
            for p in sorted(va.keys() & vb.keys()):
                conflicts[len(clauses)] = (a, b, p)
                clauses.append((-va[p], -vb[p]))
        # 5. Equality edges: endpoints share every domain decision.
        for a, b in graph.equality_edges:
            va, vb = pd_var[a], pd_var[b]
            for p in sorted(va.keys() | vb.keys()):
                x = va.get(p)
                y = vb.get(p)
                if x is None:
                    clauses.append((-y,))
                elif y is None:
                    clauses.append((-x,))
                else:
                    clauses += ((-x, y), (x, -y))
        # 6 & 7. Flow paths.
        pv = nv
        for node in nodes:
            node_paths = paths[node.node_id]
            if not node_paths:
                raise AssignmentError(
                    f"No specified physical domain reaches attribute "
                    f"{node.attr} of {node.desc} at {node.pos}; "
                    "assign a physical domain explicitly"
                )
            first = pv + 1
            for path in node_paths:
                pv += 1
                origin_pd = specified[path[0]]
                for member in path:
                    target = pd_var[member].get(origin_pd)
                    if target is None:
                        # Path forces a domain too narrow for a member:
                        # the path can never be active.
                        clauses.append((-pv,))
                        break
                    clauses.append((-pv, target))
            clauses.append(tuple(range(first, pv + 1)))
        return cnf, pd_var, conflicts

    def _check_specified_known(self) -> None:
        for node_id, pd in self.graph.specified.items():
            if pd not in self.physdoms:
                node = self.graph.nodes[node_id]
                raise AssignmentError(
                    f"Unknown physical domain {pd} specified for "
                    f"attribute {node.attr} of {node.desc} at {node.pos}"
                )

    # ------------------------------------------------------------------
    # Solving and decoding
    # ------------------------------------------------------------------

    def solve(self) -> AssignmentResult:
        """Encode, solve, and decode; raises AssignmentError on failure."""
        t0 = perf_counter()
        cnf, pd_var, conflicts = self.encode()
        t_encode = perf_counter() - t0
        t0 = perf_counter()
        result = solve(cnf)
        t_solve = perf_counter() - t0
        if not result.satisfiable:
            raise AssignmentError(self._conflict_message(result.core, conflicts))
        node_domains: Dict[int, str] = {}
        for node in self.graph.nodes:
            for p, var in pd_var[node.node_id].items():
                if result.model[var]:
                    node_domains[node.node_id] = p
                    break

        def broken(domains: Dict[int, str]) -> int:
            return sum(
                1
                for a, b in self.graph.assignment_edges
                if domains[a] != domains[b]
            )

        replaces_raw = broken(node_domains)
        if self.minimize:
            node_domains = minimize_replaces(
                self.graph, node_domains, self.candidates
            )
        replaces_final = broken(node_domains)
        owner_domains = {
            key: {attr: node_domains[nid] for attr, nid in mapping.items()}
            for key, mapping in self.graph.owner_maps.items()
        }
        stats = {
            "sat_vars": cnf.num_vars,
            "sat_clauses": len(cnf),
            "sat_literals": cnf.num_literals,
            "encode_seconds": t_encode,
            "solve_seconds": t_solve,
            "conflicts": result.conflicts,
            "decisions": result.decisions,
            "propagations": result.propagations,
            "replaces_raw": replaces_raw,
            "replaces_final": replaces_final,
        }
        return AssignmentResult(node_domains, owner_domains, stats)

    def _conflict_message(
        self,
        core: Optional[Sequence[int]],
        conflicts: Dict[int, Tuple[int, int, str]],
    ) -> str:
        """Format the section 3.3.3 error from the unsatisfiable core.

        The paper proves every unsatisfiable core contains a conflict
        clause; report the first one found.
        """
        if core:
            for idx in core:
                entry = conflicts.get(idx)
                if entry is not None:
                    a, b, pd = entry
                    na, nb = self.graph.nodes[a], self.graph.nodes[b]
                    return (
                        f"Conflict between {na.desc}:{na.attr} at {na.pos} "
                        f"and {nb.desc}:{nb.attr} at {nb.pos} "
                        f"over physical domain {pd}"
                    )
        return "No valid physical domain assignment exists"


def assign_domains(
    graph: ConstraintGraph,
    physdoms: Dict[str, int],
    domain_bits: Dict[str, int],
) -> AssignmentResult:
    """Convenience wrapper: encode + solve + decode in one call."""
    return DomainAssigner(graph, physdoms, domain_bits).solve()


def minimize_replaces(
    graph: ConstraintGraph,
    node_domains: Dict[int, str],
    candidates: Dict[int, List[str]],
) -> Dict[int, str]:
    """Greedy post-pass reducing the number of replace operations.

    The SAT solver returns *some* valid assignment; it has no objective,
    so it may break more assignment edges (=> insert more replaces) than
    necessary.  The paper's formulation already rules out replaces
    "without reason"; this pass goes further, hill-climbing over
    equality-edge components: a component without a specified attribute
    may switch to any physical domain that stays conflict-free and wide
    enough, if doing so strictly reduces the number of assignment edges
    whose endpoints differ.  Constraints 1-5 are preserved by
    construction (``validate_assignment`` is re-checked in tests).
    """
    # Union-find over equality edges.
    parent = {n.node_id: n.node_id for n in graph.nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.equality_edges:
        parent[find(a)] = find(b)
    members: Dict[int, List[int]] = {}
    for node in graph.nodes:
        members.setdefault(find(node.node_id), []).append(node.node_id)
    fixed = {find(n) for n in graph.specified}
    # Candidate domains per component: intersection of node candidates.
    comp_candidates: Dict[int, set] = {}
    for root, nodes in members.items():
        cands = set(candidates[nodes[0]])
        for n in nodes[1:]:
            cands &= set(candidates[n])
        comp_candidates[root] = cands
    # Conflict and assignment adjacency at component level.
    conflicts: Dict[int, List[int]] = {}
    for a, b in graph.conflict_edges:
        ra, rb = find(a), find(b)
        conflicts.setdefault(ra, []).append(rb)
        conflicts.setdefault(rb, []).append(ra)
    assign_neighbors: Dict[int, List[int]] = {}
    for a, b in graph.assignment_edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            assign_neighbors.setdefault(ra, []).append(rb)
            assign_neighbors.setdefault(rb, []).append(ra)

    comp_pd = {root: node_domains[nodes[0]] for root, nodes in members.items()}

    def broken_for(root: int, pd: str) -> int:
        return sum(
            1
            for other in assign_neighbors.get(root, [])
            if comp_pd[other] != pd
        )

    changed = True
    while changed:
        changed = False
        for root in members:
            if root in fixed:
                continue
            current = comp_pd[root]
            banned = {comp_pd[c] for c in conflicts.get(root, [])}
            best_pd, best_cost = current, broken_for(root, current)
            for pd in sorted(comp_candidates[root]):
                if pd in banned or pd == current:
                    continue
                cost = broken_for(root, pd)
                if cost < best_cost:
                    best_pd, best_cost = pd, cost
            if best_pd != current:
                comp_pd[root] = best_pd
                changed = True
    return {
        node.node_id: comp_pd[find(node.node_id)] for node in graph.nodes
    }


def validate_assignment(
    graph: ConstraintGraph, node_domains: Dict[int, str]
) -> List[str]:
    """Check an assignment against the validity constraints of 3.3.2.

    Returns a list of violation descriptions (empty when valid).  Used
    by tests and by the compiler's self-check.
    """
    problems: List[str] = []
    for node in graph.nodes:
        if node.node_id not in node_domains:
            problems.append(f"node {node.node_id} ({node.attr}) unassigned")
    for a, b in graph.conflict_edges:
        if node_domains.get(a) == node_domains.get(b):
            problems.append(
                f"conflict edge ({a}, {b}) shares domain "
                f"{node_domains.get(a)}"
            )
    for a, b in graph.equality_edges:
        if node_domains.get(a) != node_domains.get(b):
            problems.append(
                f"equality edge ({a}, {b}) differs: "
                f"{node_domains.get(a)} vs {node_domains.get(b)}"
            )
    for node_id, pd in graph.specified.items():
        if node_domains.get(node_id) != pd:
            problems.append(
                f"specified node {node_id} got {node_domains.get(node_id)} "
                f"instead of {pd}"
            )
    return problems
