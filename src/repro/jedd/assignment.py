"""Physical domain assignment by SAT (sections 3.3.2 and 3.3.3).

The assignment problem -- partition the constraint graph into connected
components (breaking only assignment edges) such that each component
carries one programmer-specified physical domain and no conflict edge
joins two components of equal domain -- is NP-complete.  Following the
paper, it is encoded as CNF and handed to the SAT solver, with one
change: the CNF is built over the graph's *equality quotient*.

The paper gives every attribute node ``a`` its own variables ``e_a:p``
and ties the two ends of each equality edge together with type-5
clauses.  Here a union-find over the equality edges does that work
before encoding (the equivalent-literal substitution a SAT preprocessor
would perform): each equality component ``c`` gets one variable
``e_c:p`` per physical domain that is wide enough for every member, and
the clause types of section 3.3.2 are emitted per component:

1. some domain, 2. at most one domain, 3. specified domain (once per
   component; a component whose members are specified two different
   domains is reported by name before solving);
4. conflict: one clause per distinct component pair and shared domain;
   a conflict edge inside one component forbids each of its domains;
5. equality: none -- the union-find is the equality constraint;
6. & 7. some flow path active, and an active path forces its origin's
   domain on each component it visits.

*Flow paths* are enumerated by breadth-first search from the components
holding a specified attribute over the quotient's assignment edges,
never entering a second such component, and recording only paths whose
component sets are subset-minimal among paths with the same endpoint
(the paper's minimality condition).  Enumeration is capped
(``max_paths_per_node``, per component); the cap is far above what the
tree-shaped expression graphs of real programs produce.  A model
decodes each component's domain to all of its members.

Error reporting follows section 3.3.3: an attribute unreachable from any
specified attribute is detected while building clause 6, and two
attributes of one equality component specified different domains while
building clause 3 (jeddc's constraint graphs never hold that shape: a
variable's component has one specification per attribute and a
literal's is the literal alone); on UNSAT, the
solver's unsatisfiable core necessarily contains a conflict clause
(type 4), from which the offending expression, attributes, and physical
domain are reported with their source position.  A core without one --
for instance the empty clause of a component whose members share no
candidate domain -- is reported as "No valid physical domain assignment
exists".
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations, compress, count
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jedd.constraints import ConstraintGraph
from repro.sat import CNF, solve

__all__ = [
    "AssignmentError",
    "AssignmentResult",
    "DomainAssigner",
    "EqualityQuotient",
    "assign_domains",
    "equality_quotient",
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


@dataclass(frozen=True)
class EqualityQuotient:
    """The constraint graph's nodes grouped by its equality edges.

    Components are numbered in order of their first node.
    """

    #: node_id -> component index
    comp_of: List[int]
    #: component index -> its node ids, ascending
    members: List[List[int]]


def equality_quotient(graph: ConstraintGraph) -> EqualityQuotient:
    """Union-find over ``graph.equality_edges``."""
    parent = list(range(len(graph.nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.equality_edges:
        parent[find(a)] = find(b)
    comp_of: List[int] = []
    members: List[List[int]] = []
    index: Dict[int, int] = {}
    for node_id in range(len(graph.nodes)):
        root = find(node_id)
        c = index.get(root)
        if c is None:
            c = index[root] = len(members)
            members.append([])
        members[c].append(node_id)
        comp_of.append(c)
    return EqualityQuotient(comp_of, members)


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
        # attribute's domain ("enough bits", section 3.2.1), in
        # ``pd_names`` order.  Nodes that need as many bits share a list.
        wide_enough: Dict[int, List[str]] = {}
        needed: List[int] = []
        self.candidates: Dict[int, List[str]] = {}
        for node in graph.nodes:
            bits = domain_bits[node.domain]
            cands = wide_enough.get(bits)
            if cands is None:
                cands = wide_enough[bits] = [
                    p for p in self.pd_names if physdoms[p] >= bits
                ]
            self.candidates[node.node_id] = cands
            needed.append(bits)
        self.quotient = equality_quotient(graph)
        # Per component: the candidates every member shares, which are
        # those of its widest member.
        self.comp_candidates: List[List[str]] = [
            self.candidates[max(nodes, key=needed.__getitem__)]
            for nodes in self.quotient.members
        ]

    # ------------------------------------------------------------------
    # Flow path enumeration
    # ------------------------------------------------------------------

    def _origins(self) -> Dict[int, str]:
        """Component -> the domain its flow paths carry: that of its
        lowest specified node (:meth:`encode` rejects a component
        specified twice over with different domains)."""
        comp_of = self.quotient.comp_of
        origins: Dict[int, str] = {}
        for node_id in sorted(self.graph.specified):
            origins.setdefault(comp_of[node_id], self.graph.specified[node_id])
        return origins

    def enumerate_flow_paths(self) -> List[List[Tuple[int, ...]]]:
        """Minimal flow paths ending at each component, as tuples of
        component indices.

        A flow path starts at a component holding a specified attribute
        (its only such component), follows assignment edges between
        components without repeating one, and is subset-minimal among
        recorded paths with the same endpoint.
        """
        comp_of = self.quotient.comp_of
        n = len(self.quotient.members)
        # Assignment adjacency of the quotient: no self loops, no
        # repeated neighbours, in edge order.
        adj: List[Dict[int, None]] = [{} for _ in range(n)]
        for a, b in self.graph.assignment_edges:
            ca, cb = comp_of[a], comp_of[b]
            if ca != cb:
                adj[ca][cb] = None
                adj[cb][ca] = None
        specified = self._origins()
        recorded: List[List[Tuple[int, ...]]] = [[] for _ in range(n)]
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
                if any(map(new_set.issuperset, existing)):
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
    ) -> Tuple[CNF, List[Dict[str, int]], Dict[int, Tuple[int, int, str]]]:
        """Build the CNF; returns (cnf, component->pd->var, conflict
        clauses).

        The third value maps the index of each type-4 clause to a
        conflict edge and physical domain ``(a, b, pd)``: the clauses
        :meth:`_conflict_message` reports from an unsatisfiable core.
        A clause stands for every conflict edge between its two
        components and names the first of them in
        ``graph.conflict_edges`` order.

        Variables are numbered arithmetically: component by component,
        the candidate domains' ``e_c:p`` in candidate order, then the
        path variables component by component and path by path.  Each
        clause family is built in bulk, straight into ``cnf.clauses``
        (see below).
        """
        graph = self.graph
        self._check_specified_known()
        paths = self.enumerate_flow_paths()
        nodes, candidates = graph.nodes, self.candidates
        comp_of = self.quotient.comp_of
        var_range: List[range] = []
        pd_var: List[Dict[str, int]] = []
        nv = 0
        for cands in self.comp_candidates:
            r = range(nv + 1, nv + 1 + len(cands))
            var_range.append(r)
            pd_var.append(dict(zip(cands, r)))
            nv += len(cands)
        cnf = CNF(nv + sum(map(len, paths)))
        # The hand-over: clauses skip ``add_clause``'s dedupe and range
        # checks.  By construction each clause is a tuple of distinct
        # non-zero literals over variables 1..cnf.num_vars: the e_c:p of
        # one component are distinct, a conflict clause joins two
        # components or is a unit, and a path clause pairs a path
        # variable with an e_c:p.  A component that can take no domain
        # (its members share no candidate, or not the specified one)
        # gets an empty clause, which the solver reports as UNSAT.
        clauses = cnf.clauses
        for node in nodes:
            if not candidates[node.node_id]:
                raise AssignmentError(
                    f"No physical domain is wide enough for attribute "
                    f"{node.attr} of {node.desc} at {node.pos} "
                    f"(domain {node.domain} needs "
                    f"{self.domain_bits[node.domain]} bits)"
                )
        # 1. Each component gets some physical domain.
        clauses += map(tuple, var_range)
        # 2. No component gets two physical domains.
        for r in var_range:
            clauses += combinations(range(-r.start, -r.stop, -1), 2)
        # 3. Specified components get their specified domains.
        specified_by: Dict[int, int] = {}  # component -> first specified node
        for node_id, pd in graph.specified.items():
            if pd not in candidates[node_id]:
                node = nodes[node_id]
                raise AssignmentError(
                    f"Physical domain {pd} ({self.physdoms[pd]} bits) is "
                    f"too small for attribute {node.attr} of {node.desc} "
                    f"at {node.pos}"
                )
            c = comp_of[node_id]
            first = specified_by.setdefault(c, node_id)
            if first == node_id:
                var = pd_var[c].get(pd)
                clauses.append(() if var is None else (var,))
            elif graph.specified[first] != pd:
                na, nb = nodes[first], nodes[node_id]
                raise AssignmentError(
                    f"Equal attributes {na.desc}:{na.attr} at {na.pos} and "
                    f"{nb.desc}:{nb.attr} at {nb.pos} are specified "
                    f"different physical domains {graph.specified[first]} "
                    f"and {pd}"
                )
        # 4. Conflict edges: the components at their ends never share a
        # domain; a component holding both ends can take none.
        conflicts: Dict[int, Tuple[int, int, str]] = {}
        joined = set()
        for a, b in graph.conflict_edges:
            ca, cb = comp_of[a], comp_of[b]
            pair = (ca, cb) if ca <= cb else (cb, ca)
            if pair in joined:
                continue
            joined.add(pair)
            va, vb = pd_var[ca], pd_var[cb]
            shared = [p for p in va if p in vb]
            conflicts.update(
                zip(count(len(clauses)), [(a, b, p) for p in shared])
            )
            if ca == cb:
                clauses += [(-va[p],) for p in shared]
            else:
                clauses += [(-va[p], -vb[p]) for p in shared]
        # 5. Equality edges: none; the quotient merged their endpoints.
        # 6 & 7. Flow paths.
        for node in nodes:
            if not paths[comp_of[node.node_id]]:
                raise AssignmentError(
                    f"No specified physical domain reaches attribute "
                    f"{node.attr} of {node.desc} at {node.pos}; "
                    "assign a physical domain explicitly"
                )
        origins = self._origins()
        pv = nv
        for comp_paths in paths:
            first = pv + 1
            for path in comp_paths:
                pv += 1
                origin_pd = origins[path[0]]
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
        model = result.model
        # Each component's domain: the one whose variable is true.
        comp_domains = [
            next(compress(vars_, map(model.__getitem__, vars_.values())))
            for vars_ in pd_var
        ]
        comp_of = self.quotient.comp_of

        def broken(domains: List[str]) -> int:
            return sum(
                1
                for a, b in self.graph.assignment_edges
                if domains[comp_of[a]] != domains[comp_of[b]]
            )

        replaces_raw = broken(comp_domains)
        if self.minimize:
            comp_domains = minimize_replaces(
                self.graph, self.quotient, self.comp_candidates, comp_domains
            )
        replaces_final = broken(comp_domains)
        node_domains = {
            node.node_id: comp_domains[comp_of[node.node_id]]
            for node in self.graph.nodes
        }
        owner_domains = {
            key: {attr: node_domains[nid] for attr, nid in mapping.items()}
            for key, mapping in self.graph.owner_maps.items()
        }
        stats = {
            "sat_components": len(pd_var),
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
    quotient: EqualityQuotient,
    comp_candidates: List[List[str]],
    comp_domains: List[str],
) -> List[str]:
    """Greedy post-pass reducing the number of replace operations.

    The SAT solver returns *some* valid assignment, one domain per
    equality component; it has no objective, so it may break more
    assignment edges (=> insert more replaces) than necessary.  The
    paper's formulation already rules out replaces "without reason";
    this pass goes further, hill-climbing over the components: a
    component without a specified attribute may switch to any of its
    candidate domains that stays conflict-free, if doing so strictly
    reduces the number of assignment edges whose endpoints differ and
    every component stays on a flow path.  Constraints 1-5 are preserved
    by construction; the flow-path check keeps clauses 6-7, which a move
    could otherwise break by stranding a neighbour that a conflict keeps
    from following (``validate_assignment`` is re-checked in tests).
    """
    comp_of = quotient.comp_of
    fixed = {comp_of[n] for n in graph.specified}
    # Conflict and assignment adjacency at component level.
    conflicts: Dict[int, List[int]] = defaultdict(list)
    for a, b in graph.conflict_edges:
        ca, cb = comp_of[a], comp_of[b]
        conflicts[ca].append(cb)
        conflicts[cb].append(ca)
    assign_neighbors: Dict[int, List[int]] = defaultdict(list)
    for a, b in graph.assignment_edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            assign_neighbors[ca].append(cb)
            assign_neighbors[cb].append(ca)

    comp_pd = list(comp_domains)

    def all_on_flow_paths() -> bool:
        reached = set(fixed)
        stack = list(fixed)
        while stack:
            comp = stack.pop()
            for other in assign_neighbors.get(comp, ()):
                if other not in reached and comp_pd[other] == comp_pd[comp]:
                    reached.add(other)
                    stack.append(other)
        return len(reached) == len(comp_pd)

    changed = True
    while changed:
        changed = False
        for comp in range(len(comp_pd)):
            if comp in fixed:
                continue
            current = comp_pd[comp]
            # The assignment edges a domain breaks: those to neighbours
            # in other domains.
            domains = [comp_pd[o] for o in assign_neighbors.get(comp, ())]
            degree = len(domains)
            current_cost = degree - domains.count(current)
            if not current_cost:
                continue  # no move can break fewer
            same = Counter(domains)
            banned = {comp_pd[c] for c in conflicts.get(comp, ())}
            # Cheapest first; ties keep candidate order.
            moves = sorted(
                (
                    (degree - same[pd], pd)
                    for pd in comp_candidates[comp]
                    if pd not in banned and pd != current
                ),
                key=lambda move: move[0],
            )
            for cost, pd in moves:
                if cost >= current_cost:
                    break
                comp_pd[comp] = pd
                if all_on_flow_paths():
                    changed = True
                    break
                comp_pd[comp] = current
    return comp_pd


def validate_assignment(
    graph: ConstraintGraph,
    node_domains: Dict[int, str],
    physdoms: Optional[Dict[str, int]] = None,
    domain_bits: Optional[Dict[str, int]] = None,
) -> List[str]:
    """Check an assignment against the validity constraints of 3.3.2.

    Returns a list of violation descriptions (empty when valid): an
    unassigned attribute, a broken conflict, equality or specification
    constraint, and an attribute on no flow path (clauses 6-7: it must
    be reached from a specified attribute through equality and
    assignment edges whose attributes all carry that one's domain).
    With the physical domains' widths (``physdoms``) and the attribute
    domains' (``domain_bits``), also reports every attribute placed in
    a physical domain too narrow for it.  Used by tests and benchmarks.
    """
    if (physdoms is None) != (domain_bits is None):
        raise TypeError("pass physdoms and domain_bits together")
    problems: List[str] = []
    for node in graph.nodes:
        pd = node_domains.get(node.node_id)
        if pd is None:
            problems.append(f"node {node.node_id} ({node.attr}) unassigned")
        elif physdoms is not None:
            needed, has = domain_bits[node.domain], physdoms.get(pd, 0)
            if has < needed:
                problems.append(
                    f"node {node.node_id} ({node.attr}) needs {needed} "
                    f"bits, physical domain {pd} has {has}"
                )
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
    adj = graph.adjacency()
    reached = set(graph.specified)
    stack = list(reached)
    while stack:
        x = stack.pop()
        pd = node_domains.get(x)
        for y in adj[x]:
            if y not in reached and node_domains.get(y) == pd:
                reached.add(y)
                stack.append(y)
    for node in graph.nodes:
        pd = node_domains.get(node.node_id)
        if node.node_id not in reached and pd is not None:
            problems.append(
                f"node {node.node_id} ({node.attr}) in {pd} lies on no "
                "flow path from a specified attribute"
            )
    return problems
