"""Side-effect analysis (Figure 2's Side-effect Analysis module).

For every method, the (object, field) pairs it may read and write --
directly, and transitively through the methods it calls.  This is the
analysis the paper quotes in section 5: 803 non-comment lines of plain
Java versus 124 lines of Jedd, thanks to the BDD representation of the
"large, highly redundant sets of side effects".
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.analyses.callgraph import naive_call_graph
from repro.analyses.facts import ProgramFacts
from repro.analyses.pointsto import naive_points_to
from repro.analyses.universe import AnalysisUniverse
from repro.relations import ExecutionPolicy, FixpointEngine, Relation

__all__ = ["SideEffects", "naive_side_effects"]


class SideEffects:
    """BDD-based read/write effect sets."""

    def __init__(
        self,
        au: AnalysisUniverse,
        pt: Relation,
        call_edges: Relation,
        policy: ExecutionPolicy | str | None = None,
    ) -> None:
        self.au = au
        self.pt = pt
        self.call_edges = call_edges  # (caller, callee)
        self.policy = ExecutionPolicy.of(policy)
        self.engine = self.policy.engine
        self.writes: Relation | None = None
        self.reads: Relation | None = None

    def _direct(self) -> Tuple[Relation, Relation]:
        """Direct effects: (method, baseobj, field) per store/load."""
        au = self.au
        with au.universe.scope() as sc:
            mv_base = au.method_var().rename({"var": "basevar"})
            pt_base = self.pt.rename({"var": "basevar", "obj": "baseobj"})
            store_bf = au.store().project_away("srcvar")  # (basevar, field)
            writes = store_bf.join(mv_base, ["basevar"], ["basevar"]).compose(
                pt_base, ["basevar"], ["basevar"]
            )  # (field, method, baseobj)
            load_bf = au.load().project_away("dstvar")  # (basevar, field)
            reads = load_bf.join(mv_base, ["basevar"], ["basevar"]).compose(
                pt_base, ["basevar"], ["basevar"]
            )
            reads = sc.keep(reads.project_onto("method", "baseobj", "field"))
            writes = sc.keep(writes.project_onto("method", "baseobj", "field"))
        return reads, writes

    def solve(self) -> Tuple[Relation, Relation]:
        """Returns (reads, writes), schema (method, baseobj, field).

        Effects propagate from callees to callers over the call graph
        until a fixpoint.
        """
        reads, writes = self._direct()
        if self.engine != "naive":
            eng = FixpointEngine(self.au.universe, self.policy)
            eng.fact("calls", self.call_edges)
            eng.relation("reads", reads)
            eng.relation("writes", writes)
            for name in ("reads", "writes"):
                # caller inherits callee effects
                eng.rule(
                    name,
                    {"method": "caller", "baseobj": "baseobj",
                     "field": "field"},
                    [
                        ("calls", {"caller": "caller", "callee": "callee"}),
                        (name, {"method": "callee", "baseobj": "baseobj",
                                "field": "field"}),
                    ],
                )
            solution = eng.solve()
            self.reads = solution["reads"]
            self.writes = solution["writes"]
            return self.reads, self.writes
        edges = self.call_edges  # (caller, callee)
        while True:
            # caller inherits callee effects
            inherited_w = edges.compose(
                writes.rename({"method": "callee"}), ["callee"], ["callee"]
            ).rename({"caller": "method"})
            inherited_r = edges.compose(
                reads.rename({"method": "callee"}), ["callee"], ["callee"]
            ).rename({"caller": "method"})
            new_writes = writes | inherited_w
            new_reads = reads | inherited_r
            if new_writes == writes and new_reads == reads:
                self.reads, self.writes = reads, writes
                return reads, writes
            reads, writes = new_reads, new_writes


def naive_side_effects(
    facts: ProgramFacts,
) -> Tuple[Set[Tuple[str, str, str]], Set[Tuple[str, str, str]]]:
    """Reference implementation; returns (reads, writes) triples
    (method, baseobj, field)."""
    pt, _ = naive_points_to(facts)
    pt_map: Dict[str, Set[str]] = {}
    for var, obj in pt:
        pt_map.setdefault(var, set()).add(obj)
    var_method: Dict[str, str] = {}
    for method, var in facts.method_vars:
        var_method[var] = method
    reads: Set[Tuple[str, str, str]] = set()
    writes: Set[Tuple[str, str, str]] = set()
    for base, f, _src in facts.stores:
        m = var_method.get(base)
        if m is None:
            continue
        for bo in pt_map.get(base, ()):
            writes.add((m, bo, f))
    for _dst, base, f in facts.loads:
        m = var_method.get(base)
        if m is None:
            continue
        for bo in pt_map.get(base, ()):
            reads.add((m, bo, f))
    # transitive propagation over the call graph
    edges = naive_call_graph(facts)
    changed = True
    while changed:
        changed = False
        for caller, callee in edges:
            for m, bo, f in list(writes):
                if m == callee and (caller, bo, f) not in writes:
                    writes.add((caller, bo, f))
                    changed = True
            for m, bo, f in list(reads):
                if m == callee and (caller, bo, f) not in reads:
                    reads.add((caller, bo, f))
                    changed = True
    return reads, writes
