"""Call graph construction (Figure 2's Call Graph module).

Combines points-to results with virtual call resolution: the possible
runtime types of each call site's receiver determine the possible target
methods, yielding ``call_edge(site, callee)`` and the method-level graph
``calls(caller, callee)``.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.analyses.facts import ProgramFacts
from repro.analyses.pointsto import naive_points_to
from repro.analyses.universe import AnalysisUniverse
from repro.analyses.vcall import VirtualCallResolver, naive_resolve
from repro.relations import ExecutionPolicy, FixpointEngine, Relation

__all__ = ["CallGraph", "naive_call_graph"]


class CallGraph:
    """BDD-based call graph over points-to results."""

    def __init__(
        self,
        au: AnalysisUniverse,
        pt: Relation,
        policy: ExecutionPolicy | str | None = None,
    ) -> None:
        self.au = au
        self.pt = pt
        self.policy = ExecutionPolicy.of(policy)
        self.engine = self.policy.engine
        self.resolver = VirtualCallResolver(au, self.policy)
        self.site_targets: Relation | None = None
        self.edges: Relation | None = None

    def build(self) -> Relation:
        """Returns ``calls`` with schema (caller, callee)."""
        au = self.au
        with au.universe.scope() as sc:
            vc = au.virtual_calls()  # (site, var, signature)
            alloc_type = au.alloc_type()  # (obj, type)
            # The receiver's possible runtime types at each site.
            recv_objs = vc.compose(self.pt, ["var"], ["var"])  # (site, sig, obj)
            recv_types = recv_objs.compose(
                alloc_type, ["obj"], ["obj"]
            ).rename({"type": "rectype"})  # (site, signature, rectype)
            # Resolve (rectype, signature) pairs through the hierarchy.
            receiver_types = recv_types.project_away("site")
            answer = self.resolver.resolve(receiver_types)
            # (rectype, signature, tgttype, method): attach back to sites.
            targets = recv_types.join(
                answer.project_away("tgttype"),
                ["rectype", "signature"],
                ["rectype", "signature"],
            )  # (site, signature, rectype, method)
            self.site_targets = sc.keep(
                targets.project_onto("site", "method").rename(
                    {"method": "callee"}
                )
            )
            # Lift to method level through the enclosing-method relation.
            site_method = au.site_method()  # (site, caller)
            self.edges = sc.keep(
                self.site_targets.join(
                    site_method, ["site"], ["site"]
                ).project_away("site")
            )  # (callee, caller) order normalised below
        return self.edges

    def reachable_from(self, roots: Relation) -> Relation:
        """Methods transitively reachable from ``roots`` (schema: method)."""
        assert self.edges is not None, "build() first"
        if self.engine != "naive":
            eng = FixpointEngine(self.au.universe, self.policy)
            eng.fact("calls", self.edges)
            eng.relation("reached", roots)
            eng.rule("reached", ("callee",), [
                ("reached", {"method": "caller"}),
                ("calls", {"caller": "caller", "callee": "callee"}),
            ])
            return eng.solve()["reached"]
        edges = self.edges.rename({"caller": "method"})  # (method, callee)
        reached = roots
        while True:
            step = reached.compose(edges, ["method"], ["method"]).rename(
                {"callee": "method"}
            )
            new = reached | step
            if new == reached:
                return reached
            reached = new


def naive_call_graph(facts: ProgramFacts) -> Set[Tuple[str, str]]:
    """Reference: (caller, callee) pairs via naive points-to + resolve."""
    pt, _ = naive_points_to(facts)
    pt_map = {}
    for var, obj in pt:
        pt_map.setdefault(var, set()).add(obj)
    obj_type = dict(facts.alloc_types)
    site_caller = dict(facts.site_methods)
    edges = set()
    for site, recv, sig in facts.virtual_calls:
        rectypes = {obj_type[o] for o in pt_map.get(recv, ()) if o in obj_type}
        resolved = naive_resolve(
            facts, {(t, sig) for t in rectypes}
        )
        for _, _, _, method in resolved:
            edges.add((site_caller[site], method))
    return edges
