"""Subset-based points-to analysis (Berndl et al. [5], as used in 5).

Computes, for every variable, the set of allocation sites it may point
to, with field-sensitive heap propagation:

- ``pt(var, obj)``      -- variable may point to object,
- ``hpt(baseobj, field, srcobj)`` -- object's field may point to object.

Rules iterated to a simultaneous fixpoint:

1. allocation:   ``v = new T()``          => pt(v, o)
2. assignment:   ``d = s``                => pt(d, *) >= pt(s, *)
3. field store:  ``b.f = s``              => hpt(o_b, f, o_s)
4. field load:   ``d = b.f``              => pt(d, *) >= hpt(pt(b), f, *)

The rules run on the semi-naive
:class:`~repro.relations.fixpoint.FixpointEngine` (each round joins
only the previous round's delta), with rules 3 and 4 split through the
intermediate joins ``sp(baseobj, field, srcvar)`` and
``lp(dstvar, field, baseobj)`` so that every rule body is one binary
join, as in the hand-coded solver.  The whole-relation loop of the
paper is its own Jedd program (``jedd_sources.POINTSTO_BODY``);
:func:`naive_points_to` runs the same chaotic iteration on Python sets
as the test oracle.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.analyses.facts import ProgramFacts
from repro.analyses.universe import AnalysisUniverse
from repro.relations import ExecutionPolicy, FixpointEngine, Relation

__all__ = ["PointsTo", "naive_points_to"]


class PointsTo:
    """BDD-based points-to solver over an analysis universe.

    With ``type_filter=True`` the solver applies the declared-type
    filtering of Berndl et al. [5]: a variable may only point to objects
    whose runtime type is a subtype of the variable's declared type.
    This both sharpens the analysis and (as the original paper found)
    keeps the intermediate BDDs smaller.
    """

    def __init__(
        self,
        au: AnalysisUniverse,
        type_filter: bool = False,
        policy: ExecutionPolicy | str | None = None,
    ) -> None:
        self.au = au
        self.alloc = au.alloc()
        self.assign = au.assign()
        self.store = au.store()
        self.load = au.load()
        self.type_filter = type_filter
        self.policy = ExecutionPolicy.of(policy)
        self.fixpoint: FixpointEngine | None = None
        self.compat: Relation | None = None
        self.pt: Relation | None = None
        self.hpt: Relation | None = None
        #: number of fixpoint iterations, for the profiler story
        self.iterations = 0

    def _compatibility(self) -> Relation:
        """(var, obj) pairs allowed by declared types."""
        from repro.analyses.hierarchy import Hierarchy

        au = self.au
        with au.universe.scope() as sc:
            subtype = Hierarchy(au).subtype  # (subtype, supertype)
            obj_sub = au.alloc_type().rename({"type": "subtype"})
            var_super = au.rel(
                ["var", "supertype"], au.facts.var_types, ["V1", "T2"]
            )
            obj_super = obj_sub.compose(
                subtype, ["subtype"], ["subtype"]
            )  # (obj, supertype)
            return sc.keep(obj_super.compose(
                var_super, ["supertype"], ["supertype"]
            ))  # (obj, var)

    def solve(self) -> Relation:
        """Run to fixpoint; returns ``pt`` (schema var, obj)."""
        if self.type_filter:
            self.compat = self._compatibility()
        au = self.au
        eng = FixpointEngine(au.universe, self.policy)
        self.fixpoint = eng
        eng.fact("assign", self.assign)
        eng.fact("store", self.store)
        eng.fact("load", self.load)
        eng.relation("pt", self.alloc)
        eng.relation(
            "hpt",
            Relation.empty(
                au.universe,
                ["baseobj", "field", "srcobj"],
                ["H1", "F1", "H2"],
            ),
        )
        # The store and load rules each join two recursive atoms; they
        # are split through the intermediate joins the hand-coded
        # solver builds (its s1 and l1), so every rule body is one
        # binary join and no relation appears twice in a body.
        eng.relation(
            "sp",
            Relation.empty(
                au.universe,
                ["baseobj", "field", "srcvar"],
                ["H1", "F1", "V2"],
            ),
        )
        eng.relation(
            "lp",
            Relation.empty(
                au.universe,
                ["dstvar", "field", "baseobj"],
                ["V1", "F1", "H1"],
            ),
        )
        if self.compat is not None:
            eng.filter("pt", self.compat)
        # rule 2: assignments (dst inherits src's points-to set)
        eng.rule("pt", ("dstvar", "obj"), [
            ("assign", ("dstvar", "srcvar")),
            ("pt", {"var": "srcvar", "obj": "obj"}),
        ])
        # rule 3: stores populate the heap
        eng.rule("sp", ("baseobj", "field", "srcvar"), [
            ("store", ("basevar", "field", "srcvar")),
            ("pt", {"var": "basevar", "obj": "baseobj"}),
        ])
        eng.rule("hpt", ("baseobj", "field", "srcobj"), [
            ("sp", ("baseobj", "field", "srcvar")),
            ("pt", {"var": "srcvar", "obj": "srcobj"}),
        ])
        # rule 4: loads read the heap
        eng.rule("lp", ("dstvar", "field", "baseobj"), [
            ("load", ("dstvar", "basevar", "field")),
            ("pt", {"var": "basevar", "obj": "baseobj"}),
        ])
        eng.rule("pt", ("dstvar", "srcobj"), [
            ("lp", ("dstvar", "field", "baseobj")),
            ("hpt", ("baseobj", "field", "srcobj")),
        ])
        solution = eng.solve()
        self.pt = solution["pt"]
        self.hpt = solution["hpt"]
        self.iterations = eng.iterations
        return self.pt


def naive_points_to(
    facts: ProgramFacts,
    type_filter: bool = False,
) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str, str]]]:
    """Reference chaotic iteration on Python sets."""
    allowed = None
    if type_filter:
        declared = dict(facts.var_types)
        obj_type = dict(facts.alloc_types)
        ancestors = {c: set(facts.ancestors(c)) for c in facts.classes}

        def ok(var: str, obj: str) -> bool:
            return declared.get(var) in ancestors[obj_type[obj]]

        allowed = ok
    pt: Set[Tuple[str, str]] = {
        (v, o) for v, o in facts.allocs if allowed is None or allowed(v, o)
    }
    hpt: Set[Tuple[str, str, str]] = set()
    pt_map: Dict[str, Set[str]] = {}
    changed = True
    while changed:
        changed = False
        pt_map.clear()
        for var, obj in pt:
            pt_map.setdefault(var, set()).add(obj)
        for dst, src in facts.assigns:
            for obj in pt_map.get(src, ()):
                if (dst, obj) not in pt and (
                    allowed is None or allowed(dst, obj)
                ):
                    pt.add((dst, obj))
                    changed = True
        for base, f, src in facts.stores:
            for bo in pt_map.get(base, ()):
                for so in pt_map.get(src, ()):
                    if (bo, f, so) not in hpt:
                        hpt.add((bo, f, so))
                        changed = True
        for dst, base, f in facts.loads:
            for bo in pt_map.get(base, ()):
                for (bo2, f2, so) in list(hpt):
                    if (
                        bo2 == bo
                        and f2 == f
                        and (dst, so) not in pt
                        and (allowed is None or allowed(dst, so))
                    ):
                        pt.add((dst, so))
                        changed = True
    return pt, hpt
