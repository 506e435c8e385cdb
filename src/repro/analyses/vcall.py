"""Virtual call resolution (section 2.2 / Figure 4).

Given receiver types and method signatures at call sites, finds the
target method by searching up the class hierarchy -- for an entire
relation at once, exactly as the Jedd code in Figure 4 does.
:func:`naive_resolve` resolves one (type, signature) pair at a time and
serves as the oracle.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.analyses.facts import ProgramFacts
from repro.analyses.universe import AnalysisUniverse
from repro.relations import ExecutionPolicy, FixpointEngine, Relation

__all__ = ["VirtualCallResolver", "naive_resolve"]


class VirtualCallResolver:
    """BDD-based resolution, one loop iteration per hierarchy level."""

    def __init__(
        self,
        au: AnalysisUniverse,
        policy: ExecutionPolicy | str | None = None,
    ) -> None:
        self.au = au
        self.declares = au.declares_method()
        self.extend = au.extend()
        self.policy = ExecutionPolicy.of(policy)

    def resolve(self, receiver_types: Relation) -> Relation:
        """Figure 4's ``resolve``.

        ``receiver_types`` has schema (rectype, signature); the answer
        has schema (rectype, signature, tgttype, method) where tgttype
        is the class that actually implements the method.  Figure 4's
        loop runs as rules: ``walk`` carries the (rectype, signature)
        pairs up the hierarchy, stopping at the first class that
        declares the signature; ``answer`` collects the stops.
        """
        u = self.au.universe
        eng = FixpointEngine(u, self.policy)
        eng.fact("declares", self.declares)
        # (type, signature) pairs with *some* declaration -- the
        # stratified-negation guard for "keep walking".
        eng.fact("declared_at", self.declares.project_away("method"))
        eng.fact("extends", self.extend)
        eng.relation(
            "walk",
            receiver_types.copy("rectype", ["rectype", "tgttype"], ["T2"]),
        )
        eng.relation(
            "answer",
            Relation.empty(
                u,
                ["rectype", "signature", "tgttype", "method"],
                ["T1", "S1", "T2", "M1"],
            ),
        )
        eng.rule(
            "answer",
            {"rectype": "rectype", "signature": "signature",
             "tgttype": "tgttype", "method": "method"},
            [
                ("walk", {"rectype": "rectype", "signature": "signature",
                          "tgttype": "tgttype"}),
                ("declares", {"type": "tgttype", "signature": "signature",
                              "method": "method"}),
            ],
        )
        eng.rule(
            "walk",
            {"rectype": "rectype", "signature": "signature",
             "tgttype": "supertype"},
            [
                ("walk", {"rectype": "rectype", "signature": "signature",
                          "tgttype": "tgttype"}),
                ("!declared_at", {"type": "tgttype",
                                  "signature": "signature"}),
                ("extends", {"subtype": "tgttype",
                             "supertype": "supertype"}),
            ],
        )
        return eng.solve()["answer"]


def naive_resolve(
    facts: ProgramFacts, receiver_types: Set[Tuple[str, str]]
) -> Set[Tuple[str, str, str, str]]:
    """Reference: per-pair chain walking via ProgramFacts.resolve."""
    out = set()
    table = facts.declares_map()
    for rectype, signature in receiver_types:
        for anc in facts.ancestors(rectype):
            method = table.get((anc, signature))
            if method is not None:
                out.add((rectype, signature, anc, method))
                break
    return out
