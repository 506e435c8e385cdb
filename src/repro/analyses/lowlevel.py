"""Hand-coded low-level BDD points-to analysis (the Table 2 baseline).

The paper compares Jedd-generated code against the hand-written C++
points-to solver of Berndl et al. [5], which calls BuDDy directly and
manages physical domains and replace operations by hand.  This module
plays that role: it uses :class:`repro.bdd.BDDManager` directly --
no relations, no schema checks, no automatic alignment, hand-picked
variable levels, and explicit reference counting -- implementing the
identical algorithm as ``repro.analyses.pointsto.PointsTo``.

It exists to measure the *overhead* of the Jedd abstraction (the paper
reports 0.5%-4%), so it deliberately mirrors what careful hand-written
code looks like against a raw BDD library.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analyses.facts import ProgramFacts
from repro.bdd import FALSE, BDDError, BDDManager

__all__ = ["LowLevelPointsTo"]


class _Dom:
    """A hand-managed physical domain: a block of interleaved levels."""

    def __init__(self, levels: List[int]) -> None:
        self.levels = levels  # index 0 = least significant bit
        self.bits = len(levels)


class LowLevelPointsTo:
    """Direct-BDD points-to solver with hand-assigned domains.

    Domain layout (interleaved within each family, as a tuned
    hand-coded solver would choose): V1/V2 for variables, H1/H2 for
    objects, F1 for fields.
    """

    def __init__(self, facts: ProgramFacts) -> None:
        self.facts = facts
        self._vars: Dict[str, int] = {}
        self._objs: Dict[str, int] = {}
        self._fields: Dict[str, int] = {}
        for v in facts.variables:
            self._vars.setdefault(v, len(self._vars))
        for _, site in facts.allocs:
            self._objs.setdefault(site, len(self._objs))
        for f in facts.fields:
            self._fields.setdefault(f, len(self._fields))
        v_bits = max(1, (max(len(self._vars), 2) - 1).bit_length())
        o_bits = max(1, (max(len(self._objs), 2) - 1).bit_length())
        f_bits = max(1, (max(len(self._fields), 2) - 1).bit_length())
        total = 2 * v_bits + 2 * o_bits + f_bits
        self.m = BDDManager(total)
        # Interleave V1/V2, then H1/H2, then F1 (most significant first).
        next_level = 0
        v1, v2 = [0] * v_bits, [0] * v_bits
        for i in range(v_bits):
            v1[v_bits - 1 - i] = next_level
            next_level += 1
            v2[v_bits - 1 - i] = next_level
            next_level += 1
        h1, h2 = [0] * o_bits, [0] * o_bits
        for i in range(o_bits):
            h1[o_bits - 1 - i] = next_level
            next_level += 1
            h2[o_bits - 1 - i] = next_level
            next_level += 1
        f1 = [0] * f_bits
        for i in range(f_bits):
            f1[f_bits - 1 - i] = next_level
            next_level += 1
        self.V1, self.V2 = _Dom(v1), _Dom(v2)
        self.H1, self.H2 = _Dom(h1), _Dom(h2)
        self.F1 = _Dom(f1)
        self.iterations = 0
        self.pt = FALSE
        self.hpt = FALSE

    # -- encoding ---------------------------------------------------------

    def _encode(self, rows, spec) -> int:
        # One key per row, the fields packed least significant first,
        # then one bottom-up build: the same kernel primitive the
        # relational layer encodes its facts with.
        variables = [level for dom, _ in spec for level in dom.levels]
        keys = []
        for row in rows:
            key = 0
            offset = 0
            for (dom, table), obj in zip(spec, row):
                key |= table[obj] << offset
                offset += dom.bits
            keys.append(key)
        return self.m.from_keys(variables, keys)

    def _perm(self, moves: Sequence[Tuple[_Dom, _Dom]]) -> Dict[int, int]:
        perm: Dict[int, int] = {}
        for src, dst in moves:
            for a, b in zip(src.levels, dst.levels):
                perm[a] = b
        return perm

    # -- the solver ---------------------------------------------------------

    def solve(self) -> int:
        """Run to fixpoint; returns the pt BDD (V1 x H1)."""
        m = self.m
        facts = self.facts
        # Input BDDs, hand-encoded into fixed physical domains.
        alloc = self._encode(
            facts.allocs, [(self.V1, self._vars), (self.H1, self._objs)]
        )
        # assign: dst in V1, src in V2
        assign = self._encode(
            facts.assigns, [(self.V1, self._vars), (self.V2, self._vars)]
        )
        # store: base in V1, field in F1, src in V2
        store = self._encode(
            facts.stores,
            [(self.V1, self._vars), (self.F1, self._fields),
             (self.V2, self._vars)],
        )
        # load: dst in V1, base in V2, field in F1
        load = self._encode(
            facts.loads,
            [(self.V1, self._vars), (self.V2, self._vars),
             (self.F1, self._fields)],
        )
        v1_to_v2 = self._perm([(self.V1, self.V2)])
        h1_to_h2 = self._perm([(self.H1, self.H2)])
        h2_to_h1 = self._perm([(self.H2, self.H1)])
        pt = m.ref(alloc)
        hpt = m.ref(FALSE)
        while True:
            self.iterations += 1
            # rule 2: pt |= exists v2. assign(v1,v2) & pt[v1->v2](v2,h1)
            pt_src = m.replace(pt, v1_to_v2)  # (V2, H1)
            flow = m.and_exist(assign, pt_src, self.V2.levels)
            new_pt = m.apply_or(pt, flow)
            # rule 3: hpt |= exists v1,v2. store & pt(base) & pt(src)
            s1 = m.and_exist(store, pt, self.V1.levels)  # (F1,V2,H1)
            pt_src_obj2 = m.replace(pt_src, h1_to_h2)  # (V2, H2)
            s2 = m.and_exist(s1, pt_src_obj2, self.V2.levels)  # (F1,H1,H2)
            new_hpt = m.apply_or(hpt, s2)
            # rule 4: pt |= exists v2,h1',f. load & pt(base) & hpt
            l1 = m.and_exist(load, pt_src, self.V2.levels)  # (V1,F1,H1)
            l2 = m.and_exist(
                l1, new_hpt, self.H1.levels + self.F1.levels
            )  # (V1, H2)
            l3 = m.replace(l2, h2_to_h1)  # (V1, H1)
            new_pt = m.apply_or(new_pt, l3)
            if new_pt == pt and new_hpt == hpt:
                self.pt = pt
                self.hpt = hpt
                return pt
            # Hand-managed reference counts, as a C solver would do.
            m.deref(pt)
            m.deref(hpt)
            pt = m.ref(new_pt)
            hpt = m.ref(new_hpt)
            m.maybe_gc()

    # -- extraction (for the tests' cross-check) ----------------------------

    def pt_tuples(self) -> Set[Tuple[str, str]]:
        """Decode the pt BDD back to (variable, object) pairs.

        Raises :class:`BDDError` if a pair holds an index that no
        variable or object was given, rather than dropping it.
        """
        inv_vars = list(self._vars)
        inv_objs = list(self._objs)
        v_bits = self.V1.bits
        v_mask = (1 << v_bits) - 1
        out: Set[Tuple[str, str]] = set()
        levels = self.V1.levels + self.H1.levels
        for key in self.m.to_keys(self.pt, levels):
            v, o = key & v_mask, key >> v_bits
            if v >= len(inv_vars) or o >= len(inv_objs):
                raise BDDError(
                    f"pt holds ({v}, {o}), outside the {len(inv_vars)} "
                    f"variable(s) and {len(inv_objs)} object(s) interned"
                )
            out.add((inv_vars[v], inv_objs[o]))
        return out
