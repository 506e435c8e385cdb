"""Backend adapters: one relational operation set, two diagram engines.

Section 4.1 of the paper stresses that Jedd programs run unmodified on
different decision-diagram backends (BuDDy, CUDD, and an in-progress ZDD
backend).  The relation layer therefore talks to this small adapter
interface rather than to a manager directly.

The essential semantic difference the adapters hide: in the BDD
encoding, bits not used by a relation are *wildcards* (any value), so a
join is a plain conjunction; in the ZDD encoding an absent bit means
**0**, so the adapter inserts explicit don't-care expansion over the
other operand's private bits before intersecting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.bdd import FALSE, TRUE, BDDManager, ZDDManager
from repro.telemetry import traced as _traced
from repro.bdd.zdd import BASE, EMPTY

__all__ = [
    "DiagramBackend",
    "BDDBackend",
    "ZDDBackend",
    "PipelineStep",
]


@dataclass(frozen=True)
class PipelineStep:
    """One conjunct of a fused relational product (see
    :meth:`DiagramBackend.relprod_pipeline`).

    ``b`` is the operand diagram.  Before the conjunction the two sides
    are aligned (attribute -> shared physical domain moves, as variable
    permutations): ``b_perm`` moves the operand, ``a_perm`` the running
    result; the planner sets whichever moves fewer bits, so usually
    only one is non-empty.  ``cmp_levels`` / ``a_only_levels`` /
    ``b_only_levels`` describe the post-alignment level sets exactly as
    for :meth:`DiagramBackend.match`.  ``exist_levels`` are quantified
    away after the conjunction: the variables dead after this step —
    not automatically the compared ones, which later conjuncts may
    still need.
    """

    b: int
    cmp_levels: Sequence[int] = ()
    a_only_levels: Sequence[int] = ()
    b_only_levels: Sequence[int] = ()
    exist_levels: Sequence[int] = ()
    b_perm: Dict[int, int] = field(default_factory=dict)
    a_perm: Dict[int, int] = field(default_factory=dict)


class DiagramBackend:
    """Abstract relational operations over diagram node handles."""

    name = "abstract"

    def __init__(self, manager) -> None:
        self.manager = manager

    # Constants ---------------------------------------------------------
    def empty(self) -> int:
        """Handle of the empty relation (0B)."""
        raise NotImplementedError

    def full(self, levels: Sequence[int]) -> int:
        """Handle of the full relation (1B) over the given used levels."""
        raise NotImplementedError

    # Construction ------------------------------------------------------
    def cube(self, assignment: Dict[int, bool]) -> int:
        """Single tuple: a complete assignment of the used levels."""
        raise NotImplementedError

    def from_keys(self, variables: Sequence[int], keys: Iterable[int]) -> int:
        """Many tuples at once: the union of one cube per key, built in
        one bottom-up pass with no apply work.

        Bit ``p`` of each key is the value of ``variables[p]``.
        """
        raise NotImplementedError

    # Set algebra (operands must use the same level set) ----------------
    def union(self, a: int, b: int) -> int:
        raise NotImplementedError

    def intersect(self, a: int, b: int) -> int:
        raise NotImplementedError

    def diff(self, a: int, b: int) -> int:
        raise NotImplementedError

    # Attribute operations ----------------------------------------------
    def project(self, a: int, levels: Iterable[int]) -> int:
        """Remove the given levels (existential quantification)."""
        raise NotImplementedError

    def match(
        self,
        a: int,
        b: int,
        cmp_levels: Sequence[int],
        a_only_levels: Sequence[int],
        b_only_levels: Sequence[int],
        quantify: bool,
    ) -> int:
        """Join (``quantify=False``) or compose (``True``) at diagram level.

        ``cmp_levels`` are shared by both operands (the compared
        attributes, pre-aligned to the same physical domains);
        ``a_only_levels``/``b_only_levels`` are private to one operand.
        """
        raise NotImplementedError

    def replace(self, a: int, perm: Dict[int, int]) -> int:
        """Move bits between physical domains (level permutation)."""
        raise NotImplementedError

    def equality(
        self,
        levels_a: Sequence[int],
        levels_b: Sequence[int],
        values: Sequence[int],
    ) -> int:
        """Relation {(v, v)} used for attribute copying.

        ``levels_a[j]``/``levels_b[j]`` hold bit j.  ``values`` lists the
        interned integer encodings present in the attribute's domain (the
        BDD backend may ignore it and equate all bit patterns).
        """
        raise NotImplementedError

    # Inspection ----------------------------------------------------------
    def count(self, a: int, levels: Sequence[int]) -> int:
        """Number of tuples over the given used levels."""
        raise NotImplementedError

    def to_keys(self, a: int, variables: Sequence[int]) -> List[int]:
        """Every tuple as one integer key, the inverse of
        :meth:`from_keys`: bit ``p`` of each key is the value of
        ``variables[p]``, which must cover the diagram's support."""
        raise NotImplementedError

    def node_count(self, a: int) -> int:
        return self.manager.node_count(a)

    def shape(self, a: int) -> List[int]:
        return self.manager.shape(a)

    # Memory management ---------------------------------------------------
    def ref(self, a: int) -> int:
        return self.manager.ref(a)

    def deref(self, a: int) -> None:
        self.manager.deref(a)

    def maybe_gc(self) -> bool:
        return self.manager.maybe_gc()

    # Fused relational products -------------------------------------------
    def relprod_pipeline(self, a: int, steps: Sequence[PipelineStep]) -> int:
        """Chain join -> project -> rename steps without materialising
        named intermediates.

        The generic implementation lowers each step to the portable
        ``match``/``project``/``replace`` primitives; the BDD backend
        overrides it to fuse each conjunction+quantification into a
        single ``and_exist`` kernel call.  Intermediate handles are
        never wrapped in :class:`Relation` objects, so no garbage
        collection can run between steps.
        """
        node = a
        for step in steps:
            if step.a_perm:
                node = self.replace(node, step.a_perm)
            b = step.b
            if step.b_perm:
                b = self.replace(b, step.b_perm)
            node = self.match(
                node,
                b,
                step.cmp_levels,
                step.a_only_levels,
                step.b_only_levels,
                False,
            )
            if step.exist_levels:
                node = self.project(node, step.exist_levels)
        return node


class BDDBackend(DiagramBackend):
    """Adapter over :class:`repro.bdd.BDDManager` (the BuDDy/CUDD role)."""

    name = "bdd"

    def __init__(self, manager: BDDManager) -> None:
        super().__init__(manager)

    def empty(self) -> int:
        return FALSE

    def full(self, levels: Sequence[int]) -> int:
        # Unused bits are wildcards, so the full relation is just TRUE.
        return TRUE

    def cube(self, assignment: Dict[int, bool]) -> int:
        return self.manager.cube(assignment)

    @_traced("bdd.from_keys", "kernel")
    def from_keys(self, variables, keys) -> int:
        return self.manager.from_keys(variables, keys)

    @_traced("bdd.union", "kernel")
    def union(self, a: int, b: int) -> int:
        return self.manager.apply_or(a, b)

    @_traced("bdd.intersect", "kernel")
    def intersect(self, a: int, b: int) -> int:
        return self.manager.apply_and(a, b)

    @_traced("bdd.diff", "kernel")
    def diff(self, a: int, b: int) -> int:
        return self.manager.apply_diff(a, b)

    @_traced("bdd.project", "kernel")
    def project(self, a: int, levels: Iterable[int]) -> int:
        return self.manager.exist(a, levels)

    @_traced("bdd.match", "kernel")
    def match(self, a, b, cmp_levels, a_only_levels, b_only_levels, quantify):
        # Private bits are wildcards in the other operand: plain AND works
        # (paper 3.2.2); compose fuses the projection (bdd_appex).
        if quantify:
            return self.manager.and_exist(a, b, cmp_levels)
        return self.manager.apply_and(a, b)

    @_traced("bdd.replace", "kernel")
    def replace(self, a: int, perm: Dict[int, int]) -> int:
        return self.manager.replace(a, perm)

    def equality(self, levels_a, levels_b, values) -> int:
        node = TRUE
        for la, lb in zip(levels_a, levels_b):
            both = self.manager.apply_and(
                self.manager.var(la), self.manager.var(lb)
            )
            neither = self.manager.apply_and(
                self.manager.nvar(la), self.manager.nvar(lb)
            )
            node = self.manager.apply_and(
                node, self.manager.apply_or(both, neither)
            )
        return node

    @_traced("bdd.count", "kernel")
    def count(self, a: int, levels: Sequence[int]) -> int:
        return self.manager.sat_count(a, levels)

    @_traced("bdd.to_keys", "kernel")
    def to_keys(self, a: int, variables: Sequence[int]) -> List[int]:
        return self.manager.to_keys(a, variables)

    @_traced("bdd.relprod_pipeline", "kernel")
    def relprod_pipeline(self, a: int, steps: Sequence[PipelineStep]) -> int:
        # Each step becomes one and_exist (bdd_appex): the conjunction
        # and the quantification of the step's dead variables share a
        # single traversal and one cache, which is where the semi-naive
        # engine's kernel savings come from.
        m = self.manager
        node = a
        for step in steps:
            if step.a_perm:
                node = m.replace(node, step.a_perm)
            b = step.b
            if step.b_perm:
                b = m.replace(b, step.b_perm)
            if step.exist_levels:
                node = m.and_exist(node, b, step.exist_levels)
            else:
                node = m.apply_and(node, b)
        return node


class ZDDBackend(DiagramBackend):
    """Adapter over :class:`repro.bdd.ZDDManager` (section 4.1's ZDD plan)."""

    name = "zdd"

    def __init__(self, manager: ZDDManager) -> None:
        super().__init__(manager)

    def empty(self) -> int:
        return EMPTY

    def full(self, levels: Sequence[int]) -> int:
        return self.manager.dontcare(BASE, levels)

    def cube(self, assignment: Dict[int, bool]) -> int:
        return self.manager.cube(assignment)

    @_traced("zdd.from_keys", "kernel")
    def from_keys(self, variables, keys) -> int:
        return self.manager.from_keys(variables, keys)

    @_traced("zdd.union", "kernel")
    def union(self, a: int, b: int) -> int:
        return self.manager.union(a, b)

    @_traced("zdd.intersect", "kernel")
    def intersect(self, a: int, b: int) -> int:
        return self.manager.intersect(a, b)

    @_traced("zdd.diff", "kernel")
    def diff(self, a: int, b: int) -> int:
        return self.manager.diff(a, b)

    @_traced("zdd.project", "kernel")
    def project(self, a: int, levels: Iterable[int]) -> int:
        return self.manager.exist(a, levels)

    @_traced("zdd.match", "kernel")
    def match(self, a, b, cmp_levels, a_only_levels, b_only_levels, quantify):
        # Absent bits mean 0 in ZDDs, so each operand must be expanded
        # over the other's private bits before intersecting.
        a_exp = self.manager.dontcare(a, b_only_levels)
        b_exp = self.manager.dontcare(b, a_only_levels)
        joined = self.manager.intersect(a_exp, b_exp)
        if quantify:
            return self.manager.exist(joined, cmp_levels)
        return joined

    @_traced("zdd.replace", "kernel")
    def replace(self, a: int, perm: Dict[int, int]) -> int:
        return self.manager.replace(a, perm)

    def equality(self, levels_a, levels_b, values) -> int:
        pairs = list(zip(levels_a, levels_b))
        width = len(pairs)
        variables = [la for la, _ in pairs] + [lb for _, lb in pairs]
        return self.from_keys(variables, [v | v << width for v in values])

    @_traced("zdd.count", "kernel")
    def count(self, a: int, levels: Sequence[int]) -> int:
        return self.manager.count(a)

    @_traced("zdd.to_keys", "kernel")
    def to_keys(self, a: int, variables: Sequence[int]) -> List[int]:
        return self.manager.to_keys(a, variables)


def _backend_for(manager) -> DiagramBackend:
    """Wrap a manager in the matching adapter (internal)."""
    if isinstance(manager, BDDManager):
        return BDDBackend(manager)
    if isinstance(manager, ZDDManager):
        return ZDDBackend(manager)
    raise TypeError(f"unsupported manager type {type(manager).__name__}")

