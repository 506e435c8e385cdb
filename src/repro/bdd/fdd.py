"""Finite domain blocks over the BDD manager (BuDDy's ``fdd`` layer).

Section 6.2 of the paper notes that BuDDy's *finite domain blocks*
"provide a convenient way to group together BDD variables, much like
the physical domains in Jedd".  This module reproduces that layer: a
:class:`FiniteDomain` is a block of BDD variables encoding integers in
``[0, size)``, with the operations C programmers use when hand-coding
analyses against BuDDy (``fdd_ithvar``, ``fdd_equals``,
``fdd_domain``, ``fdd_satcount``, pair-based replace).

The Jedd runtime's :class:`~repro.relations.domain.PhysicalDomain`
plays the same role one level up; this layer exists for low-level code
(like ``repro.analyses.lowlevel``) and as the historically faithful
substrate interface.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.bdd.manager import TRUE, BDDError, BDDManager

__all__ = ["FiniteDomain", "FDDManager"]


class FiniteDomain:
    """A block of BDD variables encoding integers ``0 .. size-1``."""

    def __init__(self, name: str, size: int, levels: List[int]) -> None:
        self.name = name
        self.size = size
        self.levels = levels  # index 0 = least significant bit
        self.bits = len(levels)

    def __repr__(self) -> str:
        return f"FiniteDomain({self.name!r}, size={self.size})"


class FDDManager:
    """A BDD manager with finite-domain conveniences.

    Domains are allocated with :meth:`extdomain` (BuDDy's
    ``fdd_extdomain``); by default consecutive domains declared in one
    call are bit-interleaved, the layout pair-encoded relations want.
    """

    def __init__(self) -> None:
        self.manager = BDDManager(0)
        self.domains: Dict[str, FiniteDomain] = {}

    def extdomain(
        self, specs: Sequence[Tuple[str, int]], interleave: bool = True
    ) -> List[FiniteDomain]:
        """Allocate finite domains; ``specs`` is (name, size) pairs."""
        created: List[FiniteDomain] = []
        widths = []
        for name, size in specs:
            if name in self.domains:
                raise BDDError(f"finite domain {name!r} already exists")
            if size < 1:
                raise BDDError("finite domain size must be positive")
            widths.append(max(1, (size - 1).bit_length()))
        base = self.manager.num_vars
        total = sum(widths)
        self.manager.add_vars(total)
        next_level = base
        if interleave:
            level_lists: List[List[int]] = [[0] * w for w in widths]
            for i in range(max(widths)):
                for j, w in enumerate(widths):
                    if i < w:
                        level_lists[j][w - 1 - i] = next_level
                        next_level += 1
        else:
            level_lists = []
            for w in widths:
                levels = [0] * w
                for i in range(w):
                    levels[w - 1 - i] = next_level
                    next_level += 1
                level_lists.append(levels)
        for (name, size), levels in zip(specs, level_lists):
            dom = FiniteDomain(name, size, levels)
            self.domains[name] = dom
            created.append(dom)
        return created

    # ------------------------------------------------------------------
    # Encoding (fdd_ithvar and friends)
    # ------------------------------------------------------------------

    def ithvar(self, domain: FiniteDomain | str, value: int) -> int:
        """BDD of ``domain == value`` (BuDDy's ``fdd_ithvar``)."""
        dom = self._dom(domain)
        if not 0 <= value < dom.size:
            raise BDDError(
                f"value {value} outside finite domain {dom.name} "
                f"[0, {dom.size})"
            )
        return self.manager.cube(
            {dom.levels[j]: bool(value >> j & 1) for j in range(dom.bits)}
        )

    def domain_bdd(self, domain: FiniteDomain | str) -> int:
        """BDD of ``domain < size`` (BuDDy's ``fdd_domain``).

        For sizes that are not a power of two this excludes the unused
        bit patterns.  Built in one bulk pass: the values split into at
        most one complete block per bit, so the node work is quadratic in
        the width, not linear in ``size``.
        """
        dom = self._dom(domain)
        return self.manager.from_keys(dom.levels, range(dom.size))

    def equals(
        self, a: FiniteDomain | str, b: FiniteDomain | str
    ) -> int:
        """BDD of ``a == b`` over two equal-width domains
        (BuDDy's ``fdd_equals``)."""
        da, db = self._dom(a), self._dom(b)
        if da.bits != db.bits:
            raise BDDError(
                f"fdd_equals: width mismatch {da.name}/{db.name}"
            )
        node = TRUE
        for la, lb in zip(da.levels, db.levels):
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

    def tuple_bdd(
        self, assignment: Dict[FiniteDomain | str, int]
    ) -> int:
        """Conjunction of ``domain == value`` constraints."""
        node = TRUE
        for domain, value in assignment.items():
            node = self.manager.apply_and(node, self.ithvar(domain, value))
        return node

    # ------------------------------------------------------------------
    # Quantification / movement
    # ------------------------------------------------------------------

    def exist(self, node: int, *domains: FiniteDomain | str) -> int:
        """Quantify whole domains out (``fdd_makeset`` + ``bdd_exist``)."""
        levels: List[int] = []
        for domain in domains:
            levels.extend(self._dom(domain).levels)
        return self.manager.exist(node, levels)

    def and_exist(
        self, a: int, b: int, *domains: FiniteDomain | str
    ) -> int:
        """Fused conjunction + quantification over whole domains."""
        levels: List[int] = []
        for domain in domains:
            levels.extend(self._dom(domain).levels)
        return self.manager.and_exist(a, b, levels)

    def replace(
        self, node: int, pairs: Sequence[Tuple[FiniteDomain | str,
                                               FiniteDomain | str]]
    ) -> int:
        """Move domains (``fdd_newpair``/``fdd_setpair``/``bdd_replace``)."""
        perm: Dict[int, int] = {}
        for src, dst in pairs:
            ds, dd = self._dom(src), self._dom(dst)
            if ds.bits != dd.bits:
                raise BDDError(
                    f"fdd replace: width mismatch {ds.name}/{dd.name}"
                )
            for a, b in zip(ds.levels, dd.levels):
                perm[a] = b
        return self.manager.replace(node, perm)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def satcount(self, node: int, *domains: FiniteDomain | str) -> int:
        """Number of assignments over the given domains
        (``fdd_satcount``-style)."""
        levels: List[int] = []
        for domain in domains:
            levels.extend(self._dom(domain).levels)
        return self.manager.sat_count(node, levels)

    def all_tuples(
        self, node: int, *domains: FiniteDomain | str
    ) -> Iterator[Tuple[int, ...]]:
        """Iterate integer tuples over the given domains."""
        fields = []
        levels: List[int] = []
        for domain in domains:
            dom = self._dom(domain)
            fields.append((len(levels), (1 << dom.bits) - 1))
            levels.extend(dom.levels)
        for key in self.manager.to_keys(node, levels):
            yield tuple([key >> shift & mask for shift, mask in fields])

    def _dom(self, domain: FiniteDomain | str) -> FiniteDomain:
        if isinstance(domain, FiniteDomain):
            return domain
        try:
            return self.domains[domain]
        except KeyError:
            raise BDDError(f"unknown finite domain {domain!r}") from None
