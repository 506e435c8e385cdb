"""Domains, attributes, physical domains, and the universe (section 2.1).

The paper's Jedd programs define three kinds of named entities by
implementing runtime interfaces:

- ``jedd.Domain`` -- a set of Java objects (all types, all methods, ...)
  with a maximum size and an object<->integer mapping,
- ``jedd.Attribute`` -- a named column of a relation, drawing its values
  from a domain,
- ``jedd.PhysicalDomain`` -- a group of BDD variables (bit positions)
  that can store one attribute of a relation.

Here the same roles are played by :class:`Domain`, :class:`Attribute`
and :class:`PhysicalDomain`, registered in a :class:`Universe`.  The
universe also owns the decision-diagram manager and fixes the *relative
bit ordering* of the physical domains (user-specified in the paper;
``interleaved`` or ``sequential`` here), which together with the
attribute->physical-domain assignment determines BDD variable order and
hence performance.
"""

from __future__ import annotations

import os

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.bdd import BDDManager, ZDDManager

__all__ = [
    "Domain",
    "Attribute",
    "PhysicalDomain",
    "RelationScope",
    "Universe",
    "JeddError",
    "open_universe",
]


class JeddError(Exception):
    """Runtime error in the relational layer (the paper's dynamic checks)."""


def _bits_for(size: int) -> int:
    """Bits needed to encode ``size`` distinct objects (at least 1)."""
    if size < 1:
        raise JeddError("domain size must be at least 1")
    return max(1, (size - 1).bit_length())


class Domain:
    """A finite set of objects with an object<->integer mapping.

    Objects are *interned* on first use; the integer associated with an
    object encodes it in BDD bits.  ``max_size`` bounds how many objects
    the domain may ever hold (it determines the bit width needed).
    """

    def __init__(self, name: str, max_size: int) -> None:
        self.name = name
        self.max_size = max_size
        self.bits = _bits_for(max_size)
        self._to_int: Dict[Hashable, int] = {}
        self._to_obj: List[Hashable] = []

    def intern(self, obj: Hashable) -> int:
        """Return (assigning if new) the integer encoding of ``obj``."""
        idx = self._to_int.get(obj)
        if idx is not None:
            return idx
        if len(self._to_obj) >= self.max_size:
            raise JeddError(
                f"domain {self.name!r} overflow (max_size={self.max_size})"
            )
        idx = len(self._to_obj)
        self._to_int[obj] = idx
        self._to_obj.append(obj)
        return idx

    def index_of(self, obj: Hashable) -> int:
        """The integer of an already-interned object."""
        try:
            return self._to_int[obj]
        except KeyError:
            raise JeddError(
                f"object {obj!r} not in domain {self.name!r}"
            ) from None

    def object_of(self, idx: int) -> Hashable:
        """The object encoded by integer ``idx``."""
        if not 0 <= idx < len(self._to_obj):
            raise JeddError(
                f"index {idx} not interned in domain {self.name!r}"
            )
        return self._to_obj[idx]

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._to_int

    def __len__(self) -> int:
        return len(self._to_obj)

    def values(self) -> List[int]:
        """All interned integer encodings."""
        return list(range(len(self._to_obj)))

    def __repr__(self) -> str:
        return f"Domain({self.name!r}, max_size={self.max_size})"


class Attribute:
    """A named relation column over a :class:`Domain`."""

    def __init__(self, name: str, domain: Domain) -> None:
        self.name = name
        self.domain = domain

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}: {self.domain.name})"


class PhysicalDomain:
    """A named group of decision-diagram bit positions.

    ``levels`` (filled in by :meth:`Universe.finalize`) lists the manager
    level of each bit, index 0 being the least significant bit.
    """

    def __init__(self, name: str, bits: int) -> None:
        if bits < 1:
            raise JeddError("physical domain needs at least 1 bit")
        self.name = name
        self.bits = bits
        self.levels: Optional[List[int]] = None

    def __repr__(self) -> str:
        return f"PhysicalDomain({self.name!r}, bits={self.bits})"


class Universe:
    """Registry of domains/attributes/physical domains plus the manager.

    Typical use::

        u = Universe()
        type_dom = u.domain("Type", 1024)
        rectype = u.attribute("rectype", type_dom)
        t1 = u.physical_domain("T1", type_dom.bits)
        u.finalize()           # fixes bit ordering, creates the manager

    ``ordering`` selects the relative bit order of physical domains:
    ``"interleaved"`` (bit i of every domain adjacent -- the usual choice
    for points-to-style analyses) or ``"sequential"`` (one block per
    physical domain).

    ``kernel`` selects the BDD kernel implementation: ``"reference"``
    (the recursive manager in :mod:`repro.bdd.manager`) or ``"ooc"``
    (the out-of-core streaming kernel in :mod:`repro.bdd.ooc`,
    configured via ``JEDD_OOC_CAP_BYTES`` / ``JEDD_OOC_SPILL_DIR``; see
    ``docs/KERNEL.md``).  When omitted,
    the ``JEDD_KERNEL`` environment variable decides, defaulting to
    ``"reference"``.  The kernel flag only affects the ``"bdd"``
    backend; all kernels build bit-identical canonical diagrams.
    """

    def __init__(
        self,
        backend: str = "bdd",
        ordering: str = "interleaved",
        kernel: Optional[str] = None,
    ) -> None:
        if ordering not in ("interleaved", "sequential"):
            raise JeddError(f"unknown ordering {ordering!r}")
        if backend not in ("bdd", "zdd"):
            raise JeddError(f"unknown backend {backend!r}")
        if kernel is None:
            kernel = os.environ.get("JEDD_KERNEL", "reference")
        if kernel not in ("reference", "ooc"):
            raise JeddError(f"unknown kernel {kernel!r}")
        self.backend_name = backend
        self.kernel_name = kernel
        self.ordering = ordering
        self._domains: Dict[str, Domain] = {}
        self._attributes: Dict[str, Attribute] = {}
        self._physdoms: Dict[str, PhysicalDomain] = {}
        self._physdom_order: List[PhysicalDomain] = []
        self._bit_order_groups: Optional[List[List[str]]] = None
        self.manager: Optional[BDDManager | ZDDManager] = None
        self._scratch_counter = 0
        self._scopes: List["RelationScope"] = []
        self._plan_epoch = 0

    def set_bit_order(self, groups: List[List[str]]) -> None:
        """Fix the relative bit ordering of the physical domains.

        The paper leaves the relative bit ordering of physical domains
        to the user (section 3.2.1): it determines BDD sizes and hence
        performance.  ``groups`` is a list of physical-domain-name
        groups; domains within a group have their bits interleaved
        (good for relations that pair them, e.g. the two variable
        domains of an assignment edge), and groups are laid out one
        after another.  Every declared physical domain must appear in
        exactly one group.  Call before :meth:`finalize`.
        """
        if self.finalized:
            raise JeddError("set_bit_order() must precede finalize()")
        seen: List[str] = []
        for group in groups:
            for name in group:
                if name not in self._physdoms:
                    raise JeddError(f"unknown physical domain {name!r}")
                seen.append(name)
        if sorted(seen) != sorted(self._physdoms):
            missing = set(self._physdoms) - set(seen)
            dupes = {n for n in seen if seen.count(n) > 1}
            raise JeddError(
                "bit order must mention every physical domain exactly "
                f"once (missing: {sorted(missing)}, duplicated: "
                f"{sorted(dupes)})"
            )
        self._bit_order_groups = [list(g) for g in groups]

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    @property
    def finalized(self) -> bool:
        """Whether finalize() has run (manager exists, levels fixed)."""
        return self.manager is not None

    def domain(self, name: str, max_size: int) -> Domain:
        """Declare (or fetch, if sizes agree) a domain."""
        existing = self._domains.get(name)
        if existing is not None:
            if existing.max_size != max_size:
                raise JeddError(
                    f"domain {name!r} redeclared with different size"
                )
            return existing
        dom = Domain(name, max_size)
        self._domains[name] = dom
        return dom

    def attribute(self, name: str, domain: Domain) -> Attribute:
        """Declare (or fetch) an attribute over ``domain``."""
        existing = self._attributes.get(name)
        if existing is not None:
            if existing.domain is not domain:
                raise JeddError(
                    f"attribute {name!r} redeclared over a different domain"
                )
            return existing
        attr = Attribute(name, domain)
        self._attributes[name] = attr
        return attr

    def physical_domain(self, name: str, bits: int) -> PhysicalDomain:
        """Declare (or fetch) a physical domain of ``bits`` positions."""
        existing = self._physdoms.get(name)
        if existing is not None:
            if existing.bits != bits:
                raise JeddError(
                    f"physical domain {name!r} redeclared with different bits"
                )
            return existing
        if self.finalized:
            raise JeddError(
                "cannot declare physical domains after finalize(); "
                "use scratch_physdom()"
            )
        pd = PhysicalDomain(name, bits)
        self._physdoms[name] = pd
        self._physdom_order.append(pd)
        return pd

    def get_domain(self, name: str) -> Domain:
        """Look up a declared domain by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise JeddError(f"unknown domain {name!r}") from None

    def get_attribute(self, name: str) -> Attribute:
        """Look up a declared attribute by name."""
        try:
            return self._attributes[name]
        except KeyError:
            raise JeddError(f"unknown attribute {name!r}") from None

    def get_physdom(self, name: str) -> PhysicalDomain:
        """Look up a declared physical domain by name."""
        try:
            return self._physdoms[name]
        except KeyError:
            raise JeddError(f"unknown physical domain {name!r}") from None

    def physical_domains(self) -> List[PhysicalDomain]:
        """All physical domains in declaration order."""
        return list(self._physdom_order)

    def bit_order_group(self, pd: PhysicalDomain) -> List[PhysicalDomain]:
        """The physical domains of ``pd``'s :meth:`set_bit_order` group
        (``pd`` included), or ``[]`` when no bit order was set or
        ``pd`` is a scratch domain."""
        for group in self._bit_order_groups or ():
            if pd.name in group:
                return [self._physdoms[name] for name in group]
        return []

    # ------------------------------------------------------------------
    # Finalization: bit ordering and manager creation
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Fix the bit ordering and create the decision-diagram manager."""
        if self.finalized:
            raise JeddError("universe already finalized")
        total_bits = sum(pd.bits for pd in self._physdom_order)
        next_level = 0
        if self._bit_order_groups is not None:
            # User-specified grouping: interleave within each group,
            # lay groups out sequentially.
            for group in self._bit_order_groups:
                pds = [self._physdoms[name] for name in group]
                for pd in pds:
                    pd.levels = [0] * pd.bits
                max_bits = max(pd.bits for pd in pds)
                for i in range(max_bits):
                    for pd in pds:
                        if i < pd.bits:
                            pd.levels[pd.bits - 1 - i] = next_level
                            next_level += 1
        elif self.ordering == "interleaved":
            # Round-robin most-significant-first: bit i of each physical
            # domain sits adjacent to bit i of the others.
            max_bits = max(
                (pd.bits for pd in self._physdom_order), default=0
            )
            for pd in self._physdom_order:
                pd.levels = [0] * pd.bits
            for i in range(max_bits):
                for pd in self._physdom_order:
                    if i < pd.bits:
                        # Most significant bit (index bits-1) on top.
                        pd.levels[pd.bits - 1 - i] = next_level
                        next_level += 1
        else:  # sequential
            for pd in self._physdom_order:
                pd.levels = [0] * pd.bits
                for i in range(pd.bits):
                    pd.levels[pd.bits - 1 - i] = next_level
                    next_level += 1
        assert next_level == total_bits
        if self.backend_name == "bdd":
            if self.kernel_name == "ooc":
                from repro.bdd.ooc import OocBDDManager

                self.manager = OocBDDManager(total_bits)
            else:
                self.manager = BDDManager(total_bits)
        else:
            self.manager = ZDDManager(total_bits)

    def scratch_physdom(self, bits: int) -> PhysicalDomain:
        """Allocate a fresh physical domain after finalization.

        Used by the runtime's auto-alignment when an operation needs an
        attribute moved out of the way and no declared physical domain is
        free.  New bits are appended below all existing levels.
        """
        if not self.finalized:
            raise JeddError("finalize() before allocating scratch domains")
        self._scratch_counter += 1
        name = f"__scratch{self._scratch_counter}"
        pd = PhysicalDomain(name, bits)
        base = self.manager.num_vars
        self.manager.add_vars(bits)
        pd.levels = [base + (bits - 1 - i) for i in range(bits)]
        self._physdoms[name] = pd
        self._physdom_order.append(pd)
        return pd

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path, relations=None) -> int:
        """Checkpoint this universe (and named relations) to ``path``.

        ``relations`` maps names to :class:`Relation` values of this
        universe; omit it to save the declarations alone.  The file is
        self-contained — :meth:`Universe.load` rebuilds everything with
        no prior declarations.  Returns the bytes written.  See
        :func:`repro.relations.io.save_universe` for the format.
        """
        from repro.relations.io import save_universe

        with open(path, "wb") as fp:
            return save_universe(self, relations or {}, fp)

    @staticmethod
    def load(path):
        """Restore a checkpoint written by :meth:`save`.

        Returns ``(universe, relations)`` where ``relations`` is a dict
        of the named relations the file carries.  Fails loudly on files
        written by a newer, incompatible layout version.
        """
        from repro.relations.io import load_universe

        with open(path, "rb") as fp:
            return load_universe(fp)

    # ------------------------------------------------------------------
    # Plan cache generations
    # ------------------------------------------------------------------

    @property
    def plan_generation(self) -> int:
        """Cache generation for the query planner (``repro.relations.ir``).

        Cached plans are keyed by (shape, generation): the generation
        advances with every explicit :meth:`invalidate_plans` call.
        """
        return self._plan_epoch

    def invalidate_plans(self) -> None:
        """Force re-planning: bump the generation every cached query
        plan is keyed under (e.g. after bulk-loading relations whose
        sizes bear no resemblance to what the planner saw)."""
        self._plan_epoch += 1

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------

    def encode_bits(
        self, pd: PhysicalDomain, value: int
    ) -> Dict[int, bool]:
        """``{level: bit}`` assignment storing ``value`` in ``pd``."""
        self.check_fits(pd, value)
        return {pd.levels[j]: bool(value >> j & 1) for j in range(pd.bits)}

    def check_fits(self, pd: PhysicalDomain, value: int) -> None:
        """Raise unless ``pd`` has levels and ``value`` fits its width."""
        if pd.levels is None:
            raise JeddError(f"universe not finalized for {pd.name}")
        if value >= (1 << pd.bits):
            raise JeddError(
                f"value {value} does not fit in physical domain "
                f"{pd.name} ({pd.bits} bits)"
            )

    def decode_bits(
        self, pd: PhysicalDomain, assignment: Dict[int, bool]
    ) -> int:
        """Inverse of :meth:`encode_bits` over a complete assignment."""
        value = 0
        for j in range(pd.bits):
            if assignment[pd.levels[j]]:
                value |= 1 << j
        return value

    def move_permutation(
        self, moves: Iterable[Tuple[PhysicalDomain, PhysicalDomain]]
    ) -> Dict[int, int]:
        """Level permutation moving each source domain onto its target."""
        perm: Dict[int, int] = {}
        for src, dst in moves:
            if src is dst:
                continue
            if src.bits != dst.bits:
                raise JeddError(
                    f"cannot move {src.name} ({src.bits} bits) to "
                    f"{dst.name} ({dst.bits} bits): width mismatch"
                )
            for j in range(src.bits):
                perm[src.levels[j]] = dst.levels[j]
        return perm

    # ------------------------------------------------------------------
    # Relation lifetimes and construction
    # ------------------------------------------------------------------

    def scope(self) -> "RelationScope":
        """Open a relation lifetime scope.

        Every relation created in this universe while the scope is
        active is disposed (its diagram reference dropped) when the
        scope exits, except those passed to
        :meth:`RelationScope.keep`::

            with u.scope() as sc:
                temp = a.join(b, ["x"], ["x"])
                result = sc.keep(temp.project_away("x"))
            # temp is disposed here; result survives

        Scopes nest: relations register with the innermost active
        scope.
        """
        return RelationScope(self)

    def _note_relation(self, rel) -> None:
        """Register a newly created relation with the innermost scope."""
        if self._scopes:
            self._scopes[-1]._track(rel)

    def empty(self, attributes, physdoms=None):
        """An empty relation over the named attributes (see
        :meth:`Relation.empty`)."""
        from repro.relations.relation import Relation

        return Relation.empty(self, attributes, physdoms)

    def full(self, attributes, physdoms=None):
        """The full relation over the named attributes."""
        from repro.relations.relation import Relation

        return Relation.full(self, attributes, physdoms)

    def relation(self, values, physdoms=None):
        """A one-tuple relation from an ``{attribute: object}`` mapping."""
        from repro.relations.relation import Relation

        return Relation.from_tuple(self, values, physdoms)

    def relation_of(self, attributes, rows, physdoms=None):
        """A relation from an iterable of tuples (see
        :meth:`Relation.from_tuples`)."""
        from repro.relations.relation import Relation

        return Relation.from_tuples(self, attributes, rows, physdoms)


class RelationScope:
    """Bulk lifetime management for relations (``Universe.scope()``).

    Tracks every relation created in the universe while active; on exit
    each tracked relation is disposed unless it was passed to
    :meth:`keep`.  Disposal only drops diagram references — the next
    garbage collection reclaims the nodes.
    """

    def __init__(self, universe: Universe) -> None:
        self.universe = universe
        self._tracked: List[Any] = []
        self._kept: set = set()

    def _track(self, rel) -> None:
        self._tracked.append(rel)

    def keep(self, rel):
        """Exempt ``rel`` from disposal at scope exit; returns it."""
        self._kept.add(id(rel))
        return rel

    def __enter__(self) -> "RelationScope":
        self.universe._scopes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        stack = self.universe._scopes
        if self in stack:
            stack.remove(self)
        for rel in self._tracked:
            if id(rel) not in self._kept:
                rel.dispose()
        self._tracked.clear()
        self._kept.clear()
        return False


def open_universe(
    backend: str = "bdd",
    order: str = "interleaved",
    *,
    kernel: Optional[str] = None,
    domains: Optional[Dict[str, int]] = None,
    attributes: Optional[Dict[str, str]] = None,
    physdoms: Optional[Dict[str, int]] = None,
    bit_order: Optional[Sequence[Sequence[str]]] = None,
    finalize: Optional[bool] = None,
) -> Universe:
    """One-stop factory for a configured universe.

    Unifies the scattered entry points (``Universe(...)``, declarations,
    ``finalize()``)::

        u = open_universe(
            backend="bdd",
            domains={"Var": 64, "Obj": 64},
            attributes={"var": "Var", "obj": "Obj"},
            physdoms={"V1": 6, "H1": 6},
        )
        pt = u.empty(["var", "obj"], ["V1", "H1"])

    ``domains`` maps name -> max size; ``attributes`` maps name ->
    domain name; ``physdoms`` maps name -> bit width; ``bit_order``
    optionally fixes the relative bit ordering (groups of physical
    domain names, as for :meth:`Universe.set_bit_order`).  The universe
    is finalized automatically when any physical domains were declared
    (override with ``finalize=``); declare-then-finalize manually for
    more complex setups.  ``kernel`` picks the BDD kernel
    (``"reference"`` or ``"ooc"``; default from
    ``JEDD_KERNEL``).
    """
    u = Universe(backend=backend, ordering=order, kernel=kernel)
    for name, size in (domains or {}).items():
        u.domain(name, size)
    for name, dom_name in (attributes or {}).items():
        u.attribute(name, u.get_domain(dom_name))
    for name, bits in (physdoms or {}).items():
        u.physical_domain(name, bits)
    if bit_order is not None:
        u.set_bit_order([list(g) for g in bit_order])
    if finalize is None:
        finalize = bool(physdoms)
    if finalize:
        u.finalize()
    return u
