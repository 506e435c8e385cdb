"""Database-style relations backed by decision diagrams (paper section 2).

A :class:`Relation` is an immutable set of tuples; its *schema* is an
ordered set of attributes, each stored in a physical domain of the
universe's decision diagram.  All the operations of the Jedd language
are provided:

====================  =======================================
Jedd syntax           method / operator
====================  =======================================
``x | y``             ``x | y`` (:meth:`Relation.union`)
``x & y``             ``x & y`` (:meth:`Relation.intersect`)
``x - y``             ``x - y`` (:meth:`Relation.difference`)
``x == y``            ``x == y`` (constant time on one backend)
``(a=>) x``           :meth:`Relation.project_away`
``(a=>b) x``          :meth:`Relation.rename`
``(a=>b c) x``        :meth:`Relation.copy`
``x{a} >< y{b}``      :meth:`Relation.join`
``x{a} <> y{b}``      :meth:`Relation.compose`
``new {o=>a, ...}``   :meth:`Relation.from_tuple`
``0B`` / ``1B``       :meth:`Relation.empty` / :meth:`Relation.full`
====================  =======================================

The runtime enforces the dynamic counterparts of the Figure 6 typing
rules (schema compatibility, attribute existence and distinctness) and
performs the physical-domain bookkeeping: when operand attributes are
not already in compatible physical domains, the runtime inserts the same
``replace`` operations the jeddc translator would generate, recording
them with the profiler so they can be tuned away (section 4.3).
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.relations.backend import (
    DiagramBackend,
    PipelineStep,
    _backend_for,
)
from repro.telemetry import traced as _traced
from repro.relations.domain import (
    Attribute,
    JeddError,
    PhysicalDomain,
    Universe,
)

__all__ = [
    "Relation",
    "Schema",
    "WeightedRelation",
    "CsvFormatError",
    "AGGREGATE_OPS",
]

#: Aggregate operations :meth:`Relation.aggregate` understands.
AGGREGATE_OPS = ("count", "sum", "max", "min", "mean")


class CsvFormatError(JeddError):
    """Malformed rows in a CSV fact file.

    Raised by :meth:`Relation.from_csv` with a line-numbered report of
    every bad row instead of failing on the first one; ``errors`` holds
    ``(line_number, reason)`` pairs for programmatic use.
    """

    _SHOWN = 20

    def __init__(self, source: str, errors: Sequence[Tuple[int, str]]) -> None:
        self.source = source
        self.errors = list(errors)
        lines = [
            f"{source}: {len(self.errors)} malformed row(s):"
        ]
        for line_no, reason in self.errors[: self._SHOWN]:
            lines.append(f"  line {line_no}: {reason}")
        if len(self.errors) > self._SHOWN:
            lines.append(
                f"  ... and {len(self.errors) - self._SHOWN} more"
            )
        super().__init__("\n".join(lines))


def _free_physdom(
    universe: Universe,
    width: int,
    banned: Iterable[PhysicalDomain],
    near: Optional[PhysicalDomain] = None,
) -> PhysicalDomain:
    """A physical domain of ``width`` bits not in ``banned``.

    Domains of ``near``'s bit-order group come first, then the rest in
    declaration order; a scratch domain only when none is free.  A
    domain moved within its group keeps its bits interleaved with the
    ones it moved from, so the ``replace`` does not cross other
    families' blocks.
    """
    banned_names = {pd.name for pd in banned}
    candidates = universe.physical_domains()
    if near is not None:
        candidates = universe.bit_order_group(near) + candidates
    for pd in candidates:
        if pd.bits == width and pd.name not in banned_names:
            return pd
    return universe.scratch_physdom(width)


class _MatchPlan:
    """The alignment a join/compose needs, without materialising it.

    ``targets`` maps the other operand's attribute names to the
    physical domains they must move to; ``moves``/``aligned_pairs`` are
    the same information as physdom moves and as the operand's
    post-move schema pairs.  Level sets are as for
    :meth:`DiagramBackend.match`.
    """

    __slots__ = (
        "targets", "moves", "aligned_pairs", "cmp_levels", "a_only", "b_only"
    )

    def __init__(self, targets, moves, aligned_pairs,
                 cmp_levels, a_only, b_only):
        self.targets = targets
        self.moves = moves
        self.aligned_pairs = aligned_pairs
        self.cmp_levels = cmp_levels
        self.a_only = a_only
        self.b_only = b_only


def _evict_physdom(
    universe: Universe,
    name: str,
    pd: PhysicalDomain,
    used: List[PhysicalDomain],
    place: Optional[Mapping[str, PhysicalDomain]],
) -> PhysicalDomain:
    """A domain for attribute ``name`` that must leave ``pd``: its
    ``place`` domain when that is free, else a free one near ``pd``."""
    want = place.get(name) if place else None
    if (
        want is not None
        and want.bits == pd.bits
        and all(u.name != want.name for u in used)
    ):
        return want
    return _free_physdom(universe, pd.bits, used, near=pd)


def _plan_match(
    universe: Universe,
    self_pairs: Sequence[Tuple[Attribute, PhysicalDomain]],
    other_pairs: Sequence[Tuple[Attribute, PhysicalDomain]],
    self_attrs: Sequence[str],
    other_attrs: Sequence[str],
    op: str,
    place: Optional[Mapping[str, PhysicalDomain]] = None,
) -> _MatchPlan:
    """Validate a match and plan the other operand's alignment.

    Both sides are given as schema pairs rather than relations so the
    fused pipeline can thread its evolving intermediate schema through
    without wrapping nodes in relations, and can plan the mirror image
    (the left side moving) by swapping them.  ``place`` (attribute
    name -> physical domain) is where an evicted private attribute
    would rather go.
    """
    by_name = {attr.name: (attr, pd) for attr, pd in self_pairs}
    other_by_name = {attr.name: attr for attr, _ in other_pairs}
    if len(self_attrs) != len(other_attrs):
        raise JeddError(f"{op}: attribute lists differ in length")
    if len(set(self_attrs)) != len(self_attrs) or len(
        set(other_attrs)
    ) != len(other_attrs):
        raise JeddError(f"{op}: repeated attribute in comparison list")
    for name in self_attrs:
        if name not in by_name:
            raise JeddError(f"{op}: {name!r} not in left schema")
    for name in other_attrs:
        if name not in other_by_name:
            raise JeddError(f"{op}: {name!r} not in right schema")
    for a, b in zip(self_attrs, other_attrs):
        da = by_name[a][0].domain
        db = other_by_name[b].domain
        if da is not db:
            raise JeddError(
                f"{op}: cannot compare {a} ({da.name}) with "
                f"{b} ({db.name})"
            )
    # Move the compared attributes of `other` into the left side's
    # physical domains, and its private attributes out of any domain
    # the left side uses.
    targets: Dict[str, PhysicalDomain] = {}
    for a, b in zip(self_attrs, other_attrs):
        targets[b] = by_name[a][1]
    self_pds = {pd.name for _, pd in self_pairs}
    used = [pd for _, pd in self_pairs]
    used.extend(pd for _, pd in other_pairs)
    used.extend(targets.values())
    for attr, pd in other_pairs:
        if attr.name in targets:
            continue
        if pd.name in self_pds:
            fresh = _evict_physdom(universe, attr.name, pd, used, place)
            targets[attr.name] = fresh
            used.append(fresh)
    moves = []
    aligned_pairs: List[Tuple[Attribute, PhysicalDomain]] = []
    for attr, pd in other_pairs:
        tgt = targets.get(attr.name, pd)
        aligned_pairs.append((attr, tgt))
        if tgt is not pd:
            moves.append((pd, tgt))
    cmp_levels: List[int] = []
    for a in self_attrs:
        cmp_levels.extend(by_name[a][1].levels)
    cmp_set = set(cmp_levels)
    a_only = [
        l for _, pd in self_pairs for l in pd.levels if l not in cmp_set
    ]
    b_only = [
        l for _, pd in aligned_pairs for l in pd.levels if l not in cmp_set
    ]
    return _MatchPlan(targets, moves, aligned_pairs,
                      cmp_levels, a_only, b_only)


def _moved_bits(moves) -> int:
    return sum(src.bits for src, _ in moves)


def _combined(
    left: Sequence[Tuple[Attribute, PhysicalDomain]],
    right: Sequence[Tuple[Attribute, PhysicalDomain]],
    on: Sequence[str],
) -> List[Tuple[Attribute, PhysicalDomain]]:
    """The schema pairs of a match on ``on`` before any projection."""
    return list(left) + [
        (attr, pd) for attr, pd in right if attr.name not in on
    ]


def _misplaced_bits(
    pairs: Sequence[Tuple[Attribute, PhysicalDomain]],
    drop: Iterable[str],
    place: Optional[Mapping[str, PhysicalDomain]],
) -> int:
    """Bits of the kept ``pairs`` that sit outside their ``place``
    domain."""
    if not place:
        return 0
    bits = 0
    for attr, pd in pairs:
        want = place.get(attr.name)
        if want is not None and want is not pd and attr.name not in drop:
            bits += pd.bits
    return bits


class Schema:
    """An ordered mapping of attributes to physical domains."""

    __slots__ = ("pairs", "_by_name")

    def __init__(
        self, pairs: Sequence[Tuple[Attribute, PhysicalDomain]]
    ) -> None:
        self.pairs: Tuple[Tuple[Attribute, PhysicalDomain], ...] = tuple(pairs)
        self._by_name: Dict[str, Tuple[Attribute, PhysicalDomain]] = {}
        used_pds = set()
        for attr, pd in self.pairs:
            if attr.name in self._by_name:
                raise JeddError(
                    f"attribute {attr.name!r} appears twice in schema"
                )
            if pd.name in used_pds:
                raise JeddError(
                    f"physical domain {pd.name} holds two attributes of "
                    "one relation (conflict constraint violated)"
                )
            if pd.bits < attr.domain.bits:
                raise JeddError(
                    f"physical domain {pd.name} ({pd.bits} bits) too small "
                    f"for domain {attr.domain.name} ({attr.domain.bits} bits)"
                )
            used_pds.add(pd.name)
            self._by_name[attr.name] = (attr, pd)

    def names(self) -> Tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(attr.name for attr, _ in self.pairs)

    def name_set(self) -> frozenset:
        """Attribute names as a set (schemas compare as sets)."""
        return frozenset(self._by_name)

    def attribute(self, name: str) -> Attribute:
        """The attribute object for ``name``."""
        return self._entry(name)[0]

    def physdom(self, name: str) -> PhysicalDomain:
        """The physical domain storing attribute ``name``."""
        return self._entry(name)[1]

    def _entry(self, name: str) -> Tuple[Attribute, PhysicalDomain]:
        try:
            return self._by_name[name]
        except KeyError:
            raise JeddError(f"no attribute {name!r} in schema") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.pairs)

    def levels(self) -> List[int]:
        """All diagram levels used by this schema."""
        out: List[int] = []
        for _, pd in self.pairs:
            out.extend(pd.levels)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{attr.name}:{pd.name}" for attr, pd in self.pairs
        )
        return f"<{inner}>"


def _key_encoder(universe: Universe, schema: Schema):
    """The row -> key encoding shared by the bulk constructors.

    Returns ``(variables, encode)`` for :meth:`DiagramBackend.from_keys`.
    ``encode(row)`` interns the row's objects in schema order and packs
    their indices into one integer, each attribute's bits least
    significant first, so bit ``p`` of the key is the value of
    ``variables[p]`` (:meth:`Schema.levels`).  It raises what
    :meth:`Universe.encode_bits` raises for an index too wide for its
    physical domain.
    """
    fields = []
    offset = 0
    for attr, pd in schema.pairs:
        universe.check_fits(pd, 0)
        fields.append((attr.domain.intern, pd, offset))
        offset += pd.bits

    def encode(row: Iterable[Hashable]) -> int:
        key = 0
        for (intern, pd, shift), obj in zip(fields, row):
            value = intern(obj)
            if value >> pd.bits:
                universe.check_fits(pd, value)
            key |= value << shift
        return key

    return schema.levels(), encode


def _key_decoder(schema: Schema):
    """The key -> row decoding, the inverse of :func:`_key_encoder`.

    Returns ``(variables, decode)`` for :meth:`DiagramBackend.to_keys`.
    ``decode(key)`` cuts each attribute's index out of the key by shift
    and mask and maps it back to its object, raising
    :class:`JeddError` for an index its domain never interned.
    """
    fields = []
    offset = 0
    for attr, pd in schema.pairs:
        fields.append((attr.domain.object_of, offset, (1 << pd.bits) - 1))
        offset += pd.bits

    def decode(key: int) -> Tuple[Hashable, ...]:
        return tuple([obj(key >> shift & mask) for obj, shift, mask in fields])

    return schema.levels(), decode


class Relation:
    """An immutable relation value.

    Construct relations with the classmethods (:meth:`empty`,
    :meth:`full`, :meth:`from_tuple`, :meth:`from_tuples`) — or the
    ``Universe`` conveniences — and combine them with the operators.  A
    relation holds a reference-counted diagram node; the count is
    dropped when the Python object dies, when the enclosing
    :meth:`Universe.scope` exits, or eagerly via :meth:`dispose` (also
    available as a ``with`` block).
    """

    __slots__ = ("universe", "backend", "schema", "node", "_released")

    def __init__(
        self,
        universe: Universe,
        schema: Schema,
        node: int,
        backend: Optional[DiagramBackend] = None,
    ) -> None:
        self.universe = universe
        self.backend = backend or _backend_for(universe.manager)
        self.schema = schema
        self.node = self.backend.ref(node)
        self._released = False
        universe._note_relation(self)

    def __del__(self) -> None:
        self.dispose()

    def dispose(self) -> None:
        """Drop this relation's node reference (idempotent).

        The relation must not be used afterwards: the next garbage
        collection may reclaim its nodes.  Usually there is no need to
        call this directly — use :meth:`Universe.scope` (or a ``with``
        block over the relation) for deterministic bulk release.
        """
        if not self._released:
            self._released = True
            try:
                self.backend.deref(self.node)
            except Exception:
                pass  # interpreter shutdown may have torn down the manager

    @property
    def disposed(self) -> bool:
        """Whether this relation's node reference has been dropped."""
        return self._released

    def __enter__(self) -> "Relation":
        return self

    def __exit__(self, *exc) -> bool:
        self.dispose()
        return False

    def _wrap(self, schema: Schema, node: int) -> "Relation":
        rel = Relation(self.universe, schema, node, self.backend)
        self.backend.maybe_gc()
        return rel

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _make_schema(
        cls,
        universe: Universe,
        attributes: Sequence[Attribute | str],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
    ) -> Schema:
        attrs = [
            universe.get_attribute(a) if isinstance(a, str) else a
            for a in attributes
        ]
        if physdoms is None:
            # Free declared domains first: a scratch domain per literal
            # would grow the manager's variable count without bound.
            # Attributes of one domain stay in one bit-order group.
            pds: List[PhysicalDomain] = []
            for attr in attrs:
                near = next(
                    (pd for a, pd in zip(attrs, pds)
                     if a.domain is attr.domain),
                    None,
                )
                pds.append(
                    _free_physdom(universe, attr.domain.bits, pds, near)
                )
        else:
            if len(physdoms) != len(attrs):
                raise JeddError("one physical domain per attribute required")
            pds = [
                universe.get_physdom(p) if isinstance(p, str) else p
                for p in physdoms
            ]
        return Schema(list(zip(attrs, pds)))

    @classmethod
    def empty(
        cls,
        universe: Universe,
        attributes: Sequence[Attribute | str],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
    ) -> "Relation":
        """The constant ``0B`` at a concrete schema."""
        schema = cls._make_schema(universe, attributes, physdoms)
        backend = _backend_for(universe.manager)
        return cls(universe, schema, backend.empty(), backend)

    @classmethod
    def full(
        cls,
        universe: Universe,
        attributes: Sequence[Attribute | str],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
    ) -> "Relation":
        """The constant ``1B`` (all possible tuples) at a concrete schema."""
        schema = cls._make_schema(universe, attributes, physdoms)
        backend = _backend_for(universe.manager)
        return cls(universe, schema, backend.full(schema.levels()), backend)

    @classmethod
    def from_tuple(
        cls,
        universe: Universe,
        values: Dict[Attribute | str, Hashable],
        physdoms: Optional[Dict[str, PhysicalDomain | str]] = None,
    ) -> "Relation":
        """Jedd's ``new { obj => attribute, ... }`` single-tuple literal."""
        attrs = [
            universe.get_attribute(a) if isinstance(a, str) else a
            for a in values
        ]
        pd_list: Optional[List[PhysicalDomain | str]] = None
        if physdoms is not None:
            pd_list = []
            for attr in attrs:
                pd = physdoms.get(attr.name)
                if pd is None:
                    raise JeddError(
                        f"no physical domain given for {attr.name!r}"
                    )
                pd_list.append(pd)
        schema = cls._make_schema(universe, attrs, pd_list)
        backend = _backend_for(universe.manager)
        assignment: Dict[int, bool] = {}
        for (attr, pd), obj in zip(schema.pairs, values.values()):
            assignment.update(
                universe.encode_bits(pd, attr.domain.intern(obj))
            )
        return cls(universe, schema, backend.cube(assignment), backend)

    @classmethod
    def from_tuples(
        cls,
        universe: Universe,
        attributes: Sequence[Attribute | str],
        rows: Iterable[Sequence[Hashable]],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
    ) -> "Relation":
        """Bulk constructor: union of one-tuple literals, but in one pass.

        Rows are interned in order and packed into one key each, and the
        kernel builds the diagram of all keys bottom-up
        (:meth:`DiagramBackend.from_keys`), with no union per row.
        """
        schema = cls._make_schema(universe, attributes, physdoms)
        backend = _backend_for(universe.manager)
        variables, encode = _key_encoder(universe, schema)
        keys = []
        for row in rows:
            if len(row) != len(schema):
                raise JeddError(
                    f"row {row!r} does not match schema {schema!r}"
                )
            keys.append(encode(row))
        return cls(
            universe, schema, backend.from_keys(variables, keys), backend
        )

    @classmethod
    def from_csv(
        cls,
        universe: Universe,
        source,
        attributes: Sequence[Attribute | str],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
        *,
        delimiter: str = ",",
        has_header: bool = False,
        converters: Optional[Dict[str, "callable"]] = None,
        on_malformed: str = "error",
    ) -> "Relation":
        """Load a relation from a CSV fact file, interning objects.

        ``source`` is a path or an open text file.  Fields become the
        tuple objects directly (stripped strings), optionally passed
        through per-attribute ``converters`` (e.g. ``{"weight": int}``).
        With ``has_header`` the first row names the columns and they may
        appear in any order; otherwise columns follow ``attributes``.

        Malformed rows — wrong field count, converter failures, domain
        overflow — are collected and reported *with line numbers* in a
        single :class:`CsvFormatError` (``on_malformed="error"``, the
        default), or skipped (``"skip"``).  Blank lines are ignored.
        """
        import csv as _csv

        if on_malformed not in ("error", "skip"):
            raise JeddError(
                f"on_malformed must be 'error' or 'skip', "
                f"not {on_malformed!r}"
            )
        schema = cls._make_schema(universe, attributes, physdoms)
        names = [attr.name for attr, _ in schema.pairs]
        convs = [(converters or {}).get(n) for n in names]
        if hasattr(source, "read"):
            fp = source
            close = False
            label = getattr(source, "name", "<csv>")
        else:
            fp = open(source, "r", newline="")
            close = True
            label = str(source)
        backend = _backend_for(universe.manager)
        variables, encode = _key_encoder(universe, schema)
        keys: List[int] = []
        errors: List[Tuple[int, str]] = []
        try:
            reader = _csv.reader(fp, delimiter=delimiter)
            order: Optional[List[int]] = None
            for line_no, row in enumerate(reader, start=1):
                if has_header and line_no == 1:
                    header = [f.strip() for f in row]
                    missing = [n for n in names if n not in header]
                    if missing:
                        raise JeddError(
                            f"{label}: header {header} is missing "
                            f"column(s) {missing}"
                        )
                    order = [header.index(n) for n in names]
                    continue
                if not row or all(not f.strip() for f in row):
                    continue
                if order is not None:
                    if max(order) >= len(row):
                        errors.append(
                            (line_no,
                             f"expected at least {max(order) + 1} "
                             f"field(s), got {len(row)}")
                        )
                        continue
                    fields = [row[i] for i in order]
                elif len(row) != len(names):
                    errors.append(
                        (line_no,
                         f"expected {len(names)} field(s), got {len(row)}")
                    )
                    continue
                else:
                    fields = list(row)
                try:
                    # A generator, so each field is converted just
                    # before it is interned.
                    keys.append(encode(
                        field.strip() if conv is None
                        else conv(field.strip())
                        for conv, field in zip(convs, fields)
                    ))
                except (JeddError, ValueError, TypeError) as exc:
                    errors.append((line_no, str(exc)))
        finally:
            if close:
                fp.close()
        if errors and on_malformed == "error":
            raise CsvFormatError(label, errors)
        return cls(
            universe, schema, backend.from_keys(variables, keys), backend
        )

    # ------------------------------------------------------------------
    # Physical domain movement
    # ------------------------------------------------------------------

    @_traced("relation.replace", "relation")
    def replace(
        self, physdoms: Dict[str, PhysicalDomain | str]
    ) -> "Relation":
        """Move attributes to the given physical domains (Jedd ``replace``).

        This is the explicit form; the other operations call it
        implicitly when operands need aligning, exactly where the
        translator would insert replace operations.
        """
        moves = []
        new_pairs = []
        for attr, pd in self.schema.pairs:
            target = physdoms.get(attr.name)
            if target is None:
                new_pairs.append((attr, pd))
                continue
            if isinstance(target, str):
                target = self.universe.get_physdom(target)
            new_pairs.append((attr, target))
            if target is not pd:
                moves.append((pd, target))
        if not moves:
            return self
        perm = self.universe.move_permutation(moves)
        node = self.backend.replace(self.node, perm)
        return self._wrap(Schema(new_pairs), node)

    def ordered(self, names: Sequence[str]) -> "Relation":
        """The same relation with its schema columns in ``names`` order.

        Pure metadata: the diagram encodes attributes by physical
        domain, so column order only affects how :meth:`tuples`
        enumerates — but an assignment target declared ``<a, b, c>``
        must list tuples as ``(a, b, c)`` no matter which join order
        the planner picked for the right-hand side.  ``names`` must be
        exactly this relation's attribute names.
        """
        current = [attr.name for attr, _ in self.schema.pairs]
        names = list(names)
        if names == current:
            return self
        if sorted(names) != sorted(current):
            raise JeddError(
                f"ordered: {names} is not a permutation of {current}"
            )
        by_name = {attr.name: (attr, pd) for attr, pd in self.schema.pairs}
        return self._wrap(
            Schema([by_name[n] for n in names]), self.node
        )

    def _align_to(self, other: "Relation") -> "Relation":
        """Return ``other`` moved into this relation's physical domains."""
        targets = {
            attr.name: pd
            for attr, pd in self.schema.pairs
            if attr.name in other.schema
        }
        return other.replace(targets)

    # ------------------------------------------------------------------
    # Set operations ([SetOp], [Assign], [Compare] of Figure 6)
    # ------------------------------------------------------------------

    def _check_same_schema(self, other: "Relation", op: str) -> None:
        if not isinstance(other, Relation):
            raise TypeError(f"{op}: not a relation: {other!r}")
        if self.schema.name_set() != other.schema.name_set():
            raise JeddError(
                f"{op}: schemas differ: {self.schema!r} vs {other.schema!r}"
            )

    @_traced("relation.union", "relation")
    def union(self, other: "Relation") -> "Relation":
        """All tuples in either relation (Jedd ``|``)."""
        self._check_same_schema(other, "union")
        aligned = self._align_to(other)
        return self._wrap(
            self.schema, self.backend.union(self.node, aligned.node)
        )

    @_traced("relation.intersect", "relation")
    def intersect(self, other: "Relation") -> "Relation":
        """Tuples in both relations (Jedd ``&``)."""
        self._check_same_schema(other, "intersect")
        aligned = self._align_to(other)
        return self._wrap(
            self.schema, self.backend.intersect(self.node, aligned.node)
        )

    @_traced("relation.difference", "relation")
    def difference(self, other: "Relation") -> "Relation":
        """Tuples in this relation but not the other (Jedd ``-``)."""
        self._check_same_schema(other, "difference")
        aligned = self._align_to(other)
        return self._wrap(
            self.schema, self.backend.diff(self.node, aligned.node)
        )

    # Operators delegate to the named methods, so each shows up as that
    # method's ``relation.*`` span (and profiler event).
    def __or__(self, other: "Relation") -> "Relation":
        return self.union(other)

    def __and__(self, other: "Relation") -> "Relation":
        return self.intersect(other)

    def __sub__(self, other: "Relation") -> "Relation":
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if (
            self.universe is not other.universe
            or type(self.backend) is not type(other.backend)
        ):
            # Nodes of different universes/backends are not comparable;
            # returning NotImplemented (rather than raising out of the
            # alignment machinery) lets Python fall back to identity,
            # so mixed comparisons are False instead of an error.
            return NotImplemented
        if self.schema.name_set() != other.schema.name_set():
            return False
        aligned = self._align_to(other)
        return self.node == aligned.node

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Equal relations share a universe, so including its identity
        # keeps the hash/eq contract while separating same-named
        # schemas from unrelated universes.
        return hash((id(self.universe), self.schema.name_set()))

    def is_empty(self) -> bool:
        """Constant-time emptiness test (``x == 0B``)."""
        return self.node == self.backend.empty()

    def __bool__(self) -> bool:
        return not self.is_empty()

    # ------------------------------------------------------------------
    # Attribute operations ([Project], [Rename], [Copy])
    # ------------------------------------------------------------------

    @_traced("relation.project_away", "relation")
    def project_away(self, *names: str) -> "Relation":
        """Remove attributes (Jedd ``(a=>) x``); may merge tuples."""
        levels: List[int] = []
        remaining = []
        to_drop = set(names)
        for attr, pd in self.schema.pairs:
            if attr.name in to_drop:
                levels.extend(pd.levels)
                to_drop.discard(attr.name)
            else:
                remaining.append((attr, pd))
        if to_drop:
            raise JeddError(f"project: no attribute(s) {sorted(to_drop)}")
        node = self.backend.project(self.node, levels)
        return self._wrap(Schema(remaining), node)

    def project_onto(self, *names: str) -> "Relation":
        """Keep only the named attributes."""
        keep = set(names)
        missing = keep - set(self.schema.names())
        if missing:
            raise JeddError(f"project: no attribute(s) {sorted(missing)}")
        drop = [n for n in self.schema.names() if n not in keep]
        return self.project_away(*drop) if drop else self

    @_traced("relation.rename", "relation")
    def rename(self, mapping: Dict[str, Attribute | str]) -> "Relation":
        """Substitute attributes (Jedd ``(a=>b) x``); no BDD change."""
        new_pairs = []
        pending = dict(mapping)
        for attr, pd in self.schema.pairs:
            target = pending.pop(attr.name, None)
            if target is None:
                new_pairs.append((attr, pd))
                continue
            new_attr = (
                self.universe.get_attribute(target)
                if isinstance(target, str)
                else target
            )
            if new_attr.domain is not attr.domain:
                raise JeddError(
                    f"rename {attr.name}=>{new_attr.name}: domains differ "
                    f"({attr.domain.name} vs {new_attr.domain.name})"
                )
            new_pairs.append((new_attr, pd))
        if pending:
            raise JeddError(
                f"rename: no attribute(s) {sorted(pending)} in schema"
            )
        return self._wrap(Schema(new_pairs), self.node)

    @_traced("relation.copy", "relation")
    def copy(
        self,
        source: str,
        names: Sequence[Attribute | str],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
    ) -> "Relation":
        """Attribute copying (Jedd ``(a=>b c) x``).

        The source attribute is replaced by the given attributes, each
        holding the same object in every tuple.  The first copy stays in
        the source's physical domain; further copies go to the physical
        domains given (or to free ones).
        """
        if len(names) < 2:
            raise JeddError("copy needs at least two target attributes")
        src_attr = self.schema.attribute(source)
        src_pd = self.schema.physdom(source)
        targets = [
            self.universe.get_attribute(n) if isinstance(n, str) else n
            for n in names
        ]
        for t in targets:
            if t.domain is not src_attr.domain:
                raise JeddError(
                    f"copy target {t.name} has domain {t.domain.name}, "
                    f"expected {src_attr.domain.name}"
                )
            if t.name != source and t.name in self.schema:
                raise JeddError(f"copy target {t.name} already in schema")
        if len({t.name for t in targets}) != len(targets):
            raise JeddError("copy targets must be distinct")
        # Physical domains for the extra copies.
        if physdoms is not None:
            if len(physdoms) != len(targets) - 1:
                raise JeddError(
                    "copy: one physical domain per extra copy required"
                )
            extra_pds = [
                self.universe.get_physdom(p) if isinstance(p, str) else p
                for p in physdoms
            ]
        else:
            extra_pds = []
            used = [pd for _, pd in self.schema.pairs]
            for _ in targets[1:]:
                pd = _free_physdom(
                    self.universe, src_pd.bits, used, near=src_pd
                )
                extra_pds.append(pd)
                used.append(pd)
        # Conceptually a join with the identity relation {(v, v)} matching
        # on the source attribute; match() handles backend differences
        # (the ZDD encoding needs explicit don't-care expansion).
        node = self.node
        values = src_attr.domain.values()
        used_levels = self.schema.levels()
        for pd in extra_pds:
            eq = self.backend.equality(src_pd.levels, pd.levels, values)
            a_only = [l for l in used_levels if l not in src_pd.levels]
            node = self.backend.match(
                node, eq, src_pd.levels, a_only, pd.levels, False
            )
            used_levels = used_levels + pd.levels
        new_pairs = []
        for attr, pd in self.schema.pairs:
            if attr.name == source:
                new_pairs.append((targets[0], src_pd))
                for t, tpd in zip(targets[1:], extra_pds):
                    new_pairs.append((t, tpd))
            else:
                new_pairs.append((attr, pd))
        return self._wrap(Schema(new_pairs), node)

    # ------------------------------------------------------------------
    # Join and composition ([Join], [Compose])
    # ------------------------------------------------------------------

    def _match_setup(
        self,
        other: "Relation",
        self_attrs: Sequence[str],
        other_attrs: Sequence[str],
        op: str,
    ) -> Tuple["Relation", List[int], List[int], List[int]]:
        plan = _plan_match(
            self.universe, self.schema.pairs, other.schema.pairs,
            self_attrs, other_attrs, op,
        )
        aligned = other.replace(plan.targets)
        return aligned, plan.cmp_levels, plan.a_only, plan.b_only

    @_traced("relation.join", "relation")
    def join(
        self,
        other: "Relation",
        self_attrs: Sequence[str],
        other_attrs: Sequence[str],
    ) -> "Relation":
        """Jedd ``x{a1,...} >< y{b1,...}``.

        Pairs of tuples matching on the compared attributes are merged;
        the compared attributes are kept (under the left relation's
        names).  The attribute sets of the result operands must be
        disjoint ([Join] in Figure 6).
        """
        overlap = self.schema.name_set() & (
            other.schema.name_set() - frozenset(other_attrs)
        )
        if overlap:
            raise JeddError(
                f"join: attributes {sorted(overlap)} appear on both sides"
            )
        aligned, cmp_levels, a_only, b_only = self._match_setup(
            other, self_attrs, other_attrs, "join"
        )
        node = self.backend.match(
            self.node, aligned.node, cmp_levels, a_only, b_only, False
        )
        new_pairs = list(self.schema.pairs)
        compared = set(other_attrs)
        for attr, pd in aligned.schema.pairs:
            if attr.name not in compared:
                new_pairs.append((attr, pd))
        return self._wrap(Schema(new_pairs), node)

    @_traced("relation.compose", "relation")
    def compose(
        self,
        other: "Relation",
        self_attrs: Sequence[str],
        other_attrs: Sequence[str],
    ) -> "Relation":
        """Jedd ``x{a1,...} <> y{b1,...}``.

        Like :meth:`join` but the compared attributes are projected away
        -- implemented with the fused conjunction+quantification
        operation rather than a join followed by a projection.
        """
        self_rest = self.schema.name_set() - frozenset(self_attrs)
        other_rest = other.schema.name_set() - frozenset(other_attrs)
        overlap = self_rest & other_rest
        if overlap:
            raise JeddError(
                f"compose: attributes {sorted(overlap)} appear on both sides"
            )
        aligned, cmp_levels, a_only, b_only = self._match_setup(
            other, self_attrs, other_attrs, "compose"
        )
        node = self.backend.match(
            self.node, aligned.node, cmp_levels, a_only, b_only, True
        )
        new_pairs = [
            (attr, pd)
            for attr, pd in self.schema.pairs
            if attr.name not in set(self_attrs)
        ]
        compared = set(other_attrs)
        for attr, pd in aligned.schema.pairs:
            if attr.name not in compared:
                new_pairs.append((attr, pd))
        return self._wrap(Schema(new_pairs), node)

    @_traced("relation.compose_pipeline", "relation")
    def compose_pipeline(
        self,
        steps: Sequence[Tuple["Relation", Sequence[str], Sequence[str]]],
        place: Optional[Mapping[str, PhysicalDomain | str]] = None,
    ) -> "Relation":
        """Fused multi-way relational product.

        ``steps`` is a sequence of ``(other, on, drop)`` triples: at
        each step the running result is matched with ``other`` on the
        attribute names ``on`` (present under the same name on both
        sides), then the attributes in ``drop`` are projected away.
        Only attributes no later step (and no consumer) needs should be
        dropped — shared attributes are *not* quantified automatically
        the way :meth:`compose` does.

        Before each step one side is moved so the compared attributes
        share physical domains: either ``other`` into the running
        result's domains (what :meth:`compose` does) or the running
        result into ``other``'s.  The one that moves fewer bits wins,
        ties going to ``other``.  ``place`` (attribute name -> physical
        domain, e.g. the consumer's declared schema) steers the last
        step: its count includes the bits the result would still need
        to reach ``place``, and an attribute evicted from a taken domain
        goes to its ``place`` domain when that is free.  The result is
        not moved further; callers align it as they need.

        On the BDD backend each step lowers to a single fused
        ``and_exist`` kernel call plus at most the alignment's variable
        permutations (:meth:`DiagramBackend.relprod_pipeline`); no
        intermediate relations are materialised.  This is the workhorse
        of the semi-naive fixpoint engine's rule bodies.
        """
        universe = self.universe
        if place:
            place = {
                name: universe.get_physdom(pd) if isinstance(pd, str) else pd
                for name, pd in place.items()
            }
        cur_pairs: List[Tuple[Attribute, PhysicalDomain]] = list(
            self.schema.pairs
        )
        plan_steps: List[PipelineStep] = []
        last = len(steps) - 1
        for i, (other, on, drop) in enumerate(steps):
            if not isinstance(other, Relation):
                raise TypeError(
                    f"compose_pipeline: not a relation: {other!r}"
                )
            if other.universe is not universe or type(
                other.backend
            ) is not type(self.backend):
                raise JeddError(
                    "compose_pipeline: operands come from different "
                    "universes/backends"
                )
            on = list(on)
            cur_names = {attr.name for attr, _ in cur_pairs}
            overlap = (
                other.schema.name_set() - frozenset(on)
            ) & cur_names
            if overlap:
                raise JeddError(
                    f"compose_pipeline: attributes {sorted(overlap)} "
                    "appear on both sides"
                )
            goal = place if i == last else None
            other_pairs = other.schema.pairs
            plan = _plan_match(
                universe, cur_pairs, other_pairs, on, on,
                "compose_pipeline", goal,
            )
            drop_set = set(drop)
            combined = _combined(cur_pairs, plan.aligned_pairs, on)
            missing = drop_set - {attr.name for attr, _ in combined}
            if missing:
                raise JeddError(
                    f"compose_pipeline: cannot drop {sorted(missing)}: "
                    "not in the combined schema"
                )
            a_only, b_only = plan.a_only, plan.b_only
            a_moves, b_moves = [], plan.moves
            cost = _moved_bits(b_moves) + _misplaced_bits(
                combined, drop_set, goal
            )
            if cost:
                # The mirror image: the running result moves into the
                # operand's domains (the same plan with sides swapped).
                mirror = _plan_match(
                    universe, other_pairs, cur_pairs, on, on,
                    "compose_pipeline", goal,
                )
                mirrored = _combined(mirror.aligned_pairs, other_pairs, on)
                if _moved_bits(mirror.moves) + _misplaced_bits(
                    mirrored, drop_set, goal
                ) < cost:
                    plan, combined = mirror, mirrored
                    a_only, b_only = mirror.b_only, mirror.a_only
                    a_moves, b_moves = mirror.moves, []
            exist_levels = [
                l
                for attr, pd in combined
                if attr.name in drop_set
                for l in pd.levels
            ]
            plan_steps.append(
                PipelineStep(
                    b=other.node,
                    cmp_levels=plan.cmp_levels,
                    a_only_levels=a_only,
                    b_only_levels=b_only,
                    exist_levels=exist_levels,
                    b_perm=universe.move_permutation(b_moves),
                    a_perm=universe.move_permutation(a_moves),
                )
            )
            cur_pairs = [
                (attr, pd)
                for attr, pd in combined
                if attr.name not in drop_set
            ]
        node = self.backend.relprod_pipeline(self.node, plan_steps)
        return self._wrap(Schema(cur_pairs), node)

    def select(self, values: Dict[str, Hashable]) -> "Relation":
        """Selection: tuples with the given objects in certain attributes.

        Jedd has no dedicated selection operation; section 2.2.4
        explains it is "most easily implemented by constructing a
        relation containing the desired objects, and joining it with the
        relation of interest" -- which is exactly what this convenience
        method does.
        """
        if not values:
            return self
        attrs = list(values)
        for name in attrs:
            if name not in self.schema:
                raise JeddError(f"select: no attribute {name!r} in schema")
        pds = {name: self.schema.physdom(name) for name in attrs}
        selector = Relation.from_tuple(self.universe, values, pds)
        return self.join(selector, attrs, attrs)

    # ------------------------------------------------------------------
    # Extraction (section 2.3)
    # ------------------------------------------------------------------

    def count(self) -> int:
        """Exact tuple cardinality via the kernel's model counter.

        Satcount walks the diagram once — O(nodes) — where materialising
        :meth:`tuples` is O(result).  Prefer this (or :meth:`size`,
        its alias) over ``len(list(r.tuples()))`` for cardinality
        checks.
        """
        return self.backend.count(self.node, self.schema.levels())

    def size(self) -> int:
        """Number of tuples in the relation (alias of :meth:`count`)."""
        return self.count()

    def __len__(self) -> int:
        return self.count()

    def tuples(self) -> Iterator[Tuple[Hashable, ...]]:
        """Iterate tuples as object tuples in schema order."""
        variables, decode = _key_decoder(self.schema)
        yield from map(decode, self.backend.to_keys(self.node, variables))

    def __iter__(self) -> Iterator:
        """Single-attribute iterator (objects) or tuple iterator.

        Mirrors the two ``java.util.Iterator`` flavours of section 2.3.
        """
        if len(self.schema) == 1:
            return (row[0] for row in self.tuples())
        return self.tuples()

    def __str__(self) -> str:
        """Tabular rendering, the Jedd ``toString()`` debugging aid."""
        names = self.schema.names()
        rows = [tuple(str(v) for v in row) for row in self.tuples()]
        rows.sort()
        widths = [
            max(len(n), *(len(r[i]) for r in rows)) if rows else len(n)
            for i, n in enumerate(names)
        ]
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                "  ".join(v.ljust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Relation({self.schema!r}, {self.size()} tuples, "
            f"{self.backend.node_count(self.node)} nodes)"
        )

    # ------------------------------------------------------------------
    # Aggregates (quantitative extension; ROADMAP "MTBDD/ADD backend")
    # ------------------------------------------------------------------

    @_traced("relation.aggregate", "relation")
    def aggregate(
        self,
        agg: str,
        attr: Optional[str] = None,
        group_by: Sequence[str] = (),
    ) -> "WeightedRelation":
        """Grouped aggregation, the codd-style ``count/sum/max/min/mean``.

        The relation is first projected onto ``{attr} | group_by``
        (boolean dedup, so repeated source tuples never double-count),
        then per distinct ``group_by`` tuple:

        ``count``
            number of distinct ``attr`` values (all non-group attributes
            when ``attr`` is omitted);
        ``sum`` / ``max`` / ``min``
            over the numeric objects of ``attr``;
        ``mean``
            ``sum / count`` (Python true division, identical in both
            execution paths).

        On the multi-terminal backend the grouping runs as diagram
        abstraction — ``count``/``sum`` are ``add``-quantification of
        the (value-weighted) relation over the non-group levels,
        ``max``/``min`` their idempotent counterparts; other backends
        fall back to tuple materialisation with identical results.
        Returns a :class:`WeightedRelation` keyed by the group columns.
        """
        if agg not in AGGREGATE_OPS:
            raise JeddError(
                f"unknown aggregate {agg!r} (expected one of "
                f"{', '.join(AGGREGATE_OPS)})"
            )
        group_by = list(group_by)
        if len(set(group_by)) != len(group_by):
            raise JeddError("aggregate: repeated group-by attribute")
        for name in group_by:
            if name not in self.schema:
                raise JeddError(
                    f"aggregate: no attribute {name!r} in schema"
                )
        if attr is not None:
            if attr not in self.schema:
                raise JeddError(
                    f"aggregate: no attribute {attr!r} in schema"
                )
            if attr in group_by:
                raise JeddError(
                    f"aggregate: {attr!r} cannot be both aggregated "
                    "and grouped"
                )
        elif agg != "count":
            raise JeddError(f"aggregate {agg!r} needs an attribute")
        needed = set(group_by)
        needed |= {attr} if attr is not None else set(self.schema.names())
        base = self.project_onto(*needed)
        result_schema = Schema(
            [
                (base.schema.attribute(n), base.schema.physdom(n))
                for n in group_by
            ]
        )
        if self.backend.supports_weights():
            weights = base._aggregate_diagram(agg, attr, group_by)
        else:
            weights = base._aggregate_tuples(agg, attr, group_by)
        return WeightedRelation(
            self.universe, result_schema, weights=weights
        )

    def _aggregate_diagram(self, agg, attr, group_by):
        """Grouped aggregation via MTBDD abstraction operators."""
        be = self.backend
        u = self.universe
        group_levels, decode = _key_decoder(
            Schema(
                [
                    (self.schema.attribute(n), self.schema.physdom(n))
                    for n in group_by
                ]
            )
        )
        group_set = set(group_levels)
        other_levels = [
            l for l in self.schema.levels() if l not in group_set
        ]
        count_node = None
        value_node = None
        if agg in ("count", "mean"):
            count_node = be.abstract("add", self.node, other_levels)
        if attr is not None and agg != "count":
            pd = self.schema.physdom(attr)
            dom = self.schema.attribute(attr).domain
            variables, encode = _key_encoder(
                u, Schema([(self.schema.attribute(attr), pd)])
            )
            keys = []
            leaves = []
            for idx in dom.values():
                obj = dom.object_of(idx)
                if not isinstance(obj, (int, float)):
                    raise JeddError(
                        f"aggregate {agg!r}: attribute {attr!r} holds "
                        f"non-numeric object {obj!r}"
                    )
                keys.append(encode((obj,)))
                leaves.append(be.terminal(obj))
            values = be.from_keys(variables, keys, leaves)
            if agg in ("sum", "mean"):
                masked = be.ite(self.node, values, be.terminal(0))
                value_node = be.abstract("add", masked, other_levels)
            else:
                # Absent tuples must not win the max/min: mask them to
                # the operation's identity; absent *groups* are never
                # enumerated, so the sentinel is never read.
                sentinel = float("-inf") if agg == "max" else float("inf")
                masked = be.ite(self.node, values, be.terminal(sentinel))
                value_node = be.abstract(agg, masked, other_levels)
        group_node = be.abstract("or", self.node, other_levels)
        weights = {}
        for bits in be.to_keys(group_node, group_levels):
            assignment = {
                level: bool(bits >> p & 1)
                for p, level in enumerate(group_levels)
            }
            key = decode(bits)
            if agg == "count":
                weights[key] = be.evaluate(count_node, assignment)
            elif agg == "mean":
                weights[key] = be.evaluate(
                    value_node, assignment
                ) / be.evaluate(count_node, assignment)
            else:
                weights[key] = be.evaluate(value_node, assignment)
        return weights

    def _aggregate_tuples(self, agg, attr, group_by):
        """Portable fallback: materialise tuples and aggregate in dicts
        (this is also, verbatim, the differential tests' oracle
        semantics)."""
        names = list(self.schema.names())
        gidx = [names.index(n) for n in group_by]
        aidx = names.index(attr) if attr is not None else None
        groups: Dict[tuple, list] = {}
        for row in self.tuples():
            key = tuple(row[i] for i in gidx)
            groups.setdefault(key, []).append(row)
        weights = {}
        for key, rows in groups.items():
            if agg == "count":
                weights[key] = len(rows)
                continue
            values = []
            for row in rows:
                obj = row[aidx]
                if not isinstance(obj, (int, float)):
                    raise JeddError(
                        f"aggregate {agg!r}: attribute {attr!r} holds "
                        f"non-numeric object {obj!r}"
                    )
                values.append(obj)
            if agg == "sum":
                weights[key] = sum(values)
            elif agg == "max":
                weights[key] = max(values)
            elif agg == "min":
                weights[key] = min(values)
            else:  # mean
                weights[key] = sum(values) / len(values)
        return weights

    # ------------------------------------------------------------------
    # Profiling helpers
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Number of diagram nodes representing this relation."""
        return self.backend.node_count(self.node)

    def shape(self) -> List[int]:
        """Per-level node counts (the profiler's BDD shape, section 4.3)."""
        return self.backend.shape(self.node)


class WeightedRelation:
    """A relation mapping tuples to numeric weights.

    Two interchangeable representations behind one API: *diagram-backed*
    (an MTBDD whose terminals carry the weights — only on the
    multi-terminal backend) and *table-backed* (a plain dict, the
    portable fallback and the form aggregate results take).  A weight of
    0 means the tuple is absent — the diagram encoding cannot
    distinguish the two, so the table form drops zero net weights for
    consistency.

    Build one with :meth:`from_weighted_tuples` (repeated tuples sum
    their weights) or receive one from :meth:`Relation.aggregate`.
    """

    __slots__ = (
        "universe", "schema", "backend", "node", "_weights", "_released"
    )

    def __init__(
        self,
        universe: Universe,
        schema: Schema,
        node: Optional[int] = None,
        weights: Optional[Dict[tuple, object]] = None,
        backend: Optional[DiagramBackend] = None,
    ) -> None:
        if (node is None) == (weights is None):
            raise JeddError(
                "WeightedRelation needs exactly one of node/weights"
            )
        self.universe = universe
        self.schema = schema
        self.backend = backend or _backend_for(universe.manager)
        self._released = False
        if node is not None:
            if not self.backend.supports_weights():
                raise JeddError(
                    f"the {self.backend.name} backend cannot hold "
                    "weighted diagrams (open the universe with "
                    "backend='mtbdd')"
                )
            self.node = self.backend.ref(node)
            self._weights = None
        else:
            self.node = None
            self._weights = {
                tuple(k): w for k, w in weights.items() if w != 0
            }
        universe._note_relation(self)

    def __del__(self) -> None:
        self.dispose()

    def dispose(self) -> None:
        """Drop the diagram reference (idempotent; no-op on the table
        representation)."""
        if not self._released:
            self._released = True
            if self.node is not None:
                try:
                    self.backend.deref(self.node)
                except Exception:
                    pass  # interpreter shutdown may have torn down the manager

    @property
    def disposed(self) -> bool:
        return self._released

    def __enter__(self) -> "WeightedRelation":
        return self

    def __exit__(self, *exc) -> bool:
        self.dispose()
        return False

    @classmethod
    def from_weighted_tuples(
        cls,
        universe: Universe,
        attributes: Sequence[Attribute | str],
        rows: Iterable[Sequence],
        physdoms: Optional[Sequence[PhysicalDomain | str]] = None,
    ) -> "WeightedRelation":
        """Bulk constructor: each row is ``(*objects, weight)``.

        Repeated tuples sum their weights; tuples whose net weight is 0
        are dropped.  On the multi-terminal backend the result is
        diagram-backed (built in one pass, each tuple's leaf its weight
        terminal); elsewhere it is table-backed.
        """
        schema = Relation._make_schema(universe, attributes, physdoms)
        backend = _backend_for(universe.manager)
        acc: Dict[tuple, object] = {}
        for row in rows:
            if len(row) != len(schema) + 1:
                raise JeddError(
                    f"weighted row {tuple(row)!r} does not match schema "
                    f"{schema!r} plus a weight"
                )
            *objs, weight = row
            if isinstance(weight, bool) or not isinstance(
                weight, (int, float)
            ):
                raise JeddError(
                    f"weight {weight!r} is not a number"
                )
            key = tuple(objs)
            acc[key] = acc.get(key, 0) + weight
        acc = {k: w for k, w in acc.items() if w != 0}
        if not backend.supports_weights():
            # Intern eagerly so lookups behave identically to the
            # diagram path.
            for key in acc:
                for (attr, _), obj in zip(schema.pairs, key):
                    attr.domain.intern(obj)
            return cls(universe, schema, weights=acc, backend=backend)
        variables, encode = _key_encoder(universe, schema)
        keys = [encode(key) for key in acc]
        leaves = [backend.terminal(weight) for weight in acc.values()]
        node = backend.from_keys(variables, keys, leaves)
        return cls(universe, schema, node=node, backend=backend)

    # ------------------------------------------------------------------
    # Lookup and enumeration
    # ------------------------------------------------------------------

    def weight(self, *objs):
        """The weight of one tuple (0 when absent)."""
        if len(objs) == 1 and isinstance(objs[0], tuple) and len(
            self.schema
        ) != 1:
            objs = objs[0]
        if len(objs) != len(self.schema):
            raise JeddError(
                f"weight() takes {len(self.schema)} object(s), "
                f"got {len(objs)}"
            )
        if self._weights is not None:
            return self._weights.get(tuple(objs), 0)
        assignment: Dict[int, bool] = {}
        for (attr, pd), obj in zip(self.schema.pairs, objs):
            if obj not in attr.domain:
                return 0
            assignment.update(
                self.universe.encode_bits(pd, attr.domain.index_of(obj))
            )
        return self.backend.evaluate(self.node, assignment)

    def items(self) -> Iterator[Tuple[tuple, object]]:
        """Iterate ``(tuple, weight)`` pairs (non-zero weights only)."""
        if self._weights is not None:
            yield from self._weights.items()
            return
        levels = self.schema.levels()
        for assignment, value in self.backend.all_terminals(
            self.node, levels
        ):
            key = []
            for attr, pd in self.schema.pairs:
                idx = self.universe.decode_bits(pd, assignment)
                key.append(attr.domain.object_of(idx))
            yield tuple(key), value

    def tuples(self) -> Iterator[tuple]:
        """Iterate the tuples carrying non-zero weight."""
        return (key for key, _ in self.items())

    def as_dict(self) -> Dict[tuple, object]:
        """The full tuple->weight mapping as a plain dict."""
        return dict(self.items())

    def size(self) -> int:
        """Number of tuples with non-zero weight."""
        if self._weights is not None:
            return len(self._weights)
        return sum(1 for _ in self.items())

    def __len__(self) -> int:
        return self.size()

    def total(self):
        """Sum of all weights.

        Diagram-backed relations compute this as one
        ``add``-abstraction over all used levels (the satcount
        generalisation) — no tuple materialisation.
        """
        if self._weights is not None:
            return sum(self._weights.values())
        return self.backend.weighted_total(
            self.node, self.schema.levels()
        )

    def to_relation(self, threshold=0) -> Relation:
        """The boolean relation of tuples with ``weight > threshold``."""
        rows = [key for key, w in self.items() if w > threshold]
        return Relation.from_tuples(
            self.universe,
            [attr for attr, _ in self.schema.pairs],
            rows,
            [pd for _, pd in self.schema.pairs],
        )

    def node_count(self) -> int:
        """Diagram nodes (table-backed relations report 0)."""
        if self.node is None:
            return 0
        return self.backend.node_count(self.node)

    def shape(self) -> List[int]:
        """Per-level node counts (empty for table-backed relations)."""
        if self.node is None:
            return []
        return self.backend.shape(self.node)

    def __str__(self) -> str:
        """Tabular rendering with a trailing weight column."""
        names = list(self.schema.names()) + ["weight"]
        rows = [
            tuple(str(v) for v in key) + (str(w),)
            for key, w in self.items()
        ]
        rows.sort()
        widths = [
            max(len(n), *(len(r[i]) for r in rows)) if rows else len(n)
            for i, n in enumerate(names)
        ]
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                "  ".join(v.ljust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        kind = "diagram" if self.node is not None else "table"
        return (
            f"WeightedRelation({self.schema!r}, {self.size()} tuples, "
            f"{kind}-backed)"
        )
