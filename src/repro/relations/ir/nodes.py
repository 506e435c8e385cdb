"""The relational-algebra IR: a small expression language over relations.

Every lowering layer (the mini-language interpreter and code generator,
the fixpoint engine's rule bodies, the shell) builds these nodes instead
of calling :class:`~repro.relations.relation.Relation` methods directly;
the planner (:mod:`repro.relations.ir.planner`) then reorders and
schedules the products before execution
(:mod:`repro.relations.ir.execute`).

Nodes are immutable values with a *structural key* (``node.key``): two
nodes with equal keys denote the same computation over the same leaf
slots, which is what the plan cache and the evaluator's
common-subexpression memo key on.  A node does not hold relations —
leaves name *slots* that the caller binds to relations at evaluation
time, so one lowered expression can be evaluated many times (loop
bodies, fixpoint iterations) against changing inputs.

The operation set mirrors Figure 5 of the paper plus what the runtime
needs:

``leaf``
    a slot to be bound to a relation (a scan);
``product``
    the natural join of its parts on shared attribute names, with an
    optional set of attributes existentially quantified out of the
    result — the planner's main subject (``join``/``compose`` both
    lower to it, after renames align the compared attributes);
``project``
    existential quantification (``a=>``);
``rename`` / ``replace`` / ``copy``
    attribute renaming, physical-domain moves (``replace`` carries an
    optional ``tag`` so the interpreter can log wrapper replaces at
    their source positions), and ``a=>b c`` copies;
``union`` / ``intersect`` / ``diff``
    the set operations;
``filter``
    selection by fixed attribute values (section 2.2.4);
``aggregate``
    grouped ``count/sum/max/min/mean`` producing a weighted relation
    (the quantitative extension — executed via the multi-terminal
    backend's abstraction operators where available).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.relations.domain import JeddError

__all__ = [
    "Node",
    "Leaf",
    "Match",
    "Product",
    "Project",
    "Rename",
    "Replace",
    "Copy",
    "Union",
    "Intersect",
    "Diff",
    "Filter",
    "Aggregate",
    "AGGREGATES",
    "leaf",
    "match",
    "positional_join",
    "product",
    "project",
    "rename",
    "replace",
    "copy",
    "union",
    "intersect",
    "diff",
    "filter",
    "aggregate",
    "to_source",
]

#: The aggregate operations :class:`Aggregate` understands.
AGGREGATES = ("count", "sum", "max", "min", "mean")


class Node:
    """Base class.  ``attrs`` is the produced attribute-name set,
    ``slots`` the leaf slot names the subtree reads (sorted, deduped),
    ``key`` the hashable structural identity."""

    __slots__ = ("key", "attrs", "slots")

    key: tuple
    attrs: frozenset
    slots: Tuple[str, ...]

    def evaluate(self, env, universe, planner=None, **kwargs):
        """Evaluate this node; see :func:`repro.relations.ir.evaluate`."""
        from repro.relations.ir.execute import evaluate, EvalContext

        ctx = EvalContext(universe, env, planner=planner, **kwargs)
        return evaluate(self, ctx)

    def __repr__(self) -> str:
        return to_source(self, alias="ir")


def _merge_slots(children: Iterable[Node]) -> Tuple[str, ...]:
    seen = []
    for child in children:
        for slot in child.slots:
            if slot not in seen:
                seen.append(slot)
    return tuple(sorted(seen))


class Leaf(Node):
    __slots__ = ("slot",)

    def __init__(self, slot: str, attrs: Iterable[str]) -> None:
        self.slot = slot
        self.attrs = frozenset(attrs)
        if not self.attrs:
            raise JeddError(f"leaf {slot!r}: empty attribute set")
        self.slots = (slot,)
        self.key = ("leaf", slot, tuple(sorted(self.attrs)))


class Product(Node):
    """Natural join of ``parts`` on shared attribute names, then
    existential quantification of ``quantify``."""

    __slots__ = ("parts", "quantify")

    def __init__(
        self, parts: Sequence[Node], quantify: Iterable[str] = ()
    ) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise JeddError("product: no parts")
        self.quantify = frozenset(quantify)
        produced: frozenset = frozenset()
        for part in self.parts:
            produced |= part.attrs
        missing = self.quantify - produced
        if missing:
            raise JeddError(
                f"product: cannot quantify {sorted(missing)}: "
                "not produced by any part"
            )
        self.attrs = produced - self.quantify
        self.slots = _merge_slots(self.parts)
        self.key = (
            "product",
            tuple(p.key for p in self.parts),
            tuple(sorted(self.quantify)),
        )


class Project(Node):
    __slots__ = ("child", "drop")

    def __init__(self, child: Node, drop: Iterable[str]) -> None:
        self.child = child
        self.drop = frozenset(drop)
        missing = self.drop - child.attrs
        if missing:
            raise JeddError(
                f"project: {sorted(missing)} not in the child schema"
            )
        self.attrs = child.attrs - self.drop
        self.slots = child.slots
        self.key = ("project", child.key, tuple(sorted(self.drop)))


class Rename(Node):
    __slots__ = ("child", "mapping")

    def __init__(self, child: Node, mapping: Mapping[str, str]) -> None:
        self.child = child
        self.mapping = tuple(sorted(mapping.items()))
        sources = frozenset(mapping)
        missing = sources - child.attrs
        if missing:
            raise JeddError(
                f"rename: {sorted(missing)} not in the child schema"
            )
        attrs = set(child.attrs - sources)
        for src, dst in self.mapping:
            if dst in attrs:
                raise JeddError(
                    f"rename: target {dst!r} collides with an existing "
                    "attribute"
                )
            attrs.add(dst)
        self.attrs = frozenset(attrs)
        self.slots = child.slots
        self.key = ("rename", child.key, self.mapping)


class Replace(Node):
    """Physical-domain moves: ``targets`` maps attribute name to the
    physical-domain name it must land in.  ``tag`` is an opaque label
    (the interpreter passes the wrapper's source position) reported to
    the evaluation context's ``on_replace`` callback; it participates in
    the structural key so distinct program points never share a memo
    entry (each must log its own replace)."""

    __slots__ = ("child", "targets", "tag")

    def __init__(
        self,
        child: Node,
        targets: Mapping[str, str],
        tag: Optional[object] = None,
    ) -> None:
        self.child = child
        self.targets = tuple(sorted(targets.items()))
        if not self.targets:
            raise JeddError("replace: no attribute moves")
        missing = frozenset(targets) - child.attrs
        if missing:
            raise JeddError(
                f"replace: {sorted(missing)} not in the child schema"
            )
        self.tag = tag
        self.attrs = child.attrs
        self.slots = child.slots
        self.key = ("replace", child.key, self.targets, str(tag))


class Copy(Node):
    """``source => t1 t2``: duplicate an attribute's value column.

    ``physdoms`` optionally names the physical domains of the freshly
    created targets (the ones beyond the first, which reuses the
    source's placement), as :meth:`Relation.copy` expects."""

    __slots__ = ("child", "source", "targets", "physdoms")

    def __init__(
        self,
        child: Node,
        source: str,
        targets: Sequence[str],
        physdoms: Optional[Sequence[str]] = None,
    ) -> None:
        self.child = child
        self.source = source
        self.targets = tuple(targets)
        self.physdoms = tuple(physdoms) if physdoms is not None else None
        if source not in child.attrs:
            raise JeddError(f"copy: {source!r} not in the child schema")
        attrs = set(child.attrs)
        attrs.discard(source)
        for t in self.targets:
            if t in attrs:
                raise JeddError(
                    f"copy: target {t!r} collides with an existing attribute"
                )
            attrs.add(t)
        self.attrs = frozenset(attrs)
        self.slots = child.slots
        self.key = (
            "copy", child.key, source, self.targets, self.physdoms,
        )


class Match(Node):
    """Positional comparison, Jedd's ``x{a1,..} >< y{b1,..}`` (``keep``
    true) and ``x{a1,..} <> y{b1,..}`` (``keep`` false), executed by
    :meth:`Relation.join` / :meth:`Relation.compose`.

    Most joins lower to :class:`Product` after a rename aligns the
    compared attributes, which is what lets the planner reorder them.
    This node is the escape hatch for comparisons attribute naming
    cannot express as a natural join — e.g. transitive closure's
    ``path{t} <> edge{s}`` where both names stay live on both sides —
    and for preserving the runtime's own error on overlapping
    uncompared attributes.  The planner treats it as a barrier."""

    __slots__ = ("left", "right", "left_attrs", "right_attrs", "keep")

    def __init__(
        self,
        left: Node,
        right: Node,
        left_attrs: Sequence[str],
        right_attrs: Sequence[str],
        keep: bool,
    ) -> None:
        self.left = left
        self.right = right
        self.left_attrs = tuple(left_attrs)
        self.right_attrs = tuple(right_attrs)
        if len(self.left_attrs) != len(self.right_attrs):
            raise JeddError(
                "match: compared attribute lists differ in length"
            )
        self.keep = keep
        missing = frozenset(self.left_attrs) - left.attrs
        missing |= frozenset(self.right_attrs) - right.attrs
        if missing:
            raise JeddError(
                f"match: {sorted(missing)} not in the operand schemas"
            )
        rest_right = right.attrs - frozenset(self.right_attrs)
        if keep:
            self.attrs = left.attrs | rest_right
        else:
            self.attrs = (left.attrs - frozenset(self.left_attrs)) | rest_right
        self.slots = _merge_slots((left, right))
        self.key = (
            "match",
            left.key,
            right.key,
            self.left_attrs,
            self.right_attrs,
            keep,
        )


class _SetOp(Node):
    __slots__ = ("left", "right")

    _op = ""

    def __init__(self, left: Node, right: Node) -> None:
        self.left = left
        self.right = right
        if left.attrs != right.attrs:
            raise JeddError(
                f"{self._op}: operand schemas differ: "
                f"{sorted(left.attrs)} vs {sorted(right.attrs)}"
            )
        self.attrs = left.attrs
        self.slots = _merge_slots((left, right))
        self.key = (self._op, left.key, right.key)


class Union(_SetOp):
    __slots__ = ()
    _op = "union"


class Intersect(_SetOp):
    __slots__ = ()
    _op = "intersect"


class Diff(_SetOp):
    __slots__ = ()
    _op = "diff"


class Aggregate(Node):
    """Grouped aggregation: ``agg`` over ``attr`` per distinct
    ``group_by`` tuple, evaluating to a
    :class:`~repro.relations.relation.WeightedRelation` keyed by the
    group columns.  ``attr`` is ``None`` only for ``count``, which then
    counts distinct non-group tuples.

    The node's ``attrs`` are the group columns: a weighted result never
    feeds relational operators (the typechecker forbids it), so the
    attribute set only describes the result's key schema.  Build these
    with the :func:`aggregate` constructor, which projects the operand
    onto the needed attributes first — that projection merges into a
    child product's ``quantify`` set, so the planner schedules the
    dedup exactly where the unused attributes die (the aggregate sits
    *after* projection pushdown by construction)."""

    __slots__ = ("child", "agg", "attr", "group_by")

    def __init__(
        self,
        child: Node,
        agg: str,
        attr: Optional[str],
        group_by: Sequence[str],
    ) -> None:
        if agg not in AGGREGATES:
            raise JeddError(
                f"unknown aggregate {agg!r} (expected one of "
                f"{', '.join(AGGREGATES)})"
            )
        self.child = child
        self.agg = agg
        self.attr = attr
        self.group_by = tuple(group_by)
        if len(set(self.group_by)) != len(self.group_by):
            raise JeddError("aggregate: repeated group-by attribute")
        missing = frozenset(self.group_by) - child.attrs
        if missing:
            raise JeddError(
                f"aggregate: {sorted(missing)} not in the child schema"
            )
        if attr is not None:
            if attr not in child.attrs:
                raise JeddError(
                    f"aggregate: {attr!r} not in the child schema"
                )
            if attr in self.group_by:
                raise JeddError(
                    f"aggregate: {attr!r} cannot be both aggregated "
                    "and grouped"
                )
        elif agg != "count":
            raise JeddError(f"aggregate {agg!r} needs an attribute")
        self.attrs = frozenset(self.group_by)
        self.slots = child.slots
        self.key = ("aggregate", child.key, agg, attr, self.group_by)


class Filter(Node):
    """Selection: keep tuples whose attributes carry fixed values."""

    __slots__ = ("child", "values")

    def __init__(self, child: Node, values: Mapping[str, object]) -> None:
        self.child = child
        self.values = tuple(sorted(values.items()))
        missing = frozenset(values) - child.attrs
        if missing:
            raise JeddError(
                f"filter: {sorted(missing)} not in the child schema"
            )
        self.attrs = child.attrs
        self.slots = child.slots
        self.key = ("filter", child.key, self.values)


# ----------------------------------------------------------------------
# Constructors (the public surface; ``product`` also rewrites)
# ----------------------------------------------------------------------


def leaf(slot: str, attrs: Iterable[str]) -> Leaf:
    return Leaf(slot, attrs)


def product(parts: Sequence[Node], quantify: Iterable[str] = ()) -> Node:
    """Build a product, flattening nested products where that preserves
    meaning — the rewrite that turns binary join/compose chains into the
    n-ary conjunct lists the planner reorders.

    A nested ``Product`` part is inlined when the attributes it
    quantifies appear nowhere else in the surrounding product: neither
    as an attribute of a sibling part (the name would suddenly be
    joined) nor among another inlined part's quantified attributes (two
    unrelated existentials would be identified).  Its quantified set
    then merges into the outer one — quantification is simply deferred
    to where the planner schedules it.  A single-part, no-quantify
    product collapses to its part.
    """
    parts = list(parts)
    quantify = set(quantify)
    flat: list = []
    merged_quantify: set = set(quantify)
    for i, part in enumerate(parts):
        if isinstance(part, Product) and part.quantify:
            elsewhere: set = set(quantify)
            for j, other in enumerate(parts):
                if j != i:
                    elsewhere |= other.attrs
                    if isinstance(other, Product):
                        elsewhere |= other.quantify
            if part.quantify & elsewhere:
                flat.append(part)  # unsafe: keep as a barrier
                continue
            flat.extend(part.parts)
            merged_quantify |= part.quantify
        elif isinstance(part, Product):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1 and not merged_quantify:
        return flat[0]
    return Product(flat, merged_quantify)


def project(child: Node, drop: Iterable[str]) -> Node:
    """Existential quantification, pushed into a child product when
    possible (the quantified attributes just join its ``quantify`` set,
    letting the planner schedule them at the step where they die)."""
    drop = frozenset(drop)
    if not drop:
        return child
    if isinstance(child, Product):
        return Product(child.parts, child.quantify | drop)
    return Project(child, drop)


def rename(child: Node, mapping: Mapping[str, str]) -> Node:
    mapping = {s: d for s, d in mapping.items() if s != d}
    if not mapping:
        return child
    return Rename(child, mapping)


def replace(
    child: Node, targets: Mapping[str, str], tag: Optional[object] = None
) -> Node:
    if not targets:
        return child
    return Replace(child, targets, tag)


def copy(
    child: Node,
    source: str,
    targets: Sequence[str],
    physdoms: Optional[Sequence[str]] = None,
) -> Node:
    return Copy(child, source, targets, physdoms)


def match(
    left: Node,
    right: Node,
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
    keep: bool,
) -> Node:
    return Match(left, right, left_attrs, right_attrs, keep)


def positional_join(
    left: Node,
    right: Node,
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
    keep: bool,
) -> Node:
    """Lower Jedd's positional ``x{a,..} >< y{b,..}`` (``keep``) or
    ``x{a,..} <> y{b,..}`` to a planner-visible :class:`Product` when a
    rename can align the compared attributes, falling back to the
    :class:`Match` barrier when naming cannot express the comparison
    (or when the operands overlap and the runtime should raise its own
    error at evaluation time)."""
    left_attrs = list(left_attrs)
    right_attrs = list(right_attrs)
    rest_left = left.attrs - frozenset(left_attrs)
    rest_right = right.attrs - frozenset(right_attrs)
    overlap = (left.attrs if keep else rest_left) & rest_right
    if not overlap:
        # Compared columns join under the left names (what ``><``
        # keeps; under ``<>`` they die, so either side's names serve as
        # long as they collide with nothing live).
        if not (frozenset(left_attrs) & rest_right):
            mapping = {
                r: l for l, r in zip(left_attrs, right_attrs) if r != l
            }
            quantify = () if keep else tuple(left_attrs)
            return product((left, rename(right, mapping)), quantify)
        if not keep and not (frozenset(right_attrs) & rest_left):
            mapping = {
                l: r for l, r in zip(left_attrs, right_attrs) if r != l
            }
            return product(
                (rename(left, mapping), right), tuple(right_attrs)
            )
    return Match(left, right, left_attrs, right_attrs, keep)


def union(left: Node, right: Node) -> Node:
    return Union(left, right)


def intersect(left: Node, right: Node) -> Node:
    return Intersect(left, right)


def diff(left: Node, right: Node) -> Node:
    return Diff(left, right)


def filter(child: Node, values: Mapping[str, object]) -> Node:  # noqa: A001
    if not values:
        return child
    return Filter(child, values)


def aggregate(
    child: Node,
    agg: str,
    attr: Optional[str] = None,
    group_by: Sequence[str] = (),
) -> Aggregate:
    """Build an :class:`Aggregate`, first projecting ``child`` onto the
    attributes the aggregate reads (``{attr} | group_by``; everything
    for a bare ``count``).  The :func:`project` wrapper pushes that
    quantification into a child product, so the planner dedups at the
    earliest step and the aggregate consumes the narrowest relation."""
    group_by = tuple(group_by)
    if attr is not None:
        needed = frozenset(group_by) | {attr}
        child = project(child, child.attrs - needed)
    return Aggregate(child, agg, attr, group_by)


# ----------------------------------------------------------------------
# Serialization to Python source (for the code generator)
# ----------------------------------------------------------------------


def _dict_src(pairs: Tuple[Tuple[str, object], ...]) -> str:
    inner = ", ".join(f"{a!r}: {v!r}" for a, v in pairs)
    return "{" + inner + "}"


def to_source(node: Node, alias: str = "_ir") -> str:
    """Render ``node`` as a Python expression over the constructor
    functions of this module (imported under ``alias``); evaluating the
    expression rebuilds an equal node.  Used by the code generator to
    embed lowered IR in emitted modules."""
    if isinstance(node, Leaf):
        return f"{alias}.leaf({node.slot!r}, {tuple(sorted(node.attrs))!r})"
    if isinstance(node, Product):
        parts = ", ".join(to_source(p, alias) for p in node.parts)
        quant = tuple(sorted(node.quantify))
        return f"{alias}.product(({parts},), quantify={quant!r})"
    if isinstance(node, Project):
        drop = tuple(sorted(node.drop))
        return f"{alias}.project({to_source(node.child, alias)}, {drop!r})"
    if isinstance(node, Rename):
        return (
            f"{alias}.rename({to_source(node.child, alias)}, "
            f"{_dict_src(node.mapping)})"
        )
    if isinstance(node, Replace):
        tag = f", tag={node.tag!r}" if node.tag is not None else ""
        return (
            f"{alias}.replace({to_source(node.child, alias)}, "
            f"{_dict_src(node.targets)}{tag})"
        )
    if isinstance(node, Copy):
        pds = f", {list(node.physdoms)!r}" if node.physdoms is not None else ""
        return (
            f"{alias}.copy({to_source(node.child, alias)}, "
            f"{node.source!r}, {list(node.targets)!r}{pds})"
        )
    if isinstance(node, Match):
        return (
            f"{alias}.match({to_source(node.left, alias)}, "
            f"{to_source(node.right, alias)}, "
            f"{list(node.left_attrs)!r}, {list(node.right_attrs)!r}, "
            f"{node.keep!r})"
        )
    if isinstance(node, (Union, Intersect, Diff)):
        op = type(node)._op
        return (
            f"{alias}.{op}({to_source(node.left, alias)}, "
            f"{to_source(node.right, alias)})"
        )
    if isinstance(node, Filter):
        return (
            f"{alias}.filter({to_source(node.child, alias)}, "
            f"{_dict_src(node.values)})"
        )
    if isinstance(node, Aggregate):
        return (
            f"{alias}.aggregate({to_source(node.child, alias)}, "
            f"{node.agg!r}, attr={node.attr!r}, "
            f"group_by={node.group_by!r})"
        )
    raise JeddError(f"cannot serialize {type(node).__name__}")
