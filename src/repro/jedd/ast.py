"""Abstract syntax for the Jedd mini-language.

The paper extends full Java via Polyglot; the reproduction embeds the
same relational sublanguage (the added productions of Figure 5 --
relation types, ``><``/``<>`` joins, cast-like attribute manipulation,
``new {...}`` literals, ``0B``/``1B``) in a small imperative host
language with declarations, assignment, ``if``/``while``/``do-while``,
and void functions.  Every program in the paper (e.g. Figure 4) is
expressible verbatim modulo host-statement syntax.

Each AST node carries a source ``Position`` so that type errors and
physical-domain-assignment conflicts can be reported the way section
3.3.3 shows (``Test.jedd:4,25``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "AGGREGATE_OPS",
    "Position",
    "AttrSpec",
    "RelationType",
    "Program",
    "DomainDecl",
    "AttributeDecl",
    "PhysDomDecl",
    "VarDecl",
    "FuncDecl",
    "Param",
    "Block",
    "AssignStmt",
    "ExprStmt",
    "IfStmt",
    "WhileStmt",
    "DoWhileStmt",
    "ReturnStmt",
    "PrintStmt",
    "FreeStmt",
    "FixStmt",
    "Expr",
    "AggregateOp",
    "VarRef",
    "ConstRel",
    "NewRel",
    "NewPiece",
    "SetOp",
    "JoinOp",
    "ReplaceOp",
    "Replacement",
    "Compare",
    "CallStmt",
    "fix_occurrences",
    "nonmonotone_refs",
    "walk_var_refs",
]

#: Aggregate operators of ``count x.p group by y`` expressions; mirrors
#: :data:`repro.relations.ir.AGGREGATES`.
AGGREGATE_OPS = ("count", "sum", "max", "min", "mean")


@dataclass(frozen=True)
class Position:
    """Line/column of a token, 1-based, as in the paper's error messages."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line},{self.column}"


@dataclass
class AttrSpec:
    """One ``attribute`` or ``attribute:physdom`` entry of a relation type."""

    attr: str
    physdom: Optional[str]
    pos: Position


@dataclass
class RelationType:
    """``<a1:P1, a2, ...>`` -- the static type of a relation."""

    specs: List[AttrSpec]
    pos: Position

    def attr_names(self) -> Tuple[str, ...]:
        return tuple(s.attr for s in self.specs)


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------


@dataclass
class Program:
    decls: List[object]  # DomainDecl | AttributeDecl | PhysDomDecl |
    #                      VarDecl | FuncDecl


@dataclass
class DomainDecl:
    """``domain Type 1024;``"""

    name: str
    size: int
    pos: Position


@dataclass
class AttributeDecl:
    """``attribute rectype : Type;``"""

    name: str
    domain: str
    pos: Position


@dataclass
class PhysDomDecl:
    """``physdom T1 10;``"""

    name: str
    bits: int
    pos: Position


@dataclass
class VarDecl:
    """``<a, b:P> x;`` or with initializer ``<a> x = expr;``

    Used both for globals (fields) and locals.
    """

    rel_type: RelationType
    name: str
    init: Optional["Expr"]
    pos: Position


@dataclass
class Param:
    rel_type: RelationType
    name: str
    pos: Position


@dataclass
class FuncDecl:
    """``def resolve(<rectype,signature> receiverTypes, ...) { ... }``"""

    name: str
    params: List[Param]
    body: "Block"
    pos: Position


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass
class Block:
    stmts: List[object]
    pos: Position


@dataclass
class AssignStmt:
    """``x = e;`` / ``x |= e;`` / ``x &= e;`` / ``x -= e;``"""

    target: str
    op: str  # "=", "|=", "&=", "-="
    value: "Expr"
    pos: Position


@dataclass
class ExprStmt:
    expr: "Expr"
    pos: Position


@dataclass
class CallStmt:
    """``resolve(receiverTypes, extend);`` -- void function call."""

    name: str
    args: List["Expr"]
    pos: Position


@dataclass
class IfStmt:
    cond: "Compare"
    then_block: Block
    else_block: Optional[Block]
    pos: Position


@dataclass
class WhileStmt:
    cond: "Compare"
    body: Block
    pos: Position


@dataclass
class DoWhileStmt:
    body: Block
    cond: "Compare"
    pos: Position


@dataclass
class ReturnStmt:
    pos: Position


@dataclass
class PrintStmt:
    """``print(expr);`` -- host-level escape, the ``toString()`` of 2.3."""

    expr: "Expr"
    pos: Position


@dataclass
class FreeStmt:
    """``free x;`` -- emitted by the liveness pass, not written by users."""

    name: str
    pos: Position


@dataclass
class FixStmt:
    """``fix { x |= e; ... }`` -- saturate the ``|=`` rules to a least
    fixed point with semi-naive (delta) evaluation.

    Every statement in the block must be a ``|=`` assignment, and the
    assigned variables may only be used monotonically in the block (not
    under the right operand of ``-``)."""

    body: List["AssignStmt"]
    pos: Position


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class Expr:
    """Base class; subclasses carry ``pos`` and get ``expr_id``/``schema``
    annotations during type checking."""


@dataclass
class VarRef(Expr):
    name: str
    pos: Position = field(default=Position(0, 0))


@dataclass
class ConstRel(Expr):
    """``0B`` (empty) or ``1B`` (full); polymorphic like Java's null."""

    full: bool
    pos: Position = field(default=Position(0, 0))


@dataclass
class NewPiece:
    """One ``expr => attribute(:physdom)`` piece of a literal."""

    value: str  # identifier (host binding) or quoted string literal
    is_string: bool
    attr: str
    physdom: Optional[str]
    pos: Position = field(default=Position(0, 0))


@dataclass
class NewRel(Expr):
    """``new { o1 => a1, ... }`` single-tuple literal."""

    pieces: List[NewPiece]
    pos: Position = field(default=Position(0, 0))


@dataclass
class SetOp(Expr):
    """``x | y``, ``x & y``, ``x - y``."""

    op: str  # "|", "&", "-"
    left: Expr
    right: Expr
    pos: Position = field(default=Position(0, 0))


@dataclass
class JoinOp(Expr):
    """``left{a...} >< right{b...}`` or ``<>`` for composition."""

    left: Expr
    left_attrs: List[str]
    op: str  # "><" or "<>"
    right: Expr
    right_attrs: List[str]
    pos: Position = field(default=Position(0, 0))


@dataclass
class Replacement:
    """``a=>`` (project), ``a=>b`` (rename), ``a=>b c`` (copy)."""

    source: str
    targets: List[str]  # [] project, [b] rename, [b, c] copy
    pos: Position = field(default=Position(0, 0))


@dataclass
class ReplaceOp(Expr):
    """Cast-like attribute manipulation: ``(a=>b, c=>) x``."""

    replacements: List[Replacement]
    operand: Expr
    pos: Position = field(default=Position(0, 0))


@dataclass
class AggregateOp(Expr):
    """``count x.p group by a, b`` -- a weighted expression.  ``attr`` is the aggregated attribute (None only for
    bare ``count``); the result maps each ``group_by`` assignment to a
    number, so it is *weighted* and may only appear where a
    :class:`~repro.relations.relation.WeightedRelation` is acceptable
    (``print``), never as a relational operand."""

    agg: str  # one of AGGREGATE_OPS
    operand: Expr
    attr: Optional[str]
    group_by: List[str]
    pos: Position = field(default=Position(0, 0))


@dataclass
class Compare(Expr):
    """``x == y`` / ``x != y`` -- boolean-valued, used in conditions."""

    op: str  # "==" or "!="
    left: Expr
    right: Expr
    pos: Position = field(default=Position(0, 0))


def walk_var_refs(expr: Expr):
    """Yield every :class:`VarRef` occurrence in an expression tree, in
    source order."""
    if isinstance(expr, VarRef):
        yield expr
    elif isinstance(expr, (SetOp, JoinOp, Compare)):
        yield from walk_var_refs(expr.left)
        yield from walk_var_refs(expr.right)
    elif isinstance(expr, (ReplaceOp, AggregateOp)):
        yield from walk_var_refs(expr.operand)


def fix_occurrences(rules: List[Tuple[str, Expr]]):
    """The evaluations the semi-naive ``fix`` loop makes for a block's
    ``(target, expr)`` rules, in order: one ``(target, expr, ref)`` per
    occurrence ``ref`` of a fixed variable in ``expr`` (that occurrence
    is bound to its delta), or one ``(target, expr, None)`` for a rule
    that mentions no fixed variable."""
    targets = {target for target, _ in rules}
    out = []
    for target, expr in rules:
        refs = [r for r in walk_var_refs(expr) if r.name in targets]
        out.extend((target, expr, ref) for ref in refs or [None])
    return out


def nonmonotone_refs(expr: Expr, targets, positive: bool = True):
    """Yield every occurrence of a ``fix`` target that would make the
    iteration non-monotone: one under the right operand of ``-``, at any
    depth (once negative, conservatively stay negative)."""
    if isinstance(expr, VarRef):
        if not positive and expr.name in targets:
            yield expr
    elif isinstance(expr, SetOp):
        yield from nonmonotone_refs(expr.left, targets, positive)
        yield from nonmonotone_refs(
            expr.right, targets, positive and expr.op != "-"
        )
    elif isinstance(expr, JoinOp):
        yield from nonmonotone_refs(expr.left, targets, positive)
        yield from nonmonotone_refs(expr.right, targets, positive)
    elif isinstance(expr, (ReplaceOp, AggregateOp)):
        yield from nonmonotone_refs(expr.operand, targets, positive)
