"""Static semantics: the Figure 6 typing rules.

The checker infers the schema (set of attributes) of every relational
expression from its subexpressions and enforces the paper's rules:

- no relation may have two instances of one attribute,
- operands of set and equality operations have compatible schemas,
- attributes mentioned in manipulation/join/compose expressions exist in
  the corresponding operands (and are distinct),
- the constants ``0B``/``1B`` are polymorphic, assignable and comparable
  to any relation type (like Java's ``null``).

Each checked expression is annotated with a unique ``expr_id``, its
inferred ``schema`` (an ordered tuple of attribute names) and, where the
program gives explicit ``:physdom`` annotations, the *specified*
physical domains -- the inputs to the constraint generation of section
3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.jedd import ast

__all__ = ["TypeError_", "TypedProgram", "VarInfo", "FuncInfo", "check"]


class TypeError_(Exception):
    """A Jedd static type error, with the offending source position."""

    def __init__(self, message: str, pos: ast.Position) -> None:
        super().__init__(f"{message} at {pos}")
        self.message = message
        self.pos = pos


@dataclass
class VarInfo:
    """A relation variable (global field, local, or parameter)."""

    name: str
    schema: Tuple[str, ...]
    specified: Dict[str, str]  # attribute -> physical domain (explicit)
    pos: ast.Position
    is_global: bool
    func: Optional[str]  # owning function, None for globals
    var_id: int = -1  # constraint-graph node id, filled by the checker

    def describe(self) -> str:
        """Human-readable name used in error messages."""
        return f"variable {self.name}"


@dataclass
class FuncInfo:
    """A declared function: its parameters and body."""

    name: str
    params: List[VarInfo]
    decl: ast.FuncDecl


@dataclass
class TypedProgram:
    """The result of type checking: annotated AST plus symbol tables."""

    program: ast.Program
    domains: Dict[str, int]  # name -> max size
    attributes: Dict[str, str]  # attribute -> domain name
    physdoms: Dict[str, int]  # name -> bits
    variables: Dict[Tuple[Optional[str], str], VarInfo]  # (func, name) -> info
    functions: Dict[str, FuncInfo]
    exprs: List[ast.Expr] = field(default_factory=list)  # by expr_id
    #: explicit physical domain specifications: (expr_id, attr) -> physdom
    specified: Dict[Tuple[int, str], str] = field(default_factory=dict)

    def lookup_var(self, func: Optional[str], name: str) -> VarInfo:
        """Resolve a variable: function locals shadow globals."""
        info = self.variables.get((func, name))
        if info is None:
            info = self.variables.get((None, name))
        if info is None:
            raise KeyError(name)
        return info

    def domain_bits(self, domain: str) -> int:
        """Bits needed to encode the named domain's objects."""
        size = self.domains[domain]
        return max(1, (size - 1).bit_length())


class _Checker:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.tp = TypedProgram(
            program=program,
            domains={},
            attributes={},
            physdoms={},
            variables={},
            functions={},
        )
        self._next_var_id = 0

    # ------------------------------------------------------------------

    def run(self) -> TypedProgram:
        # Pass 1: global declarations and function signatures.
        global_inits: List[ast.VarDecl] = []
        for decl in self.program.decls:
            if isinstance(decl, ast.DomainDecl):
                self._declare_domain(decl)
            elif isinstance(decl, ast.AttributeDecl):
                self._declare_attribute(decl)
            elif isinstance(decl, ast.PhysDomDecl):
                self._declare_physdom(decl)
            elif isinstance(decl, ast.VarDecl):
                self._declare_var(decl, None)
                global_inits.append(decl)
            elif isinstance(decl, ast.FuncDecl):
                self._declare_function(decl)
            else:  # pragma: no cover - parser produces only the above
                raise TypeError_(f"unknown declaration {decl!r}", ast.Position(0, 0))
        # Pass 2: expressions.
        for decl in global_inits:
            if decl.init is not None:
                self._check_var_init(decl, None)
        for func in self.tp.functions.values():
            self._check_block(func.decl.body, func.name)
        return self.tp

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _declare_domain(self, decl: ast.DomainDecl) -> None:
        if decl.name in self.tp.domains:
            raise TypeError_(f"domain {decl.name} redeclared", decl.pos)
        if decl.size < 1:
            raise TypeError_(f"domain {decl.name} must be non-empty", decl.pos)
        self.tp.domains[decl.name] = decl.size

    def _declare_attribute(self, decl: ast.AttributeDecl) -> None:
        if decl.name in self.tp.attributes:
            raise TypeError_(f"attribute {decl.name} redeclared", decl.pos)
        if decl.domain not in self.tp.domains:
            raise TypeError_(
                f"attribute {decl.name} over unknown domain {decl.domain}",
                decl.pos,
            )
        self.tp.attributes[decl.name] = decl.domain

    def _declare_physdom(self, decl: ast.PhysDomDecl) -> None:
        if decl.name in self.tp.physdoms:
            raise TypeError_(
                f"physical domain {decl.name} redeclared", decl.pos
            )
        if decl.bits < 1:
            raise TypeError_(
                f"physical domain {decl.name} needs at least one bit",
                decl.pos,
            )
        self.tp.physdoms[decl.name] = decl.bits

    def _check_rel_type(self, rel_type: ast.RelationType) -> None:
        seen = set()
        for spec in rel_type.specs:
            if spec.attr not in self.tp.attributes:
                raise TypeError_(f"unknown attribute {spec.attr}", spec.pos)
            if spec.attr in seen:
                raise TypeError_(
                    f"attribute {spec.attr} appears twice in relation type",
                    spec.pos,
                )
            seen.add(spec.attr)
            if spec.physdom is not None:
                bits = self.tp.physdoms.get(spec.physdom)
                if bits is None:
                    raise TypeError_(
                        f"unknown physical domain {spec.physdom}", spec.pos
                    )
                needed = self.tp.domain_bits(self.tp.attributes[spec.attr])
                if bits < needed:
                    raise TypeError_(
                        f"physical domain {spec.physdom} ({bits} bits) too "
                        f"small for attribute {spec.attr} ({needed} bits)",
                        spec.pos,
                    )

    def _declare_var(
        self, decl: ast.VarDecl, func: Optional[str]
    ) -> VarInfo:
        self._check_rel_type(decl.rel_type)
        key = (func, decl.name)
        if key in self.tp.variables:
            raise TypeError_(f"variable {decl.name} redeclared", decl.pos)
        info = VarInfo(
            name=decl.name,
            schema=decl.rel_type.attr_names(),
            specified={
                s.attr: s.physdom
                for s in decl.rel_type.specs
                if s.physdom is not None
            },
            pos=decl.pos,
            is_global=func is None,
            func=func,
            var_id=self._next_var_id,
        )
        self._next_var_id += 1
        self.tp.variables[key] = info
        return info

    def _declare_function(self, decl: ast.FuncDecl) -> None:
        if decl.name in self.tp.functions:
            raise TypeError_(f"function {decl.name} redeclared", decl.pos)
        params = []
        for p in decl.params:
            self._check_rel_type(p.rel_type)
            key = (decl.name, p.name)
            if key in self.tp.variables:
                raise TypeError_(f"parameter {p.name} redeclared", p.pos)
            info = VarInfo(
                name=p.name,
                schema=p.rel_type.attr_names(),
                specified={
                    s.attr: s.physdom
                    for s in p.rel_type.specs
                    if s.physdom is not None
                },
                pos=p.pos,
                is_global=False,
                func=decl.name,
                var_id=self._next_var_id,
            )
            self._next_var_id += 1
            self.tp.variables[key] = info
            params.append(info)
        self.tp.functions[decl.name] = FuncInfo(decl.name, params, decl)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _check_block(self, block: ast.Block, func: Optional[str]) -> None:
        for stmt in block.stmts:
            self._check_stmt(stmt, func)

    def _check_stmt(self, stmt: object, func: Optional[str]) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._declare_var(stmt, func)
            if stmt.init is not None:
                self._check_var_init(stmt, func)
        elif isinstance(stmt, ast.AssignStmt):
            info = self._lookup(stmt.target, func, stmt.pos)
            schema = self._check_expr(stmt.value, func)
            self._require_assignable(schema, info.schema, stmt.value, stmt.pos)
        elif isinstance(stmt, ast.CallStmt):
            self._check_call(stmt, func)
        elif isinstance(stmt, ast.IfStmt):
            self._check_compare(stmt.cond, func)
            self._check_block(stmt.then_block, func)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block, func)
        elif isinstance(stmt, ast.WhileStmt):
            self._check_compare(stmt.cond, func)
            self._check_block(stmt.body, func)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._check_block(stmt.body, func)
            self._check_compare(stmt.cond, func)
        elif isinstance(stmt, ast.FixStmt):
            self._check_fix(stmt, func)
        elif isinstance(stmt, ast.PrintStmt):
            self._check_expr(stmt.expr, func)
        elif isinstance(stmt, (ast.ReturnStmt, ast.FreeStmt)):
            pass
        else:  # pragma: no cover
            raise TypeError_(f"unknown statement {stmt!r}", ast.Position(0, 0))

    def _check_fix(self, stmt: ast.FixStmt, func: Optional[str]) -> None:
        # [Fix]: a block of '|=' rules saturated to a least fixed point.
        # Soundness needs the targets to grow monotonically, so they may
        # not occur under the right operand of '-' anywhere in the block.
        targets = set()
        for s in stmt.body:
            if not isinstance(s, ast.AssignStmt) or s.op != "|=":
                raise TypeError_(
                    "fix block allows only '|=' assignments",
                    getattr(s, "pos", stmt.pos),
                )
            targets.add(s.target)
        for s in stmt.body:
            for ref in ast.nonmonotone_refs(s.value, targets):
                raise TypeError_(
                    f"fix target {ref.name!r} used non-monotonically "
                    "(under the right operand of '-')",
                    ref.pos,
                )
        for s in stmt.body:
            self._check_stmt(s, func)

    def _check_var_init(self, decl: ast.VarDecl, func: Optional[str]) -> None:
        info = self.tp.lookup_var(func, decl.name)
        schema = self._check_expr(decl.init, func)
        self._require_assignable(schema, info.schema, decl.init, decl.pos)

    def _check_call(self, stmt: ast.CallStmt, func: Optional[str]) -> None:
        target = self.tp.functions.get(stmt.name)
        if target is None:
            raise TypeError_(f"unknown function {stmt.name}", stmt.pos)
        if len(stmt.args) != len(target.params):
            raise TypeError_(
                f"function {stmt.name} expects {len(target.params)} "
                f"argument(s), got {len(stmt.args)}",
                stmt.pos,
            )
        for arg, param in zip(stmt.args, target.params):
            schema = self._check_expr(arg, func)
            self._require_assignable(schema, param.schema, arg, stmt.pos)

    def _check_compare(self, cond: ast.Compare, func: Optional[str]) -> None:
        left = self._check_expr(cond.left, func)
        right = self._check_expr(cond.right, func)
        self._forbid_weighted(cond.left, "comparison operand")
        self._forbid_weighted(cond.right, "comparison operand")
        if left is None and right is None:
            raise TypeError_(
                "cannot compare two relation constants", cond.pos
            )
        if left is None:
            cond.left.schema = right
        elif right is None:
            cond.right.schema = left
        elif frozenset(left) != frozenset(right):
            raise TypeError_(
                f"comparison of incompatible schemas <{', '.join(left)}> "
                f"and <{', '.join(right)}>",
                cond.pos,
            )

    def _require_assignable(
        self,
        schema: Optional[Tuple[str, ...]],
        target: Tuple[str, ...],
        expr: ast.Expr,
        pos: ast.Position,
    ) -> None:
        self._forbid_weighted(expr, "a relation value")
        if schema is None:  # 0B/1B adopt the target's schema ([Assign])
            expr.schema = target
            return
        if frozenset(schema) != frozenset(target):
            raise TypeError_(
                f"cannot assign <{', '.join(schema)}> to "
                f"<{', '.join(target)}>",
                pos,
            )

    def _lookup(
        self, name: str, func: Optional[str], pos: ast.Position
    ) -> VarInfo:
        try:
            return self.tp.lookup_var(func, name)
        except KeyError:
            raise TypeError_(f"unknown variable {name}", pos) from None

    # ------------------------------------------------------------------
    # Expressions (Figure 6)
    # ------------------------------------------------------------------

    def _register(
        self, expr: ast.Expr, schema: Optional[Tuple[str, ...]]
    ) -> Optional[Tuple[str, ...]]:
        expr.expr_id = len(self.tp.exprs)
        expr.schema = schema
        self.tp.exprs.append(expr)
        return schema

    def _check_expr(
        self, expr: ast.Expr, func: Optional[str]
    ) -> Optional[Tuple[str, ...]]:
        """Infer the schema; None means the polymorphic 0B/1B type."""
        if isinstance(expr, ast.ConstRel):
            return self._register(expr, None)
        if isinstance(expr, ast.VarRef):
            info = self._lookup(expr.name, func, expr.pos)
            expr.var_info = info
            return self._register(expr, info.schema)
        if isinstance(expr, ast.NewRel):
            return self._check_new(expr)
        if isinstance(expr, ast.SetOp):
            return self._check_setop(expr, func)
        if isinstance(expr, ast.ReplaceOp):
            return self._check_replace(expr, func)
        if isinstance(expr, ast.JoinOp):
            return self._check_join(expr, func)
        if isinstance(expr, ast.AggregateOp):
            return self._check_aggregate(expr, func)
        raise TypeError_(
            f"expression {type(expr).__name__} not allowed here",
            getattr(expr, "pos", ast.Position(0, 0)),
        )

    def _forbid_weighted(self, expr: ast.Expr, what: str) -> None:
        """Aggregates produce weighted relations (tuples mapped to
        numbers), which the boolean relational operators cannot
        consume; they are printable but not composable."""
        if getattr(expr, "weighted", False):
            raise TypeError_(
                f"weighted aggregate result cannot be used as {what}",
                getattr(expr, "pos", ast.Position(0, 0)),
            )

    def _check_aggregate(
        self, expr: ast.AggregateOp, func: Optional[str]
    ) -> Tuple[str, ...]:
        # [Aggregate]: the operand is an ordinary relation; the result
        # maps each group-by assignment to a number.
        if expr.agg not in ast.AGGREGATE_OPS:
            raise TypeError_(f"unknown aggregate {expr.agg}", expr.pos)
        operand = self._check_expr(expr.operand, func)
        if operand is None:
            raise TypeError_(
                f"aggregate {expr.agg} of a relation constant", expr.pos
            )
        self._forbid_weighted(expr.operand, f"operand of {expr.agg}")
        if expr.attr is None and expr.agg != "count":
            raise TypeError_(
                f"{expr.agg} needs an attribute "
                f"('{expr.agg} e.attribute')",
                expr.pos,
            )
        if expr.attr is not None and expr.attr not in operand:
            raise TypeError_(
                f"attribute {expr.attr} not in operand schema "
                f"<{', '.join(operand)}>",
                expr.pos,
            )
        seen = set()
        for g in expr.group_by:
            if g not in operand:
                raise TypeError_(
                    f"group-by attribute {g} not in operand schema "
                    f"<{', '.join(operand)}>",
                    expr.pos,
                )
            if g in seen:
                raise TypeError_(
                    f"group-by attribute {g} repeated", expr.pos
                )
            seen.add(g)
            if g == expr.attr:
                raise TypeError_(
                    f"attribute {g} both aggregated and grouped by",
                    expr.pos,
                )
        schema = self._register(expr, tuple(expr.group_by))
        expr.weighted = True
        return schema

    def _check_new(self, expr: ast.NewRel) -> Tuple[str, ...]:
        # [Literal]: attributes distinct and declared.
        seen = set()
        for piece in expr.pieces:
            if piece.attr not in self.tp.attributes:
                raise TypeError_(f"unknown attribute {piece.attr}", piece.pos)
            if piece.attr in seen:
                raise TypeError_(
                    f"attribute {piece.attr} appears twice in literal",
                    piece.pos,
                )
            seen.add(piece.attr)
            if piece.physdom is not None and piece.physdom not in self.tp.physdoms:
                raise TypeError_(
                    f"unknown physical domain {piece.physdom}", piece.pos
                )
        schema = tuple(p.attr for p in expr.pieces)
        self._register(expr, schema)
        for piece in expr.pieces:
            if piece.physdom is not None:
                self.tp.specified[(expr.expr_id, piece.attr)] = piece.physdom
        return schema

    def _check_setop(
        self, expr: ast.SetOp, func: Optional[str]
    ) -> Tuple[str, ...]:
        # [SetOp]: x : T, y : T (the constants are permitted only in
        # assignment and comparison contexts, as in Figure 6).
        left = self._check_expr(expr.left, func)
        right = self._check_expr(expr.right, func)
        self._forbid_weighted(expr.left, f"operand of {expr.op!r}")
        self._forbid_weighted(expr.right, f"operand of {expr.op!r}")
        if left is None or right is None:
            raise TypeError_(
                f"relation constant not allowed as operand of {expr.op!r}",
                expr.pos,
            )
        if frozenset(left) != frozenset(right):
            raise TypeError_(
                f"operands of {expr.op!r} have different schemas "
                f"<{', '.join(left)}> and <{', '.join(right)}>",
                expr.pos,
            )
        return self._register(expr, left)

    def _check_replace(
        self, expr: ast.ReplaceOp, func: Optional[str]
    ) -> Tuple[str, ...]:
        operand = self._check_expr(expr.operand, func)
        self._forbid_weighted(expr.operand, "attribute-manipulation operand")
        if operand is None:
            raise TypeError_(
                "attribute manipulation of a relation constant", expr.pos
            )
        schema = list(operand)
        for rep in expr.replacements:
            if rep.source not in schema:
                raise TypeError_(
                    f"attribute {rep.source} not in operand schema "
                    f"<{', '.join(schema)}>",
                    rep.pos,
                )
            idx = schema.index(rep.source)
            if not rep.targets:  # [Project]
                schema.pop(idx)
                continue
            if len(rep.targets) == 1:  # [Rename]
                b = rep.targets[0]
                self._require_attr(b, rep.pos)
                self._require_same_domain(rep.source, b, rep.pos)
                if b in schema and b != rep.source:
                    raise TypeError_(
                        f"rename target {b} already in schema", rep.pos
                    )
                schema[idx] = b
                continue
            # [Copy]: (a => b c)
            b, c = rep.targets
            if b == c:
                raise TypeError_("copy targets must differ", rep.pos)
            rest = schema[:idx] + schema[idx + 1 :]
            for t in (b, c):
                self._require_attr(t, rep.pos)
                self._require_same_domain(rep.source, t, rep.pos)
                if t in rest:
                    raise TypeError_(
                        f"copy target {t} already in schema", rep.pos
                    )
            schema[idx : idx + 1] = [b, c]
        return self._register(expr, tuple(schema))

    def _require_attr(self, name: str, pos: ast.Position) -> None:
        if name not in self.tp.attributes:
            raise TypeError_(f"unknown attribute {name}", pos)

    def _require_same_domain(
        self, a: str, b: str, pos: ast.Position
    ) -> None:
        da, db = self.tp.attributes[a], self.tp.attributes[b]
        if da != db:
            raise TypeError_(
                f"attributes {a} ({da}) and {b} ({db}) have different "
                "domains",
                pos,
            )

    def _check_join(
        self, expr: ast.JoinOp, func: Optional[str]
    ) -> Tuple[str, ...]:
        left = self._check_expr(expr.left, func)
        right = self._check_expr(expr.right, func)
        kind = "join" if expr.op == "><" else "compose"
        self._forbid_weighted(expr.left, f"{kind} operand")
        self._forbid_weighted(expr.right, f"{kind} operand")
        if left is None or right is None:
            raise TypeError_(
                f"relation constant not allowed as {kind} operand", expr.pos
            )
        la, ra = expr.left_attrs, expr.right_attrs
        if len(la) != len(ra):
            raise TypeError_(
                f"{kind} compares {len(la)} against {len(ra)} attributes",
                expr.pos,
            )
        if len(set(la)) != len(la) or len(set(ra)) != len(ra):
            raise TypeError_(
                f"repeated attribute in {kind} comparison list", expr.pos
            )
        for a in la:
            if a not in left:
                raise TypeError_(
                    f"attribute {a} not in left operand schema "
                    f"<{', '.join(left)}>",
                    expr.pos,
                )
        for b in ra:
            if b not in right:
                raise TypeError_(
                    f"attribute {b} not in right operand schema "
                    f"<{', '.join(right)}>",
                    expr.pos,
                )
        for a, b in zip(la, ra):
            self._require_same_domain(a, b, expr.pos)
        if expr.op == "><":
            # [Join]: T disjoint from U' = U minus compared.
            right_rest = frozenset(right) - frozenset(ra)
            overlap = frozenset(left) & right_rest
            if overlap:
                raise TypeError_(
                    f"join operands share attribute(s) "
                    f"{', '.join(sorted(overlap))}",
                    expr.pos,
                )
            schema = tuple(left) + tuple(
                b for b in right if b not in set(ra)
            )
        else:
            # [Compose]: T' disjoint from U'.
            left_rest = frozenset(left) - frozenset(la)
            right_rest = frozenset(right) - frozenset(ra)
            overlap = left_rest & right_rest
            if overlap:
                raise TypeError_(
                    f"compose operands share attribute(s) "
                    f"{', '.join(sorted(overlap))}",
                    expr.pos,
                )
            schema = tuple(a for a in left if a not in set(la)) + tuple(
                b for b in right if b not in set(ra)
            )
        return self._register(expr, schema)


def check(program: ast.Program) -> TypedProgram:
    """Type check a parsed program, annotating its expressions."""
    return _Checker(program).run()
