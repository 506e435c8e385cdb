"""Code generation: Jedd -> Python (the paper's Jedd -> Java stage).

``jeddc`` translates each Jedd file into ordinary Java that calls the
runtime library; here we emit ordinary Python that calls
``repro.relations``.  The generated module defines ``build_universe()``
and a ``Program`` class with one method per Jedd function.  All physical
domains appear explicitly in the emitted code: composite expressions are
lowered once (through the same :mod:`repro.jedd.lower` pass the
interpreter uses) and embedded as module-level IR constants, which each
site evaluates through a shared cost-based planner.  Wrapper moves ride
inside those constants as ``replace`` nodes wherever the domain
assignment put a component boundary -- every other dummy wrapper
disappears, as section 3.3.2 prescribes.

The output is deterministic and human-readable; the test suite checks
that executing it gives the same relations as the AST interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.jedd import ast
from repro.jedd.assignment import AssignmentResult
from repro.jedd.lower import NEW_BINDING, LoweredExpr, Lowerer
from repro.jedd.typecheck import TypedProgram, VarInfo
from repro.relations.ir import to_source

__all__ = ["generate"]


class _Emitter:
    def __init__(self, tp: TypedProgram, assignment: AssignmentResult) -> None:
        self.tp = tp
        self.assignment = assignment
        self.lines: List[str] = []
        self.indent = 0
        self.temp_counter = 0
        self.fix_counter = 0
        #: expr_id of a VarRef -> emitted delta local, while compiling
        #: a ``fix`` rule against the previous iteration's delta.
        self._fix_override: Dict[int, str] = {}
        self.lowerer = Lowerer(assignment, tags=False)
        #: structural node key -> (constant name, constructor source);
        #: spliced into the module as ``_IR_n = _ir....`` lines.
        self.ir_consts: Dict[tuple, Tuple[str, str]] = {}

    # -- plumbing ---------------------------------------------------------

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def fresh(self) -> str:
        self.temp_counter += 1
        return f"_t{self.temp_counter}"

    def _var_pds(self, info: VarInfo) -> Dict[str, str]:
        return self.assignment.owner_domains[("var", info.var_id)]

    def _expr_pds(self, expr: ast.Expr) -> Dict[str, str]:
        return self.assignment.owner_domains[("expr", expr.expr_id)]

    def _wrap_pds(self, expr: ast.Expr) -> Optional[Dict[str, str]]:
        return self.assignment.owner_domains.get(("wrap", expr.expr_id))

    # -- module layout ------------------------------------------------------

    def run(self) -> str:
        self.emit('"""Generated by jeddc (repro); do not edit."""')
        self.emit()
        self.emit(
            "from repro.relations import "
            "Relation, RelationContainer, Universe, saturate"
        )
        self.emit("from repro.relations import ir as _ir")
        self.emit()
        self.emit()
        self._emit_universe()
        self.emit()
        self.emit()
        splice_at = len(self.lines)
        self._emit_program_class()
        if self.ir_consts:
            # Lowered expressions, one constant per distinct shape; the
            # shared planner caches each one's schedule.
            const_lines = ["_PLANNER = _ir.Planner()"]
            for name, src in self.ir_consts.values():
                const_lines.append(f"{name} = {src}")
            const_lines += ["", ""]
            self.lines[splice_at:splice_at] = const_lines
        return "\n".join(self.lines) + "\n"

    def _emit_universe(self) -> None:
        self.emit('def build_universe(backend="bdd", ordering="interleaved"):')
        self.indent += 1
        self.emit('"""Declare the domains/attributes/physical domains."""')
        self.emit("u = Universe(backend=backend, ordering=ordering)")
        for name, size in self.tp.domains.items():
            self.emit(f'u.domain("{name}", {size})')
        for name, domain in self.tp.attributes.items():
            self.emit(f'u.attribute("{name}", u.get_domain("{domain}"))')
        for name, bits in self.tp.physdoms.items():
            self.emit(f'u.physical_domain("{name}", {bits})')
        self.emit("u.finalize()")
        self.emit("return u")
        self.indent -= 1

    def _emit_program_class(self) -> None:
        self.emit("class Program:")
        self.indent += 1
        self.emit('"""One relation container per global; a method per function."""')
        self.emit()
        self.emit("def __init__(self, universe=None, host_env=None,")
        self.emit('             backend="bdd", ordering="interleaved"):')
        self.indent += 1
        self.emit("self.universe = universe or build_universe(backend, ordering)")
        self.emit("self.host_env = dict(host_env or {})")
        globals_ = [
            d for d in self.tp.program.decls if isinstance(d, ast.VarDecl)
        ]
        for decl in globals_:
            self.emit(f'self.{decl.name} = RelationContainer("{decl.name}")')
        for decl in globals_:
            if decl.init is not None:
                info = self.tp.lookup_var(None, decl.name)
                value = self._compile_into(decl.init, info)
                self.emit(f"self.{decl.name}.set({value})")
        self.indent -= 1
        for func in self.tp.functions.values():
            self.emit()
            self._emit_function(func.decl)
        self.indent -= 1

    def _emit_function(self, decl: ast.FuncDecl) -> None:
        params = ", ".join(p.name for p in decl.params)
        sep = ", " if params else ""
        self.emit(f"def {decl.name}(self{sep}{params}):")
        self.indent += 1
        self.func = decl.name
        self.locals: set = set()
        for p in decl.params:
            info = self.tp.lookup_var(decl.name, p.name)
            pds = self._var_pds(info)
            container = f"_c_{p.name}"
            self.emit(f'{container} = RelationContainer("{p.name}")')
            self.emit(f"{container}.set({p.name}.replace({self._pd_dict(pds)}))")
            self.locals.add(p.name)
        self._emit_block(decl.body)
        self.emit("return None")
        self.indent -= 1

    # -- statements -----------------------------------------------------------

    def _container(self, name: str) -> str:
        if name in self.locals:
            return f"_c_{name}"
        return f"self.{name}"

    def _emit_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._emit_stmt(stmt)

    def _emit_stmt(self, stmt: object) -> None:
        if isinstance(stmt, ast.VarDecl):
            info = self.tp.lookup_var(self.func, stmt.name)
            container = f"_c_{stmt.name}"
            if stmt.name not in self.locals:
                self.locals.add(stmt.name)
            self.emit(f'{container} = RelationContainer("{stmt.name}")')
            if stmt.init is not None:
                value = self._compile_into(stmt.init, info)
                self.emit(f"{container}.set({value})")
        elif isinstance(stmt, ast.AssignStmt):
            info = self.tp.lookup_var(self.func, stmt.target)
            container = self._container(stmt.target)
            value = self._compile_into(stmt.value, info)
            if stmt.op == "=":
                self.emit(f"{container}.set({value})")
            else:
                op = {"|=": "|", "&=": "&", "-=": "-"}[stmt.op]
                self.emit(f"{container}.set({container}.get() {op} {value})")
        elif isinstance(stmt, ast.CallStmt):
            args = []
            for arg, param in zip(
                stmt.args, self.tp.functions[stmt.name].params
            ):
                args.append(self._compile_into(arg, param))
            self.emit(f"self.{stmt.name}({', '.join(args)})")
        elif isinstance(stmt, ast.IfStmt):
            cond = self._compile_cond(stmt.cond)
            self.emit(f"if {cond}:")
            self.indent += 1
            self._emit_block(stmt.then_block)
            if not stmt.then_block.stmts:
                self.emit("pass")
            self.indent -= 1
            if stmt.else_block is not None:
                self.emit("else:")
                self.indent += 1
                self._emit_block(stmt.else_block)
                if not stmt.else_block.stmts:
                    self.emit("pass")
                self.indent -= 1
        elif isinstance(stmt, ast.WhileStmt):
            cond = self._compile_cond(stmt.cond)
            self.emit(f"while {cond}:")
            self.indent += 1
            self._emit_block(stmt.body)
            if not stmt.body.stmts:
                self.emit("pass")
            self.indent -= 1
        elif isinstance(stmt, ast.DoWhileStmt):
            self.emit("while True:")
            self.indent += 1
            self._emit_block(stmt.body)
            cond = self._compile_cond(stmt.cond)
            self.emit(f"if not ({cond}):")
            self.indent += 1
            self.emit("break")
            self.indent -= 2
        elif isinstance(stmt, ast.ReturnStmt):
            self.emit("return None")
        elif isinstance(stmt, ast.PrintStmt):
            value = self._compile_expr(stmt.expr)
            self.emit(f"print(str({value}))")
        elif isinstance(stmt, ast.FixStmt):
            # The runtime owns the semi-naive loop: one saturate() call
            # per block, one closure per evaluation unit.
            self.fix_counter += 1
            p = f"_fx{self.fix_counter}"
            rules = [(s.target, s.value) for s in stmt.body]
            units = [
                self._emit_fix_unit(f"{p}_{k}", target, expr, ref)
                for k, (target, expr, ref) in enumerate(
                    ast.fix_occurrences(rules)
                )
            ]
            containers = ", ".join(
                f'"{t}": {self._container(t)}'
                for t in dict.fromkeys(t for t, _ in rules)
            )
            self.emit(f"{p} = {{{containers}}}")
            self.emit("saturate(")
            self.emit(f"    {{_n: _c.get() for _n, _c in {p}.items()}},")
            self.emit("    [")
            for unit in units:
                self.emit(f"        {unit},")
            self.emit("    ],")
            self.emit(f"    lambda _n, _v: {p}[_n].set(_v),")
            self.emit(")")
        elif isinstance(stmt, ast.FreeStmt):
            # Last-use release from the liveness analysis (section 4.2).
            self.emit(f"{self._container(stmt.name)}.free()")
        else:  # pragma: no cover
            raise AssertionError(f"unknown statement {stmt!r}")

    def _emit_fix_unit(
        self, name: str, target: str, expr: ast.Expr,
        ref: Optional[ast.VarRef],
    ) -> str:
        """Emit one :func:`~repro.relations.saturate` unit as a closure
        ``name(_delta)`` with the occurrence ``ref`` (if any) compiled to
        ``_delta``; returns the unit's ``(target, bound, closure)``
        source."""
        info = self.tp.lookup_var(self.func, target)
        self.emit(f"def {name}(_delta):")
        self.indent += 1
        if ref is not None:
            self._fix_override[ref.expr_id] = "_delta"
        try:
            value = self._compile_into(expr, info)
        finally:
            if ref is not None:
                del self._fix_override[ref.expr_id]
        self.emit(f"return {value}")
        self.indent -= 1
        bound = "None" if ref is None else f'"{ref.name}"'
        return f'("{target}", {bound}, {name})'

    # -- expressions ------------------------------------------------------------

    def _pd_dict(self, pds: Dict[str, str]) -> str:
        inner = ", ".join(f'"{a}": "{p}"' for a, p in pds.items())
        return "{" + inner + "}"

    def _compile_cond(self, cond: ast.Compare) -> str:
        left_const = isinstance(cond.left, ast.ConstRel)
        right_const = isinstance(cond.right, ast.ConstRel)
        if left_const or right_const:
            const = cond.left if left_const else cond.right
            other = self._compile_expr(
                cond.right if left_const else cond.left
            )
            tmp = self.fresh()
            self.emit(f"{tmp} = {other}")
            if const.full:
                expr = (
                    f"({tmp} == Relation.full({tmp}.universe, "
                    f"list({tmp}.schema.names()), "
                    f"[{tmp}.schema.physdom(_a).name "
                    f"for _a in {tmp}.schema.names()]))"
                )
            else:
                expr = f"{tmp}.is_empty()"
        else:
            left = self._compile_expr(cond.left)
            right = self._compile_expr(cond.right)
            expr = f"({left} == {right})"
        return expr if cond.op == "==" else f"not {expr}"

    def _compile_into(self, expr: ast.Expr, target: VarInfo) -> str:
        target_pds = self._var_pds(target)
        if isinstance(expr, ast.ConstRel):
            attrs = list(target.schema)
            pds = [target_pds[a] for a in attrs]
            maker = "Relation.full" if expr.full else "Relation.empty"
            attrs_src = ", ".join(f'"{a}"' for a in attrs)
            pds_src = ", ".join(f'"{p}"' for p in pds)
            return f"{maker}(self.universe, [{attrs_src}], [{pds_src}])"
        order = ", ".join(f'"{a}"' for a in target.schema)
        if isinstance(expr, (ast.VarRef, ast.NewRel)):
            # Values read from containers or built by ``new`` sit at
            # known physical domains, so the wrapper move (if any) is
            # emitted statically.
            return (
                self._apply_wrapper(
                    expr, self._compile_expr(expr), target_pds
                )
                + f".ordered([{order}])"
            )
        # The planner may have joined in any order; the declaration
        # fixes the column order tuples() must enumerate in.
        return (
            self._ir_eval(self.lowerer.lower_into(expr, target_pds))
            + f".ordered([{order}])"
        )

    def _apply_wrapper(
        self, expr: ast.Expr, value: str, target_pds: Dict[str, str]
    ) -> str:
        source_pds = self._expr_pds(expr)
        moves = {
            attr: pd
            for attr, pd in target_pds.items()
            if source_pds.get(attr) != pd
        }
        if moves:
            return f"{value}.replace({self._pd_dict(moves)})"
        return value

    def _ir_const(self, lowered: LoweredExpr) -> str:
        entry = self.ir_consts.get(lowered.node.key)
        if entry is None:
            name = f"_IR_{len(self.ir_consts)}"
            entry = (name, to_source(lowered.node, alias="_ir"))
            self.ir_consts[lowered.node.key] = entry
        return entry[0]

    def _ir_eval(self, lowered: LoweredExpr) -> str:
        """An ``_IR_n.evaluate({...}, self.universe, _PLANNER)`` call
        binding each leaf slot of the lowered expression."""
        pairs = []
        for binding in lowered.bindings:
            if binding[0] == NEW_BINDING:
                _, slot, new_expr = binding
                pairs.append(f"{slot!r}: {self._new_src(new_expr)}")
                continue
            _, slot, name, expr_id = binding
            override = self._fix_override.get(expr_id)
            value = (
                override
                if override is not None
                else f"{self._container(name)}.get()"
            )
            pairs.append(f"{slot!r}: {value}")
        const = self._ir_const(lowered)
        env = "{" + ", ".join(pairs) + "}"
        return f"{const}.evaluate({env}, self.universe, _PLANNER)"

    def _new_src(self, expr: ast.NewRel) -> str:
        pds = self._expr_pds(expr)
        values = []
        doms = []
        for piece in expr.pieces:
            obj = (
                repr(piece.value)
                if piece.is_string
                else f"self.host_env[{piece.value!r}]"
            )
            values.append(f'"{piece.attr}": {obj}')
            doms.append(f'"{piece.attr}": "{pds[piece.attr]}"')
        return (
            "Relation.from_tuple(self.universe, "
            f"{{{', '.join(values)}}}, {{{', '.join(doms)}}})"
        )

    def _compile_expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.VarRef):
            override = self._fix_override.get(expr.expr_id)
            if override is not None:
                return override
            return f"{self._container(expr.name)}.get()"
        if isinstance(expr, ast.NewRel):
            return self._new_src(expr)
        if isinstance(expr, ast.ConstRel):
            raise AssertionError(
                f"cannot compile {type(expr).__name__} without context"
            )
        tmp = self.fresh()
        self.emit(f"{tmp} = {self._ir_eval(self.lowerer.lower(expr))}")
        return tmp


def generate(tp: TypedProgram, assignment: AssignmentResult) -> str:
    """Emit the Python module for a compiled program."""
    return _Emitter(tp, assignment).run()
