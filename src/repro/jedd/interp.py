"""Direct execution of translated Jedd programs.

The paper's jeddc emits Java that calls the Jedd runtime; this module is
the equivalent execution engine over ``repro.relations``: it walks the
type-checked AST, carrying the physical-domain assignment computed by
``repro.jedd.assignment``, and performs exactly the operations the
generated code would -- including the ``replace`` operations at every
wrapper whose source and target physical domains differ (all other
wrappers disappear, as in section 3.3.2).

Variables live in :class:`~repro.relations.containers.RelationContainer`
objects so reference counts drop as soon as values are overwritten, and
``free`` statements inserted by the liveness pass release them at their
last use (section 4.2).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.jedd import ast
from repro.jedd.assignment import AssignmentResult
from repro.jedd.constraints import ConstraintGraph
from repro.jedd.lower import NEW_BINDING, LoweredExpr, Lowerer
from repro.jedd.typecheck import TypedProgram, VarInfo
from repro import telemetry as _telemetry
from repro.relations import (
    JeddError,
    Relation,
    RelationContainer,
    Universe,
    ir,
)

__all__ = ["Interpreter", "JeddRuntimeError"]


class JeddRuntimeError(Exception):
    """Raised for runtime failures (missing host objects, bad calls)."""


class _Return(Exception):
    """Internal: unwinds a function body on ``return;``."""


class Interpreter:
    """Executes a compiled Jedd program against a fresh universe.

    Parameters
    ----------
    tp, graph, assignment:
        The outputs of the front end (type checking, constraint
        generation, physical domain assignment).
    host_env:
        Objects referenced by name in ``new { obj => attr }`` literals.
    backend, ordering:
        Passed to :class:`~repro.relations.domain.Universe`.
    """

    def __init__(
        self,
        tp: TypedProgram,
        graph: ConstraintGraph,
        assignment: AssignmentResult,
        host_env: Optional[Dict[str, Hashable]] = None,
        backend: str = "bdd",
        ordering: str = "interleaved",
        bit_order: Optional[List[List[str]]] = None,
    ) -> None:
        self.tp = tp
        self.graph = graph
        self.assignment = assignment
        self.host_env = dict(host_env or {})
        self.universe = Universe(backend=backend, ordering=ordering)
        for name, size in tp.domains.items():
            self.universe.domain(name, size)
        for name, domain in tp.attributes.items():
            self.universe.attribute(name, self.universe.get_domain(domain))
        for name, bits in tp.physdoms.items():
            self.universe.physical_domain(name, bits)
        if bit_order is not None:
            # A user- or advisor-chosen relative bit ordering (3.2.1).
            self.universe.set_bit_order(bit_order)
        self.universe.finalize()
        #: replace operations actually performed (for the Table 2 story
        #: and the profiler): list of (position, attribute moves) pairs.
        self.replace_log: List[Tuple[ast.Position, Dict[str, str]]] = []
        #: the shared expression lowering and the plan cache every
        #: statement's products go through.
        self._lowerer = Lowerer(assignment)
        self._planner = ir.Planner()
        self._weight = ir.default_weight(self.universe)
        #: expr_id of a VarRef -> delta override, set while a ``fix``
        #: rule is re-evaluated against the previous iteration's delta.
        self._fix_override: Dict[int, Relation] = {}
        self.globals: Dict[str, RelationContainer] = {}
        self._init_globals()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _var_pds(self, info: VarInfo) -> Dict[str, str]:
        return self.assignment.owner_domains[("var", info.var_id)]

    def _expr_pds(self, expr: ast.Expr) -> Dict[str, str]:
        return self.assignment.owner_domains[("expr", expr.expr_id)]

    def _wrap_pds(self, expr: ast.Expr) -> Optional[Dict[str, str]]:
        return self.assignment.owner_domains.get(("wrap", expr.expr_id))

    def _init_globals(self) -> None:
        for decl in self.tp.program.decls:
            if isinstance(decl, ast.VarDecl):
                info = self.tp.lookup_var(None, decl.name)
                container = RelationContainer(decl.name)
                self.globals[decl.name] = container
                if decl.init is not None:
                    container.set(self._eval_into(decl.init, info, None, {}))

    def global_relation(self, name: str) -> Relation:
        """Read a global relation after running the program."""
        container = self.globals.get(name)
        if container is None:
            raise JeddRuntimeError(f"no global relation {name!r}")
        return container.get()

    def set_global(self, name: str, relation: Relation) -> None:
        """Overwrite a global from host code (inputs to an analysis)."""
        info = self.tp.lookup_var(None, name)
        self.globals[name].set(
            relation.replace(
                {a: pd for a, pd in self._var_pds(info).items()}
            )
        )

    def relation_of(
        self,
        attrs: Sequence[str],
        rows,
        physdoms: Optional[Sequence[str]] = None,
    ) -> Relation:
        """Build an input relation in this interpreter's universe."""
        return Relation.from_tuples(self.universe, list(attrs), rows, physdoms)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def call(self, name: str, *args: Relation) -> None:
        """Invoke a Jedd function with host-supplied relation arguments."""
        func = self.tp.functions.get(name)
        if func is None:
            raise JeddRuntimeError(f"no function {name!r}")
        if len(args) != len(func.params):
            raise JeddRuntimeError(
                f"{name} expects {len(func.params)} argument(s), "
                f"got {len(args)}"
            )
        frame: Dict[str, RelationContainer] = {}
        for param, value in zip(func.params, args):
            if frozenset(value.schema.names()) != frozenset(param.schema):
                raise JeddRuntimeError(
                    f"argument for {param.name} has schema "
                    f"{value.schema.names()}, expected {param.schema}"
                )
            container = RelationContainer(param.name)
            container.set(
                value.replace(dict(self._var_pds(param)))
            )
            frame[param.name] = container
        self._run_body(func.decl.body, func.name, frame)

    def _run_body(
        self, block: ast.Block, func: str, frame: Dict[str, RelationContainer]
    ) -> None:
        try:
            self._exec_block(block, func, frame)
        except _Return:
            pass

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_block(
        self, block: ast.Block, func: Optional[str], frame: Dict
    ) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, func, frame)

    def _lookup_container(
        self, name: str, func: Optional[str], frame: Dict
    ) -> RelationContainer:
        if name in frame:
            return frame[name]
        if name in self.globals:
            return self.globals[name]
        raise JeddRuntimeError(f"variable {name!r} not bound")

    def _exec_stmt(
        self, stmt: object, func: Optional[str], frame: Dict
    ) -> None:
        # Attribute relational operations to their Jedd program point
        # (the paper's profiler keys its views by source position).
        tel = _telemetry._active
        pos = getattr(stmt, "pos", None)
        if pos is None or not tel.enabled:
            self._exec_stmt_inner(stmt, func, frame)
            return
        site = f"{func or '<global>'}:{pos}"
        with tel.statement_span(site, kind=type(stmt).__name__):
            self._exec_stmt_inner(stmt, func, frame)

    def _exec_stmt_inner(
        self, stmt: object, func: Optional[str], frame: Dict
    ) -> None:
        if isinstance(stmt, ast.VarDecl):
            info = self.tp.lookup_var(func, stmt.name)
            container = frame.get(stmt.name)
            if container is None or not container.is_set():
                container = RelationContainer(stmt.name)
                frame[stmt.name] = container
            if stmt.init is not None:
                container.set(self._eval_into(stmt.init, info, func, frame))
        elif isinstance(stmt, ast.AssignStmt):
            info = self.tp.lookup_var(func, stmt.target)
            container = self._lookup_container(stmt.target, func, frame)
            value = self._eval_into(stmt.value, info, func, frame)
            if stmt.op == "=":
                container.set(value)
            elif stmt.op == "|=":
                container.set(container.get() | value)
            elif stmt.op == "&=":
                container.set(container.get() & value)
            elif stmt.op == "-=":
                container.set(container.get() - value)
            else:  # pragma: no cover
                raise JeddRuntimeError(f"unknown assignment {stmt.op}")
        elif isinstance(stmt, ast.CallStmt):
            self._exec_call(stmt, func, frame)
        elif isinstance(stmt, ast.IfStmt):
            if self._eval_cond(stmt.cond, func, frame):
                self._exec_block(stmt.then_block, func, dict(frame))
            elif stmt.else_block is not None:
                self._exec_block(stmt.else_block, func, dict(frame))
        elif isinstance(stmt, ast.WhileStmt):
            while self._eval_cond(stmt.cond, func, frame):
                self._exec_block(stmt.body, func, frame)
        elif isinstance(stmt, ast.DoWhileStmt):
            while True:
                self._exec_block(stmt.body, func, frame)
                if not self._eval_cond(stmt.cond, func, frame):
                    break
        elif isinstance(stmt, ast.ReturnStmt):
            raise _Return()
        elif isinstance(stmt, ast.PrintStmt):
            value = self._eval(stmt.expr, func, frame)
            print("" if value is None else str(value))
        elif isinstance(stmt, ast.FixStmt):
            self._exec_fix(stmt, func, frame)
        elif isinstance(stmt, ast.FreeStmt):
            container = frame.get(stmt.name)
            if container is not None:
                container.free()
        else:  # pragma: no cover
            raise JeddRuntimeError(f"unknown statement {stmt!r}")

    def _exec_fix(
        self, stmt: ast.FixStmt, func: Optional[str], frame: Dict
    ) -> None:
        """Saturate the block's ``|=`` rules semi-naively.

        Each rule re-evaluates once per occurrence of a fixed variable
        in its right-hand side, with that one occurrence bound to the
        previous iteration's delta (fresh tuples) instead of the whole
        relation; rules that mention no fixed variable run only in the
        first iteration.  This mirrors
        :class:`repro.relations.fixpoint.FixpointEngine`.
        """
        tel = _telemetry._active
        order: List[str] = []
        for s in stmt.body:
            if s.target not in order:
                order.append(s.target)
        targets = set(order)
        containers = {
            t: self._lookup_container(t, func, frame) for t in order
        }
        infos = {t: self.tp.lookup_var(func, t) for t in order}
        refs_of = [
            [r for r in ast.walk_var_refs(s.value) if r.name in targets]
            for s in stmt.body
        ]
        full = {t: containers[t].get() for t in order}
        delta = dict(full)  # iteration 1: everything is fresh
        iteration = 0
        while any(not delta[t].is_empty() for t in order):
            iteration += 1
            span_args: Dict[str, object] = {"iteration": iteration}
            if tel.enabled:
                for t in order:
                    span_args[f"delta_{t}"] = delta[t].size()
            with tel.span("fix.iteration", cat="fixpoint", **span_args):
                acc: Dict[str, Relation] = {}
                for s, refs in zip(stmt.body, refs_of):
                    if not refs:
                        if iteration > 1:
                            continue
                        out = self._eval_into(
                            s.value, infos[s.target], func, frame
                        )
                        prev = acc.get(s.target)
                        acc[s.target] = out if prev is None else prev | out
                        continue
                    for ref in refs:
                        if delta[ref.name].is_empty():
                            continue
                        # Equality edges put a variable use in the
                        # variable's own domains, so the delta (also in
                        # those domains) substitutes directly.
                        self._fix_override[ref.expr_id] = delta[ref.name]
                        try:
                            out = self._eval_into(
                                s.value, infos[s.target], func, frame
                            )
                        finally:
                            del self._fix_override[ref.expr_id]
                        prev = acc.get(s.target)
                        acc[s.target] = out if prev is None else prev | out
                for t in order:
                    contrib = acc.get(t)
                    if contrib is None:
                        delta[t] = full[t] - full[t]
                        continue
                    fresh = contrib - full[t]
                    delta[t] = fresh
                    if not fresh.is_empty():
                        full[t] = full[t] | fresh
                        containers[t].set(full[t])

    def _exec_call(
        self, stmt: ast.CallStmt, func: Optional[str], frame: Dict
    ) -> None:
        target = self.tp.functions[stmt.name]
        callee_frame: Dict[str, RelationContainer] = {}
        for arg, param in zip(stmt.args, target.params):
            value = self._eval_into(arg, param, func, frame)
            container = RelationContainer(param.name)
            container.set(value)
            callee_frame[param.name] = container
        self._run_body(target.decl.body, target.name, callee_frame)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval_into(
        self,
        expr: ast.Expr,
        target: VarInfo,
        func: Optional[str],
        frame: Dict,
    ) -> Relation:
        """Evaluate ``expr`` and move it into ``target``'s domains."""
        target_pds = self._var_pds(target)
        if isinstance(expr, ast.ConstRel):
            attrs = list(target.schema)
            pds = [target_pds[a] for a in attrs]
            maker = Relation.full if expr.full else Relation.empty
            return maker(self.universe, attrs, pds)
        lowered = self._lowerer.lower_into(expr, target_pds)
        # The planner may have joined in any order; the declaration
        # fixes the column order tuples() must enumerate in.
        return self._eval_lowered(lowered, func, frame).ordered(
            list(target.schema)
        )

    def _eval_cond(
        self, cond: ast.Compare, func: Optional[str], frame: Dict
    ) -> bool:
        left_const = isinstance(cond.left, ast.ConstRel)
        right_const = isinstance(cond.right, ast.ConstRel)
        if left_const and right_const:  # rejected by the type checker
            raise JeddRuntimeError("comparison of two constants")
        if left_const or right_const:
            const = cond.left if left_const else cond.right
            other = self._eval(
                cond.right if left_const else cond.left, func, frame
            )
            if const.full:
                full = Relation.full(
                    self.universe,
                    list(other.schema.names()),
                    [
                        other.schema.physdom(a).name
                        for a in other.schema.names()
                    ],
                )
                result = other == full
            else:
                result = other.is_empty()
        else:
            left = self._eval(cond.left, func, frame)
            right = self._eval(cond.right, func, frame)
            result = left == right
        return result if cond.op == "==" else not result

    def _eval(
        self, expr: ast.Expr, func: Optional[str], frame: Dict
    ) -> Relation:
        """Evaluate with this expression's assigned physical domains."""
        if isinstance(expr, ast.VarRef):
            override = self._fix_override.get(getattr(expr, "expr_id", -1))
            if override is not None:
                return override
            container = self._lookup_container(expr.name, func, frame)
            # Equality edges force a use into its variable's domains.
            return container.get()
        if isinstance(expr, ast.NewRel):
            return self._make_new(expr)
        if isinstance(expr, ast.ConstRel):
            raise JeddRuntimeError(
                f"relation constant needs a context at {expr.pos}"
            )
        lowered = self._lowerer.lower(expr)
        return self._eval_lowered(lowered, func, frame)

    def _make_new(self, expr: ast.NewRel) -> Relation:
        pds = self._expr_pds(expr)
        values: Dict[str, Hashable] = {}
        for piece in expr.pieces:
            if piece.is_string:
                obj: Hashable = piece.value
            else:
                if piece.value not in self.host_env:
                    raise JeddRuntimeError(
                        f"host object {piece.value!r} not provided "
                        f"(literal at {piece.pos})"
                    )
                obj = self.host_env[piece.value]
            values[piece.attr] = obj
        return Relation.from_tuple(
            self.universe, values, {a: pds[a] for a in values}
        )

    def _eval_lowered(
        self, lowered: LoweredExpr, func: Optional[str], frame: Dict
    ) -> Relation:
        """Bind the lowered expression's leaf slots and run it through
        the planner-backed IR evaluator."""
        env: Dict[str, Relation] = {}
        for binding in lowered.bindings:
            if binding[0] == NEW_BINDING:
                _, slot, new_expr = binding
                env[slot] = self._make_new(new_expr)
                continue
            _, slot, name, expr_id = binding
            override = self._fix_override.get(expr_id)
            if override is not None:
                env[slot] = override
            else:
                env[slot] = self._lookup_container(name, func, frame).get()
        ctx = ir.EvalContext(
            self.universe,
            env,
            planner=self._planner,
            weight=self._weight,
            on_replace=self._log_replace,
        )
        return ir.evaluate(lowered.node, ctx)

    def _log_replace(self, tag: object, moves: Dict[str, str]) -> None:
        self.replace_log.append((tag, dict(moves)))
