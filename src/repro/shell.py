"""An interactive environment for experimenting with relations.

Related work (section 6.2) describes small interactive languages for
experimenting with BDDs, such as IBEN; this module provides the same
kind of tool at Jedd's level of abstraction: a read-eval-print loop
over *relations*, using the Figure 5 expression grammar with the
runtime's dynamic checking (no physical domain annotations needed --
the runtime aligns operands automatically).

Example session::

    jedd> domain Type 64
    jedd> attribute subtype : Type
    jedd> attribute supertype : Type
    jedd> attribute tgttype : Type
    jedd> physdom T1 6
    jedd> physdom T2 6
    jedd> finalize
    jedd> rel extend subtype:T1 supertype:T2
    jedd> insert extend B A
    jedd> insert extend C B
    jedd> let up2 = (supertype=>tgttype) extend{subtype} <> extend ...

Run interactively with ``python -m repro.shell``, or feed commands via
:func:`run_script` (used by the test suite and for batch files).
"""

from __future__ import annotations

import cmd
import shlex
import sys
from typing import Dict, List, Optional

from repro import telemetry
from repro.jedd import ast
from repro.jedd.lexer import LexError
from repro.jedd.parser import ParseError, parse_expression
from repro.relations import (
    CsvFormatError,
    JeddError,
    Relation,
    Universe,
    WeightedRelation,
    ir,
    saturate,
)

__all__ = ["RelationalShell", "run_script", "main"]


class _ShellError(Exception):
    """User-level error; printed, does not abort the shell."""


class RelationalShell(cmd.Cmd):
    """The interactive read-eval-print loop over relations."""

    intro = (
        "Jedd relational shell (PLDI 2004 reproduction). "
        "Type help or ? for commands."
    )
    prompt = "jedd> "

    def __init__(self, stdout=None) -> None:
        super().__init__(stdout=stdout)
        self.backend = "bdd"
        self.universe: Optional[Universe] = None
        self._pending = Universe()
        self.relations: Dict[str, Relation] = {}
        #: id(VarRef node) -> delta relation, set while a `fix` command
        #: evaluates a rule semi-naively (the shell's ASTs carry no
        #: expr_ids, so occurrences are keyed by node identity).
        self._fix_override: Dict[int, Relation] = {}
        #: the query planner all shell expressions evaluate through;
        #: reset on `finalize` (plans are per-universe).
        self._planner = ir.Planner()
        #: sequence number for `agg`'s auto-named results (a1, a2, ...).
        self._agg_counter = 0
        #: background analysis service started by `serve`, if any.
        self._service = None
        #: client connection opened by `connect`, if any.
        self._remote = None
        self._remote_universe = "default"

    # -- helpers -----------------------------------------------------------

    def _say(self, text: str) -> None:
        print(text, file=self.stdout or sys.stdout)

    def _fail(self, message: str) -> None:
        self._say(f"error: {message}")

    def _need_finalized(self) -> Universe:
        if self.universe is None:
            raise _ShellError("run `finalize` first")
        return self.universe

    def _need_unfinalized(self) -> Universe:
        if self.universe is not None:
            raise _ShellError("universe already finalized")
        return self._pending

    def onecmd(self, line: str) -> bool:
        # Every command accepts the colon-prefixed spelling (":stats",
        # ":fix path |= ...") familiar from other REPLs.  Stripping the
        # prefix *here* — before cmd.Cmd dispatches — makes the rule
        # uniform instead of per-command: `:x` and `x` are the same
        # command for every x, including `help` and future additions.
        stripped = line.lstrip()
        if stripped.startswith(":") and not stripped.startswith("::"):
            line = stripped[1:]
        # cmd.Cmd splits command words at non-identifier characters, so
        # the hyphenated spelling is mapped to do_load_facts here.
        if line.lstrip().startswith("load-facts"):
            line = line.lstrip().replace("load-facts", "load_facts", 1)
        try:
            return super().onecmd(line)
        except (_ShellError, JeddError, ParseError, LexError) as err:
            self._fail(str(err))
            return False

    def default(self, line: str) -> bool:
        self._fail(f"unknown command {line.split()[0]!r} (try `help`)")
        return False

    @classmethod
    def command_names(cls) -> List[str]:
        """All command words the shell dispatches (the ``do_*`` table).

        Every one of these accepts both the bare and the ``:``-prefixed
        spelling; the table-driven spelling test iterates this list so a
        newly added command cannot regress the rule.
        """
        return sorted(
            name[len("do_"):]
            for name in dir(cls)
            if name.startswith("do_") and name != "do_EOF"
        )

    # -- declaration commands ------------------------------------------------

    def do_backend(self, arg: str) -> None:
        """backend bdd|zdd -- choose the diagram engine (before
        finalize)."""
        name = arg.strip()
        if name not in ("bdd", "zdd"):
            raise _ShellError("backend must be 'bdd' or 'zdd'")
        self._need_unfinalized()
        self.backend = name
        self._say(f"backend set to {name}")

    def do_domain(self, arg: str) -> None:
        """domain NAME SIZE -- declare a domain of objects."""
        parts = arg.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise _ShellError("usage: domain NAME SIZE")
        self._need_unfinalized().domain(parts[0], int(parts[1]))

    def do_attribute(self, arg: str) -> None:
        """attribute NAME : DOMAIN -- declare an attribute."""
        parts = arg.replace(":", " ").split()
        if len(parts) != 2:
            raise _ShellError("usage: attribute NAME : DOMAIN")
        u = self._need_unfinalized()
        u.attribute(parts[0], u.get_domain(parts[1]))

    def do_physdom(self, arg: str) -> None:
        """physdom NAME BITS -- declare a physical domain."""
        parts = arg.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise _ShellError("usage: physdom NAME BITS")
        self._need_unfinalized().physical_domain(parts[0], int(parts[1]))

    def do_finalize(self, arg: str) -> None:
        """finalize -- fix the bit ordering and create the manager."""
        u = self._need_unfinalized()
        # Rebuild with the chosen backend (Universe fixes backend at
        # construction; declarations are replayed).
        fresh = Universe(backend=self.backend)
        for dom in u._domains.values():
            fresh.domain(dom.name, dom.max_size)
        for attr in u._attributes.values():
            fresh.attribute(attr.name, fresh.get_domain(attr.domain.name))
        for pd in u.physical_domains():
            fresh.physical_domain(pd.name, pd.bits)
        fresh.finalize()
        self.universe = fresh
        self._planner = ir.Planner()
        if telemetry.is_enabled():
            telemetry.active().instrument_universe(fresh)
        self._say(
            f"universe ready: {fresh.manager.num_vars} diagram variables"
        )

    # -- relation commands -----------------------------------------------------

    def do_rel(self, arg: str) -> None:
        """rel NAME attr[:PD] ... -- declare an empty relation."""
        parts = arg.split()
        if len(parts) < 2:
            raise _ShellError("usage: rel NAME attr[:PD] ...")
        u = self._need_finalized()
        name = parts[0]
        attrs: List[str] = []
        pds: List[str] = []
        explicit = True
        for spec in parts[1:]:
            if ":" in spec:
                attr, pd = spec.split(":", 1)
                attrs.append(attr)
                pds.append(pd)
            else:
                attrs.append(spec)
                explicit = False
        self.relations[name] = Relation.empty(
            u, attrs, pds if explicit else None
        )

    def do_insert(self, arg: str) -> None:
        """insert NAME obj1 obj2 ... -- add one tuple to a relation."""
        parts = shlex.split(arg)
        if not parts:
            raise _ShellError("usage: insert NAME obj ...")
        rel = self._lookup(parts[0])
        names = rel.schema.names()
        if len(parts) - 1 != len(names):
            raise _ShellError(
                f"{parts[0]} has attributes {', '.join(names)}; "
                f"got {len(parts) - 1} object(s)"
            )
        row = Relation.from_tuple(
            rel.universe,
            dict(zip(names, parts[1:])),
            {n: rel.schema.physdom(n) for n in names},
        )
        self.relations[parts[0]] = rel | row

    def do_let(self, arg: str) -> None:
        """let NAME = EXPR -- evaluate a Jedd expression."""
        if "=" not in arg:
            raise _ShellError("usage: let NAME = EXPR")
        name, _, source = arg.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise _ShellError(f"bad relation name {name!r}")
        self.relations[name] = self._eval(source.strip())

    def do_fix(self, arg: str) -> None:
        """fix NAME |= EXPR [; NAME |= EXPR ...] -- saturate the rules
        to a least fixed point with semi-naive (delta) evaluation, like
        the mini-language's `fix { ... }` block."""
        source = arg.strip()
        if source.startswith("{") and source.endswith("}"):
            source = source[1:-1].strip()
        rules = []
        for piece in source.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "|=" not in piece:
                raise _ShellError(
                    "fix rules must be `NAME |= EXPR` (only `|=` keeps "
                    "the iteration monotone)"
                )
            name, _, rhs = piece.partition("|=")
            name = name.strip()
            if not name.isidentifier():
                raise _ShellError(f"bad relation name {name!r}")
            rules.append((name, parse_expression(rhs.strip())))
        if not rules:
            raise _ShellError("usage: fix NAME |= EXPR [; NAME |= EXPR ...]")
        targets = {name: self._lookup(name) for name, _ in rules}
        for _, expr in rules:
            for ref in ast.nonmonotone_refs(expr, targets):
                raise _ShellError(
                    f"fix target {ref.name!r} used non-monotonically "
                    "(under the right operand of '-')"
                )

        def unit(target, expr, ref):
            def evaluate(delta):
                if ref is None:
                    return self._eval_ast(expr)
                self._fix_override[id(ref)] = delta
                try:
                    return self._eval_ast(expr)
                finally:
                    del self._fix_override[id(ref)]

            return (target, None if ref is None else ref.name, evaluate)

        iterations = saturate(
            targets,
            [unit(*occ) for occ in ast.fix_occurrences(rules)],
            self.relations.__setitem__,
        )
        self._say(
            f"fixed point after {iterations} iteration(s): "
            + ", ".join(f"{t}={self.relations[t].size()}" for t in targets)
        )

    def do_explain(self, arg: str) -> None:
        """explain EXPR -- evaluate and show the planner's chosen
        schedule for every product, with per-step cost estimates next to
        the actual cardinalities and node counts."""
        source = arg.strip()
        if not source:
            raise _ShellError("usage: explain EXPR")
        expr = parse_expression(source)
        reports: List[ir.PlanReport] = []
        rel = self._eval_ast(expr, collect=reports)
        self._say(ir.format_reports(reports))
        self._say(
            f"result: {rel.size()} tuples, {rel.node_count()} nodes"
        )

    def do_print(self, arg: str) -> None:
        """print EXPR -- show a relation's tuples (aggregate
        expressions like `count pt.p group by v` print their weights)."""
        self._say(str(self._eval(arg.strip())))

    def do_agg(self, arg: str) -> None:
        """agg AGG EXPR[.attr] [group by a, ...] -- evaluate an
        aggregate and keep the weighted result under an auto-generated
        name (a1, a2, ..., in the codd style)."""
        source = arg.strip()
        if not source:
            raise _ShellError(
                "usage: agg AGG EXPR[.attr] [group by a, ...]"
            )
        expr = parse_expression(source)
        if not isinstance(expr, ast.AggregateOp):
            raise _ShellError(
                "agg needs an aggregate expression "
                "(count/sum/max/min/mean)"
            )
        result = self._eval_ast(expr)
        self._agg_counter += 1
        name = f"a{self._agg_counter}"
        self.relations[name] = result
        self._say(f"{name}:")
        self._say(str(result))

    def do_count(self, arg: str) -> None:
        """count EXPR -- cardinality from the kernel's satcount, with no
        tuple enumeration.  Per-node counts are kept until the next GC,
        so recounting after a small update walks only the new nodes."""
        rel = self._eval(arg.strip())
        if isinstance(rel, WeightedRelation):
            self._say(str(rel.size()))
        else:
            self._say(str(rel.count()))

    def do_size(self, arg: str) -> None:
        """size EXPR -- number of tuples."""
        self._say(str(self._eval(arg.strip()).size()))

    def do_nodes(self, arg: str) -> None:
        """nodes EXPR -- diagram node count."""
        self._say(str(self._eval(arg.strip()).node_count()))

    def do_list(self, arg: str) -> None:
        """list -- show all named relations."""
        for name in sorted(self.relations):
            rel = self.relations[name]
            kind = (
                " (weighted)" if isinstance(rel, WeightedRelation) else ""
            )
            self._say(
                f"{name:16s} {rel.schema!r}  {rel.size()} tuples, "
                f"{rel.node_count()} nodes{kind}"
            )

    def do_load_facts(self, arg: str) -> None:
        """load-facts FILE NAME attr[:PD] ... [--header] [--skip]
        [--delim=C] [--int=a,b] [--float=a,b] -- bulk-load CSV rows
        into a new relation.  With --header the first line names the
        columns (any order); --skip drops malformed rows instead of
        failing with the line report; --int/--float convert the named
        columns to numbers (so they can be aggregated)."""
        parts = shlex.split(arg)
        has_header = False
        on_malformed = "error"
        delimiter = ","
        converters: Dict[str, object] = {}
        words: List[str] = []
        for p in parts:
            if p == "--header":
                has_header = True
            elif p == "--skip":
                on_malformed = "skip"
            elif p.startswith("--delim="):
                delimiter = p[len("--delim="):]
            elif p.startswith("--int="):
                for a in p[len("--int="):].split(","):
                    converters[a] = int
            elif p.startswith("--float="):
                for a in p[len("--float="):].split(","):
                    converters[a] = float
            elif p.startswith("--"):
                raise _ShellError(f"unknown flag {p!r}")
            else:
                words.append(p)
        if len(words) < 3:
            raise _ShellError(
                "usage: load-facts FILE NAME attr[:PD] ... "
                "[--header] [--skip] [--delim=C]"
            )
        u = self._need_finalized()
        path, name = words[0], words[1]
        if not name.isidentifier():
            raise _ShellError(f"bad relation name {name!r}")
        attrs: List[str] = []
        pds: List[str] = []
        explicit = True
        for spec in words[2:]:
            if ":" in spec:
                attr, pd = spec.split(":", 1)
                attrs.append(attr)
                pds.append(pd)
            else:
                attrs.append(spec)
                explicit = False
        try:
            rel = Relation.from_csv(
                u,
                path,
                attrs,
                pds if explicit else None,
                delimiter=delimiter,
                has_header=has_header,
                converters=converters or None,
                on_malformed=on_malformed,
            )
        except OSError as err:
            raise _ShellError(f"cannot read {path}: {err}") from None
        except CsvFormatError as err:
            raise _ShellError(str(err)) from None
        self.relations[name] = rel
        self._say(f"{name}: loaded {rel.count()} tuple(s) from {path}")

    # -- persistence and service commands -------------------------------------

    def do_save(self, arg: str) -> None:
        """save FILE -- checkpoint the universe and all named relations
        to a self-contained file (see docs/SERVICE.md for the format)."""
        path = arg.strip()
        if not path:
            raise _ShellError("usage: save FILE")
        u = self._need_finalized()
        # Weighted aggregate results are derived artifacts the JDDU
        # container cannot hold; keep the checkpoint to the relations
        # they were computed from.
        saveable = {
            n: r
            for n, r in self.relations.items()
            if not isinstance(r, WeightedRelation)
        }
        skipped = len(self.relations) - len(saveable)
        try:
            count = u.save(path, saveable)
        except OSError as err:
            raise _ShellError(f"cannot save {path}: {err}") from None
        note = (
            f" (skipped {skipped} weighted aggregate result(s))"
            if skipped
            else ""
        )
        self._say(
            f"saved {len(saveable)} relation(s), {count} bytes{note}"
        )

    def do_load(self, arg: str) -> None:
        """load FILE -- restore a universe checkpoint written by `save`
        (replaces the current universe and relations)."""
        path = arg.strip()
        if not path:
            raise _ShellError("usage: load FILE")
        try:
            universe, relations = Universe.load(path)
        except OSError as err:
            raise _ShellError(f"cannot load {path}: {err}") from None
        self.universe = universe
        self.backend = universe.backend_name
        self.relations = relations
        self._planner = ir.Planner()
        if telemetry.is_enabled():
            telemetry.active().instrument_universe(universe)
        self._say(
            f"loaded {len(relations)} relation(s); universe ready: "
            f"{universe.manager.num_vars} diagram variables"
        )

    def do_serve(self, arg: str) -> None:
        """serve [PORT] -- start the analysis service in the background
        (`python -m repro.service` runs it in the foreground)."""
        from repro.service import start_in_thread

        if self._service is not None:
            raise _ShellError("service already running (quit to stop)")
        spec = arg.strip()
        if spec and not spec.isdigit():
            raise _ShellError("usage: serve [PORT]")
        handle = start_in_thread(port=int(spec) if spec else 0)
        self._service = handle
        self._say(f"serving on {handle.host}:{handle.port}")

    def do_connect(self, arg: str) -> None:
        """connect HOST:PORT [UNIVERSE] -- attach to a running service;
        `remote LINE` then runs shell commands there."""
        from repro.service import ServiceClient

        parts = arg.split()
        if not parts or ":" not in parts[0] or len(parts) > 2:
            raise _ShellError("usage: connect HOST:PORT [UNIVERSE]")
        host, _, port = parts[0].rpartition(":")
        if not port.isdigit():
            raise _ShellError("usage: connect HOST:PORT [UNIVERSE]")
        if self._remote is not None:
            self._remote.close()
        self._remote = ServiceClient(host, int(port))
        self._remote_universe = parts[1] if len(parts) == 2 else "default"
        info = self._remote.open(self._remote_universe)
        self._say(
            f"connected to {parts[0]}, universe "
            f"{self._remote_universe!r} "
            f"({'new' if info['created'] else 'existing'})"
        )

    def do_disconnect(self, arg: str) -> None:
        """disconnect -- drop the `connect`-ed service session."""
        if self._remote is None:
            raise _ShellError("not connected")
        self._remote.close()
        self._remote = None
        self._say("disconnected")

    def do_remote(self, arg: str) -> None:
        """remote LINE -- run one shell command on the connected
        service's universe and print its output."""
        if self._remote is None:
            raise _ShellError("run `connect HOST:PORT` first")
        if not arg.strip():
            raise _ShellError("usage: remote LINE")
        output = self._remote.shell(self._remote_universe, arg)
        if output:
            for piece in output.rstrip("\n").split("\n"):
                self._say(piece)

    # -- telemetry commands ----------------------------------------------------

    def do_telemetry(self, arg: str) -> None:
        """telemetry on|off|status -- toggle the telemetry session
        (kernel metrics + span tracing; also reachable as `:telemetry`)."""
        mode = arg.strip() or "status"
        if mode == "on":
            session = telemetry.enable()
            if self.universe is not None:
                session.instrument_universe(self.universe)
            self._say("telemetry on")
        elif mode == "off":
            telemetry.disable()
            self._say("telemetry off")
        elif mode == "status":
            session = telemetry.active()
            if not session.enabled:
                self._say("telemetry is off")
                return
            tracer = session.tracer
            line = f"telemetry is on: {len(tracer.spans)} spans"
            if tracer.dropped:
                line += (
                    f", {tracer.dropped} dropped"
                    f" (max_spans={tracer.max_spans})"
                )
            self._say(line)
        else:
            raise _ShellError("usage: telemetry on|off|status")

    def _need_telemetry(self):
        session = telemetry.active()
        if not session.enabled:
            raise _ShellError("telemetry is off; run `telemetry on` first")
        return session

    def do_stats(self, arg: str) -> None:
        """stats [PREFIX] -- print the metrics snapshot (also `:stats`);
        PREFIX filters metric names (e.g. `stats bdd.apply`)."""
        session = self._need_telemetry()
        prefix = arg.strip()
        snapshot = session.metrics_snapshot()
        shown = 0
        width = max((len(k) for k in snapshot), default=0)
        for name in sorted(snapshot):
            if prefix and not name.startswith(prefix):
                continue
            value = snapshot[name]
            if isinstance(value, float) and not value.is_integer():
                self._say(f"{name:<{width}}  {value:.6f}")
            else:
                self._say(f"{name:<{width}}  {int(value)}")
            shown += 1
        if not shown:
            self._say(f"(no metrics matching {prefix!r})")

    def do_trace(self, arg: str) -> None:
        """trace FILE -- write the collected spans as Chrome trace-event
        JSON, loadable in chrome://tracing or Perfetto (also `:trace`)."""
        session = self._need_telemetry()
        path = arg.strip()
        if not path:
            raise _ShellError("usage: trace FILE")
        count = session.write_chrome_trace(path, process_name="repro-shell")
        self._say(f"wrote {count} trace events to {path}")

    def do_metrics(self, arg: str) -> None:
        """metrics [FILE] -- emit the session metrics in Prometheus text
        exposition format (also `:metrics`); with FILE, write the
        exposition there plus a FILE.json snapshot for
        `python -m repro.telemetry.top --file FILE.json`."""
        session = self._need_telemetry()
        from repro.telemetry.sampler import Sampler

        Sampler(session).sample()  # fold in point-in-time gauges (RSS...)
        text = session.prometheus_text()
        path = arg.strip()
        if not path:
            for line in text.splitlines():
                self._say(line)
            return
        import json as _json

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            _json.dump(session.json_snapshot(), fh, sort_keys=True)
        self._say(f"wrote metrics exposition to {path} (+ {path}.json)")

    def do_quit(self, arg: str) -> bool:
        """quit -- leave the shell (stops `serve`, drops `connect`)."""
        if self._remote is not None:
            self._remote.close()
            self._remote = None
        if self._service is not None:
            self._service.stop()
            self._service = None
        return True

    do_exit = do_quit
    do_EOF = do_quit

    def emptyline(self) -> bool:
        return False

    # -- expression evaluation ----------------------------------------------------

    def _lookup(self, name: str) -> Relation:
        rel = self.relations.get(name)
        if rel is None:
            raise _ShellError(f"no relation {name!r}")
        return rel

    def _eval(self, source: str) -> Relation:
        # A bare name bound to a weighted aggregate result is readable
        # directly (print/count/size); only *composing* it is an error.
        name = source.strip()
        if name.isidentifier() and isinstance(
            self.relations.get(name), WeightedRelation
        ):
            return self.relations[name]
        expr = parse_expression(source)
        return self._eval_ast(expr)

    def _lower_ast(
        self, expr: ast.Expr, env: Dict[str, Relation], counter: List[int]
    ) -> ir.Node:
        """Lower a shell expression to the relational IR, binding each
        leaf to its relation in ``env``.  The shell has no static domain
        assignment, so no wrapper replaces appear and nested joins
        flatten freely for the planner."""
        u = self._need_finalized()
        if isinstance(expr, ast.VarRef):
            override = self._fix_override.get(id(expr))
            rel = override if override is not None else self._lookup(expr.name)
            if isinstance(rel, WeightedRelation):
                raise _ShellError(
                    f"{expr.name!r} is a weighted aggregate result; "
                    "it cannot be used as a relational operand"
                )
            slot = f"s{counter[0]}"
            counter[0] += 1
            env[slot] = rel
            return ir.leaf(slot, rel.schema.names())
        if isinstance(expr, ast.ConstRel):
            raise _ShellError(
                "0B/1B need a schema; use `rel` to declare one"
            )
        if isinstance(expr, ast.NewRel):
            values = {}
            for piece in expr.pieces:
                if not piece.is_string:
                    raise _ShellError(
                        "shell literals must use quoted strings"
                    )
                values[piece.attr] = piece.value
            rel = Relation.from_tuple(u, values)
            slot = f"s{counter[0]}"
            counter[0] += 1
            env[slot] = rel
            return ir.leaf(slot, rel.schema.names())
        if isinstance(expr, ast.SetOp):
            left = self._lower_ast(expr.left, env, counter)
            right = self._lower_ast(expr.right, env, counter)
            ctor = {"|": ir.union, "&": ir.intersect, "-": ir.diff}[expr.op]
            return ctor(left, right)
        if isinstance(expr, ast.JoinOp):
            left = self._lower_ast(expr.left, env, counter)
            right = self._lower_ast(expr.right, env, counter)
            return ir.positional_join(
                left,
                right,
                expr.left_attrs,
                expr.right_attrs,
                expr.op == "><",
            )
        if isinstance(expr, ast.ReplaceOp):
            node = self._lower_ast(expr.operand, env, counter)
            for rep in expr.replacements:
                if not rep.targets:
                    node = ir.project(node, (rep.source,))
                elif len(rep.targets) == 1:
                    node = ir.rename(node, {rep.source: rep.targets[0]})
                else:
                    node = ir.copy(node, rep.source, rep.targets)
            return node
        if isinstance(expr, ast.AggregateOp):
            node = self._lower_ast(expr.operand, env, counter)
            return ir.aggregate(
                node,
                expr.agg,
                attr=expr.attr,
                group_by=tuple(expr.group_by),
            )
        raise _ShellError(f"cannot evaluate {type(expr).__name__}")

    def _eval_ast(
        self, expr: ast.Expr, collect: Optional[list] = None
    ) -> Relation:
        u = self._need_finalized()
        env: Dict[str, Relation] = {}
        node = self._lower_ast(expr, env, [0])
        ctx = ir.EvalContext(
            u, env, planner=self._planner, collect=collect
        )
        return ir.evaluate(node, ctx)


def run_script(lines: List[str], stdout=None) -> RelationalShell:
    """Execute shell commands non-interactively; returns the shell."""
    shell = RelationalShell(stdout=stdout)
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if shell.onecmd(line):
            break
    return shell


def main() -> None:  # pragma: no cover - interactive entry point
    """Entry point for ``python -m repro.shell``."""
    RelationalShell().cmdloop()


if __name__ == "__main__":  # pragma: no cover
    main()
