"""Tests for the ``fix { ... }`` statement: parsing, type checking,
semi-naive interpretation, code generation, and telemetry."""

import io

import pytest

from repro import telemetry
from repro.analyses import PointsTo, preset
from repro.analyses.jedd_sources import pointsto_fix_source, source_widths
from repro.analyses.universe import AnalysisUniverse
from repro.bdd.io import dumps_diagram_binary
from repro.jedd import ast
from repro.jedd.codegen import generate
from repro.jedd.compiler import compile_source
from repro.jedd.lexer import tokenize
from repro.jedd.parser import ParseError, parse_expression, parse_program
from repro.jedd.pretty import pretty_program
from repro.jedd.typecheck import TypeError_
from repro.jedd.typecheck import check as typecheck
from repro.relations import Relation
from repro.shell import run_script

# Transitive closure needs a third physical domain for the join
# comparison (path.dst is pinned to N2 and path/edge carry N1/N2
# attributes on both sides) -- the assigner routes the compare through
# N3 and inserts the replaces itself.
HEADER = """
domain Node 16;
attribute src : Node;
attribute dst : Node;
physdom N1 4;
physdom N2 4;
physdom N3 4;

<src:N3, dst:N2> edge;
<src:N1, dst:N2> path = 0B;
"""

FIX_SRC = HEADER + """
def close() {
  path |= edge;
  fix {
    path |= path{dst} <> edge{src};
  }
}
"""

WHILE_SRC = HEADER + """
def close() {
  path |= edge;
  <src:N1, dst:N2> old = 0B;
  while (path != old) {
    old = path;
    path |= path{dst} <> edge{src};
  }
}
"""

EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 5), (2, 7)]


def closure_oracle(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def run_interp(src, backend):
    cp = compile_source(src)
    it = cp.interpreter(backend=backend)
    it.set_global("edge", it.relation_of(["src", "dst"], EDGES))
    it.call("close")
    rel = it.global_relation("path")
    names = rel.schema.names()
    i, j = names.index("src"), names.index("dst")
    return sorted((t[i], t[j]) for t in rel.tuples())


class TestSyntax:
    def test_fix_is_a_keyword(self):
        tokens = list(tokenize("fix { }"))
        assert tokens[0].kind == "keyword" and tokens[0].text == "fix"

    def test_parse_builds_fixstmt(self):
        prog = parse_program(FIX_SRC)
        func = [d for d in prog.decls if isinstance(d, ast.FuncDecl)][0]
        fixes = [s for s in func.body.stmts if isinstance(s, ast.FixStmt)]
        assert len(fixes) == 1
        assert all(isinstance(s, ast.AssignStmt) for s in fixes[0].body)

    def test_empty_fix_block_rejected(self):
        with pytest.raises(ParseError, match="empty fix block"):
            parse_program(HEADER + "def f() { fix { } }")

    def test_non_assignment_in_fix_rejected(self):
        with pytest.raises(ParseError, match="only assignment"):
            parse_program(
                HEADER + "def f() { fix { print(path); } }"
            )

    def test_pretty_round_trip(self):
        p1 = parse_program(FIX_SRC)
        text = pretty_program(p1)
        assert "fix {" in text
        p2 = parse_program(text)
        assert pretty_program(p2) == text


class TestTypecheck:
    def test_plain_assign_in_fix_rejected(self):
        src = HEADER + "def f() { fix { path = edge; } }"
        with pytest.raises(TypeError_, match="'\\|='"):
            typecheck(parse_program(src))

    def test_minus_assign_in_fix_rejected(self):
        src = HEADER + "def f() { fix { path -= edge; } }"
        with pytest.raises(TypeError_, match="'\\|='"):
            typecheck(parse_program(src))

    def test_nonmonotone_use_rejected(self):
        src = HEADER + "def f() { fix { path |= edge - path; } }"
        with pytest.raises(TypeError_, match="non-monotonically"):
            typecheck(parse_program(src))

    def test_target_on_left_of_minus_allowed(self):
        src = HEADER + "def f() { fix { path |= (path - edge) | edge; } }"
        typecheck(parse_program(src))  # monotone: target not under rhs of -


class TestEvaluation:
    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_fix_equals_while_loop(self, backend):
        assert run_interp(FIX_SRC, backend) == run_interp(WHILE_SRC, backend)

    def test_fix_matches_oracle(self):
        assert run_interp(FIX_SRC, "bdd") == sorted(closure_oracle(EDGES))

    def test_fix_with_empty_input(self):
        cp = compile_source(FIX_SRC)
        it = cp.interpreter(backend="bdd")
        it.set_global("edge", it.relation_of(["src", "dst"], []))
        it.call("close")
        assert it.global_relation("path").is_empty()

    def test_static_rule_fires_when_targets_start_empty(self):
        """The first round always runs, so a static rule seeds an empty
        target (the loop used to stop before it, leaving path empty)."""
        src = HEADER + """
def close() {
  fix {
    path |= edge;
    path |= path{dst} <> edge{src};
  }
}
"""
        cp = compile_source(src)
        it = cp.interpreter(backend="bdd")
        it.set_global("edge", it.relation_of(["src", "dst"], EDGES))
        it.call("close")
        rel = it.global_relation("path")
        names = rel.schema.names()
        i, j = names.index("src"), names.index("dst")
        got = {(t[i], t[j]) for t in rel.tuples()}
        assert got == closure_oracle(EDGES)

    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_codegen_parity(self, backend):
        cp = compile_source(FIX_SRC)
        code = generate(cp.tp, cp.assignment)
        ns = {}
        exec(compile(code, "<jeddc-generated>", "exec"), ns)
        prog = ns["Program"](backend=backend)
        u = prog.universe
        prog.edge.set(
            Relation.from_tuples(u, ["src", "dst"], EDGES, ["N3", "N2"])
        )
        prog.close()
        rel = prog.path.get()
        names = rel.schema.names()
        i, j = names.index("src"), names.index("dst")
        got = sorted((t[i], t[j]) for t in rel.tuples())
        assert got == run_interp(FIX_SRC, backend)

    def test_generated_code_calls_saturate(self):
        """Generated code calls the runtime's one saturation loop, once
        per ``fix`` block, instead of carrying a loop of its own."""
        for src in (FIX_SRC, pointsto_fix_source()):
            cp = compile_source(src)
            code = generate(cp.tp, cp.assignment)
            assert "_delta_" not in code and "_full_" not in code
            assert "while" not in code
            assert code.count("saturate(") == 1


class TestTelemetry:
    def test_fix_iteration_spans(self):
        tel = telemetry.enable()
        try:
            cp = compile_source(FIX_SRC)
            it = cp.interpreter(backend="bdd")
            it.set_global("edge", it.relation_of(["src", "dst"], EDGES))
            it.call("close")
            spans = [
                s for s in tel.tracer.spans if s.name == "fix.iteration"
            ]
        finally:
            telemetry.disable()
        assert spans
        assert spans[0].args["iteration"] == 1
        assert "delta_path" in spans[0].args
        # Deltas shrink to empty: the last iteration discovers nothing.
        iters = [s.args["iteration"] for s in spans]
        assert iters == sorted(iters)

    def test_spans_export_to_chrome_trace(self, tmp_path):
        tel = telemetry.enable()
        try:
            cp = compile_source(FIX_SRC)
            it = cp.interpreter(backend="bdd")
            it.set_global("edge", it.relation_of(["src", "dst"], EDGES))
            it.call("close")
            out = tmp_path / "trace.json"
            tel.write_chrome_trace(str(out))
        finally:
            telemetry.disable()
        import json

        events = json.loads(out.read_text())
        evs = events["traceEvents"] if isinstance(events, dict) else events
        assert any(e.get("name") == "fix.iteration" for e in evs)


# ----------------------------------------------------------------------
# One saturation loop behind every front end
# ----------------------------------------------------------------------


def _closure_case():
    return FIX_SRC, [("edge", ["src", "dst"], EDGES)], "close", ["path"]


def _pointsto_case():
    facts = preset("javac-s")
    inputs = [
        ("alloc", ["var", "obj"], facts.allocs),
        ("assignEdge", ["dstvar", "srcvar"], facts.assigns),
        ("storeEdge", ["basevar", "field", "srcvar"], facts.stores),
        ("loadEdge", ["dstvar", "basevar", "field"], facts.loads),
    ]
    src = pointsto_fix_source(**source_widths(facts))
    return src, inputs, "solvePointsTo", ["pt", "hpt"]


CASES = {"closure": _closure_case, "pointsto": _pointsto_case}


def _traced(run):
    """``run()``'s result and the args of its ``fix.iteration`` spans."""
    tel = telemetry.enable()
    try:
        result = run()
        spans = [
            dict(s.args) for s in tel.tracer.spans
            if s.name == "fix.iteration"
        ]
    finally:
        telemetry.disable()
    return result, spans


def _front_ends(case):
    """Run one case through the interpreter and the generated module:
    per front end, (relations by output name, fix.iteration span args,
    which carry each round's delta sizes and kernel counter deltas).
    Inputs are built in each variable's assigned physical domains, in
    the same order, so both universes intern identically."""
    src, inputs, entry, outputs = CASES[case]()
    cp = compile_source(src)

    def pds(name, attrs):
        var = cp.tp.lookup_var(None, name)
        owned = cp.assignment.owner_domains[("var", var.var_id)]
        return [owned[a] for a in attrs]

    def interp():
        it = cp.interpreter(backend="bdd")
        telemetry.active().instrument_universe(it.universe, "kernel")
        for name, attrs, rows in inputs:
            it.set_global(name, it.relation_of(attrs, rows, pds(name, attrs)))
        it.call(entry)
        return {o: it.global_relation(o) for o in outputs}

    def generated():
        ns = {}
        code = generate(cp.tp, cp.assignment)
        exec(compile(code, "<jeddc-generated>", "exec"), ns)
        prog = ns["Program"](backend="bdd")
        telemetry.active().instrument_universe(prog.universe, "kernel")
        for name, attrs, rows in inputs:
            getattr(prog, name).set(
                Relation.from_tuples(
                    prog.universe, attrs, rows, pds(name, attrs)
                )
            )
        getattr(prog, entry)()
        return {o: getattr(prog, o).get() for o in outputs}

    return _traced(interp), _traced(generated)


def _wire(rel):
    return dumps_diagram_binary(rel.universe.manager, rel.node)


class TestOneSaturationLoop:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_interpreter_and_generated_code_agree(self, case):
        (got_i, spans_i), (got_g, spans_g) = _front_ends(case)
        assert spans_i, "the interpreter emitted no fix.iteration span"
        # Same iteration count, per-round delta sizes and kernel work.
        assert all("kdelta" in s for s in spans_i)
        assert spans_g == spans_i
        assert [s["iteration"] for s in spans_i] == list(
            range(1, len(spans_i) + 1)
        )
        for name in got_i:
            assert got_g[name].schema.names() == got_i[name].schema.names()
            assert _wire(got_g[name]) == _wire(got_i[name])

    def test_pointsto_fix_matches_pointsto(self):
        """The ``fix`` form of points-to derives PointsTo's tuples.  The
        universes differ in bit widths and order, so the comparison is
        by tuples, not wire bytes."""
        (got, _), _ = _front_ends("pointsto")
        ref = PointsTo(AnalysisUniverse(preset("javac-s"))).solve()

        def pairs(rel):
            names = rel.schema.names()
            i, j = names.index("var"), names.index("obj")
            return {(t[i], t[j]) for t in rel.tuples()}

        assert pairs(got["pt"]) and pairs(got["pt"]) == pairs(ref)

    def test_shell_reports_the_same_iteration_count(self):
        _, spans = _front_ends("closure")[0]
        setup = [
            "domain Node 16",
            "attribute src : Node",
            "attribute dst : Node",
            "attribute mid : Node",
            "physdom N1 4",
            "physdom N2 4",
            "finalize",
            "rel edge src:N1 dst:N2",
            *[f"insert edge {a} {b}" for a, b in EDGES],
            "rel path src:N1 dst:N2",
            "let path = path | edge",
            "fix path |= ((dst=>mid) path){mid} <> ((src=>mid) edge){mid}",
        ]
        out = io.StringIO()
        run_script(setup, stdout=out)
        assert f"fixed point after {len(spans)} iteration(s)" in out.getvalue()


#: A fix target under the right operand of '-': directly, and inside a
#: join, a replace and an aggregate.
NONMONOTONE = [
    "edge - path",
    "path{dst} <> (edge - path){src}",
    "(dst=>) (edge - path)",
    "count (edge - path).dst group by src",
]


class TestOneMonotonicityRule:
    @pytest.mark.parametrize("rhs", NONMONOTONE)
    def test_typechecker_and_shell_reject_alike(self, rhs):
        with pytest.raises(TypeError_, match="non-monotonically"):
            typecheck(
                parse_program(HEADER + f"def f() {{ fix {{ path |= {rhs}; }} }}")
            )
        out = io.StringIO()
        run_script(
            [
                "domain Node 16",
                "attribute src : Node",
                "attribute dst : Node",
                "physdom N1 4",
                "physdom N2 4",
                "finalize",
                "rel edge src:N1 dst:N2",
                "rel path src:N1 dst:N2",
                f"fix path |= {rhs}",
            ],
            stdout=out,
        )
        assert "non-monotonically" in out.getvalue()

    def test_rule_yields_each_offending_occurrence(self):
        expr = parse_expression("(path - edge) | (edge - (path | path))")
        refs = list(ast.nonmonotone_refs(expr, {"path"}))
        assert [r.name for r in refs] == ["path", "path"]
