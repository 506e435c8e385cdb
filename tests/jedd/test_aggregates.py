"""Aggregate expressions through the full language pipeline.

``count/sum/max/min/mean`` parse contextually (they are ordinary
identifiers unless followed by an expression), type-check as *weighted*
expressions usable only where a weighted result is acceptable, and
evaluate identically in the interpreter and the generated code, on both
the bdd and the zdd backends.
"""

import contextlib
import io

import pytest

from repro.jedd import ast
from repro.jedd.codegen import generate
from repro.jedd.compiler import compile_source
from repro.jedd.parser import parse_program
from repro.jedd.pretty import pretty_program
from repro.jedd.typecheck import TypeError_, check
from repro.relations import Relation

PRELUDE = """
domain Var 16;
domain Obj 16;
attribute v : Var;
attribute w : Var;
attribute p : Obj;
physdom VD 4;
physdom WD 4;
physdom OD 4;
"""

WEIGHTED = PRELUDE + """
<v:VD, p:OD> pt;
<v:VD, w:WD> assign;

def report() {
  print(count pt);
  print(count pt group by v);
  print(sum pt.p group by v);
  print(max pt.p);
  print(min pt.p group by v);
  print(mean pt.p group by v);
  print(count (pt{v} >< assign{v}) group by w);
}
"""

PT_ROWS = [("v0", 1), ("v0", 2), ("v1", 2), ("v2", 0), ("v2", 4)]
ASSIGN_ROWS = [("v0", "v1"), ("v1", "v1"), ("v2", "v0")]


def run_interp(backend):
    cp = compile_source(WEIGHTED)
    it = cp.interpreter(backend=backend)
    it.set_global("pt", it.relation_of(["v", "p"], PT_ROWS))
    it.set_global("assign", it.relation_of(["v", "w"], ASSIGN_ROWS))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        it.call("report")
    return out.getvalue()


def run_generated(backend):
    cp = compile_source(WEIGHTED)
    code = generate(cp.tp, cp.assignment)
    namespace = {}
    exec(compile(code, "<jeddc-generated>", "exec"), namespace)
    prog = namespace["Program"](backend=backend)
    u = prog.universe
    prog.pt.set(Relation.from_tuples(u, ["v", "p"], PT_ROWS, ["VD", "OD"]))
    prog.assign.set(
        Relation.from_tuples(u, ["v", "w"], ASSIGN_ROWS, ["VD", "WD"])
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        prog.report()
    return out.getvalue()


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_interpreter_matches_generated(self, backend):
        assert run_interp(backend) == run_generated(backend)

    def test_backends_agree(self):
        assert run_interp("bdd") == run_interp("zdd")

    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_values_match_oracle(self, backend):
        out = [line.rstrip() for line in run_interp(backend).splitlines()]
        # count pt == 5 distinct (v, p) pairs
        assert out[0:3] == ["weight", "------", "5"]
        # count pt group by v
        assert out[5:8] == ["v0  2", "v1  1", "v2  2"]
        # sum pt.p group by v (v2's p=0 contributes nothing)
        assert out[10:13] == ["v0  3", "v1  2", "v2  4"]
        # max pt.p ungrouped
        assert out[15] == "4"
        # min pt.p group by v: v2's min is 0, and weight 0 means absent
        assert out[18:20] == ["v0  1", "v1  2"]
        # mean pt.p group by v: v2 over {0, 4} is 2.0
        assert out[22:25] == ["v0  1.5", "v1  2.0", "v2  2.0"]
        # count of the join, grouped by the assign target
        assert out[27:29] == ["v0  2", "v1  3"]


class TestParsing:
    def test_pretty_roundtrip(self):
        program = parse_program(WEIGHTED)
        text = pretty_program(program)
        again = parse_program(text)
        assert pretty_program(again) == text

    def test_aggregate_names_stay_identifiers(self):
        # A variable literally named "count" still works where no
        # expression follows, and "count <expr>" is the aggregate.
        src = PRELUDE + (
            "<v:VD> count;\n<v:VD> y;\n"
            "def f() { y = count | y; print(count y); }"
        )
        program = parse_program(src)
        func = next(
            d for d in program.decls if isinstance(d, ast.FuncDecl)
        )
        assign, prnt = func.body.stmts[0], func.body.stmts[1]
        assert isinstance(assign.value, ast.SetOp)
        assert isinstance(assign.value.left, ast.VarRef)
        assert assign.value.left.name == "count"
        assert isinstance(prnt.expr, ast.AggregateOp)
        compile_source(src)  # and the whole pipeline accepts it

    def test_group_by_list(self):
        src = PRELUDE + (
            "<v:VD, w:WD, p:OD> r;\n"
            "def f() { print(count r group by v, w); }"
        )
        program = parse_program(src)
        func = next(
            d for d in program.decls if isinstance(d, ast.FuncDecl)
        )
        agg = func.body.stmts[0].expr
        assert isinstance(agg, ast.AggregateOp)
        assert agg.group_by == ["v", "w"]


class TestTypechecking:
    def check_fails(self, body, match):
        src = PRELUDE + "<v:VD, p:OD> pt;\n<v:VD, w:WD> assign;\n" + body
        with pytest.raises(TypeError_, match=match):
            check(parse_program(src))

    def test_weighted_not_assignable(self):
        self.check_fails(
            "def f() { pt = count pt group by v; }",
            "cannot be used as a relation value",
        )

    def test_weighted_not_setop_operand(self):
        self.check_fails(
            "def f() { print((count pt) | pt); }",
            "cannot be used as operand",
        )

    def test_weighted_not_join_operand(self):
        self.check_fails(
            "def f() { print((count pt group by v){v} >< assign{v}); }",
            "operand",
        )

    def test_weighted_not_replace_operand(self):
        self.check_fails(
            "def f() { print((v=>w) count pt group by v); }",
            "attribute-manipulation operand",
        )

    def test_weighted_not_comparable(self):
        self.check_fails(
            "def f() { if (count pt != 0B) { } }",
            "comparison operand",
        )

    def test_nested_aggregate_rejected(self):
        self.check_fails(
            "def f() { print(count count pt group by v); }",
            "operand of count",
        )

    def test_sum_needs_attribute(self):
        self.check_fails(
            "def f() { print(sum pt group by v); }",
            "needs an attribute",
        )

    def test_unknown_attribute(self):
        self.check_fails(
            "def f() { print(sum pt.q); }",
            "not in operand schema",
        )

    def test_grouped_and_aggregated(self):
        self.check_fails(
            "def f() { print(sum pt.p group by p); }",
            "both aggregated and grouped",
        )
