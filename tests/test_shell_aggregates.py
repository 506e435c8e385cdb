"""Shell-level aggregates: `agg`, `count`, `load-facts`, weighted names.

Mirrors tests/test_shell.py's script-driven idiom on a numeric universe,
on the bdd and the zdd backend, so weighted results flow through the
whole REPL surface: auto-named aggregate results, satcount-backed
`count`, CSV bulk loading with converters, and the guard that keeps
weighted results out of relational expressions.
"""

import io

import pytest

from repro.relations import WeightedRelation
from repro.shell import run_script

DECLARATIONS = [
    "domain Var 16",
    "domain Num 16",
    "attribute v : Var",
    "attribute w : Var",
    "attribute p : Num",
    "physdom VD 4",
    "physdom WD 4",
    "physdom OD 4",
    "finalize",
]

CSV = "v,p\nv0,1\nv0,2\nv1,2\nv2,0\nv2,4\n"


@pytest.fixture(params=["bdd", "zdd"])
def backend(request):
    return request.param


def script(backend, extra, setup=None):
    if setup is None:
        setup = [f"backend {backend}"] + DECLARATIONS
    out = io.StringIO()
    shell = run_script(setup + extra, stdout=out)
    return shell, out.getvalue()


@pytest.fixture
def facts_csv(tmp_path):
    path = tmp_path / "pt.csv"
    path.write_text(CSV)
    return str(path)


def loaded(backend, extra, facts_csv):
    return script(
        backend,
        [f"load-facts {facts_csv} pt v:VD p:OD --header --int=p"] + extra,
    )


class TestLoadFacts:
    def test_reports_count_and_path(self, backend, facts_csv):
        shell, out = loaded(backend, [], facts_csv)
        assert f"pt: loaded 5 tuple(s) from {facts_csv}" in out
        assert set(shell.relations["pt"].tuples()) == {
            ("v0", 1), ("v0", 2), ("v1", 2), ("v2", 0), ("v2", 4),
        }

    def test_malformed_row_reports_line(self, backend, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v0,1\nonly-one-field\n")
        shell, out = script(
            backend, [f"load-facts {path} pt v:VD p:OD --int=p", "list"]
        )
        assert "error" in out and "line 2" in out
        assert "pt" not in shell.relations

    def test_skip_flag_drops_malformed_rows(self, backend, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v0,1\nonly-one-field\nv1,2\n")
        shell, out = script(
            backend, [f"load-facts {path} pt v:VD p:OD --int=p --skip"]
        )
        assert "pt: loaded 2 tuple(s)" in out

    def test_unknown_flag_rejected(self, backend, facts_csv):
        shell, out = script(
            backend, [f"load-facts {facts_csv} pt v:VD p:OD --frobnicate"]
        )
        assert "error" in out and "unknown flag" in out

    def test_missing_file_reported(self, backend):
        shell, out = script(
            backend, ["load-facts /no/such/file.csv pt v:VD p:OD"]
        )
        assert "error" in out and "cannot read" in out


class TestAggCommand:
    def test_auto_named_results(self, backend, facts_csv):
        shell, out = loaded(
            backend,
            ["agg count pt group by v", "agg sum pt.p group by v"],
            facts_csv,
        )
        assert "a1:" in out and "a2:" in out
        assert isinstance(shell.relations["a1"], WeightedRelation)
        assert shell.relations["a1"].as_dict() == {
            ("v0",): 2, ("v1",): 1, ("v2",): 2,
        }
        # v2's p=0 row contributes nothing to the sum
        assert shell.relations["a2"].as_dict() == {
            ("v0",): 3, ("v1",): 2, ("v2",): 4,
        }

    def test_table_output(self, backend, facts_csv):
        shell, out = loaded(
            backend, ["agg mean pt.p group by v"], facts_csv
        )
        lines = [ln.rstrip() for ln in out.splitlines()]
        assert "v0  1.5" in lines
        assert "v2  2.0" in lines

    def test_non_aggregate_rejected(self, backend, facts_csv):
        shell, out = loaded(backend, ["agg pt"], facts_csv)
        assert "error" in out and "needs an aggregate expression" in out

    def test_print_evaluates_aggregates_inline(self, backend, facts_csv):
        shell, out = loaded(backend, ["print max pt.p"], facts_csv)
        assert out.splitlines()[-1].strip() == "4"


class TestCountCommand:
    def test_count_is_cardinality(self, backend, facts_csv):
        shell, out = loaded(backend, ["count pt"], facts_csv)
        assert out.splitlines()[-1].strip() == "5"

    def test_count_of_weighted_name_is_group_count(
        self, backend, facts_csv
    ):
        shell, out = loaded(
            backend, ["agg count pt group by v", "count a1"], facts_csv
        )
        assert out.splitlines()[-1].strip() == "3"

    def test_count_of_expression(self, backend, facts_csv):
        shell, out = loaded(backend, ["count pt & pt"], facts_csv)
        assert out.splitlines()[-1].strip() == "5"


class TestWeightedNames:
    def test_list_marks_weighted(self, backend, facts_csv):
        shell, out = loaded(
            backend, ["agg count pt group by v", "list"], facts_csv
        )
        listing = [ln for ln in out.splitlines() if ln.startswith("a1 ")]
        assert listing and "(weighted)" in listing[0]

    def test_print_stored_weighted_result(self, backend, facts_csv):
        shell, out = loaded(
            backend, ["agg sum pt.p group by v", "print a1"], facts_csv
        )
        assert "weight" in out
        assert out.count("v0  3") == 2  # once from agg, once from print

    def test_save_skips_weighted_results(self, backend, facts_csv, tmp_path):
        # Aggregate results are derived artifacts; `save` checkpoints
        # the relations they came from and says what it skipped.
        ckpt = tmp_path / "u.jddu"
        shell, out = loaded(
            backend, ["agg count pt group by v", f"save {ckpt}"], facts_csv
        )
        assert "skipped 1 weighted aggregate result(s)" in out
        out2 = io.StringIO()
        shell2 = run_script(
            [f"load {ckpt}", "count pt", "agg count pt group by v"],
            stdout=out2,
        )
        assert shell2.relations["a1"].as_dict() == (
            shell.relations["a1"].as_dict()
        )

    def test_weighted_name_not_a_relational_operand(
        self, backend, facts_csv
    ):
        shell, out = loaded(
            backend, ["agg count pt group by v", "let x = a1 | pt"], facts_csv
        )
        assert "error" in out
        assert "weighted aggregate result" in out
        assert "x" not in shell.relations


class TestBackendGate:
    def test_bad_backend_name_rejected(self):
        for name in ("addz", "mtbdd"):
            shell, out = script(None, [f"backend {name}"], setup=[])
            assert "error" in out and "'bdd' or 'zdd'" in out

    def test_aggregates_work_on_boolean_backend_too(self, tmp_path):
        # The tuple path serves a bdd universe with no weighted engine
        # behind it, so an aggregate script runs unchanged there.
        path = tmp_path / "pt.csv"
        path.write_text(CSV)
        setup = ["backend bdd"] + DECLARATIONS
        shell, out = script(
            None,
            [
                f"load-facts {path} pt v:VD p:OD --header --int=p",
                "agg sum pt.p group by v",
            ],
            setup=setup,
        )
        assert shell.relations["a1"].as_dict() == {
            ("v0",): 3, ("v1",): 2, ("v2",): 4,
        }
