"""Tests for the interactive relational shell."""

import io

import pytest

from repro.shell import RelationalShell, run_script

SETUP = [
    "domain Type 64",
    "attribute subtype : Type",
    "attribute supertype : Type",
    "attribute tgttype : Type",
    "physdom T1 6",
    "physdom T2 6",
    "physdom T3 6",
    "finalize",
    "rel extend subtype:T1 supertype:T2",
    "insert extend B A",
    "insert extend C B",
]


def script(extra, backend_lines=None):
    out = io.StringIO()
    shell = run_script((backend_lines or []) + SETUP + extra, stdout=out)
    return shell, out.getvalue()


class TestDeclarations:
    def test_setup_builds_universe(self):
        shell, out = script([])
        assert shell.universe is not None
        assert "universe ready" in out

    def test_insert_and_size(self):
        shell, out = script(["size extend"])
        assert out.strip().endswith("2")

    def test_print_shows_tuples(self):
        shell, out = script(["print extend"])
        assert "B" in out and "A" in out and "subtype" in out

    def test_list(self):
        shell, out = script(["list"])
        assert "extend" in out and "2 tuples" in out

    def test_zdd_backend(self):
        shell, out = script(["size extend"], ["backend zdd"])
        assert shell.backend == "zdd"
        assert out.strip().endswith("2")

    def test_declaration_after_finalize_fails(self):
        shell, out = script(["domain Late 4"])
        assert "error" in out


class TestExpressions:
    def test_let_union(self):
        shell, out = script(
            [
                "rel more subtype:T1 supertype:T2",
                "insert more D A",
                "let all = extend | more",
                "size all",
            ]
        )
        assert out.strip().endswith("3")

    def test_compose_transitive_step(self):
        # up2(sub, tgt) = extend(sub, mid) o extend(mid, tgt); the right
        # operand is renamed via two chained casts.
        shell, out = script(
            [
                "let up2 = extend{supertype} <> "
                "((subtype=>supertype) (supertype=>tgttype) extend)"
                "{supertype}",
                "print up2",
            ]
        )
        # C -> B -> A gives the two-step pair (C, A).
        assert "C" in out and "A" in out

    def test_join(self):
        shell, out = script(
            [
                "let j = extend{supertype} >< "
                "((subtype=>supertype) (supertype=>tgttype) extend)"
                "{supertype}",
                "size j",
            ]
        )
        assert out.strip().endswith("1")

    def test_project_and_rename(self):
        shell, out = script(
            [
                "let subs = (supertype=>) extend",
                "size subs",
                "let renamed = (subtype=>tgttype) subs",
                "size renamed",
            ]
        )
        lines = [l for l in out.splitlines() if l.strip().isdigit()]
        assert lines == ["2", "2"]

    def test_copy(self):
        shell, out = script(
            [
                "let copied = (subtype=>subtype tgttype) extend",
                "size copied",
            ]
        )
        assert out.strip().endswith("2")

    def test_literal(self):
        shell, out = script(
            [
                'let single = new { "X" => subtype }',
                "size single",
            ]
        )
        assert out.strip().endswith("1")

    def test_nodes(self):
        shell, out = script(["nodes extend"])
        assert out.strip().split()[-1].isdigit()

    def test_literal_lookups_keep_the_variable_count(self):
        """A `new {...}` literal takes free declared physical domains,
        so a standing lookup does not grow the manager's variables."""
        out = io.StringIO()
        shell = run_script(
            [
                "domain Var 16",
                "domain Obj 16",
                "attribute var : Var",
                "attribute obj : Obj",
                "physdom V1 4",
                "physdom V2 4",
                "physdom H1 4",
                "finalize",
                "rel pt var:V1 obj:H1",
                "insert pt v3 o1",
                "insert pt v3 o2",
                "insert pt v4 o1",
            ],
            stdout=out,
        )
        num_vars = shell.universe.manager.num_vars
        for _ in range(200):
            out.seek(0)
            out.truncate()
            shell.onecmd('print pt{var} >< new { "v3" => var }{var}')
        assert shell.universe.manager.num_vars == num_vars
        rows = [line.split() for line in out.getvalue().splitlines()[2:]]
        assert sorted(rows) == [["v3", "o1"], ["v3", "o2"]]


class TestErrors:
    def test_unknown_relation(self):
        shell, out = script(["print nosuch"])
        assert "error" in out

    def test_parse_error_is_reported(self):
        shell, out = script(["let x = extend ||| extend"])
        assert "error" in out

    def test_schema_mismatch_reported(self):
        shell, out = script(
            [
                "rel singles subtype:T1",
                "let bad = extend | singles",
            ]
        )
        assert "error" in out

    def test_insert_arity_mismatch(self):
        shell, out = script(["insert extend onlyone"])
        assert "error" in out

    def test_bad_command_usage(self):
        shell, out = script(["domain OnlyName"])
        assert "error" in out

    def test_constants_need_context(self):
        shell, out = script(["let x = 0B"])
        assert "error" in out

    def test_shell_survives_errors(self):
        shell, out = script(["print nosuch", "size extend"])
        assert out.strip().endswith("2")


FIX_SETUP = [
    "domain Node 16",
    "attribute src : Node",
    "attribute dst : Node",
    "attribute mid : Node",
    "physdom N1 4",
    "physdom N2 4",
    "finalize",
    "rel edge src:N1 dst:N2",
    "insert edge a b",
    "insert edge b c",
    "insert edge c d",
    "insert edge x y",
    "insert edge y x",
    "rel path src:N1 dst:N2",
    "let path = path | edge",
]

FIX_RULE = "fix path |= ((dst=>mid) path){mid} <> ((src=>mid) edge){mid}"


def fix_script(extra, setup=None):
    out = io.StringIO()
    shell = run_script((setup or FIX_SETUP) + extra, stdout=out)
    return shell, out.getvalue()


class TestFixCommand:
    def closure(self):
        edges = {("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "x")}
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

    def test_fix_reaches_transitive_closure(self):
        shell, out = fix_script([FIX_RULE])
        assert "fixed point after" in out
        rel = shell.relations["path"]
        names = rel.schema.names()
        i, j = names.index("src"), names.index("dst")
        got = {(t[i], t[j]) for t in rel.tuples()}
        assert got == self.closure()

    def test_fix_reports_iterations_and_size(self):
        shell, out = fix_script([FIX_RULE])
        assert "path=10" in out

    def test_fix_is_idempotent_at_fixed_point(self):
        shell, out = fix_script([FIX_RULE, FIX_RULE])
        assert out.count("fixed point after") == 2
        assert "after 1 iteration(s)" in out.splitlines()[-1]

    def test_fix_braced_multi_rule(self):
        shell, out = fix_script(
            ["fix { path |= ((dst=>mid) path){mid} <> ((src=>mid) edge){mid};"
             " path |= edge }"]
        )
        rel = shell.relations["path"]
        names = rel.schema.names()
        i, j = names.index("src"), names.index("dst")
        assert {(t[i], t[j]) for t in rel.tuples()} == self.closure()

    def test_fix_static_rule_seeds_empty_target(self):
        shell, out = fix_script(
            ["rel reach src:N1 dst:N2", "fix reach |= edge"]
        )
        assert "after 2 iteration(s): reach=5" in out

    def test_fix_rejects_nonmonotone_rule(self):
        shell, out = fix_script(["fix path |= edge - path"])
        assert "non-monotonically" in out

    def test_fix_rejects_non_update_rules(self):
        shell, out = fix_script(["fix path = edge"])
        assert "error" in out and "|=" in out

    def test_fix_unknown_relation(self):
        shell, out = fix_script(["fix nosuch |= edge"])
        assert "no relation" in out

    def test_fix_usage_error(self):
        shell, out = fix_script(["fix"])
        assert "usage" in out

    def test_fix_emits_iteration_spans(self):
        from repro import telemetry

        telemetry.disable()
        try:
            shell, out = fix_script(["telemetry on", FIX_RULE])
            session = telemetry.active()
            spans = [
                s for s in session.tracer.spans if s.name == "fix.iteration"
            ]
            assert spans
            assert all("delta_path" in s.args for s in spans)
        finally:
            telemetry.disable()


class TestTelemetryCommands:
    @pytest.fixture(autouse=True)
    def _clean_session(self):
        from repro import telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    def test_status_off_by_default(self):
        shell, out = script(["telemetry status"])
        assert "telemetry is off" in out

    def test_stats_requires_telemetry(self):
        shell, out = script(["stats"])
        assert "error" in out and "telemetry is off" in out

    def test_on_workload_stats(self):
        shell, out = script(
            [
                "telemetry on",
                "let up = (supertype=>tgttype) extend{subtype}"
                " <> extend",
                "stats bdd.nodes_created",
            ]
        )
        assert "telemetry on" in out
        assert "bdd.nodes_created" in out

    def test_stats_prefix_filter_no_match(self):
        shell, out = script(["telemetry on", "stats nosuchprefix"])
        assert "no metrics matching" in out

    def test_colon_spellings(self):
        shell, out = script([":telemetry on", ":stats bdd.table"])
        assert "telemetry on" in out
        assert "bdd.table.live_nodes" in out

    def test_trace_writes_valid_file(self, tmp_path):
        import json

        from repro.telemetry.export import validate_chrome_trace

        path = tmp_path / "shell_trace.json"
        shell, out = script(
            [
                "telemetry on",
                "let up = extend | extend",
                f"trace {path}",
            ]
        )
        assert "trace events" in out
        with open(path) as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_telemetry_before_finalize_instruments_universe(self):
        out = io.StringIO()
        run_script(["telemetry on"] + SETUP + ["stats bdd.table"], stdout=out)
        assert "bdd.table.live_nodes" in out.getvalue()

    def test_unknown_command_still_reported(self):
        shell, out = script(["frobnicate"])
        assert "unknown command" in out


class TestColonSpellings:
    """Every command accepts both spellings — table-driven over the
    full ``do_*`` dispatch table, so a new command cannot regress."""

    @pytest.mark.parametrize("name", RelationalShell.command_names())
    def test_colon_spelling_dispatches(self, name):
        shell = RelationalShell(stdout=io.StringIO())
        calls = []
        setattr(
            shell,
            "do_" + name,
            lambda arg, _n=name: (calls.append((_n, arg)), False)[1],
        )
        shell.onecmd(f":{name} some args")
        assert calls == [(name, "some args")]

    @pytest.mark.parametrize("name", RelationalShell.command_names())
    def test_bare_spelling_dispatches(self, name):
        shell = RelationalShell(stdout=io.StringIO())
        calls = []
        setattr(
            shell,
            "do_" + name,
            lambda arg, _n=name: (calls.append((_n, arg)), False)[1],
        )
        shell.onecmd(f"{name} some args")
        assert calls == [(name, "some args")]

    def test_table_covers_known_commands(self):
        names = RelationalShell.command_names()
        for expected in (
            "telemetry", "stats", "trace", "metrics", "explain", "fix",
            "let", "save", "load", "serve", "connect",
        ):
            assert expected in names

    def test_unknown_colon_command_reported(self):
        shell, out = script([":frobnicate"])
        assert "unknown command" in out


class TestPersistenceCommands:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "session.jddu"
        shell, out = script([f"save {path}"])
        assert "saved 1 relation(s)" in out
        out2 = io.StringIO()
        loaded = run_script([f"load {path}", "size extend"], stdout=out2)
        assert loaded.universe is not None
        assert out2.getvalue().strip().endswith("2")

    def test_save_requires_finalized(self, tmp_path):
        out = io.StringIO()
        run_script([f"save {tmp_path / 'x.jddu'}"], stdout=out)
        assert "error" in out.getvalue()

    def test_save_usage(self):
        shell, out = script(["save"])
        assert "usage" in out

    def test_load_missing_file_reports_error(self, tmp_path):
        shell, out = script([f"load {tmp_path / 'missing.jddu'}"])
        assert "error" in out


class TestServiceCommands:
    def test_serve_connect_remote_roundtrip(self):
        out = io.StringIO()
        shell = RelationalShell(stdout=out)
        try:
            shell.onecmd("serve")
            address = out.getvalue().strip().split()[-1]
            shell.onecmd(f"connect {address} demo")
            for line in SETUP:
                shell.onecmd(f"remote {line}")
            shell.onecmd("remote size extend")
            text = out.getvalue()
            assert "connected to" in text
            assert text.strip().endswith("2")
            shell.onecmd("disconnect")
            assert "disconnected" in out.getvalue()
        finally:
            shell.onecmd("quit")

    def test_connect_usage(self):
        shell, out = script(["connect nocolon"])
        assert "usage" in out

    def test_remote_requires_connection(self):
        shell, out = script(["remote size extend"])
        assert "connect" in out

    def test_disconnect_requires_connection(self):
        shell, out = script(["disconnect"])
        assert "not connected" in out


class TestQuitting:
    def test_quit_stops_script(self):
        out = io.StringIO()
        shell = run_script(["quit", "domain D 4"], stdout=out)
        assert shell._pending._domains == {}

    def test_comments_and_blanks_skipped(self):
        out = io.StringIO()
        run_script(["# a comment", "", "   "], stdout=out)


class TestMetricsCommand:
    @pytest.fixture(autouse=True)
    def _clean_session(self):
        from repro import telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    def test_metrics_requires_telemetry(self):
        shell, out = script(["metrics"])
        assert "error" in out and "telemetry is off" in out

    def test_metrics_prints_valid_exposition(self):
        from repro.telemetry.exposition import check_exposition

        shell, out = script(["telemetry on", "metrics"])
        lines = out.splitlines()
        start = next(
            i for i, l in enumerate(lines) if l.startswith("# HELP")
        )
        body = "\n".join(lines[start:])
        assert "bdd_table_live_nodes" in body
        assert "telemetry_spans" in body
        assert check_exposition(body) == []

    def test_metrics_writes_file_pair(self, tmp_path):
        import json

        from repro.telemetry.exposition import check_exposition

        path = str(tmp_path / "m.prom")
        shell, out = script(["telemetry on", f"metrics {path}"])
        assert f"wrote metrics exposition to {path}" in out
        assert check_exposition(open(path).read()) == []
        doc = json.loads(open(path + ".json").read())
        assert doc["schema"] == 1

    def test_status_reports_dropped_spans(self):
        from repro import telemetry

        tel = telemetry.enable(max_spans=1)
        for i in range(3):
            with tel.span(f"work{i}"):
                pass
        shell, out = script(["telemetry status"])
        assert "dropped (max_spans=1)" in out
