"""Tests for the telemetry session: enable/disable, kernel wiring, and
the end-to-end span tree over real relational workloads."""

import pytest

from repro import telemetry
from repro.relations import Relation, Universe
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@pytest.fixture(autouse=True)
def _clean_global_session():
    telemetry.disable()
    yield
    telemetry.disable()


def make_universe(backend="bdd"):
    u = Universe(backend=backend)
    ty = u.domain("Type", 8)
    u.attribute("type", ty)
    u.attribute("subtype", ty)
    u.attribute("supertype", ty)
    u.physical_domain("T1", ty.bits)
    u.physical_domain("T2", ty.bits)
    u.finalize()
    return u


def workload(u):
    a = Relation.from_tuples(
        u, ["subtype", "supertype"], [("A", "B"), ("B", "C")], ["T1", "T2"]
    )
    b = Relation.from_tuples(
        u, ["subtype", "supertype"], [("B", "C"), ("C", "D")], ["T1", "T2"]
    )
    (a | b).size()
    (a & b).size()
    (a - b).size()
    a.compose(b, ["supertype"], ["subtype"]).size()
    return a, b


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not telemetry.is_enabled()
        assert telemetry.active() is NULL_TELEMETRY

    def test_enable_returns_live_session(self):
        session = telemetry.enable()
        assert telemetry.is_enabled()
        assert telemetry.active() is session
        assert session.enabled

    def test_reenable_detaches_previous_session(self):
        first = telemetry.enable()
        u = make_universe()
        first.instrument_universe(u)
        second = telemetry.enable()
        assert second is not first
        assert telemetry.active() is second
        assert not u.manager.gc_listeners  # first session's hooks removed

    def test_reenabling_same_session_keeps_wiring(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        assert telemetry.enable(session) is session
        assert u.manager.gc_listeners

    def test_disable_returns_session_and_detaches(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        assert u.manager.gc_listeners
        returned = telemetry.disable()
        assert returned is session
        assert not u.manager.gc_listeners
        assert telemetry.active() is NULL_TELEMETRY

    def test_custom_session_object(self):
        mine = Telemetry()
        assert telemetry.enable(mine) is mine
        assert telemetry.active() is mine

    def test_null_telemetry_is_inert(self):
        null = NULL_TELEMETRY
        with null.span("x"):
            pass
        with null.statement_span("main:1,1"):
            pass
        null.push_site("s")
        null.pop_site()
        assert null.instrument_manager(object()) is None
        null.record_sat({"conflicts": 3})


class TestTraced:
    def test_wrapped_original_is_exposed(self):
        # The overhead benchmark calls the pristine originals through
        # __wrapped__; losing it silently would break that comparison.
        for name in ("union", "intersect", "difference", "join", "compose",
                     "project_away", "rename", "copy", "replace"):
            assert hasattr(getattr(Relation, name), "__wrapped__"), name

    def test_disabled_calls_pass_through_without_spans(self):
        u = make_universe()
        workload(u)
        assert not telemetry.is_enabled()

    def test_traced_records_span_only_when_enabled(self):
        calls = []

        @telemetry.traced("unit.op", "host")
        def op():
            calls.append(1)
            return 42

        assert op() == 42
        session = telemetry.enable()
        assert op() == 42
        assert calls == [1, 1]
        assert [s.name for s in session.tracer.spans] == ["unit.op"]


class TestKernelIntegration:
    def test_relation_workload_nests_relation_over_kernel(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        workload(u)
        spans = session.tracer.spans
        by_index = {s.index: s for s in spans}
        kernel = [s for s in spans if s.cat == "kernel"]
        assert kernel, "no kernel spans recorded"
        assert all(s.name.startswith("bdd.") for s in kernel)
        # kernel calls made by a relational operation nest inside its
        # span (bdd.count from bare size() calls stays at the root)
        nested = [s for s in kernel if s.parent >= 0]
        assert nested, "no kernel spans nested under relation spans"
        for span in nested:
            assert by_index[span.parent].cat == "relation"

    def test_manager_metrics_populated(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        workload(u)
        snap = session.metrics_snapshot()
        assert snap["bdd.nodes_created"] > 0
        per_op = [k for k in snap if k.startswith("bdd.apply_cache.misses{")]
        assert per_op and any(snap[k] > 0 for k in per_op)

    def test_gc_listener_feeds_histogram_and_span(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        workload(u)
        u.manager.gc()
        snap = session.metrics_snapshot()
        assert snap["bdd.gc.pause_seconds_count"] == 1
        assert snap["bdd.gc.runs"] == 1
        assert any(s.name == "bdd.gc" and s.cat == "gc"
                   for s in session.tracer.spans)

    def test_zdd_backend_gets_its_own_prefix(self):
        session = telemetry.enable()
        u = make_universe(backend="zdd")
        session.instrument_universe(u)
        workload(u)
        snap = session.metrics_snapshot()
        assert snap["zdd.nodes_created"] > 0
        kernel = [s for s in session.tracer.spans if s.cat == "kernel"]
        assert kernel and all(s.name.startswith("zdd.") for s in kernel)

    def test_two_managers_disambiguated(self):
        session = telemetry.enable()
        u1, u2 = make_universe(), make_universe()
        assert session.instrument_universe(u1) == "bdd"
        assert session.instrument_universe(u2) == "bdd2"
        # idempotent: re-registering returns the existing prefix
        assert session.instrument_universe(u1) == "bdd"

    def test_hit_rate_derived_metrics(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        for _ in range(3):
            workload(u)  # repetition guarantees apply-cache traffic
        snap = session.metrics_snapshot()
        rates = {k: v for k, v in snap.items()
                 if k.startswith("bdd.apply_cache.hit_rate")}
        assert rates
        assert all(0.0 <= v <= 1.0 for v in rates.values())


class TestSatIntegration:
    def test_solve_records_counters_and_span(self):
        session = telemetry.enable()
        cnf = CNF(2)
        for clause in ([1, 2], [-1, 2], [1, -2]):
            cnf.add_clause(clause)
        Solver(cnf).solve()
        snap = session.metrics_snapshot()
        assert snap["sat.solves"] == 1
        assert snap["sat.decisions"] >= 0
        assert any(s.name == "sat.solve" and s.cat == "sat"
                   for s in session.tracer.spans)

    def test_load_span_ends_before_solve_span_starts(self):
        session = telemetry.enable()
        cnf = CNF(2)
        for clause in ([1, 2], [-1, 2], [1, -2]):
            cnf.add_clause(clause)
        Solver(cnf).solve()
        spans = {s.name: s for s in session.tracer.spans if s.cat == "sat"}
        load, solve = spans["sat.load"], spans["sat.solve"]
        assert load.end <= solve.start

    def test_repeated_solves_count_deltas_not_totals(self):
        session = telemetry.enable()
        cnf = CNF(2)
        for clause in ([1, 2], [-1, 2]):
            cnf.add_clause(clause)
        solver = Solver(cnf)
        solver.solve()
        first = session.metrics_snapshot()["sat.propagations"]
        solver.solve()
        second = session.metrics_snapshot()["sat.propagations"]
        # the second solve adds only its own delta (the solver's internal
        # totals are cumulative, the counters must not re-add old work)
        assert second <= 2 * max(first, 1) + 4

    def test_record_sat_accepts_mappings(self):
        session = telemetry.enable()
        session.record_sat({"conflicts": 5}, {"conflicts": 2})
        assert session.metrics_snapshot()["sat.conflicts"] == 3


class TestReporting:
    def test_statement_span_scopes_site(self):
        session = telemetry.enable()
        with session.statement_span("main:2,3", kind="Assign"):
            with session.span("relation.union", cat="relation"):
                pass
        stmt, op = session.tracer.spans
        assert stmt.cat == "interp" and stmt.site == "main:2,3"
        assert op.site == "main:2,3"

    def test_text_report_and_chrome_trace(self, tmp_path):
        from repro.telemetry.export import validate_chrome_trace

        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        workload(u)
        report = session.text_report()
        assert "== metrics ==" in report and "== spans ==" in report
        path = str(tmp_path / "t.json")
        count = session.write_chrome_trace(path)
        assert count > 0
        import json

        with open(path) as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_clear_keeps_wiring(self):
        session = telemetry.enable()
        u = make_universe()
        session.instrument_universe(u)
        workload(u)
        session.clear()
        assert session.tracer.spans == []
        u.manager.gc()  # listener still attached after clear
        assert session.metrics_snapshot()["bdd.gc.pause_seconds_count"] == 1
