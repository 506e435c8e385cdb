"""Satellite tests: profiler robustness and its telemetry bridge."""

import os
import re

import pytest

from repro import telemetry
from repro.profiler import (
    Profiler,
    generate_report,
    has_spans,
    load_plans,
    load_site_kernel_breakdown,
    load_sites,
    plan_hints,
    save_events,
    save_spans,
)
from repro.relations import JeddError, Relation, Universe
from tests.jedd.helpers import FIGURE4_DATA


@pytest.fixture(autouse=True)
def _clean_global_session():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture
def u():
    universe = Universe()
    d = universe.domain("D", 8)
    universe.attribute("x", d)
    universe.attribute("y", d)
    universe.physical_domain("P1", d.bits)
    universe.physical_domain("P2", d.bits)
    universe.finalize()
    return universe


def _figure4_run(backend):
    from repro.jedd.compiler import compile_source
    from tests.jedd.helpers import FIGURE4, FIGURE4_DATA

    cp = compile_source(FIGURE4)
    it = cp.interpreter(backend=backend)
    it.set_global(
        "declaresMethod",
        it.relation_of(
            ["type", "signature", "method"], FIGURE4_DATA["declares"]
        ),
    )
    it.call(
        "resolve",
        it.relation_of(["rectype", "signature"], FIGURE4_DATA["receivers"]),
        it.relation_of(["subtype", "supertype"], FIGURE4_DATA["extend"]),
    )
    return it


class TestSiteAttributionBothBackends:
    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_summary_by_site_has_line_column_keys(self, backend):
        with Profiler(record_shapes=False) as prof:
            it = _figure4_run(backend)
        assert FIGURE4_DATA["answer"] == set(
            it.global_relation("answer").tuples()
        )
        by_site = prof.summary_by_site()
        positioned = [site for site, _op in by_site if site]
        assert positioned
        # every attributed site carries a "func:line,column" position
        assert all(
            re.search(r":\d+,\d+$", site) for site in positioned
        ), positioned
        assert any(site.startswith("resolve:") for site in positioned)


class TestOnePipeline:
    """Profiler events and ``relation.*`` spans come from the same
    ``traced`` call, so they agree one for one."""

    @staticmethod
    def _by_op(pairs):
        out = {}
        for op, site in pairs:
            out.setdefault(op, []).append(site)
        return out

    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_events_match_relation_spans(self, backend):
        with Profiler(record_shapes=False) as prof:
            session = prof.attach_telemetry()
            _figure4_run(backend)
        spans = [
            s for s in session.tracer.spans
            if s.cat == "relation" and s.name.startswith("relation.")
        ]
        assert session.tracer.dropped == 0
        assert len(spans) == len(prof.events) > 0
        span_sites = self._by_op(
            (s.name[len("relation."):], s.site or "") for s in spans
        )
        event_sites = self._by_op((e.op, e.site) for e in prof.events)
        assert {op: len(v) for op, v in event_sites.items()} == {
            op: len(v) for op, v in span_sites.items()
        }
        for op, sites in event_sites.items():
            assert sorted(sites) == sorted(span_sites[op]), op
        assert any(e.site.startswith("resolve:") for e in prof.events)

    def test_aggregate_is_profiled_on_mtbdd(self):
        u = Universe(backend="mtbdd")
        d = u.domain("D", 6)
        for n in range(6):
            d.intern(n)
        for name in ("a", "b"):
            u.attribute(name, d)
        for pd in ("P1", "P2"):
            u.physical_domain(pd, d.bits)
        u.finalize()
        rel = Relation.from_tuples(
            u, ["a", "b"], [(0, 1), (1, 1), (2, 3)], ["P1", "P2"]
        )
        with Profiler() as prof:
            session = prof.attach_telemetry()
            with prof.site("agg"):
                weighted = rel.aggregate("count", group_by=["b"])
        aggs = [e for e in prof.events if e.op == "aggregate"]
        spans = [
            s for s in session.tracer.spans if s.name == "relation.aggregate"
        ]
        assert len(aggs) == len(spans) == 1
        event = aggs[0]
        assert event.site == spans[0].site == "agg"
        assert event.operand_nodes == (rel.node_count(),)
        assert event.result_nodes == weighted.node_count()
        assert event.result_tuples == weighted.size() == 2
        assert event.shape == weighted.shape()
        assert weighted.as_dict() == {(1,): 2, (3,): 1}


class TestRobustness:
    def test_raising_operation_recorded_and_reraised(self, u):
        a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
        b = Relation.from_tuples(u, ["y"], [("b",)], ["P2"])
        with Profiler(record_shapes=False) as prof:
            with pytest.raises(JeddError):
                a | b  # schema mismatch: union must raise
        errors = [e for e in prof.events if e.error]
        assert len(errors) == 1
        assert errors[0].op == "union"
        assert errors[0].error == "JeddError"
        assert errors[0].result_nodes == 0

    def test_exit_uninstalls_after_body_raises(self, u):
        before = dict(Relation.__dict__)
        with pytest.raises(RuntimeError):
            with Profiler() as prof:
                assert telemetry.active().profiler is prof
                raise RuntimeError("body failure")
        assert dict(Relation.__dict__) == before
        assert not telemetry.is_enabled()

    def test_failed_install_rolls_back(self, u):
        # Installing patches nothing, so there is nothing to roll back:
        # the class is untouched before, during and after, and the
        # session active before install is the one active after.
        for prior in (None, telemetry.enable()):
            before = dict(Relation.__dict__)
            active = telemetry.active()
            with Profiler(record_shapes=False) as prof:
                assert dict(Relation.__dict__) == before
                a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
                (a | a).size()
            assert dict(Relation.__dict__) == before
            assert telemetry.active() is active
            assert prof.events
            if prior is not None:
                assert prior.profiler is None
            telemetry.disable()

    def test_double_install_is_noop(self, u):
        prof = Profiler()
        prof.install()
        session = telemetry.active()
        assert prof.install() is prof
        assert telemetry.active() is session
        a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
        a | a
        assert [e.op for e in prof.events].count("union") == 1
        prof.uninstall()
        assert not telemetry.is_enabled()


class TestTelemetryBridge:
    def test_attach_enables_global_session(self, u):
        with Profiler(record_shapes=False) as prof:
            session = prof.attach_telemetry()
            assert telemetry.active() is session
            prof.observe_universe(u)
            with prof.site("phase"):
                a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
                b = Relation.from_tuples(u, ["x"], [("b",)], ["P1"])
                (a | b).size()
        kernel = [s for s in session.tracer.spans if s.cat == "kernel"]
        assert kernel
        assert any(s.site == "phase" for s in kernel)

    def test_attach_accepts_existing_session(self, u):
        session = telemetry.enable()
        prof = Profiler()
        assert prof.attach_telemetry(session) is session

    def test_observe_before_attach_still_instruments(self, u):
        prof = Profiler()
        prof.observe_universe(u)
        session = prof.attach_telemetry()
        # the manager observed before the bridge existed is registered
        assert any(m is u.manager for _p, m in session._managers)

    def test_spans_land_in_profile_db_and_sites_page(self, u, tmp_path):
        with Profiler(record_shapes=False) as prof:
            session = prof.attach_telemetry()
            with prof.site("hot-loop"):
                a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
                b = Relation.from_tuples(u, ["x"], [("b",)], ["P1"])
                for _ in range(3):
                    (a | b).size()
        db = str(tmp_path / "p.db")
        save_events(db, prof.events)
        assert save_spans(db, session.tracer.spans) > 0
        assert has_spans(db)
        sites = load_sites(db)
        assert [s for s, _n, _t in sites] == ["hot-loop"]
        breakdown = load_site_kernel_breakdown(db, "hot-loop")
        assert any(name == "bdd.union" for _s, name, _n, _t in breakdown)
        out = str(tmp_path / "html")
        index = generate_report(db, out)
        assert os.path.exists(os.path.join(out, "sites.html"))
        content = open(os.path.join(out, "sites.html")).read()
        assert "hot-loop" in content and "bdd.union" in content
        assert "sites.html" in open(index).read()

    def test_executed_plans_land_in_db_and_sites_page(self, tmp_path):
        with Profiler(record_shapes=False) as prof:
            session = prof.attach_telemetry()
            _figure4_run("bdd")
        db = str(tmp_path / "p.db")
        save_events(db, prof.events)
        save_spans(db, session.tracer.spans)
        plans = load_plans(db)
        assert plans
        # plans are attributed to the statements that ran them
        assert any(p["site"].startswith("resolve:") for p in plans)
        for plan in plans:
            assert plan["est_nodes"] > 0
            assert plan["order"]
            assert plan["steps"]
            if plan["estimate_error"] is not None:
                assert plan["estimate_error"] >= 1.0
        # site filter returns a subset
        one_site = plans[0]["site"]
        assert all(
            p["site"] == one_site for p in load_plans(db, site=one_site)
        )
        out = str(tmp_path / "html")
        generate_report(db, out)
        content = open(os.path.join(out, "sites.html")).read()
        assert "Chosen query plans" in content
        assert "resolve:" in content

    def test_plan_hints_flag_10x_divergence(self):
        plans = [
            {
                "site": "f:1,1", "label": "x =", "est_nodes": 1000.0,
                "actual_nodes": 10.0, "estimate_error": 100.0,
            },
            {
                "site": "f:2,1", "label": "y =", "est_nodes": 10.0,
                "actual_nodes": 12.0, "estimate_error": 1.2,
            },
            {
                "site": "f:3,1", "label": "z =", "est_nodes": 5.0,
                "actual_nodes": 600.0, "estimate_error": 120.0,
            },
        ]
        hints = plan_hints(plans)
        assert len(hints) == 2
        assert "f:1,1" in hints[0] and "overestimates" in hints[0]
        assert "f:3,1" in hints[1] and "underestimates" in hints[1]
        # the worst run per site wins: a good run doesn't mask a bad one
        assert plan_hints(plans + [dict(plans[0], estimate_error=1.0)])

    def test_load_plans_without_spans_table(self, u, tmp_path):
        with Profiler(record_shapes=False) as prof:
            a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
            a | a
        db = str(tmp_path / "p.db")
        save_events(db, prof.events)
        assert load_plans(db) == []

    def test_report_without_spans_has_no_sites_page(self, u, tmp_path):
        with Profiler(record_shapes=False) as prof:
            a = Relation.from_tuples(u, ["x"], [("a",)], ["P1"])
            a | a
        db = str(tmp_path / "p.db")
        save_events(db, prof.events)
        out = str(tmp_path / "html")
        generate_report(db, out)
        assert not os.path.exists(os.path.join(out, "sites.html"))

