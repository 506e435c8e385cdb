"""Cross-process tracing tests: worker span lanes, the merged Chrome
trace, and the fork-detach path (no coordinator hooks may survive into
a worker).

Runs under the same SIGALRM watchdog as ``test_parallel.py`` — a hung
pool must fail, not wedge CI.
"""

import json
import signal

import pytest

from repro import telemetry
from repro.relations import ExecutionPolicy, FixpointEngine, open_universe
from repro.relations.parallel import (
    ParallelExecutor,
    _drain_worker_spans,
    _sever_inherited_observers,
    _worker_telemetry,
)

WATCHDOG_SECONDS = 120


@pytest.fixture(autouse=True)
def watchdog():
    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded {WATCHDOG_SECONDS}s watchdog — the parallel "
            "executor may have deadlocked"
        )

    old = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


EDGES = [(i, i + 1) for i in range(12)] + [(3, 30), (30, 31), (5, 40)]


def closure_universe():
    return open_universe(
        backend="bdd",
        domains={"N": 64},
        attributes={"src": "N", "dst": "N"},
        physdoms={"P1": 6, "P2": 6, "P3": 6},
    )


def traced_solve(workers=2):
    tel = telemetry.enable()
    u = closure_universe()
    tel.instrument_universe(u)
    edge = u.relation_of(["src", "dst"], EDGES, ["P1", "P2"])
    eng = FixpointEngine(
        u, ExecutionPolicy(engine="parallel", workers=workers)
    )
    eng.fact("edge", edge)
    eng.relation("path", edge)
    eng.rule(
        "path", ("x", "z"), [("edge", ("x", "y")), ("path", ("y", "z"))]
    )
    with tel.span("solve"):
        solution = eng.solve()
    return tel, eng, solution


class TestWorkerLanes:
    def test_parallel_solve_ships_worker_spans(self):
        tel, eng, solution = traced_solve(workers=2)
        ps = eng.parallel_stats
        assert ps is not None and not ps["broken"]
        assert ps["worker_spans"] > 0
        lanes = tel.worker_lanes()
        assert lanes, "no worker span lanes arrived"
        for lane in lanes:
            assert lane["pid"] > 0
            assert lane["spans"]
            names = {s["name"] for s in lane["spans"]}
            assert "parallel.worker_task" in names

    def test_worker_spans_carry_kernel_deltas(self):
        tel, eng, _ = traced_solve(workers=2)
        spans = [s for l in tel.worker_lanes() for s in l["spans"]]
        deltas = [
            s["args"]["kdelta"] for s in spans
            if "kdelta" in (s.get("args") or {})
        ]
        assert deltas, "no per-span kernel-counter deltas in worker lanes"
        assert any(
            any(k.endswith("nodes_created") for k in d) for d in deltas
        )

    def test_merged_chrome_trace_is_valid_multi_pid(self, tmp_path):
        tel, eng, _ = traced_solve(workers=2)
        path = str(tmp_path / "trace.json")
        tel.write_chrome_trace(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert telemetry.validate_chrome_trace(doc) == []
        pids = {
            e.get("pid") for e in doc["traceEvents"] if e.get("ph") in "BE"
        }
        assert len(pids) >= 2, f"expected worker lanes, got pids {pids}"
        # Clock alignment: no lane event may land before the
        # coordinator's t0 (timestamps are relative microseconds).
        assert all(
            e["ts"] >= 0
            for e in doc["traceEvents"] if e.get("ph") in "BE"
        )
        assert doc["otherData"]["workerLanes"] == len(pids) - 1

    def test_worker_task_spans_tag_rule_and_iteration(self):
        tel, _, _ = traced_solve(workers=2)
        tasks = [
            s for l in tel.worker_lanes() for s in l["spans"]
            if s["name"] == "parallel.worker_task"
        ]
        assert tasks
        for span in tasks:
            assert "rule" in span["args"]
            assert "iteration" in span["args"]

    def test_parallel_health_lands_in_registry(self):
        tel, eng, _ = traced_solve(workers=2)
        snap = tel.metrics_snapshot()
        assert snap["parallel.workers"] == 2
        assert snap["parallel.worker_spans"] == eng.parallel_stats[
            "worker_spans"
        ]
        assert "parallel.retries" in snap
        assert "parallel.restarts" in snap
        assert snap["telemetry.worker_lanes"] == len(tel.worker_lanes())

    def test_solution_matches_serial(self):
        tel, _, solution = traced_solve(workers=2)
        telemetry.disable()
        u = closure_universe()
        edge = u.relation_of(["src", "dst"], EDGES, ["P1", "P2"])
        eng = FixpointEngine(u, "seminaive")
        eng.fact("edge", edge)
        eng.relation("path", edge)
        eng.rule(
            "path", ("x", "z"), [("edge", ("x", "y")), ("path", ("y", "z"))]
        )
        serial = eng.solve()
        assert set(solution["path"].tuples()) == set(
            serial["path"].tuples()
        )

    def test_disabled_telemetry_ships_nothing(self):
        u = closure_universe()
        edge = u.relation_of(["src", "dst"], EDGES, ["P1", "P2"])
        eng = FixpointEngine(
            u, ExecutionPolicy(engine="parallel", workers=2)
        )
        eng.fact("edge", edge)
        eng.relation("path", edge)
        eng.rule(
            "path", ("x", "z"), [("edge", ("x", "y")), ("path", ("y", "z"))]
        )
        eng.solve()
        ps = eng.parallel_stats
        assert ps["worker_spans"] == 0
        assert ps["worker_spans_dropped"] == 0

    def test_executor_trace_defaults_to_telemetry_state(self):
        u = closure_universe()
        edge = u.relation_of(["src", "dst"], EDGES, ["P1", "P2"])
        ex = ParallelExecutor(
            u, [], {"edge": edge}, [], {"edge": (("src", "P1"), ("dst", "P2"))},
            workers=1,
        )
        try:
            assert ex.trace is False  # clean_telemetry disabled the session
        finally:
            ex.close()


class TestWorkerSessionUnits:
    def test_worker_telemetry_disabled_spec(self):
        assert _worker_telemetry(None, None) is None
        assert _worker_telemetry({"enabled": False}, None) is None
        assert _drain_worker_spans(None) is None

    def test_worker_telemetry_bounded_and_drained(self):
        u = closure_universe()
        wtel = _worker_telemetry(
            {"enabled": True, "max_spans": 2}, u.manager
        )
        try:
            assert telemetry.active() is wtel
            for i in range(4):
                with wtel.span(f"task{i}", cat="worker"):
                    pass
            meta = _drain_worker_spans(wtel)
            assert meta["pid"] > 0 and meta["clock"] > 0
            assert len(meta["spans"]) == 2
            assert meta["dropped"] == 2
            # Drain clears the tracer, so the next task starts fresh.
            assert wtel.tracer.spans == [] and wtel.tracer.dropped == 0
        finally:
            telemetry.disable()

    def test_null_telemetry_accepts_worker_protocol(self):
        null = telemetry.active()
        assert not null.enabled
        null.add_worker_spans("w", 1, [{"name": "x"}], dropped=1)
        null.record_parallel({"workers": 2})
        assert null.worker_lanes() == []


class TestSeverInheritedObservers:
    def test_sever_uninstalls_profiler_and_clears_listeners(self):
        from repro.profiler import Profiler

        u = closure_universe()
        prof = Profiler().install().observe_universe(u)
        assert u.manager.reorder_listeners
        edge = u.relation_of(["src", "dst"], EDGES, ["P1", "P2"])
        (edge | edge).size()
        recorded = len(prof.events)
        assert recorded
        _sever_inherited_observers()
        # relational ops in the (forked) child reach no inherited sink
        (edge | edge).size()
        edge.replace({"src": "P3"}).size()
        assert len(prof.events) == recorded
        assert not u.manager.reorder_listeners
        assert not u.manager.gc_listeners

    def test_sever_disables_inherited_telemetry(self):
        tel = telemetry.enable()
        u = closure_universe()
        tel.instrument_universe(u)
        assert u.manager.gc_listeners
        _sever_inherited_observers()
        assert not telemetry.is_enabled()
        assert not u.manager.gc_listeners

    def test_sever_is_safe_without_observers(self):
        _sever_inherited_observers()  # must not raise
        assert not telemetry.is_enabled()
