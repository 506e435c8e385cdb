"""Tests for the gauge sampler, its export modes, and the HTTP endpoint."""

import json
import time
import urllib.request

import pytest

from repro.relations import open_universe
from repro.telemetry.exposition import check_exposition
from repro.telemetry.sampler import MetricsServer, Sampler, process_rss_bytes
from repro.telemetry.session import Telemetry


def _session_with_work():
    session = Telemetry()
    u = open_universe(
        backend="bdd",
        domains={"N": 64},
        attributes={"src": "N", "dst": "N"},
        physdoms={"P1": 6, "P2": 6, "P3": 6},
    )
    session.instrument_universe(u)
    rel = u.relation_of(
        ["src", "dst"], [(i, i + 1) for i in range(20)], ["P1", "P2"]
    )
    rel | u.relation_of(["src", "dst"], [(9, 1)], ["P1", "P2"])
    return session, u


class TestSample:
    def test_table_and_peak_gauges(self):
        session, u = _session_with_work()
        out = Sampler(session).sample()
        assert any(name.startswith("bdd.cache.") for name in out)
        snap = session.metrics_snapshot()
        assert snap["bdd.table.live_nodes"] > 0
        assert (
            snap["bdd.table.peak_live_nodes"]
            >= snap["bdd.table.live_nodes"]
        )

    def test_cache_occupancy_gauges(self):
        session, u = _session_with_work()
        Sampler(session).sample()
        snap = session.metrics_snapshot()
        apply_entries = snap.get("bdd.cache.entries{cache=apply}")
        assert apply_entries is not None and apply_entries > 0

    def test_rss_gauge_and_peak(self):
        assert process_rss_bytes() is None or process_rss_bytes() > 0
        session, _ = _session_with_work()
        sampler = Sampler(session)
        sampler.sample()
        snap = session.metrics_snapshot()
        if process_rss_bytes() is not None:
            assert snap["process.rss_bytes"] > 1024
            assert snap["process.rss_peak_bytes"] >= snap["process.rss_bytes"]

    def test_ooc_spill_gauges(self):
        session = Telemetry()
        u = open_universe(
            backend="bdd",
            kernel="ooc",
            domains={"N": 64},
            attributes={"src": "N", "dst": "N"},
            physdoms={"P1": 6, "P2": 6, "P3": 6},
        )
        session.instrument_universe(u)
        m = u.manager
        m.memory_cap_bytes = None  # keep the run deterministic; gauges
        # must exist for capped *and* uncapped managers alike.
        rows = [(i, (i * 7) % 50) for i in range(40)]
        # Building from tuples is one bottom-up pass, not a sweep; the
        # union of the two halves is.
        u.relation_of(["src", "dst"], rows[:20], ["P1", "P2"]) | (
            u.relation_of(["src", "dst"], rows[20:], ["P1", "P2"])
        )
        Sampler(session).sample()
        snap = session.metrics_snapshot()
        assert "bdd.ooc.sweeps" in snap and snap["bdd.ooc.sweeps"] > 0
        assert "bdd.ooc.resident_bytes" in snap
        assert (
            snap["bdd.ooc.peak_resident_bytes"]
            >= snap["bdd.ooc.resident_bytes"]
        )
        assert snap["bdd.ooc.cap_bytes"] == 0
        # The spill-traffic gauges are present (zero here: uncapped).
        for key in (
            "bdd.ooc.spill_bytes_written",
            "bdd.ooc.pages_evicted",
            "bdd.ooc.unique_flushes",
            "bdd.ooc.queue_rows_spilled",
        ):
            assert snap[key] == 0

    def test_ticks_counter(self):
        session, _ = _session_with_work()
        sampler = Sampler(session)
        sampler.sample()
        sampler.sample()
        assert session.metrics_snapshot()["sampler.ticks"] == 2


class TestExposeFile:
    def test_atomic_file_pair(self, tmp_path):
        session, _ = _session_with_work()
        path = str(tmp_path / "metrics.prom")
        Sampler(session, expose_path=path).sample()
        text = open(path).read()
        assert check_exposition(text) == []
        doc = json.loads(open(path + ".json").read())
        assert doc["schema"] == 1
        assert doc["metrics"]["bdd.table.live_nodes"] > 0
        assert "unixtime" in doc

    def test_rewrite_on_each_tick(self, tmp_path):
        session, _ = _session_with_work()
        path = str(tmp_path / "metrics.prom")
        sampler = Sampler(session, expose_path=path)
        sampler.sample()
        first = json.loads(open(path + ".json").read())
        sampler.sample()
        second = json.loads(open(path + ".json").read())
        assert second["unixtime"] >= first["unixtime"]


class TestBackgroundThread:
    def test_start_stop_takes_samples(self):
        session, _ = _session_with_work()
        sampler = Sampler(session, interval=0.05)
        sampler.start()
        deadline = time.time() + 5.0
        while sampler.samples_taken == 0 and time.time() < deadline:
            time.sleep(0.01)
        sampler.stop()
        assert sampler.samples_taken > 0

    def test_context_manager(self):
        session, _ = _session_with_work()
        with Sampler(session, interval=0.05) as sampler:
            time.sleep(0.12)
        # stop() takes a final sample even if the thread never ticked.
        assert sampler.samples_taken >= 1

    def test_double_start_is_idempotent(self):
        session, _ = _session_with_work()
        sampler = Sampler(session, interval=10.0)
        assert sampler.start() is sampler.start()
        sampler.stop()


class TestMetricsServer:
    @pytest.fixture()
    def server(self):
        session, _ = _session_with_work()
        server = MetricsServer(session, sampler=Sampler(session)).start()
        yield server
        server.stop()

    def test_metrics_endpoint_is_valid_exposition(self, server):
        body = urllib.request.urlopen(server.url, timeout=5.0).read().decode()
        assert check_exposition(body) == []
        assert "bdd_table_live_nodes" in body
        assert "process_rss_bytes" in body

    def test_json_endpoint(self, server):
        body = urllib.request.urlopen(
            server.url + ".json", timeout=5.0
        ).read()
        doc = json.loads(body)
        assert doc["schema"] == 1
        assert doc["metrics"]["bdd.table.live_nodes"] > 0

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://{server.host}:{server.port}/nope", timeout=5.0
            )

    def test_binds_localhost_only(self, server):
        assert server.host == "127.0.0.1"


class TestTopView:
    def test_render_frame(self, tmp_path):
        from repro.telemetry import top

        session, _ = _session_with_work()
        path = str(tmp_path / "m.prom")
        Sampler(session, expose_path=path).sample()
        doc = top.read_snapshot(path=path + ".json")
        frame = top.render(doc)
        assert "bdd" in frame and "nodes" in frame
        assert "tracer" in frame

    def test_main_once_mode(self, tmp_path, capsys):
        from repro.telemetry import top

        session, _ = _session_with_work()
        path = str(tmp_path / "m.prom")
        Sampler(session, expose_path=path).sample()
        assert top.main(["--file", path + ".json", "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro-jedd metrics" in out

    def test_main_missing_file_once(self, tmp_path):
        from repro.telemetry import top

        assert top.main(
            ["--file", str(tmp_path / "absent.json"), "--once"]
        ) == 1
