"""Low-frequency gauge sampler + live export (file and localhost HTTP).

The registry's counters come from the kernels' always-on raw stats, but
*point-in-time* health — node-table size and high-water mark, apply/memo
cache occupancy, process RSS, out-of-core spill state — has to be
observed periodically.  :class:`Sampler` does that on a daemon thread at a
configurable (default 1s) interval, cheap enough to leave on for a
whole solve: each tick is a handful of ``len()`` calls and one
``/proc/self/status`` read, never touching kernel hot paths.

Export modes:

- ``expose_path`` — each tick atomically rewrites ``<path>`` with
  Prometheus text exposition and ``<path>.json`` with the JSON snapshot
  (for node-exporter textfile collection, CI artifacts, or
  ``python -m repro.telemetry.top --file``);
- :class:`MetricsServer` — a localhost-only HTTP endpoint serving
  ``/metrics`` (text exposition) and ``/metrics.json`` on demand, for a
  real Prometheus scrape or ``top --url`` against a long solve.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional

__all__ = ["Sampler", "MetricsServer", "process_rss_bytes"]


def process_rss_bytes() -> Optional[float]:
    """Resident set size of this process in bytes, or None when the
    platform exposes neither ``/proc/self/status`` nor ``resource``."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) * 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is peak (not current) RSS, in KiB on Linux; still a
        # useful upper bound where /proc is unavailable.
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0
    except Exception:
        return None


class Sampler:
    """Periodically fold point-in-time gauges into a session's registry.

    Use either one-shot (``sampler.sample()`` before reading metrics) or
    as a background thread (``start()``/``stop()``).  Thread-safety note:
    a tick only *reads* kernel structures (``len`` of dicts, integer
    fields) and *writes* registry gauges; concurrent mutation by the
    solve can at worst yield a slightly stale gauge value, never corrupt
    kernel state.
    """

    def __init__(
        self,
        session,
        interval: float = 1.0,
        expose_path: Optional[str] = None,
    ) -> None:
        self.session = session
        self.interval = max(0.05, float(interval))
        self.expose_path = expose_path
        self.samples_taken = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- one tick ------------------------------------------------------

    def sample(self) -> Dict[str, float]:
        """Take one sample; returns the gauge values set this tick."""
        session = self.session
        registry = session.registry
        out: Dict[str, float] = {}

        def gauge(name: str, value: float) -> None:
            registry.gauge(name).set(value)
            out[name] = value

        # Node tables + high-water marks (table_stats also advances the
        # peak_live_nodes high-water mark on the manager's raw stats).
        session.collect()
        for prefix, manager in getattr(session, "_managers", ()):
            cache_stats = getattr(manager, "cache_stats", None)
            if cache_stats is not None:
                for cache, size in cache_stats().items():
                    registry.gauge(
                        f"{prefix}.cache.entries", cache=cache
                    ).set(size)
                    out[f"{prefix}.cache.entries{{cache={cache}}}"] = size
            # Out-of-core kernels export spill/sweep gauges: resident
            # vs cap, page-cache traffic, sorted-run population, rows
            # spilled from the sweep queues.
            ooc = getattr(manager, "ooc_profile", None)
            if ooc is not None:
                for key, value in ooc().items():
                    gauge(f"{prefix}.ooc.{key}", value)

        rss = process_rss_bytes()
        if rss is not None:
            gauge("process.rss_bytes", rss)
            peak = registry.gauge("process.rss_peak_bytes")
            if rss > peak.value:
                peak.set(rss)
                out["process.rss_peak_bytes"] = rss

        self.samples_taken += 1
        registry.counter("sampler.ticks").set_total(self.samples_taken)
        if self.expose_path:
            self._expose()
        return out

    def _expose(self) -> None:
        """Atomically rewrite the exposition file pair (write to a temp
        sibling, then ``os.replace`` — readers never see a torn file)."""
        path = self.expose_path
        assert path is not None
        self._atomic_write(path, self.session.prometheus_text())
        self._atomic_write(
            path + ".json",
            json.dumps(self.session.json_snapshot(), sort_keys=True),
        )

    @staticmethod
    def _atomic_write(path: str, text: str) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    # -- background thread ---------------------------------------------

    def start(self) -> "Sampler":
        if self._thread is not None:
            return self
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.sample()
                except Exception:
                    # A failed tick (e.g. a manager mid-rehash) must not
                    # kill the sampler; the next tick retries.
                    continue

        self._thread = threading.Thread(
            target=run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        if final_sample:
            try:
                self.sample()
            except Exception:
                pass

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


class MetricsServer:
    """Localhost HTTP endpoint serving the session's live metrics.

    Binds 127.0.0.1 only (this is an introspection port, not a service);
    ``port=0`` picks a free port, readable afterwards from ``.port`` /
    ``.url``.  ``GET /metrics`` returns Prometheus text exposition,
    ``GET /metrics.json`` the JSON snapshot; each request samples first
    when a sampler is attached, so numbers are scrape-time fresh.
    """

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 0,
        sampler: Optional[Sampler] = None,
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.telemetry.exposition import CONTENT_TYPE

        outer = self
        self.session = session
        self.sampler = sampler

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if outer.sampler is not None:
                    try:
                        outer.sampler.sample()
                    except Exception:
                        pass
                if path in ("/metrics", "/"):
                    body = outer.session.prometheus_text().encode("utf-8")
                    ctype = CONTENT_TYPE
                elif path == "/metrics.json":
                    body = json.dumps(
                        outer.session.json_snapshot(), sort_keys=True
                    ).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # no stderr chatter from scrapes

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._server.shutdown()
            thread.join(timeout=5.0)
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
