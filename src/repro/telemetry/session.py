"""The telemetry session: one registry + one tracer + kernel wiring.

A ``Telemetry`` object owns a :class:`MetricsRegistry` and a
:class:`SpanTracer` and knows how to attach itself to the kernels:

- ``instrument_manager`` subscribes to a BDD/ZDD manager's GC
  listeners and remembers the manager so snapshots can pull its
  raw ``KernelStats`` counters (the kernels never call the registry on
  their hot paths — see ``repro.bdd.stats``);
- ``profiler`` is the installed section 4.3 profiler, if any: the
  ``traced`` wrapper hands it every relational operation;
- ``record_sat`` folds a solver's per-solve stat deltas into counters;
- ``metrics_snapshot`` / ``text_report`` / ``write_chrome_trace`` are
  the read side.

``NULL_TELEMETRY`` is the module-level no-op used when telemetry is
disabled: instrumented code does one attribute check (``tel.enabled``)
and calls straight through — no dict lookups, no allocation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.telemetry import export as _export
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import SpanTracer

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


class _NullSpanHandle:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpanHandle()


class NullTelemetry:
    """Do-nothing stand-in active while telemetry is disabled."""

    enabled = False
    registry = None
    tracer = None

    def span(self, name, cat="host", **args):
        return _NULL_SPAN

    def add_complete(self, name, seconds, cat="host", **args):
        pass

    def statement_span(self, site, **args):
        return _NULL_SPAN

    def push_site(self, site):
        pass

    def pop_site(self):
        pass

    def instrument_manager(self, manager, name=None):
        return None

    def instrument_universe(self, universe, name=None):
        return None

    def record_sat(self, after, before=None, name="sat"):
        pass

    def record_gauges(self, stats, prefix):
        pass


NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """A live telemetry session (see module docstring)."""

    enabled = True

    def __init__(self, max_spans: int = 200_000, span_deltas: bool = True) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(
            delta_source=self._kernel_counters if span_deltas else None,
            max_spans=max_spans,
        )
        self._managers: List[Tuple[str, object]] = []
        self._listeners: List[Tuple[list, object]] = []
        #: The :class:`~repro.profiler.Profiler` recording this
        #: session's relational operations; set by its ``install()``.
        self.profiler = None

    # -- spans / sites -------------------------------------------------

    def span(self, name: str, cat: str = "host", **args: object):
        return self.tracer.span(name, cat, **args)

    def add_complete(self, name: str, seconds: float, cat: str = "host", **args: object) -> None:
        """Record an already-timed event (e.g. a GC pause the kernel
        measured itself)."""
        self.tracer.add_complete(name, seconds, cat, **args)

    def statement_span(self, site: str, **args: object):
        """Span for one interpreter statement; also scopes ``site`` so
        relation/kernel spans underneath inherit the source position."""
        return self.tracer.site_span(site, site, cat="interp", **args)

    def push_site(self, site: str) -> None:
        self.tracer.push_site(site)

    def pop_site(self) -> None:
        self.tracer.pop_site()

    # -- kernel wiring -------------------------------------------------

    def instrument_manager(self, manager: object, name: Optional[str] = None) -> str:
        """Start tracking a BDD/ZDD manager; idempotent per manager.

        Returns the metric prefix chosen for it (``bdd``, ``zdd``,
        ``bdd2``, ... when several managers of one kind are tracked).
        """
        for prefix, existing in self._managers:
            if existing is manager:
                return prefix
        base = name or getattr(manager, "telemetry_name", type(manager).__name__.lower())
        prefix, n = base, 2
        while any(p == prefix for p, _ in self._managers):
            prefix = f"{base}{n}"
            n += 1
        self._managers.append((prefix, manager))

        registry = self.registry
        tracer = self.tracer

        gc_listeners = getattr(manager, "gc_listeners", None)
        if gc_listeners is not None:
            def on_gc(seconds: float, freed: int, _prefix: str = prefix) -> None:
                registry.histogram(f"{_prefix}.gc.pause_seconds").observe(seconds)
                registry.counter(f"{_prefix}.gc.reclaimed_nodes").inc(freed)
                tracer.add_complete(f"{_prefix}.gc", seconds, cat="gc", freed=freed)

            gc_listeners.append(on_gc)
            self._listeners.append((gc_listeners, on_gc))

        return prefix

    def instrument_universe(self, universe: object, name: Optional[str] = None) -> str:
        """Convenience: instrument a finalized ``Universe``'s manager."""
        manager = getattr(universe, "manager", None)
        if manager is None:
            raise ValueError("universe has no manager (finalize() it first)")
        return self.instrument_manager(manager, name)

    def detach(self) -> None:
        """Unhook all manager listeners (called on ``telemetry.disable``)."""
        for listeners, fn in self._listeners:
            try:
                listeners.remove(fn)
            except ValueError:
                pass
        self._listeners.clear()

    def record_gauges(self, stats: Optional[dict], prefix: str) -> None:
        """Set one ``prefix.key`` gauge per numeric entry of ``stats``
        (e.g. an incremental update's phase counters), for the
        exposition and ``top`` views to read."""
        if not stats:
            return
        for key, value in stats.items():
            if isinstance(value, bool):
                self.registry.gauge(f"{prefix}.{key}").set(float(value))
            elif isinstance(value, (int, float)):
                self.registry.gauge(f"{prefix}.{key}").set(value)

    def record_sat(self, after: object, before: Optional[object] = None, name: str = "sat") -> None:
        """Fold one solve's stats into counters.

        ``after``/``before`` are ``SolveStats``-like (dataclass or
        mapping); only the delta is added, so a solver reused across
        many solves is not double counted.
        """
        a = dataclasses.asdict(after) if dataclasses.is_dataclass(after) else dict(after)  # type: ignore[arg-type]
        if before is None:
            b: Dict[str, float] = {}
        elif dataclasses.is_dataclass(before):
            b = dataclasses.asdict(before)  # type: ignore[arg-type]
        else:
            b = dict(before)  # type: ignore[arg-type]
        self.registry.counter(f"{name}.solves").inc()
        for key, value in a.items():
            if isinstance(value, (int, float)):
                self.registry.counter(f"{name}.{key}").inc(value - b.get(key, 0))

    # -- read side -----------------------------------------------------

    def _kernel_counters(self) -> Dict[str, float]:
        """Cheap flat view of raw kernel counters, used for span deltas;
        per-op and per-cache misses are named as :meth:`collect` names them."""
        out: Dict[str, float] = {}
        for prefix, manager in self._managers:
            stats = getattr(manager, "stats", None)
            if stats is None:
                continue
            hits, misses = stats.op_totals()
            out[f"{prefix}.apply.hits"] = hits
            out[f"{prefix}.apply.misses"] = misses
            for op, _, op_misses in stats.per_op():
                out[f"{prefix}.apply_cache.misses{{op={op}}}"] = op_misses
            for cache, _, cache_misses in stats.scalar_caches():
                out[f"{prefix}.{cache}.misses"] = cache_misses
            out[f"{prefix}.nodes_created"] = stats.nodes_created
            out[f"{prefix}.gc.runs"] = stats.gc_runs
        return out

    def collect(self) -> None:
        """Pull raw kernel counters and table gauges into the registry."""
        registry = self.registry
        for prefix, manager in self._managers:
            stats = getattr(manager, "stats", None)
            if stats is not None:
                for op, hits, misses in stats.per_op():
                    registry.counter(f"{prefix}.apply_cache.hits", op=op).set_total(hits)
                    registry.counter(f"{prefix}.apply_cache.misses", op=op).set_total(misses)
                for cache, hits, misses in stats.scalar_caches():
                    if hits or misses:
                        registry.counter(f"{prefix}.{cache}.hits").set_total(hits)
                        registry.counter(f"{prefix}.{cache}.misses").set_total(misses)
                registry.counter(f"{prefix}.nodes_created").set_total(stats.nodes_created)
                registry.counter(f"{prefix}.gc.runs").set_total(stats.gc_runs)
                registry.gauge(f"{prefix}.gc.total_seconds").set(stats.gc_seconds)
            table = getattr(manager, "table_stats", None)
            if table is not None:
                for key, value in table().items():
                    registry.gauge(f"{prefix}.table.{key}").set(value)

    def metrics_snapshot(self) -> Dict[str, float]:
        """Registry snapshot plus derived per-op-tag cache hit rates."""
        self.collect()
        out = self.registry.snapshot()
        for prefix, manager in self._managers:
            stats = getattr(manager, "stats", None)
            if stats is None:
                continue
            total_h = total_m = 0
            for op, hits, misses in stats.per_op():
                total_h += hits
                total_m += misses
                if hits + misses:
                    out[f"{prefix}.apply_cache.hit_rate{{op={op}}}"] = hits / (hits + misses)
            if total_h + total_m:
                out[f"{prefix}.apply_cache.hit_rate"] = total_h / (total_h + total_m)
        out["telemetry.spans"] = len(self.tracer.spans)
        out["telemetry.spans_dropped"] = self.tracer.dropped
        return out

    def prometheus_text(self) -> str:
        """The session's metrics in Prometheus text exposition format
        (``text/plain; version=0.0.4``), ready to serve or write."""
        from repro.telemetry import exposition as _exposition

        self.collect()
        extra = {
            "telemetry.spans": len(self.tracer.spans),
            "telemetry.spans_dropped": self.tracer.dropped,
        }
        return _exposition.exposition_text(self.registry, extra_gauges=extra)

    def json_snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot document (metrics + tracer bookkeeping),
        the payload behind ``/metrics.json`` and the sampler's snapshot
        file (what ``python -m repro.telemetry.top`` renders)."""
        import time as _time

        return {
            "schema": 1,
            "unixtime": _time.time(),
            "metrics": self.metrics_snapshot(),
        }

    def text_report(self, max_span_lines: int = 60) -> str:
        return _export.text_report(self.metrics_snapshot(), self.tracer, max_span_lines)

    def chrome_trace_events(self, process_name: str = "repro-jedd") -> List[dict]:
        return _export.chrome_trace_events(
            self.tracer, process_name, self.metrics_snapshot()
        )

    def write_chrome_trace(self, path: str, process_name: str = "repro-jedd") -> int:
        return _export.write_chrome_trace(
            path, self.tracer, process_name, self.metrics_snapshot()
        )

    def clear(self) -> None:
        """Reset registry and spans, keeping manager/listener wiring."""
        self.registry.clear()
        self.tracer.clear()
