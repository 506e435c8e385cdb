"""repro.telemetry: unified observability for the whole stack.

The paper's section 4.3 profiler attributes time and shapes to relational
operations; this package extends that attribution down through the
kernels, following Figure 1 top to bottom:

- interpreter statements (``jedd/interp.py``) open *spans* tagged with
  their source position,
- the relational ops they trigger (``relations/relation.py``) and the
  BDD/ZDD/SAT kernel calls underneath nest inside them,
- kernel counters (apply-cache hits per op tag, unique-table load, GC
  pauses, CDCL conflicts/decisions/propagations) land in
  a metrics registry,

and the result exports as a Chrome trace-event JSON (``chrome://tracing``
/ Perfetto), a plain-text report, or rows in the profiler's SQL store.

Usage::

    from repro import telemetry

    tel = telemetry.enable()
    tel.instrument_universe(universe)
    with tel.span("pointsto.solve"):
        solver.solve()
    print(tel.text_report())
    tel.write_chrome_trace("trace.json")
    telemetry.disable()

Cost model: while disabled (the default) the module-level singleton is a
no-op object and every instrumented call site does a single attribute
test before calling straight through — no dict lookups, no allocation.
The raw kernel counters in ``repro.bdd.stats`` are always on (plain
integer bumps next to existing cache probes); the registry reads them
lazily at snapshot time.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

from repro.telemetry.export import (
    chrome_trace_events,
    text_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.exposition import check_exposition, exposition_text
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.sampler import MetricsServer, Sampler
from repro.telemetry.session import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.telemetry.tracer import Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NullTelemetry",
    "Sampler",
    "Span",
    "SpanTracer",
    "Telemetry",
    "active",
    "check_exposition",
    "chrome_trace_events",
    "disable",
    "enable",
    "exposition_text",
    "is_enabled",
    "span",
    "text_report",
    "traced",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: The active session. Instrumented hot paths read this module attribute
#: and test ``.enabled`` — the only per-call cost while disabled.
_active: Union[Telemetry, NullTelemetry] = NULL_TELEMETRY


def enable(session: Optional[Telemetry] = None, **kwargs: object) -> Telemetry:
    """Activate telemetry globally and return the session.

    Passing an existing :class:`Telemetry` re-activates it (keeping its
    collected data); otherwise a fresh session is created with ``kwargs``
    forwarded to the constructor.  If a different session was already
    active it is detached first.
    """
    global _active
    if session is None:
        session = Telemetry(**kwargs)  # type: ignore[arg-type]
    if isinstance(_active, Telemetry) and _active is not session:
        _active.detach()
    _active = session
    return session


def disable() -> Optional[Telemetry]:
    """Deactivate telemetry; returns the session that was active (its
    collected metrics and spans stay readable) or None."""
    global _active
    previous = _active
    if isinstance(previous, Telemetry):
        previous.detach()
    _active = NULL_TELEMETRY
    return previous if isinstance(previous, Telemetry) else None


def active() -> Union[Telemetry, NullTelemetry]:
    """The active session (the no-op singleton when disabled)."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def span(name: str, cat: str = "host", **args: object):
    """Module-level convenience: ``with telemetry.span("phase"): ...``."""
    return _active.span(name, cat, **args)


def traced(name: str, cat: str = "host"):
    """Decorator opening a span around each call of the wrapped function.

    While disabled the wrapper costs one module-global read plus one
    attribute test before tail-calling the original, which stays
    reachable as ``__wrapped__`` (the overhead benchmark compares the
    two).  Used by ``relations/relation.py`` and the backend adapters.

    Calls in the ``relation`` category are also the section 4.3
    profiler's events: while a :class:`~repro.profiler.Profiler` is
    installed on the session, it opens the span and records the call.
    """
    profiled = cat == "relation"

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tel = _active
            if not tel.enabled:
                return fn(*args, **kwargs)
            if profiled and tel.profiler is not None:
                return tel.profiler.record(name, fn, args, kwargs)
            with tel.tracer.span(name, cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
