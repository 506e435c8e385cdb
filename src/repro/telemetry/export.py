"""Exporters: Chrome trace-event JSON, a validator for it, text reports.

The Chrome format is the trace-event JSON consumed by ``chrome://tracing``
and Perfetto: a ``traceEvents`` list of ``B``/``E`` (duration begin/end)
records with microsecond timestamps.  We emit explicit B/E pairs rather
than compact ``X`` events so nesting survives round-trips through tools
that stream events, and so CI can check the pairing is balanced.

``validate_chrome_trace`` is the schema check CI runs against the trace
emitted by ``examples/profiling_demo.py --trace``; it is also exposed as
``python -m repro.telemetry <file>``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.telemetry.tracer import Span, SpanTracer

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "text_report",
]

_PID = 1
_TID = 1


def _emit_spans(
    events: List[dict],
    spans: Sequence[Dict[str, object]],
    t0: float,
) -> None:
    """Append the spans' balanced ``B``/``E`` pairs to ``events``.

    ``spans`` are the plain dicts of ``SpanTracer.export_spans``, with
    timestamps relative to ``t0``; emission is depth-first tree order,
    which guarantees every ``B`` is closed by its own ``E`` in stack
    order on the one (pid, tid) track.
    """
    children: Dict[int, List[dict]] = {}
    roots: List[dict] = []
    for span in spans:
        if span["parent"] < 0:
            roots.append(span)
        else:
            children.setdefault(span["parent"], []).append(span)

    def emit(span: dict) -> None:
        begin = {
            "name": span["name"],
            "cat": span["cat"],
            "ph": "B",
            "ts": round((span["start"] - t0) * 1e6, 3),
            "pid": _PID,
            "tid": _TID,
        }
        args = dict(span.get("args") or {})
        if span.get("site") is not None:
            args["site"] = span["site"]
        if args:
            begin["args"] = args
        events.append(begin)
        for child in children.get(span["index"], ()):
            emit(child)
        events.append({
            "name": span["name"],
            "cat": span["cat"],
            "ph": "E",
            "ts": round((span["end"] - t0) * 1e6, 3),
            "pid": _PID,
            "tid": _TID,
        })

    for root in roots:
        emit(root)


def chrome_trace_events(
    tracer: SpanTracer,
    process_name: str = "repro-jedd",
    metrics: Optional[Dict[str, float]] = None,
) -> List[dict]:
    """Serialise a tracer's span tree as trace-event records.

    Events are emitted in depth-first tree order (each span's ``B``,
    then its children, then its ``E``), which is exactly the order a
    single-threaded run produced them in and guarantees balanced pairs.
    """
    tracer.finish()
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": _PID, "tid": _TID,
         "args": {"name": process_name}},
        {"ph": "M", "name": "thread_name", "pid": _PID, "tid": _TID,
         "args": {"name": "main"}},
    ]
    t0 = tracer.t0
    _emit_spans(events, tracer.export_spans(), t0)

    if metrics:
        # A single instant event carrying the final metrics snapshot so
        # the numbers travel with the trace file.
        events.append({
            "name": "metrics.snapshot",
            "cat": "metrics",
            "ph": "i",
            "s": "g",
            "ts": round((perf_now() - t0) * 1e6, 3),
            "pid": _PID,
            "tid": _TID,
            "args": {"metrics": metrics},
        })
    return events


def perf_now() -> float:
    from time import perf_counter

    return perf_counter()


def write_chrome_trace(
    path: str,
    tracer: SpanTracer,
    process_name: str = "repro-jedd",
    metrics: Optional[Dict[str, float]] = None,
) -> int:
    """Write the trace JSON; returns the number of events written."""
    events = chrome_trace_events(tracer, process_name, metrics)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry",
            "droppedSpans": tracer.dropped,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
    return len(events)


def validate_chrome_trace(doc: object) -> List[str]:
    """Check a parsed trace document; returns a list of problems (empty
    when valid).

    Validates: top-level shape, per-event required keys, and — the part
    CI cares about — that every ``B`` has a matching ``E`` with the same
    name in proper stack order on its (pid, tid) track.
    """
    problems: List[str] = []
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(doc, list):
        events = doc
    else:
        return ["trace must be a JSON array or an object with 'traceEvents'"]

    stacks: Dict[tuple, List[dict]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph is None:
            problems.append(f"event {i}: missing 'ph'")
            continue
        if "name" not in ev:
            problems.append(f"event {i}: missing 'name'")
            continue
        if ph in ("B", "E", "X", "i", "I", "C"):
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"event {i} ({ev['name']}): missing numeric 'ts'")
                continue
        track = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks.setdefault(track, []).append(ev)
        elif ph == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {i}: 'E' for {ev['name']!r} with empty stack")
                continue
            top = stack.pop()
            if top.get("name") != ev.get("name"):
                problems.append(
                    f"event {i}: 'E' for {ev['name']!r} does not match open 'B' {top.get('name')!r}"
                )
            if isinstance(top.get("ts"), (int, float)) and ev["ts"] < top["ts"]:
                problems.append(f"event {i}: 'E' for {ev['name']!r} ends before it begins")
    for track, stack in stacks.items():
        for ev in stack:
            problems.append(f"track {track}: unclosed 'B' for {ev.get('name')!r}")
    return problems


def text_report(
    metrics: Dict[str, float],
    tracer: Optional[SpanTracer] = None,
    max_span_lines: int = 60,
) -> str:
    """Plain-text report: metrics table plus the heaviest span subtrees."""
    lines: List[str] = ["== metrics =="]
    width = max((len(name) for name in metrics), default=0)
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, float) and not value.is_integer():
            rendered = f"{value:.6f}"
        else:
            rendered = f"{int(value)}"
        lines.append(f"{name:<{width}}  {rendered}")

    if tracer is not None and tracer.spans:
        tracer.finish()
        lines.append("")
        lines.append("== spans ==")
        roots = [s for s in tracer.spans if s.parent < 0]
        roots.sort(key=lambda s: s.seconds, reverse=True)
        children: Dict[int, List[Span]] = {}
        for span in tracer.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        budget = [max_span_lines]

        def walk(span: Span, depth: int) -> None:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            site = f"  @{span.site}" if span.site else ""
            lines.append(
                f"{'  ' * depth}{span.name} [{span.cat}] {span.seconds * 1e3:.3f}ms{site}"
            )
            kids = sorted(children.get(span.index, ()), key=lambda s: s.seconds, reverse=True)
            for kid in kids:
                walk(kid, depth + 1)

        for root in roots:
            walk(root, 0)
        if budget[0] <= 0:
            lines.append(f"... ({len(tracer.spans)} spans total, output truncated)")
        if tracer.dropped:
            lines.append(f"!! {tracer.dropped} spans dropped (max_spans={tracer.max_spans})")
    return "\n".join(lines)
