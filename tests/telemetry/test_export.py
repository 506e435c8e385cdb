"""Tests for the Chrome-trace exporter, its validator, and text reports."""

import json

from repro.telemetry.export import (
    chrome_trace_events,
    text_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.tracer import SpanTracer


def _nested_tracer():
    tracer = SpanTracer()
    with tracer.site_span("main:1,1", "main:1,1"):
        with tracer.span("relation.union", cat="relation"):
            with tracer.span("bdd.union", cat="kernel"):
                pass
    with tracer.span("standalone"):
        pass
    return tracer


class TestChromeExport:
    def test_events_are_balanced_and_valid(self):
        events = chrome_trace_events(_nested_tracer())
        assert validate_chrome_trace(events) == []
        b = [e for e in events if e.get("ph") == "B"]
        e = [e for e in events if e.get("ph") == "E"]
        assert len(b) == len(e) == 4

    def test_nesting_order_b_before_children(self):
        events = chrome_trace_events(_nested_tracer())
        names = [(ev["ph"], ev["name"]) for ev in events if ev["ph"] in "BE"]
        assert names[:6] == [
            ("B", "main:1,1"),
            ("B", "relation.union"),
            ("B", "bdd.union"),
            ("E", "bdd.union"),
            ("E", "relation.union"),
            ("E", "main:1,1"),
        ]

    def test_metadata_and_site_args(self):
        events = chrome_trace_events(_nested_tracer(), process_name="demo")
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "demo"
        kernel_b = next(
            e for e in events if e["ph"] == "B" and e["name"] == "bdd.union"
        )
        assert kernel_b["args"]["site"] == "main:1,1"

    def test_metrics_travel_as_instant_event(self):
        events = chrome_trace_events(_nested_tracer(), metrics={"x": 1})
        inst = [e for e in events if e["ph"] == "i"]
        assert len(inst) == 1
        assert inst[0]["args"]["metrics"] == {"x": 1}

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, _nested_tracer())
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == count
        assert doc["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(doc) == []

    def test_dropped_spans_in_metadata(self, tmp_path):
        tracer = SpanTracer(max_spans=1)
        with tracer.span("kept"):
            pass
        with tracer.span("lost"):
            pass
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, tracer)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["otherData"]["droppedSpans"] == 1

    def test_open_span_is_finished_before_export(self):
        tracer = SpanTracer()
        tracer.span("open").__enter__()
        events = chrome_trace_events(tracer)
        assert validate_chrome_trace(events) == []


class TestValidator:
    def test_rejects_non_trace(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"other": []})

    def test_catches_unclosed_b(self):
        events = [{"ph": "B", "name": "x", "ts": 0, "pid": 1, "tid": 1}]
        problems = validate_chrome_trace(events)
        assert any("unclosed" in p for p in problems)

    def test_catches_mismatched_e(self):
        events = [
            {"ph": "B", "name": "x", "ts": 0, "pid": 1, "tid": 1},
            {"ph": "E", "name": "y", "ts": 1, "pid": 1, "tid": 1},
        ]
        problems = validate_chrome_trace(events)
        assert any("does not match" in p for p in problems)

    def test_catches_e_with_empty_stack(self):
        events = [{"ph": "E", "name": "x", "ts": 0, "pid": 1, "tid": 1}]
        problems = validate_chrome_trace(events)
        assert any("empty stack" in p for p in problems)

    def test_catches_missing_ts(self):
        events = [{"ph": "B", "name": "x", "pid": 1, "tid": 1}]
        problems = validate_chrome_trace(events)
        assert any("ts" in p for p in problems)

    def test_tracks_are_independent(self):
        events = [
            {"ph": "B", "name": "x", "ts": 0, "pid": 1, "tid": 1},
            {"ph": "B", "name": "y", "ts": 0, "pid": 1, "tid": 2},
            {"ph": "E", "name": "y", "ts": 1, "pid": 1, "tid": 2},
            {"ph": "E", "name": "x", "ts": 1, "pid": 1, "tid": 1},
        ]
        assert validate_chrome_trace(events) == []


class TestTextReport:
    def test_metrics_and_span_tree_render(self):
        tracer = _nested_tracer()
        report = text_report({"bdd.nodes": 12, "rate": 0.5}, tracer)
        assert "bdd.nodes" in report and "12" in report
        assert "0.500000" in report
        assert "relation.union" in report
        assert "@main:1,1" in report

    def test_truncation_note(self):
        tracer = SpanTracer()
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        report = text_report({}, tracer, max_span_lines=3)
        assert "truncated" in report

