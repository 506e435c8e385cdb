"""Tests for the hierarchical span tracer."""

import pytest

from repro.telemetry.tracer import SpanTracer


class TestNesting:
    def test_parent_child_links_and_depth(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.parent == -1 and outer.depth == 0
        assert inner.parent == outer.index and inner.depth == 1
        assert outer.end is not None and inner.end is not None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_siblings_share_parent(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        _, a, b = tracer.spans
        assert a.parent == b.parent == 0
        assert a.depth == b.depth == 1

    def test_span_args_recorded(self):
        tracer = SpanTracer()
        with tracer.span("solve", cat="sat", vars=12):
            pass
        span = tracer.spans[0]
        assert span.cat == "sat"
        assert span.args["vars"] == 12


class TestSites:
    def test_site_span_scopes_site_for_children(self):
        tracer = SpanTracer()
        with tracer.site_span("stmt", "main:3,1"):
            with tracer.span("kernel.op", cat="kernel"):
                pass
        stmt, op = tracer.spans
        assert stmt.site == "main:3,1"
        assert op.site == "main:3,1"
        # the site stack is popped when the site_span closes
        assert tracer.current_site() is None

    def test_explicit_push_pop(self):
        tracer = SpanTracer()
        tracer.push_site("a")
        tracer.push_site("b")
        assert tracer.current_site() == "b"
        tracer.pop_site()
        assert tracer.current_site() == "a"
        tracer.pop_site()
        tracer.pop_site()  # extra pop is harmless
        assert tracer.current_site() is None


class TestExceptions:
    def test_exception_closes_span_and_records_error(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("risky"):
                raise ValueError("boom")
        span = tracer.spans[0]
        assert span.end is not None
        assert span.args["error"] == "ValueError"

    def test_unclosed_child_is_closed_with_parent(self):
        tracer = SpanTracer()
        handle = tracer.span("outer")
        handle.__enter__()
        tracer.span("leaked").__enter__()  # never exited
        handle.__exit__(None, None, None)
        outer, leaked = tracer.spans
        assert leaked.end is not None
        assert outer.end is not None
        assert tracer._stack == []


class TestDeltas:
    def test_nonzero_deltas_stored(self):
        state = {"bdd.apply.misses": 0.0, "bdd.apply.hits": 5.0}
        tracer = SpanTracer(delta_source=lambda: dict(state))
        with tracer.span("op"):
            state["bdd.apply.misses"] = 7.0
        span = tracer.spans[0]
        assert span.args["kdelta"] == {"bdd.apply.misses": 7.0}

    def test_no_delta_key_when_nothing_changed(self):
        tracer = SpanTracer(delta_source=lambda: {"x": 1.0})
        with tracer.span("op"):
            pass
        assert "kdelta" not in tracer.spans[0].args


class TestCompleteAndLimits:
    def test_add_complete_is_leaf_ending_now(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            tracer.add_complete("gc", 0.5, cat="gc", freed=10)
        outer, gc = tracer.spans
        assert gc.parent == outer.index
        assert gc.args["freed"] == 10
        assert abs(gc.seconds - 0.5) < 0.05

    def test_max_spans_drops_and_counts(self):
        tracer = SpanTracer(max_spans=1)
        with tracer.span("kept"):
            pass
        with tracer.span("dropped"):
            pass
        tracer.add_complete("also-dropped", 0.1)
        assert len(tracer.spans) == 1
        assert tracer.dropped == 2

    def test_finish_closes_abandoned_spans(self):
        tracer = SpanTracer()
        tracer.span("abandoned").__enter__()
        tracer.finish()
        assert tracer.spans[0].end is not None
        assert tracer._stack == []

    def test_clear_resets_everything(self):
        tracer = SpanTracer(max_spans=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.push_site("s")
        tracer.clear()
        assert tracer.spans == []
        assert tracer.dropped == 0
        assert tracer.current_site() is None


class TestExportSpans:
    def test_dict_shape_and_tree_links(self):
        tracer = SpanTracer()
        with tracer.span("outer", cat="host", rule="r1"):
            with tracer.span("inner", cat="kernel"):
                pass
        out = tracer.export_spans()
        assert [d["name"] for d in out] == ["outer", "inner"]
        outer, inner = out
        assert inner["parent"] == outer["index"]
        assert inner["depth"] == 1
        assert outer["args"] == {"rule": "r1"}
        assert inner["end"] >= inner["start"] >= outer["start"]

    def test_open_spans_closed_before_export(self):
        tracer = SpanTracer()
        tracer.span("abandoned").__enter__()
        out = tracer.export_spans()
        assert out[0]["end"] >= out[0]["start"]

    def test_exports_are_picklable(self):
        import pickle

        tracer = SpanTracer()
        with tracer.site_span("main:1,1", "main:1,1"):
            pass
        out = tracer.export_spans()
        assert pickle.loads(pickle.dumps(out)) == out
        assert out[0]["site"] == "main:1,1"

    def test_clear_after_export_resets_dropped(self):
        tracer = SpanTracer(max_spans=1)
        with tracer.span("kept"):
            pass
        with tracer.span("lost"):
            pass
        assert tracer.dropped == 1
        tracer.export_spans()
        tracer.clear()
        assert tracer.dropped == 0 and tracer.spans == []
