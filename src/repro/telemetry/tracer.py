"""Hierarchical span tracer.

A span is one timed region — a Jedd interpreter statement, the relational
operation it triggered, or the kernel call underneath — and spans opened
while another is active become its children, so one statement yields a
tree: ``<global>:12,1 -> relation.join -> bdd.match``.

Spans are recorded with strict stack discipline (the runtime is single
threaded), which the Chrome-trace exporter relies on to emit balanced
B/E event pairs.  Each span optionally snapshots a flat dict of raw
kernel counters on entry and stores the non-zero deltas on exit as
``args["kdelta"]`` (beside, never over, the caller's own arguments), so
a trace answers "this join cost 40k apply-cache misses" directly.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "SpanTracer"]


class Span:
    """One node of the trace tree.  ``end`` is None while still open."""

    __slots__ = (
        "name",
        "cat",
        "start",
        "end",
        "args",
        "depth",
        "site",
        "index",
        "parent",
        "_snap",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        start: float,
        depth: int,
        site: Optional[str],
        index: int,
        parent: int,
    ) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.end: Optional[float] = None
        self.args: Dict[str, object] = {}
        self.depth = depth
        self.site = site
        self.index = index
        self.parent = parent
        self._snap: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r} cat={self.cat} depth={self.depth} dur={self.seconds:.6f})"


class _SpanHandle:
    """Context manager returned by ``SpanTracer.span``."""

    __slots__ = ("_tracer", "_span", "_site")

    def __init__(self, tracer: "SpanTracer", span: Optional[Span], site: Optional[str]) -> None:
        self._tracer = tracer
        self._span = span
        self._site = site

    def __enter__(self) -> Optional[Span]:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span, exc_type)
        if self._site is not None:
            self._tracer.pop_site()
        return False


class SpanTracer:
    """Records a tree of spans plus a source-position site stack."""

    def __init__(
        self,
        delta_source: Optional[Callable[[], Dict[str, float]]] = None,
        max_spans: int = 200_000,
    ) -> None:
        self.spans: List[Span] = []
        self.dropped = 0
        self.max_spans = max_spans
        self.delta_source = delta_source
        self.t0 = perf_counter()
        self._stack: List[Span] = []
        self._sites: List[str] = []

    # -- site stack ---------------------------------------------------

    def push_site(self, site: str) -> None:
        self._sites.append(site)

    def pop_site(self) -> None:
        if self._sites:
            self._sites.pop()

    def current_site(self) -> Optional[str]:
        return self._sites[-1] if self._sites else None

    # -- spans --------------------------------------------------------

    def span(self, name: str, cat: str = "host", **args: object) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("pointsto.iter"): ...``."""
        return self._open(name, cat, None, args)

    def site_span(self, name: str, site: str, cat: str = "interp", **args: object) -> _SpanHandle:
        """Open a span that also scopes ``site`` for everything beneath it."""
        self.push_site(site)
        return self._open(name, cat, site, args)

    def _open(self, name: str, cat: str, site: Optional[str], args: Dict[str, object]) -> _SpanHandle:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return _SpanHandle(self, None, site)
        span = Span(
            name,
            cat,
            perf_counter(),
            len(self._stack),
            site if site is not None else self.current_site(),
            len(self.spans),
            self._stack[-1].index if self._stack else -1,
        )
        if args:
            span.args.update(args)
        if self.delta_source is not None:
            span._snap = self.delta_source()
        self.spans.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span, site)

    def _close(self, span: Optional[Span], exc_type) -> None:
        if span is None:
            return
        # Pop everything above (and including) the span; anything above
        # means a child failed to close, which only happens if user code
        # bypassed the context manager -- close those too so the tree
        # stays balanced.
        while self._stack:
            top = self._stack.pop()
            now = perf_counter()
            if top.end is None:
                top.end = now
            if top is span:
                break
        if exc_type is not None:
            span.args["error"] = exc_type.__name__
        if span._snap is not None and self.delta_source is not None:
            after = self.delta_source()
            before = span._snap
            delta = {
                key: round(value - before.get(key, 0.0), 9)
                for key, value in after.items()
                if value != before.get(key, 0.0)
            }
            if delta:
                span.args["kdelta"] = delta
            span._snap = None

    def add_complete(
        self,
        name: str,
        seconds: float,
        cat: str = "host",
        **args: object,
    ) -> Optional[Span]:
        """Record an already-finished region (e.g. a GC pause reported by
        a listener after the sweep) as a leaf span ending now."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        end = perf_counter()
        span = Span(
            name,
            cat,
            end - seconds,
            len(self._stack),
            self.current_site(),
            len(self.spans),
            self._stack[-1].index if self._stack else -1,
        )
        span.end = end
        if args:
            span.args.update(args)
        self.spans.append(span)
        return span

    def finish(self) -> None:
        """Close any spans left open (abandoned via exceptions outside
        the context manager); exporters call this before serialising."""
        now = perf_counter()
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = now

    def export_spans(self) -> List[Dict[str, object]]:
        """The recorded spans as plain dicts.

        Timestamps stay in the raw ``perf_counter`` domain (exporters
        subtract :attr:`t0`).  Open spans are closed first so the
        export always carries balanced trees.
        """
        self.finish()
        out: List[Dict[str, object]] = []
        for span in self.spans:
            d: Dict[str, object] = {
                "name": span.name,
                "cat": span.cat,
                "start": span.start,
                "end": span.end if span.end is not None else span.start,
                "index": span.index,
                "parent": span.parent,
                "depth": span.depth,
            }
            if span.site is not None:
                d["site"] = span.site
            if span.args:
                d["args"] = dict(span.args)
            out.append(d)
        return out

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._sites.clear()
        self.dropped = 0
        self.t0 = perf_counter()
