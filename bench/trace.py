"""Layer-by-layer accounting of a traced benchmark round.

A traced round runs under the existing ``repro.telemetry`` session.  The
program already reports spans for its relational operations (cat
``relation``), kernel calls (``kernel``), fixpoint rounds (``fixpoint``,
``incremental``), executed query plans (``planner``) and SAT solves
(``sat``).  The benchmark adds spans of its own around each call into a
layer that reports none: the analysis entry points and jeddc passes it
calls itself, and, through :func:`layer_spans`, ``Relation.from_tuples``
and the planner's ``Planner.product_plan`` / ``Planner.rule_plan``.

:func:`self_times` folds the spans into self time per layer: every
instant of a round belongs to the innermost span covering it, so the
layers' self times add up to the round's wall time.
"""

from __future__ import annotations

import functools
import heapq
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry import validate_chrome_trace

#: Span category -> layer (named after the module that owns the code).
LAYER_OF_CAT = {
    "bench": "bench",
    "analyses": "analyses",
    "lowlevel": "lowlevel",
    "relation": "relations",
    "parallel": "relations",
    "planner": "planner",
    "fixpoint": "fixpoint",
    "incremental": "incremental",
    "kernel": "bdd",
    "gc": "bdd",
    "jedd": "jedd",
    "interp": "jedd",
    "sat": "sat",
    "service": "service",
}

#: Every layer, in stack order (harness first, kernel last).
LAYERS = (
    "bench", "service", "jedd", "sat", "analyses", "lowlevel",
    "relations", "planner", "fixpoint", "incremental", "bdd",
)

#: Span names whose inclusive time the per-layer metrics report.
INCLUSIVE = {
    "analyses.universe": "analyses.universe_pct",
    "relation.encode": "relations.encode_pct",
    "planner.plan": "planner.plan_pct",
    "lowlevel.solve": "lowlevel.solve_pct",
    "fixpoint.solve": "fixpoint.solve_pct",
    "jedd.parse": "jedd.parse_pct",
    "jedd.typecheck": "jedd.typecheck_pct",
    "jedd.liveness": "jedd.liveness_pct",
    "jedd.constraints": "jedd.constraints_pct",
    "jedd.assign": "jedd.assign_pct",
    "jedd.codegen": "jedd.codegen_pct",
}

#: Spans kept per traced round; a round that records more drops the rest
#: (counted in ``Tracer.dropped``) rather than growing without bound.
MAX_SPANS = 400_000

Span = Tuple[float, float, str, str]  # (start, end, name, cat)


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer of ``spans``.

    Each instant covered by at least one span is credited to the
    innermost span covering it: the one that started last (ties go to
    the later-recorded span, which the tracer opens inside the earlier
    one).  For properly nested spans this is a span's duration minus
    the part of it its children cover; spans recorded after the fact
    (``add_complete``) that enclose earlier siblings fold correctly too.
    """
    events: List[Tuple[float, int, int]] = []
    for i, (start, end, _name, _cat) in enumerate(spans):
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()
    out: Dict[str, float] = defaultdict(float)
    active: List[Tuple[float, int]] = []
    ended = [False] * len(spans)
    prev = 0.0
    for t, is_start, i in events:
        while active and ended[-active[0][1]]:
            heapq.heappop(active)
        if active and t > prev:
            cat = spans[-active[0][1]][3]
            out[LAYER_OF_CAT.get(cat, cat)] += t - prev
        prev = t
        if is_start:
            heapq.heappush(active, (-spans[i][0], -i))
        else:
            ended[i] = True
    return dict(out)


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def inclusive_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Wall time covered by each span name listed in :data:`INCLUSIVE`."""
    by_name: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for start, end, name, _cat in spans:
        if name in INCLUSIVE:
            by_name[name].append((start, end))
    return {name: covered(iv) for name, iv in by_name.items()}


def chrome_spans(doc: dict) -> List[Span]:
    """The spans of a Chrome trace written by ``repro.telemetry``,
    rebuilt from its balanced ``B``/``E`` pairs (seconds)."""
    stacks: Dict[tuple, List[dict]] = defaultdict(list)
    out: List[Span] = []
    for ev in doc.get("traceEvents", ()):
        ph = ev.get("ph")
        track = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks[track].append(ev)
        elif ph == "E" and stacks[track]:
            begin = stacks[track].pop()
            out.append((begin["ts"] / 1e6, ev["ts"] / 1e6,
                        begin["name"], begin.get("cat", "")))
    return out


def check_chrome_trace(path: str) -> List[str]:
    """Problems ``validate_chrome_trace`` finds in the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_chrome_trace(json.load(fh))


@contextmanager
def layer_spans(tracer, counts: Counter) -> Iterator[None]:
    """Open a span around the layer entry points that report none.

    ``Relation.from_tuples`` (fact encoding, cat ``relation``) and the
    planner's plan lookups (cat ``planner``) are wrapped for the
    duration of the block; ``counts`` receives ``planner.plans`` (plan
    lookups) and ``planner.built`` (lookups that missed the plan cache).
    """
    from repro.relations import Relation
    from repro.relations.ir import Planner

    from_tuples = Relation.__dict__["from_tuples"]
    product_plan = Planner.__dict__["product_plan"]
    rule_plan = Planner.__dict__["rule_plan"]

    def encode(cls, *args, **kwargs):
        with tracer.span("relation.encode", "relation"):
            return from_tuples.__func__(cls, *args, **kwargs)

    def planned(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            misses = self.misses
            with tracer.span("planner.plan", "planner"):
                plan = fn(self, *args, **kwargs)
            counts["planner.plans"] += 1
            counts["planner.built"] += self.misses - misses
            return plan

        return wrapper

    Relation.from_tuples = classmethod(encode)
    Planner.product_plan = planned(product_plan)
    Planner.rule_plan = planned(rule_plan)
    try:
        yield
    finally:
        Relation.from_tuples = from_tuples
        Planner.product_plan = product_plan
        Planner.rule_plan = rule_plan


class Tracer:
    """Per-layer totals over the traced rounds of one run.

    In-process workloads use it as is: :meth:`phase` enables the
    telemetry session and the entry-point spans, :meth:`round` wraps one
    round in a ``bench.round`` span and folds the round's spans.  The
    service workload feeds :meth:`add_spans` from the server's trace.
    """

    def __init__(self, trace_path: Optional[str] = None) -> None:
        self.trace_path = trace_path
        self.layers: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: deterministic per-round counters (bdd.*, sat.*, jedd.*, ...)
        self.counters: Dict[str, float] = {}
        self.wall = 0.0
        self.rounds = 0
        self.dropped = 0
        #: problems ``validate_chrome_trace`` found in the written trace
        self.trace_problems: Optional[List[str]] = None

    @contextmanager
    def phase(self) -> Iterator[None]:
        session = telemetry.enable(max_spans=MAX_SPANS, span_deltas=False)
        try:
            with layer_spans(session.tracer, self.counts):
                yield
        finally:
            telemetry.disable()

    @contextmanager
    def round(self) -> Iterator[None]:
        session = telemetry.active()
        start = perf_counter()
        with session.span("bench.round", cat="bench"):
            yield
        self.wall += perf_counter() - start
        self.rounds += 1
        tracer = session.tracer
        self.add_spans(
            [(s.start, s.end, s.name, s.cat)
             for s in tracer.spans if s.end is not None]
        )
        self.dropped += tracer.dropped
        if self.trace_path and self.trace_problems is None:
            session.write_chrome_trace(self.trace_path,
                                       process_name="bench")
            self.trace_problems = check_chrome_trace(self.trace_path)
        session.clear()

    def add_spans(self, spans: Sequence[Span]) -> None:
        for layer, seconds in self_times(spans).items():
            self.layers[layer] += seconds
        for name, seconds in inclusive_times(spans).items():
            self.inclusive[name] += seconds
        for _start, _end, name, cat in spans:
            if cat == "relation":
                self.counts["relations.calls"] += 1
            elif name == "fixpoint.iteration":
                self.counts["fixpoint.iterations"] += 1

    def fold_error(self) -> float:
        """|sum of layer self times - traced wall| as a share of the wall."""
        if not self.wall:
            return 0.0
        return abs(sum(self.layers.values()) - self.wall) / self.wall


# ----------------------------------------------------------------------
# Kernel counters
# ----------------------------------------------------------------------

#: Kernel ops whose cache misses and hit rates are reported.
KERNEL_OPS = ("and", "or", "diff", "and_exist", "replace")


def kernel_counters(manager) -> Dict[str, float]:
    """``bdd.*`` counters of a BDD manager, read from its always-on
    ``stats`` and ``table_stats()``."""
    stats = manager.stats
    out: Dict[str, float] = defaultdict(float)
    out["bdd.peak_live_nodes"] = manager.table_stats()["peak_live_nodes"]
    out["bdd.nodes_created"] = stats.nodes_created
    out["bdd.kernel_work"] = stats.nodes_created + stats.op_totals()[1]
    out["bdd.gc_runs"] = stats.gc_runs
    out["bdd.gc_s"] = stats.gc_seconds
    for op, hits, misses in stats.per_op():
        out[f"bdd.{op}.hits"] += hits
        out[f"bdd.{op}.misses"] += misses
    for op in ("and_exist", "replace"):
        out[f"bdd.{op}.hits"] += getattr(stats, f"{op}_hits")
        out[f"bdd.{op}.misses"] += getattr(stats, f"{op}_misses")
    return dict(out)


def sum_counters(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """:func:`kernel_counters` of several managers, summed (the peak: the
    maximum)."""
    out: Dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            if key == "bdd.peak_live_nodes":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return dict(out)


def service_kernel_counters(metrics: Dict[str, float]) -> Dict[str, float]:
    """The :func:`kernel_counters` view of a service ``metrics`` snapshot
    (cumulative since the manager was created)."""
    out: Dict[str, float] = {}
    out["bdd.peak_live_nodes"] = metrics.get("bdd.table.peak_live_nodes", 0)
    out["bdd.nodes_created"] = metrics.get("bdd.nodes_created", 0)
    out["bdd.gc_runs"] = metrics.get("bdd.gc.runs", 0)
    out["bdd.gc_s"] = metrics.get("bdd.gc.total_seconds", 0)
    misses = 0.0
    for key, value in metrics.items():
        for kind in ("hits", "misses"):
            prefix = f"bdd.apply_cache.{kind}{{op="
            if key.startswith(prefix):
                op = key[len(prefix):].rstrip("}")
                out[f"bdd.{op}.{kind}"] = value
                if kind == "misses":
                    misses += value
    for op in ("and_exist", "replace"):
        out[f"bdd.{op}.hits"] = metrics.get(f"bdd.{op}_cache.hits", 0)
        out[f"bdd.{op}.misses"] = metrics.get(f"bdd.{op}_cache.misses", 0)
    out["bdd.kernel_work"] = out["bdd.nodes_created"] + misses
    return out
