"""The measurement loop shared by every workload.

A run sets the workload up several times (``setup_s`` is the median),
then runs rounds until its time budget is spent: a round starts only if
the previous round's duration still fits, so a run ends within
``--seconds`` plus set-up and checking.  With tracing on, the first half
of the budget runs untraced and the second half traced, so the traced
run also measures its own overhead.  End-to-end metrics always come from
the untraced rounds.  ``peak_rss_mb`` is the ``VmHWM`` of the process
doing the work over the untraced rounds after the first, which alone
decodes results and builds the oracles that check them.

Before each round the run also times :func:`reference_s`, a fixed loop
that no change to the program touches.  The shared machines this runs on
change speed by tens of percent over minutes, with their neighbours'
load, so the gated latencies are in units of the reference time, next
to the raw milliseconds.  Both are taken with the workload's statistic
(:meth:`bench.workloads.Workload.stat`): the mean of the faster half of
the repetitions where every round repeats the same operations, the
median where the operations are a stream of differing requests.
Interference comes in bursts of seconds, which a repeated operation of
seconds cannot outlast, while a stream of millisecond requests has most
of them outside any burst.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from bench.trace import INCLUSIVE, KERNEL_OPS, LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch directory for files a run writes (CSV facts, Chrome traces).
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Suffix of the per-kind latencies, ``KIND_latency_refs``, that a
#: workload with several kinds of op reports beside ``latency_refs``.
KIND_SUFFIX = "_latency_refs"


def load_spec() -> dict:
    """``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values: List[float]) -> Optional[float]:
    """The 90th percentile, or None unless at least ten samples lie
    beyond it."""
    if len(values) < 100:
        return None
    cut = statistics.quantiles(values, n=10)[8]
    return cut if sum(v > cut for v in values) >= 10 else None


#: Reference loops timed before each round.
REFS_PER_ROUND = 3


def reference_s() -> float:
    """Seconds for a fixed hash-consing loop (about 25 ms): the yardstick
    of the host's current speed.  It does what the kernel does most,
    probing and filling a dict keyed on small tuples, over a working set
    of a few megabytes."""
    start = perf_counter()
    table: Dict[tuple, int] = {}
    nodes = [(0, 0, 0), (0, 1, 1)]
    x = 1
    for i in range(60_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        n = len(nodes)
        key = (i % 61, x % n, (x >> 16) % n)
        if key not in table:
            table[key] = n
            nodes.append(key)
    return perf_counter() - start


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


# ----------------------------------------------------------------------
# What a round reports
# ----------------------------------------------------------------------


class Ctx:
    """Timed operations and correctness checks of one phase of a run."""

    def __init__(self) -> None:
        #: op kind -> seconds per operation of the system under test
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: op kind -> seconds per operation of a baseline (not a user op)
        self.baseline: Dict[str, List[float]] = defaultdict(list)
        #: seconds of each :func:`reference_s` taken during the phase
        self.refs: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Time one user-visible operation of ``kind``."""
        start = perf_counter()
        yield
        self.samples[kind].append(perf_counter() - start)

    @contextmanager
    def base(self, kind: str) -> Iterator[None]:
        """Time one baseline operation (excluded from the user metrics)."""
        start = perf_counter()
        yield
        self.baseline[kind].append(perf_counter() - start)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def latencies(self, stat) -> Dict[str, float]:
        """Each kind's latency in reference units, both taken with
        ``stat``."""
        ref = stat(self.refs)
        return {kind: stat(v) / ref for kind, v in sorted(self.samples.items())}

    def latency(self, stat) -> float:
        """Geometric mean over op kinds of :meth:`latencies`."""
        return geomean(list(self.latencies(stat).values()))

    def p50(self) -> float:
        """Geometric mean over op kinds of each kind's median (seconds)."""
        return geomean([statistics.median(v) for v in self.samples.values()])

    def n(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def seconds(self) -> float:
        return sum(sum(v) for v in self.samples.values())


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def reset_peak_rss(pid) -> None:
    """Restart the peak resident set (``VmHWM``) of process ``pid`` (or
    ``"self"``) from its current resident set."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb(pid) -> float:
    """``VmHWM`` of process ``pid`` (or ``"self"``), in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _rounds(workload, ctx: Ctx, budget: float, rounds: Optional[int],
            tracer: Optional[Tracer], reset_peak: bool = False) -> None:
    """Rounds until ``budget`` is spent (or ``rounds`` of them).  With
    ``reset_peak`` the worker's peak RSS restarts after the first round,
    which alone decodes results and builds the oracles to check them."""
    start = perf_counter()
    last = 0.0
    done = 0
    while rounds is None or done < rounds:
        if rounds is None and done and perf_counter() - start + last > budget:
            break
        gc.collect()
        if reset_peak and done == 1:
            reset_peak_rss(workload.pid())
        ctx.refs.extend(reference_s() for _ in range(REFS_PER_ROUND))
        began = perf_counter()
        with tracer.round() if tracer is not None else nullcontext():
            counters = workload.round(ctx)
        last = perf_counter() - began
        if tracer is not None and counters and not tracer.counters:
            tracer.counters = counters
        done += 1


def measure(workload, seconds: float, trace: bool,
            rounds: Optional[int] = None) -> dict:
    """Run ``workload`` and return its result document.

    ``rounds`` fixes the number of rounds per phase instead of the time
    budget (the tests use it for exactly repeatable runs).
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_s = []
    try:
        for _ in range(workload.SETUPS):
            workload.teardown()
            gc.collect()
            start = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - start)
        plain = Ctx()
        budget = seconds / 2 if trace else seconds
        _rounds(workload, plain, budget, rounds, None, reset_peak=True)
        peak = peak_rss_mb(workload.pid())
        traced = tracer = None
        if trace:
            traced = Ctx()
            tracer = workload.tracer()
            with tracer.phase():
                _rounds(workload, traced, budget, rounds, tracer)
            traced.check(not tracer.trace_problems,
                         f"Chrome trace invalid: {tracer.trace_problems}")
            traced.check(tracer.fold_error() <= 0.05,
                         "layer self times do not add up to the traced "
                         f"wall time ({tracer.fold_error():.1%} off)")
            traced.check(tracer.dropped == 0,
                         f"{tracer.dropped} trace spans dropped")
        workload.finish(traced or plain)
    finally:
        workload.teardown()
    return _result(workload, seconds, setup_s, peak, plain, traced, tracer)


def _result(workload, seconds, setup_s, peak: float, plain: Ctx,
            traced: Optional[Ctx], tracer: Optional[Tracer]) -> dict:
    ctxs = [plain] + ([traced] if traced is not None else [])
    doc = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(traced is not None),
        "attempted": sum(c.attempted for c in ctxs),
        "failed": sum(c.failed for c in ctxs),
        "errors": [e for c in ctxs for e in c.errors],
        "metrics": {
            "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
            "peak_rss_mb": metric(peak, "MB", 1),
            "latency_refs": metric(plain.latency(workload.stat), "refs",
                                   plain.n()),
        },
        "detail": {
            "p50_ms": metric(plain.p50() * 1e3, "ms", plain.n()),
            "ops_per_s": metric(plain.n() / plain.seconds(), "1/s",
                                plain.n()),
            "ref_ms": metric(statistics.median(plain.refs) * 1e3, "ms",
                             len(plain.refs)),
            **workload.detail(plain),
        },
    }
    if len(plain.samples) > 1:
        # compare gates each kind with the bound of latency_refs, so that
        # a gain for one kind of op cannot hide a loss for another
        for kind, value in plain.latencies(workload.stat).items():
            doc["metrics"][kind + KIND_SUFFIX] = metric(
                value, "refs", len(plain.samples[kind]))
    if traced is not None:
        doc["layers"], doc["table"] = _layers(workload, plain, traced, tracer)
    return doc


def metric(value: float, unit: str, n: int) -> dict:
    """A reported value with its unit and sample count."""
    return {"value": value, "unit": unit, "n": n}


def _layers(workload, plain: Ctx, traced: Ctx, tracer: Tracer):
    """The per-layer metrics and the per-layer table of a traced run."""
    wall = tracer.wall
    rounds = tracer.rounds
    pct = 100.0 / wall
    layers: Dict[str, float] = {}
    for layer in LAYERS:
        layers[f"{layer}.self_pct"] = tracer.layers.get(layer, 0.0) * pct
    for name, metric in INCLUSIVE.items():
        layers[metric] = tracer.inclusive.get(name, 0.0) * pct
    counters = dict(tracer.counters)
    layers["bdd.gc_pct"] = counters.pop("bdd.gc_s", 0.0) * rounds * pct
    layers["trace.round_s"] = wall / rounds
    layers["trace_overhead"] = (
        traced.latency(workload.stat) / plain.latency(workload.stat) - 1.0)
    layers["analyses.synthesize_s"] = statistics.median(workload.synthesize_s)
    counts = tracer.counts
    layers["relations.calls"] = counts["relations.calls"] / rounds
    layers["planner.plans"] = counts["planner.plans"] / rounds
    layers["planner.hit_rate"] = (
        1.0 - counts["planner.built"] / counts["planner.plans"]
        if counts["planner.plans"] else 0.0
    )
    layers["fixpoint.iterations"] = counts["fixpoint.iterations"] / rounds
    for op in KERNEL_OPS:
        hits = counters.get(f"bdd.{op}.hits", 0.0)
        misses = counters.get(f"bdd.{op}.misses", 0.0)
        counters[f"bdd.{op}.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    layers.update(counters)
    layers.update(workload.layer_extras(plain, traced))
    for m in load_spec()["per_layer"]:
        # a layer this workload never enters reports zero
        layers.setdefault(m["name"], 0.0)
    table = {
        "rounds": rounds,
        "wall_s_per_round": wall / rounds,
        "fold_error_pct": tracer.fold_error() * 100,
        "dropped_spans": tracer.dropped,
        "self_s_per_round": {
            layer: tracer.layers.get(layer, 0.0) / rounds for layer in LAYERS
        },
    }
    return layers, table
