"""Parallel-engine benchmark: serial semi-naive vs a 4-worker pool.

Runs the points-to analysis from the whole-program demo (javac preset
plus a deep copy chain, the same workload as ``test_seminaive.py``) on
the serial semi-naive engine and on the parallel engine with four
worker processes, and reports wall-clock time plus the wire traffic
(bytes shipped to workers / bytes returned) from
``FixpointEngine.parallel_stats``.

No speedup is asserted — on a workload this small the serialization
and dispatch overhead can dominate, and CI machines vary — but the
solutions must be identical and the pool must stay healthy (no
retries burned, no restarts, no serial fallback).

A second test pins the wire-format acceptance criterion: the binary
diagram encoding of the solved points-to relation must be at least 3x
smaller than the text encoding.
"""

import time

import pytest

from repro.analyses import AnalysisUniverse, PointsTo
from repro.relations import ExecutionPolicy
from repro.bdd.io import dumps_diagram, dumps_diagram_binary

from benchmarks.chain import chained_facts

#: Length of the copy chain appended to the javac preset.
CHAIN_DEPTH = 80


@pytest.fixture(scope="module")
def facts():
    return chained_facts("javac", CHAIN_DEPTH)


def timed_solve(facts, engine, workers=None):
    """(wall seconds, solver) for one points-to run on a fresh universe."""
    au = AnalysisUniverse(facts)
    solver = PointsTo(
        au, policy=ExecutionPolicy(engine=engine, workers=workers)
    )
    t0 = time.perf_counter()
    solver.solve()
    return time.perf_counter() - t0, solver


def test_serial_vs_four_workers(facts):
    serial_s, serial = timed_solve(facts, "seminaive")
    parallel_s, parallel = timed_solve(facts, "parallel", workers=4)

    def tuples(rel):
        return set(rel.tuples())

    assert tuples(parallel.pt) == tuples(serial.pt)
    assert tuples(parallel.hpt) == tuples(serial.hpt)

    ps = parallel.fixpoint.parallel_stats
    assert ps is not None and not ps["broken"]
    assert ps["retries"] == 0 and ps["restarts"] == 0
    assert ps["serial_fallback_tasks"] == 0

    print("\npoints-to, javac preset + copy chain "
          f"({parallel.pt.size()} pt pairs)")
    print(f"  {'engine':>12s} {'wall':>9s} {'tasks':>6s} "
          f"{'bytes out':>10s} {'bytes back':>10s}")
    print(f"  {'seminaive':>12s} {serial_s:8.3f}s {'-':>6s} "
          f"{'-':>10s} {'-':>10s}")
    print(f"  {'parallel x4':>12s} {parallel_s:8.3f}s "
          f"{ps['tasks_dispatched']:6d} {ps['bytes_shipped']:10d} "
          f"{ps['bytes_returned']:10d}")
    print(f"  rounds: {ps['rounds']}, speedup: {serial_s / parallel_s:.2f}x"
          " (not asserted; dispatch overhead dominates small workloads)")


def test_binary_wire_format_at_least_3x_smaller(facts):
    """Acceptance criterion: on the solved points-to diagram the binary
    wire format is >= 3x smaller than the text format."""
    au = AnalysisUniverse(facts)
    solver = PointsTo(au)
    solver.solve()
    manager = au.universe.manager
    text = dumps_diagram(manager, solver.pt.node).encode("utf-8")
    binary = dumps_diagram_binary(manager, solver.pt.node)
    ratio = len(text) / len(binary)
    print(f"\npoints-to diagram ({solver.pt.node_count()} nodes): "
          f"text {len(text)} B, binary {len(binary)} B, {ratio:.2f}x")
    assert len(binary) * 3 <= len(text), (
        f"binary format only {ratio:.2f}x smaller than text, expected >= 3x"
    )
