"""Observability overhead guard.

The always-on parts of the observability layer must be close to free:

* the background gauge **sampler** (reading kernel counters, table
  stats, cache occupancy and RSS on a 50ms tick) must keep the serial
  whole-program points-to run within 5% of its bare wall clock;
* with telemetry disabled entirely, the instrumentation points must
  cost nothing measurable.

The fine-grained span wrapping of every relational
operation (what ``--trace`` turns on) is deliberately *not* under this
budget — it is an opt-in diagnosis mode and is priced separately by
the span counts in the trace itself.

Timings are best-of-N to shave scheduler noise, and every assertion
carries a small absolute slack so sub-second runs on loaded CI
machines don't flap.
"""

import time

import pytest

from repro import telemetry
from repro.analyses import AnalysisUniverse, PointsTo
from repro.telemetry.sampler import Sampler
from repro.telemetry.session import Telemetry

from benchmarks.chain import chained_facts

CHAIN_DEPTH = 60
REPEATS = 3
#: Relative budget for the sampler, plus absolute slack.
OVERHEAD = 0.05
SLACK_SECONDS = 0.15


@pytest.fixture(scope="module")
def facts():
    return chained_facts("javac", CHAIN_DEPTH)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _solve(facts, session=None):
    au = AnalysisUniverse(facts)
    if session is not None:
        session.instrument_universe(au.universe)
    solver = PointsTo(au)
    t0 = time.perf_counter()
    solver.solve()
    return time.perf_counter() - t0, solver


def _best(run, repeats=REPEATS):
    times, solver = [], None
    for _ in range(repeats):
        t, solver = run()
        times.append(t)
    return min(times), solver


def test_sampler_overhead_under_budget(facts):
    """A 50ms background sampler: <5% on the serial run."""
    t_bare, bare = _best(lambda: _solve(facts))

    def sampled():
        # A standalone session: gauges are collected but the global
        # per-op span wrappers stay on their NullTelemetry fast path.
        session = Telemetry()
        with Sampler(session, interval=0.05) as sampler:
            result = _solve(facts, session=session)
        assert sampler.samples_taken >= 1
        assert session.metrics_snapshot()["bdd.table.live_nodes"] > 0
        return result

    t_obs, obs = _best(sampled)
    print(f"\nserial+sampler: bare {t_bare:.3f}s sampled {t_obs:.3f}s "
          f"({100.0 * (t_obs - t_bare) / t_bare:+.1f}%)")
    assert set(obs.pt.tuples()) == set(bare.pt.tuples())
    assert t_obs < (1.0 + OVERHEAD) * t_bare + SLACK_SECONDS


def test_disabled_session_is_free(facts):
    """With telemetry off the instrumentation points must cost ~0."""
    t_bare, _ = _best(lambda: _solve(facts))
    # Re-measure the identical bare run: both go through the same
    # NullTelemetry fast path, so the two times may differ only by
    # machine noise.
    t_again, _ = _best(lambda: _solve(facts))
    ratio = max(t_bare, t_again) / max(min(t_bare, t_again), 1e-9)
    print(f"\ndisabled: {t_bare:.3f}s vs {t_again:.3f}s (x{ratio:.3f})")
    assert ratio < 1.0 + OVERHEAD + SLACK_SECONDS / max(t_bare, 1e-9)
