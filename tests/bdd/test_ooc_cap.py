"""Memory-cap enforcement for the out-of-core kernel (tier-1 scale).

The ooc kernel's contract is that ``memory_cap_bytes`` bounds its
*accounted* resident state -- node-table pages, unique-table delta,
operation caches, and in-flight sweep queues -- for the whole solve,
not just at quiet points.  These tests run the smallest whole-program
points-to preset (``javac-s``) under a cap of about a fifth of its
uncapped footprint and watch ``resident_bytes()`` from a sampler
thread throughout; the big-preset version of the same proof (tens of
megabytes, every spill path saturated) lives in
``benchmarks/test_ooc.py``.

The accounting is deterministic (structure sizes times fixed
per-entry estimates, no wall-clock or RSS noise), so the assertions
are exact: peak resident must not exceed the cap at all.
"""

import os
import threading

import pytest

from repro.analyses import AnalysisUniverse, PointsTo, preset
from repro.bdd.io import dumps_diagram_binary
from repro.bdd.ooc import OocBDDManager

#: Uncapped, the javac-s points-to solve holds ~1.8 MB of kernel state
#: resident at its peak; 384 KiB forces unique-table flushes, page
#: eviction, and queue spills while staying fast enough for tier-1.
CAP_BYTES = 384 * 1024


class ResidentWatchdog:
    """Samples ``manager.resident_bytes()`` from a daemon thread while
    a solve runs, recording the high-water mark.  A sample may race a
    structure mutation (same caveat as the telemetry sampler); failed
    samples are retried on the next tick rather than crashing."""

    def __init__(self, manager, interval: float = 0.002) -> None:
        self.manager = manager
        self.interval = interval
        self.peak = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                now = self.manager.resident_bytes()
            except Exception:
                continue
            self.samples += 1
            if now > self.peak:
                self.peak = now

    def __enter__(self) -> "ResidentWatchdog":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stop.set()
        self._thread.join(timeout=5.0)
        return False


def _solve_pointsto(facts, cap_bytes=None):
    env_before = os.environ.get("JEDD_OOC_CAP_BYTES")
    if cap_bytes is not None:
        os.environ["JEDD_OOC_CAP_BYTES"] = str(cap_bytes)
    else:
        os.environ.pop("JEDD_OOC_CAP_BYTES", None)
    try:
        au = AnalysisUniverse(facts, kernel="ooc")
        solver = PointsTo(au, policy="seminaive")
        solver.solve()
        return solver, au.universe.manager
    finally:
        if env_before is None:
            os.environ.pop("JEDD_OOC_CAP_BYTES", None)
        else:
            os.environ["JEDD_OOC_CAP_BYTES"] = env_before


def test_cap_enforced_through_whole_solve():
    facts = preset("javac-s")

    # Uncapped footprint first: proves the cap is genuinely smaller
    # than what the same solve wants to keep resident.
    _, m_free = _solve_pointsto(facts)
    uncapped_peak = m_free.peak_resident_bytes
    assert uncapped_peak > 4 * CAP_BYTES, (
        f"workload too small to prove anything: uncapped peak "
        f"{uncapped_peak} vs cap {CAP_BYTES}"
    )

    au = None
    env_before = os.environ.get("JEDD_OOC_CAP_BYTES")
    os.environ["JEDD_OOC_CAP_BYTES"] = str(CAP_BYTES)
    try:
        au = AnalysisUniverse(facts, kernel="ooc")
        m = au.universe.manager
        solver = PointsTo(au, policy="seminaive")
        with ResidentWatchdog(m) as dog:
            solver.solve()
    finally:
        if env_before is None:
            os.environ.pop("JEDD_OOC_CAP_BYTES", None)
        else:
            os.environ["JEDD_OOC_CAP_BYTES"] = env_before

    prof = m.ooc_profile()
    assert prof["cap_bytes"] == CAP_BYTES
    # Enforcement: neither the manager's own high-water mark nor any
    # concurrent sample ever exceeded the cap.
    assert m.peak_resident_bytes <= CAP_BYTES, (
        f"peak resident {m.peak_resident_bytes} exceeded cap {CAP_BYTES}"
    )
    assert dog.peak <= CAP_BYTES, (
        f"watchdog saw {dog.peak} resident bytes over cap {CAP_BYTES} "
        f"({dog.samples} samples)"
    )
    # The cap was actually *doing* something: every spill mechanism
    # engaged during the solve.
    assert prof["unique_flushes"] > 0
    assert prof["pages_evicted"] > 0
    assert prof["queue_rows_spilled"] > 0
    assert prof["spill_bytes_written"] > 0

    # And capping never changed the answer: bit-identical points-to
    # relation vs the reference kernel.
    au_ref = AnalysisUniverse(facts, kernel="reference")
    ref = PointsTo(au_ref, policy="seminaive")
    ref.solve()
    assert ref.pt.size() == solver.pt.size()
    assert dumps_diagram_binary(
        au_ref.universe.manager, ref.pt.node
    ) == dumps_diagram_binary(m, solver.pt.node)


def test_uncapped_manager_never_touches_disk():
    """Without a cap the kernel must do zero filesystem work -- page
    files, sorted runs, and queue chunks are all lazy."""
    facts = preset("javac-s")
    _, m = _solve_pointsto(facts)
    prof = m.ooc_profile()
    assert prof["cap_bytes"] == 0
    assert prof["pages_evicted"] == 0
    assert prof["unique_flushes"] == 0
    assert prof["queue_rows_spilled"] == 0
    assert prof["spill_bytes_written"] == 0
    assert prof["spill_bytes_read"] == 0
    # The lazy tempdir was never created.
    assert not m._spill_dir_ready


def test_cap_env_knob_and_validation():
    os.environ["JEDD_OOC_CAP_BYTES"] = str(1 << 20)
    try:
        m = OocBDDManager(num_vars=4)
        assert m.memory_cap_bytes == 1 << 20
    finally:
        del os.environ["JEDD_OOC_CAP_BYTES"]
    from repro.bdd import BDDError

    with pytest.raises(BDDError):
        OocBDDManager(num_vars=4, memory_cap_bytes=0)
    with pytest.raises(BDDError):
        OocBDDManager(num_vars=4, memory_cap_bytes=-1)


def test_explicit_spill_dir_is_used(tmp_path):
    """A caller-provided spill directory receives the spill files and
    is left in place (only owned tempdirs are removed)."""
    spill = tmp_path / "spill"
    spill.mkdir()
    m = OocBDDManager(
        num_vars=8, memory_cap_bytes=1, spill_dir=str(spill)
    )
    # Enough distinct nodes to overflow the 64-entry delta floor.
    acc = 1
    for v in range(8):
        acc = m.apply_and(acc, m.var(v))
        m.apply_or(m.var(v), m.var((v + 1) % 8))
        m.apply_xor(m.var(v), acc)
    m._unique.flush()
    assert m.spill_dir == str(spill)
    assert any(spill.iterdir()), "no spill files written"
    m.close()
    assert spill.exists()
