"""Out-of-core kernel: cap-proving points-to benchmark (pointsto-xl).

The tentpole claim for the ooc kernel (:mod:`repro.bdd.ooc`) is about
*space*, not speed: a whole-program points-to solve whose uncapped
kernel state is tens of megabytes must complete under a
``memory_cap_bytes`` a fraction of that, with accounted resident bytes
bounded by the cap for the entire solve, and produce a final relation
bit-identical to the reference kernel's.  This file is the benchmark
version of ``tests/bdd/test_ooc_cap.py``: the ``javac-xl`` preset
under a 2 MiB cap, which saturates all three spill mechanisms --
unique-table sorted-run flushes, node-page eviction, and sweep-queue
chunk spills.

The cap has followed the solve's footprint down.  It was 8 MiB while
facts were encoded one cube-and-union per tuple (~43 MB uncapped).
Bulk encoding shrank the solve so much that at 8 MiB no node page was
ever evicted, so the cap went to 4 MiB (127 evictions measured then).
Later kernel and encoding savings left the solve's pages resident
under 4 MiB too: it peaked at 3.05 MB and evicted no page, and at
3 MiB it evicted only 5.  At 2 MiB it evicts 1,162 pages (peak 1.8 MB
of a 22.6 MB uncapped footprint, 10.8x pressure, 9-13x slower than the
reference kernel on a 2-vCPU VM), so the
test asserts at least ``MIN_PAGES_EVICTED`` evictions: the paged
regime must hold by a margin, not by a handful of pages.  Every other
spill counter must still be non-zero.

The measured numbers are exported as ``ooc_benchmark.json`` (uploaded
by the CI ooc job).
"""

import json
import time

from repro.analyses import AnalysisUniverse, PointsTo, preset
from repro.bdd.io import dumps_diagram_binary
from repro.telemetry.sampler import process_rss_bytes

from tests.bdd.test_ooc_cap import ResidentWatchdog, _solve_pointsto

ARTIFACT = "ooc_benchmark.json"

#: Memory cap for the javac-xl solve (the module docstring says why
#: 2 MiB: it forces every spill mechanism, and 4 MiB evicts no page).
XL_CAP_BYTES = 2 << 20

#: Node-page evictions the capped solve must reach.
MIN_PAGES_EVICTED = 100

#: The cap must undercut the uncapped footprint by at least this
#: factor for the run to prove anything.
MIN_PRESSURE = 2.0


def test_capped_xl_solve_stays_under_cap_and_matches_reference():
    facts = preset("javac-xl")
    cap = XL_CAP_BYTES

    # Reference (in-memory) solve: the correctness oracle.
    t0 = time.perf_counter()
    au_ref = AnalysisUniverse(facts, kernel="reference")
    ref = PointsTo(au_ref, policy="seminaive")
    ref.solve()
    ref_seconds = time.perf_counter() - t0
    wire_ref = dumps_diagram_binary(au_ref.universe.manager, ref.pt.node)

    # Uncapped ooc solve: establishes the footprint the cap undercuts.
    t0 = time.perf_counter()
    _, m_free = _solve_pointsto(facts)
    free_seconds = time.perf_counter() - t0
    uncapped_peak = m_free.peak_resident_bytes
    pressure = uncapped_peak / cap
    assert pressure >= MIN_PRESSURE, (
        f"cap {cap} not under memory pressure: uncapped peak is only "
        f"{uncapped_peak} bytes ({pressure:.2f}x, floor "
        f"{MIN_PRESSURE:.1f}x)"
    )

    # Capped solve with a concurrent resident-bytes watchdog.
    import os

    env_before = os.environ.get("JEDD_OOC_CAP_BYTES")
    os.environ["JEDD_OOC_CAP_BYTES"] = str(cap)
    try:
        t0 = time.perf_counter()
        au = AnalysisUniverse(facts, kernel="ooc")
        m = au.universe.manager
        solver = PointsTo(au, policy="seminaive")
        with ResidentWatchdog(m) as dog:
            solver.solve()
        capped_seconds = time.perf_counter() - t0
    finally:
        if env_before is None:
            os.environ.pop("JEDD_OOC_CAP_BYTES", None)
        else:
            os.environ["JEDD_OOC_CAP_BYTES"] = env_before

    prof = m.ooc_profile()

    # Space: the accounted kernel state never exceeded the cap, at the
    # manager's own high-water mark or at any watchdog sample.
    assert m.peak_resident_bytes <= cap, (
        f"peak resident {m.peak_resident_bytes} exceeded cap {cap}"
    )
    assert dog.peak <= cap, (
        f"watchdog saw {dog.peak} resident bytes over cap {cap} "
        f"({dog.samples} samples)"
    )
    # The solve genuinely went out of core on every axis.
    assert prof["unique_flushes"] > 0
    assert prof["pages_evicted"] >= MIN_PAGES_EVICTED, (
        f"only {prof['pages_evicted']} page evictions under cap {cap}"
    )
    assert prof["queue_rows_spilled"] > 0
    assert prof["spill_bytes_written"] > 0

    # Correctness: same tuple count, bit-identical canonical diagram.
    assert ref.pt.size() == solver.pt.size()
    wire_ooc = dumps_diagram_binary(m, solver.pt.node)
    assert wire_ooc == wire_ref, (
        "capped ooc solve disagrees with the reference kernel on the "
        "canonical points-to diagram"
    )

    slowdown = capped_seconds / ref_seconds
    print(
        f"\npointsto-xl ({facts.counts()['variables']} vars, "
        f"pt={ref.pt.size()} tuples)"
    )
    print(f"  reference (uncapped):  {ref_seconds:8.2f}s")
    print(f"  ooc (uncapped):        {free_seconds:8.2f}s  "
          f"peak {uncapped_peak / 1e6:.1f} MB")
    print(f"  ooc (cap {cap >> 20} MiB):      {capped_seconds:8.2f}s  "
          f"peak {m.peak_resident_bytes / 1e6:.1f} MB "
          f"({pressure:.1f}x pressure, {slowdown:.1f}x slowdown)")
    print(f"  spilled: {prof['spill_bytes_written']:,}B written, "
          f"{prof['unique_flushes']} flushes, "
          f"{prof['pages_evicted']} page evictions, "
          f"{prof['queue_rows_spilled']} queue rows")

    rss = process_rss_bytes()
    with open(ARTIFACT, "w") as fp:
        json.dump(
            {
                "preset": "javac-xl",
                "pt_tuples": ref.pt.size(),
                "cap_bytes": cap,
                "uncapped_peak_resident_bytes": uncapped_peak,
                "capped_peak_resident_bytes": m.peak_resident_bytes,
                "watchdog_peak_bytes": dog.peak,
                "watchdog_samples": dog.samples,
                "pressure": pressure,
                "reference_seconds": ref_seconds,
                "ooc_uncapped_seconds": free_seconds,
                "ooc_capped_seconds": capped_seconds,
                "slowdown_vs_reference": slowdown,
                "wire_identical": True,
                "process_rss_bytes": rss,
                "profile": {k: v for k, v in sorted(prof.items())},
            },
            fp,
            indent=2,
        )
