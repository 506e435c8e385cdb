"""``python -m bench compare BASE.json NEW.json``.

Compares two result files of ``python -m bench run --out`` metric by
metric, one row per workload and metric.  Each end-to-end metric may get
worse by its ``bound`` from ``BENCHMARK.json`` (a share of the base
median) before it counts as a regression; a time must also move by more
than a small absolute floor, because some set-up times are only tens of
milliseconds.  The latency of each kind of op (``KIND_latency_refs``)
is gated with the bound of ``latency_refs``.  A metric whose run-to-run
spread (interquartile range over median, on either side) exceeds its
bound is unresolved rather than passed, unless every new run beats every
base run.  Any rise in the share of failed checks is a regression.

Two files made with another seed, time budget or trace setting measure
different things; compare refuses them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from bench.harness import KIND_SUFFIX, spread

#: Absolute change (by unit) below which a metric never counts as a
#: regression.
FLOOR = {"s": 0.005}

#: Fields of a result file that must agree between the two sides.
SETTINGS = ("seed", "seconds", "trace")


def mismatch(base: dict, new: dict) -> Optional[str]:
    """Why the two result files cannot be compared, or None."""
    for key in SETTINGS:
        if base.get(key) != new.get(key):
            return (f"{key} differs: {base.get(key)!r} in BASE, "
                    f"{new.get(key)!r} in NEW")
    return None


def gated(name: str, spec: dict) -> Optional[dict]:
    """The ``BENCHMARK.json`` entry whose bound gates metric ``name``."""
    entries = {m["name"]: m for m in spec["end_to_end"]}
    if name.endswith(KIND_SUFFIX):
        return dict(entries["latency_refs"], name=name)
    return entries.get(name)


def _by_workload(doc: dict) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for run in doc["runs"]:
        out[run["workload"]].append(run)
    return out


def _entries(runs: List[dict], spec: dict) -> List[dict]:
    """The gated metrics of a workload: those of ``BENCHMARK.json``, then
    the per-kind latencies any of its runs reported."""
    kinds = sorted({k for r in runs for k in r["metrics"]
                    if k.endswith(KIND_SUFFIX)})
    return spec["end_to_end"] + [gated(k, spec) for k in kinds]


def compare(base: dict, new: dict, spec: dict) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, base, new, change, spread, bound,
    status)`` and whether any row is a regression."""
    rows: List[tuple] = []
    regressed = False
    b_runs, n_runs = _by_workload(base), _by_workload(new)
    for wl in sorted(set(b_runs) | set(n_runs)):
        if wl not in b_runs or wl not in n_runs:
            rows.append((wl, "*", None, None, None, None, None, "MISSING"))
            regressed = True
            continue
        for m in _entries(b_runs[wl] + n_runs[wl], spec):
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for r in b_runs[wl]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in n_runs[wl]
                 if name in r["metrics"]]
            if len(b) < len(b_runs[wl]) or len(n) < len(n_runs[wl]):
                rows.append((wl, name, None, None, None, None, None,
                             "MISSING"))
                regressed = True
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            lower = m["better"] == "lower"
            worse = (mn - mb) if lower else (mb - mn)
            change = worse / mb if mb else 0.0
            noise = max(spread(b), spread(n))
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            moved = abs(mn - mb) > FLOOR.get(m["unit"], 0.0)
            if noise > bound:
                status = "better" if all_better and moved else "unresolved"
            elif change > bound and moved:
                status = "REGRESSION"
                regressed = True
            elif change < -bound and moved:
                status = "better"
            else:
                status = "ok"
            rows.append((wl, name, mb, mn, change, noise, bound, status))
        eb = _error_rate(b_runs[wl])
        en = _error_rate(n_runs[wl])
        status = "REGRESSION" if en > eb else "ok"
        regressed |= en > eb
        rows.append((wl, "error_rate", eb, en, en - eb, 0.0, 0.0, status))
    return rows, regressed


def _error_rate(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def format_rows(rows: List[tuple]) -> str:
    lines = [f"{'workload':16s} {'metric':40s} {'base':>12s} {'new':>12s} "
             f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  status"]
    for wl, name, b, n, change, noise, bound, status in rows:
        if b is None:
            lines.append(f"{wl:16s} {name:40s} {'':>12s} {'':>12s} "
                         f"{'':>9s} {'':>7s} {'':>6s}  {status}")
            continue
        lines.append(
            f"{wl:16s} {name:40s} {b:12.4g} {n:12.4g} {change:+9.1%} "
            f"{noise:7.1%} {bound:6.0%}  {status}"
        )
    return "\n".join(lines)
