"""``python -m repro.telemetry FILE [...]`` -- validate exported telemetry.

Files ending in ``.prom`` are checked as Prometheus text exposition
(:func:`~repro.telemetry.exposition.check_exposition`); every other file
as Chrome trace-event JSON
(:func:`~repro.telemetry.export.validate_chrome_trace`).  Problems are
printed and the exit status is non-zero if any file fails.

The validator lives in the package's ``__main__`` rather than in the
exporter modules themselves: the package imports those modules, so
running one of them with ``-m`` would execute it a second time.
"""

from __future__ import annotations

import json
import sys
from typing import List, Sequence, Tuple

from repro.telemetry.export import validate_chrome_trace
from repro.telemetry.exposition import check_exposition


def _check(path: str, text: str) -> Tuple[List[str], str]:
    """Problems found in one file, and a summary line for a clean one."""
    if path.endswith(".prom"):
        samples = sum(
            1 for ln in text.splitlines() if ln and not ln.startswith("#")
        )
        return check_exposition(text), f"{samples} samples"
    doc = json.loads(text)
    problems = validate_chrome_trace(doc)
    if problems:
        return problems, ""
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    n_b = sum(1 for e in events if e.get("ph") == "B")
    return [], f"{len(events)} events, {n_b} balanced B/E pairs"


def _main(argv: Sequence[str]) -> int:
    if not argv:
        print("usage: python -m repro.telemetry FILE [FILE ...]")
        return 2
    status = 0
    for path in argv:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                problems, summary = _check(path, fh.read())
        except (OSError, ValueError) as err:
            print(f"{path}: unreadable: {err}")
            status = 1
            continue
        if problems:
            status = 1
            print(f"{path}: INVALID ({len(problems)} problems)")
            for problem in problems[:20]:
                print(f"  - {problem}")
        else:
            print(f"{path}: OK ({summary})")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main(sys.argv[1:]))
