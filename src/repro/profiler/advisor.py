"""Tuning hints from executed query plans (section 4.3).

Section 4.3 motivates the profiler with the tuning loop: find the
expensive operations, then adjust the physical domain assignment and
the relative bit ordering.  :func:`plan_hints` points that loop at the
program points whose query plans were chosen on cost estimates that
did not describe the data.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["plan_hints"]


def plan_hints(
    plans: Iterable[dict], threshold: float = 10.0
) -> List[str]:
    """Flag program points where the planner's cost model diverged.

    ``plans`` are executed-plan dicts (see
    :func:`repro.profiler.sql.load_plans`).  For each (site, label) the
    worst observed estimate error is kept; sites at or above
    ``threshold`` (default 10x) get a hint — a big divergence means the
    join order was chosen on numbers that did not describe this data,
    so the site is worth re-profiling or re-assigning, exactly the
    tuning loop of section 4.3.
    """
    worst: Dict[Tuple[str, str], dict] = {}
    for plan in plans:
        error = plan.get("estimate_error")
        if error is None:
            continue
        key = (plan.get("site") or "", plan.get("label") or "")
        current = worst.get(key)
        if current is None or error > current["estimate_error"]:
            worst[key] = plan
    hints: List[str] = []
    for (site, label), plan in sorted(worst.items()):
        error = plan["estimate_error"]
        if error < threshold:
            continue
        where = site or label or "<unknown site>"
        direction = (
            "over"
            if plan["est_nodes"] >= plan["actual_nodes"]
            else "under"
        )
        hints.append(
            f"{where}: cost model {direction}estimates this plan by "
            f"x{error:.0f} (est {plan['est_nodes']:.0f} nodes, actual "
            f"{plan['actual_nodes']:.0f}); the chosen join order may be "
            "off -- re-run EXPLAIN after loading representative data, "
            "or revisit the site's physical domain assignment"
        )
    return hints
