"""Browsable HTML profile views (section 4.3).

The paper serves profiler views through CGI scripts and a web server;
this reproduction generates the same three view levels as static HTML:

1. ``index.html`` -- the overall profile: for each relational operation,
   the number of executions, total time, and maximum BDD size;
2. ``op_<name>.html`` -- a line per execution of one operation;
3. ``shape_<id>.html`` -- a graphical (inline-SVG bar chart) rendering
   of the shape of one execution's result BDD, node count per level.

When the database also holds telemetry spans (``sql.save_spans``), a
fourth view is rendered: ``sites.html``, the per-site kernel breakdown
-- for each program point, which BDD/ZDD kernel operations ran under it
and for how long.  This is the drill-down the paper's profiler motivates
(from a slow statement to the diagram behaviour that made it slow).

Everything is plain files viewable in any HTML browser, as the paper
intends.
"""

from __future__ import annotations

import html
import os
from typing import List

from repro.profiler import sql

__all__ = ["generate_report"]

_STYLE = """
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: right; }
th { background: #eee; }
td.op, th.op { text-align: left; }
"""


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_STYLE}</style></head>"
        f"<body><h1>{html.escape(title)}</h1>{body}</body></html>"
    )


def _shape_svg(shape: List[int]) -> str:
    """Inline SVG bar chart: one horizontal bar per BDD level."""
    if not shape:
        return "<p>(empty diagram)</p>"
    peak = max(max(shape), 1)
    bar_h = 12
    width = 500
    rows = []
    for level, nodes in enumerate(shape):
        w = int(width * nodes / peak)
        y = level * (bar_h + 2)
        rows.append(
            f"<rect x='0' y='{y}' width='{max(w, 1)}' height='{bar_h}' "
            "fill='#4477aa'/>"
            f"<text x='{max(w, 1) + 5}' y='{y + bar_h - 2}' "
            f"font-size='10'>level {level}: {nodes}</text>"
        )
    height = len(shape) * (bar_h + 2)
    return (
        f"<svg width='{width + 150}' height='{height}' "
        "xmlns='http://www.w3.org/2000/svg'>" + "".join(rows) + "</svg>"
    )


def _write_sites_page(db_path: str, out_dir: str) -> None:
    """Render ``sites.html``: per program point, the kernel operations
    executed under it (name, count, total time) from telemetry spans."""
    sites = sql.load_sites(db_path)
    breakdown = sql.load_site_kernel_breakdown(db_path)
    by_site: dict = {}
    for site, name, count, seconds in breakdown:
        by_site.setdefault(site, []).append((name, count, seconds))
    sections = []
    for site, count, seconds in sites:
        rows = [
            "<tr><th class='op'>kernel op</th><th>calls</th>"
            "<th>total time (s)</th></tr>"
        ]
        for name, n, t in by_site.get(site, []):
            rows.append(
                f"<tr><td class='op'>{html.escape(name)}</td>"
                f"<td>{n}</td><td>{t:.6f}</td></tr>"
            )
        sections.append(
            f"<h2>{html.escape(site)} &mdash; {count} kernel calls, "
            f"{seconds:.6f}s</h2><table>{''.join(rows)}</table>"
        )
    anonymous = by_site.get("", [])
    if anonymous:
        rows = [
            "<tr><th class='op'>kernel op</th><th>calls</th>"
            "<th>total time (s)</th></tr>"
        ]
        for name, n, t in anonymous:
            rows.append(
                f"<tr><td class='op'>{html.escape(name)}</td>"
                f"<td>{n}</td><td>{t:.6f}</td></tr>"
            )
        sections.append(
            f"<h2>(no program point)</h2><table>{''.join(rows)}</table>"
        )
    sections.extend(_plan_sections(db_path))
    body = (
        "".join(sections) or "<p>(no kernel spans recorded)</p>"
    ) + "<p><a href='index.html'>back</a></p>"
    with open(os.path.join(out_dir, "sites.html"), "w") as f:
        f.write(_page("Per-site kernel breakdown", body))


def _plan_sections(db_path: str) -> List[str]:
    """The planner view on ``sites.html``: per program point, the plan
    the query planner chose (join order, estimated vs actual node
    counts, estimate error), plus advisor hints for the sites whose
    actuals diverged at least 10x from the cost model."""
    plans = sql.load_plans(db_path)
    if not plans:
        return []
    rows = [
        "<tr><th class='op'>site</th><th class='op'>plan</th>"
        "<th class='op'>join order</th><th>runs</th>"
        "<th>est nodes</th><th>actual nodes</th><th>error</th></tr>"
    ]
    grouped: dict = {}
    for plan in plans:
        key = (plan["site"], plan["label"], tuple(plan["order"]))
        grouped.setdefault(key, []).append(plan)
    for (site, label, order), runs in sorted(grouped.items()):
        worst = max(
            runs, key=lambda p: p["estimate_error"] or 0.0
        )
        parts = worst["parts"]
        order_text = " > ".join(
            parts[i] if i < len(parts) else f"part {i}" for i in order
        )
        error = worst["estimate_error"]
        error_text = f"x{error:.1f}" if error is not None else "-"
        if error is not None and error >= 10.0:
            error_text = f"<b>{error_text} &#9888;</b>"
        rows.append(
            f"<tr><td class='op'>{html.escape(site or '(none)')}</td>"
            f"<td class='op'>{html.escape(label) if label else '&lt;product&gt;'}</td>"
            f"<td class='op'>{html.escape(order_text)}</td>"
            f"<td>{len(runs)}</td><td>{worst['est_nodes']:.0f}</td>"
            f"<td>{worst['actual_nodes']:.0f}</td>"
            f"<td>{error_text}</td></tr>"
        )
    sections = [f"<h2>Chosen query plans</h2><table>{''.join(rows)}</table>"]
    from repro.profiler.advisor import plan_hints

    hints = plan_hints(plans)
    if hints:
        items = "".join(f"<li>{html.escape(h)}</li>" for h in hints)
        sections.append(
            "<h2>Planner hints</h2>"
            f"<ul class='hints'>{items}</ul>"
        )
    return sections


def generate_report(db_path: str, out_dir: str) -> str:
    """Render all views; returns the path of the overview page."""
    os.makedirs(out_dir, exist_ok=True)
    summary = sql.load_summary(db_path)
    # Overview.
    rows = [
        "<tr><th class='op'>operation</th><th>executions</th>"
        "<th>total time (s)</th><th>max BDD nodes</th></tr>"
    ]
    for op, count, seconds, max_nodes in summary:
        rows.append(
            f"<tr><td class='op'><a href='op_{op}.html'>{html.escape(op)}"
            f"</a></td><td>{count}</td><td>{seconds:.6f}</td>"
            f"<td>{max_nodes}</td></tr>"
        )
    index_path = os.path.join(out_dir, "index.html")
    extra = ""
    if sql.has_spans(db_path):
        _write_sites_page(db_path, out_dir)
        extra = "<p><a href='sites.html'>per-site kernel breakdown</a></p>"
    with open(index_path, "w") as f:
        f.write(
            _page(
                "Jedd profile: overview",
                f"<table>{''.join(rows)}</table>{extra}",
            )
        )
    # Per-operation pages.
    for op, _, _, _ in summary:
        executions = sql.load_executions(db_path, op)
        rows = [
            "<tr><th>#</th><th>time (s)</th><th>operand nodes</th>"
            "<th>result nodes</th><th>result tuples</th><th>shape</th></tr>"
        ]
        for exec_id, seconds, operands, nodes, tuples_ in executions:
            shape = sql.load_shape(db_path, exec_id)
            link = (
                f"<a href='shape_{exec_id}.html'>view</a>" if shape else "-"
            )
            rows.append(
                f"<tr><td>{exec_id}</td><td>{seconds:.6f}</td>"
                f"<td>{html.escape(operands)}</td><td>{nodes}</td>"
                f"<td>{tuples_}</td><td>{link}</td></tr>"
            )
            if shape:
                with open(
                    os.path.join(out_dir, f"shape_{exec_id}.html"), "w"
                ) as f:
                    f.write(
                        _page(
                            f"Shape of {op} execution {exec_id}",
                            _shape_svg(shape)
                            + "<p><a href='index.html'>back</a></p>",
                        )
                    )
        with open(os.path.join(out_dir, f"op_{op}.html"), "w") as f:
            f.write(
                _page(
                    f"Executions of {op}",
                    f"<table>{''.join(rows)}</table>"
                    "<p><a href='index.html'>back</a></p>",
                )
            )
    return index_path
