"""SQL persistence of profile data (section 4.3).

The paper writes profile information "as an SQL file to be loaded into
a database, which provides a flexible data store on which arbitrary
queries can be performed" (SQLite in the authors' setup).  This module
stores events into sqlite3 (stdlib) with the same spirit: one row per
execution, shapes in a child table, and a couple of canned queries the
HTML views are built from.

Telemetry spans (see ``repro.telemetry``) land in a ``spans`` table via
:func:`save_spans`, which lets the HTML report drill from a program
point to the kernel calls executed under it (:func:`load_site_kernel_breakdown`).
"""

from __future__ import annotations

import json
import sqlite3
from typing import Iterable, List, Optional, Tuple

from repro.profiler.recorder import ProfileEvent

__all__ = [
    "save_events",
    "save_spans",
    "load_summary",
    "load_executions",
    "load_shape",
    "load_sites",
    "load_site_kernel_breakdown",
    "load_plans",
    "has_spans",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS executions (
    id INTEGER PRIMARY KEY,
    op TEXT NOT NULL,
    seconds REAL NOT NULL,
    operand_nodes TEXT NOT NULL,
    result_nodes INTEGER NOT NULL,
    result_tuples INTEGER NOT NULL,
    site TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS shapes (
    execution_id INTEGER NOT NULL REFERENCES executions(id),
    level INTEGER NOT NULL,
    nodes INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_exec_op ON executions(op);
CREATE INDEX IF NOT EXISTS idx_shape_exec ON shapes(execution_id);
"""

_SPAN_SCHEMA = """
CREATE TABLE IF NOT EXISTS spans (
    id INTEGER NOT NULL,
    parent INTEGER NOT NULL,
    depth INTEGER NOT NULL,
    name TEXT NOT NULL,
    cat TEXT NOT NULL,
    site TEXT NOT NULL DEFAULT '',
    start REAL NOT NULL,
    seconds REAL NOT NULL,
    args TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_span_site ON spans(site);
CREATE INDEX IF NOT EXISTS idx_span_cat ON spans(cat);
"""


def save_events(db_path: str, events: Iterable[ProfileEvent]) -> int:
    """Persist events; returns the number of rows written."""
    conn = sqlite3.connect(db_path)
    try:
        conn.executescript(_SCHEMA)
        try:  # migrate databases created before the site column existed
            conn.execute(
                "ALTER TABLE executions ADD COLUMN site TEXT NOT NULL DEFAULT ''"
            )
        except sqlite3.OperationalError:
            pass
        count = 0
        for event in events:
            cur = conn.execute(
                "INSERT INTO executions "
                "(op, seconds, operand_nodes, result_nodes, result_tuples, "
                "site) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    event.op,
                    event.seconds,
                    ",".join(str(n) for n in event.operand_nodes),
                    event.result_nodes,
                    event.result_tuples,
                    event.site,
                ),
            )
            if event.shape is not None:
                conn.executemany(
                    "INSERT INTO shapes (execution_id, level, nodes) "
                    "VALUES (?, ?, ?)",
                    [
                        (cur.lastrowid, level, nodes)
                        for level, nodes in enumerate(event.shape)
                    ],
                )
            count += 1
        conn.commit()
        return count
    finally:
        conn.close()


def save_spans(db_path: str, spans: Iterable[object]) -> int:
    """Persist telemetry spans (``repro.telemetry.Span`` objects);
    returns the number of rows written."""
    conn = sqlite3.connect(db_path)
    try:
        conn.executescript(_SPAN_SCHEMA)
        count = 0
        for span in spans:
            end = span.end if span.end is not None else span.start
            conn.execute(
                "INSERT INTO spans "
                "(id, parent, depth, name, cat, site, start, seconds, args) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    span.index,
                    span.parent,
                    span.depth,
                    span.name,
                    span.cat,
                    span.site or "",
                    span.start,
                    end - span.start,
                    json.dumps(span.args or {}, default=str),
                ),
            )
            count += 1
        conn.commit()
        return count
    finally:
        conn.close()


def load_summary(db_path: str) -> List[Tuple[str, int, float, int]]:
    """(op, executions, total seconds, max result nodes) per operation."""
    conn = sqlite3.connect(db_path)
    try:
        rows = conn.execute(
            "SELECT op, COUNT(*), SUM(seconds), MAX(result_nodes) "
            "FROM executions GROUP BY op ORDER BY SUM(seconds) DESC"
        ).fetchall()
        return [(op, int(n), float(t), int(m)) for op, n, t, m in rows]
    finally:
        conn.close()


def load_executions(
    db_path: str, op: str
) -> List[Tuple[int, float, str, int, int]]:
    """(id, seconds, operand nodes, result nodes, tuples) for one op."""
    conn = sqlite3.connect(db_path)
    try:
        return conn.execute(
            "SELECT id, seconds, operand_nodes, result_nodes, result_tuples "
            "FROM executions WHERE op = ? ORDER BY id",
            (op,),
        ).fetchall()
    finally:
        conn.close()


def load_shape(db_path: str, execution_id: int) -> List[int]:
    """Per-level node counts of one execution's result."""
    conn = sqlite3.connect(db_path)
    try:
        rows = conn.execute(
            "SELECT level, nodes FROM shapes WHERE execution_id = ? "
            "ORDER BY level",
            (execution_id,),
        ).fetchall()
        return [nodes for _, nodes in rows]
    finally:
        conn.close()


def has_spans(db_path: str) -> bool:
    """True when the database contains a populated ``spans`` table."""
    conn = sqlite3.connect(db_path)
    try:
        row = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='spans'"
        ).fetchone()
        if row is None:
            return False
        return conn.execute("SELECT COUNT(*) FROM spans").fetchone()[0] > 0
    finally:
        conn.close()


def load_sites(db_path: str) -> List[Tuple[str, int, float]]:
    """(site, kernel-span count, total kernel seconds) per program point,
    heaviest first."""
    conn = sqlite3.connect(db_path)
    try:
        rows = conn.execute(
            "SELECT site, COUNT(*), SUM(seconds) FROM spans "
            "WHERE cat = 'kernel' AND site != '' "
            "GROUP BY site ORDER BY SUM(seconds) DESC"
        ).fetchall()
        return [(site, int(n), float(t)) for site, n, t in rows]
    finally:
        conn.close()


def load_plans(db_path: str, site: Optional[str] = None) -> List[dict]:
    """Executed query plans (``plan.explain`` spans, category
    ``planner``): one dict per execution with ``site``, ``label``,
    ``optimized``, ``order``, ``parts``, ``est_nodes``,
    ``actual_nodes``, ``estimate_error``, ``seconds`` and the per-step
    ``steps`` rows — the data the planner section of ``sites.html``
    and the advisor's divergence hints are built from."""
    conn = sqlite3.connect(db_path)
    try:
        row = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='spans'"
        ).fetchone()
        if row is None:
            return []
        query = (
            "SELECT site, seconds, args FROM spans "
            "WHERE cat = 'planner' AND name = 'plan.explain'"
        )
        params: Tuple = ()
        if site is not None:
            query += " AND site = ?"
            params = (site,)
        query += " ORDER BY rowid"
        plans = []
        for span_site, seconds, args_json in conn.execute(query, params):
            args = json.loads(args_json)
            error = args.get("estimate_error")
            plans.append(
                {
                    "site": span_site,
                    "label": args.get("label", ""),
                    "optimized": bool(args.get("optimized")),
                    "order": args.get("order", []),
                    "parts": args.get("parts", []),
                    "est_nodes": float(args.get("est_nodes", 0.0)),
                    "actual_nodes": float(args.get("actual_nodes", 0.0)),
                    "estimate_error": (
                        float(error) if error is not None else None
                    ),
                    "seconds": float(seconds),
                    "steps": args.get("steps", []),
                }
            )
        return plans
    finally:
        conn.close()


def load_site_kernel_breakdown(
    db_path: str, site: Optional[str] = None
) -> List[Tuple[str, str, int, float]]:
    """(site, kernel op, count, total seconds) — the per-site kernel
    breakdown the HTML report renders.  ``site=None`` returns all sites."""
    conn = sqlite3.connect(db_path)
    try:
        query = (
            "SELECT site, name, COUNT(*), SUM(seconds) FROM spans "
            "WHERE cat = 'kernel'"
        )
        params: Tuple = ()
        if site is not None:
            query += " AND site = ?"
            params = (site,)
        query += " GROUP BY site, name ORDER BY site, SUM(seconds) DESC"
        rows = conn.execute(query, params).fetchall()
        return [(s, name, int(n), float(t)) for s, name, n, t in rows]
    finally:
        conn.close()
