"""The Jedd profiler (section 4.3): recording, SQL storage, HTML views."""

from repro.profiler.advisor import plan_hints
from repro.profiler.html import generate_report
from repro.profiler.recorder import ProfileEvent, Profiler
from repro.profiler.sql import (
    has_spans,
    load_executions,
    load_plans,
    load_shape,
    load_site_kernel_breakdown,
    load_sites,
    load_summary,
    save_events,
    save_spans,
)

__all__ = [
    "ProfileEvent",
    "Profiler",
    "generate_report",
    "has_spans",
    "load_executions",
    "load_plans",
    "load_shape",
    "load_site_kernel_breakdown",
    "load_sites",
    "load_summary",
    "plan_hints",
    "save_events",
    "save_spans",
]
