"""Prometheus text exposition (format 0.0.4) for the metrics registry.

``exposition_text`` renders a :class:`MetricsRegistry` the way a
``/metrics`` endpoint must: one ``# HELP``/``# TYPE`` header per metric
family, counters suffixed ``_total``, histograms as cumulative
``_bucket{le="..."}`` series plus ``_sum``/``_count``.  Internal metric
names use dots (``bdd.apply_cache.hits``); Prometheus names may not, so
dots — and anything else outside ``[a-zA-Z0-9_:]`` — become underscores
(``bdd_apply_cache_hits_total``).

``check_exposition`` is the line-format validator CI runs against the
output of ``jeddc --metrics``; it is also exposed as
``python -m repro.telemetry <file>.prom``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["exposition_text", "check_exposition", "sanitize_name"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")

#: One sample line: name, optional {labels}, value, optional timestamp.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[^{}]*\})?"                       # optional label set
    r" [^ ]+"                              # value
    r"( [0-9-]+)?$"                        # optional timestamp (ms)
)


def sanitize_name(name: str) -> str:
    """Map an internal dotted metric name onto the Prometheus charset."""
    out = _BAD_CHARS.sub("_", name)
    if not out or not (out[0].isalpha() or out[0] in "_:"):
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    parts = [
        f'{_LABEL_BAD.sub("_", k)}="{_escape_label_value(str(v))}"'
        for k, v in pairs
    ]
    return "{" + ",".join(parts) + "}"


def _render_value(value: float) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def exposition_text(
    registry: MetricsRegistry,
    extra_gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Render the registry (plus ad-hoc ``extra_gauges``) as exposition
    text.  Series are grouped into families (same sanitized name) so each
    family gets exactly one HELP/TYPE header, as the format requires."""
    families: Dict[str, dict] = {}

    def family(name: str, kind: str, help_text: str) -> dict:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = {
                "type": kind, "help": help_text, "samples": [],
            }
        return fam

    for series in registry.series():
        labels = list(series.labels)
        if isinstance(series, Counter):
            name = sanitize_name(series.name)
            if not name.endswith("_total"):
                name += "_total"
            fam = family(name, "counter", f"repro counter {series.name}")
            fam["samples"].append((name, labels, series.value))
        elif isinstance(series, Gauge):
            name = sanitize_name(series.name)
            fam = family(name, "gauge", f"repro gauge {series.name}")
            fam["samples"].append((name, labels, series.value))
        elif isinstance(series, Histogram):
            name = sanitize_name(series.name)
            fam = family(name, "histogram", f"repro histogram {series.name}")
            cumulative = 0
            for bound, count in zip(series.bounds, series.buckets):
                cumulative += count
                fam["samples"].append((
                    f"{name}_bucket",
                    labels + [("le", _render_value(float(bound)))],
                    cumulative,
                ))
            fam["samples"].append((
                f"{name}_bucket", labels + [("le", "+Inf")], series.count,
            ))
            fam["samples"].append((f"{name}_sum", labels, series.total))
            fam["samples"].append((f"{name}_count", labels, series.count))

    for raw_name, value in sorted((extra_gauges or {}).items()):
        name = sanitize_name(raw_name)
        fam = family(name, "gauge", f"repro gauge {raw_name}")
        fam["samples"].append((name, [], value))

    lines: List[str] = []
    for name in sorted(families):
        fam = families[name]
        lines.append(f"# HELP {name} {fam['help']}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for sample_name, labels, value in fam["samples"]:
            lines.append(
                f"{sample_name}{_render_labels(labels)} {_render_value(value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def check_exposition(text: str) -> List[str]:
    """Line-format check of exposition text; returns problems (empty when
    valid).  Validates comment syntax, metric/label name charsets, that
    every sample belongs to a declared family (TYPE before samples), and
    that histogram families carry ``_bucket``/``_sum``/``_count``."""
    problems: List[str] = []
    typed: Dict[str, str] = {}
    seen_samples: Dict[str, List[str]] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {i}: malformed comment: {line!r}")
                continue
            if not _NAME_OK.match(parts[2]):
                problems.append(f"line {i}: bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(f"line {i}: bad TYPE: {line!r}")
                elif parts[2] in typed:
                    problems.append(
                        f"line {i}: duplicate TYPE for {parts[2]!r}"
                    )
                else:
                    typed[parts[2]] = parts[3]
            continue
        if not _SAMPLE_LINE.match(line):
            problems.append(f"line {i}: malformed sample line: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and typed.get(stripped) == "histogram":
                base = stripped
                break
        if base not in typed:
            problems.append(
                f"line {i}: sample {name!r} has no preceding # TYPE"
            )
            continue
        seen_samples.setdefault(base, []).append(name)
        brace = line.find("{")
        if brace >= 0:
            labels = line[brace + 1: line.find("}")]
            for part in filter(None, labels.split(",")):
                if "=" not in part:
                    problems.append(f"line {i}: malformed label {part!r}")
                    continue
                lname, lval = part.split("=", 1)
                if not _LABEL_OK.match(lname):
                    problems.append(f"line {i}: bad label name {lname!r}")
                if not (lval.startswith('"') and lval.endswith('"')):
                    problems.append(f"line {i}: unquoted label value {lval!r}")
    for name, kind in typed.items():
        names = seen_samples.get(name, [])
        if not names:
            problems.append(f"family {name!r}: TYPE but no samples")
            continue
        if kind == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                if not any(n == name + suffix for n in names):
                    problems.append(
                        f"histogram {name!r}: missing {name + suffix!r}"
                    )
        if kind == "counter" and not name.endswith("_total"):
            problems.append(f"counter {name!r}: missing '_total' suffix")
    return problems
