"""``python -m repro.telemetry.top`` — a tiny top(1) for a live solve.

Reads the JSON snapshot a :class:`~repro.telemetry.sampler.Sampler`
exposes (``--file SNAP.json`` for the sampler's file mode, ``--url``
for a :class:`~repro.telemetry.sampler.MetricsServer`'s
``/metrics.json``) and renders the health numbers an operator watches
during a long solve: node tables vs. their high-water marks, cache
occupancy, RSS and GC totals.

``--once`` prints a single frame (the mode CI and tests use);
otherwise the screen refreshes every ``--interval`` seconds until
interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

__all__ = ["render", "read_snapshot", "main"]


def read_snapshot(
    path: Optional[str] = None, url: Optional[str] = None
) -> Dict[str, object]:
    """Load a snapshot document from a sampler file or a metrics server."""
    if (path is None) == (url is None):
        raise ValueError("exactly one of path/url is required")
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    from urllib.request import urlopen

    with urlopen(url, timeout=5.0) as resp:  # noqa: S310 - localhost introspection
        return json.loads(resp.read().decode("utf-8"))


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    value = int(value)
    if abs(value) >= 10_000_000:
        return f"{value / 1e6:,.1f}M"
    return f"{value:,}"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:,.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:,.1f}GiB"  # pragma: no cover - unreachable


def render(doc: Dict[str, object], width: int = 72) -> str:
    """One frame of the top view for a snapshot document."""
    metrics: Dict[str, float] = dict(doc.get("metrics") or {})  # type: ignore[arg-type]
    age = ""
    if isinstance(doc.get("unixtime"), (int, float)):
        age = f" (sampled {max(0.0, time.time() - float(doc['unixtime'])):.1f}s ago)"
    lines: List[str] = [f"repro-jedd metrics{age}", "=" * width]

    rss = metrics.get("process.rss_bytes")
    if rss is not None:
        peak = metrics.get("process.rss_peak_bytes", rss)
        lines.append(f"process   rss {_fmt_bytes(rss)}  peak {_fmt_bytes(peak)}")

    # One row per instrumented manager: live/peak nodes, load, caches.
    prefixes = sorted({
        name.split(".table.", 1)[0]
        for name in metrics
        if ".table." in name
    })
    for prefix in prefixes:
        get = lambda key, d=0.0: metrics.get(f"{prefix}.{key}", d)  # noqa: E731
        live = get("table.live_nodes")
        peak = get("table.peak_live_nodes", live)
        row = (
            f"{prefix:<8} nodes {_fmt(live)}/{_fmt(peak)} peak"
            f"  load {get('table.load'):.2f}"
            f"  gc {_fmt(get('gc.runs'))}"
        )
        caches = {
            name.split("cache=", 1)[1].rstrip("}"): value
            for name, value in metrics.items()
            if name.startswith(f"{prefix}.cache.entries{{")
        }
        if caches:
            busiest = sorted(caches.items(), key=lambda kv: -kv[1])[:3]
            row += "  cache " + " ".join(
                f"{k}:{_fmt(v)}" for k, v in busiest
            )
        lines.append(row)
        hit_rate = metrics.get(f"{prefix}.apply_cache.hit_rate")
        if hit_rate is not None:
            lines.append(f"{'':<8} apply-cache hit rate {hit_rate * 100:.1f}%")

    spans = metrics.get("telemetry.spans")
    if spans is not None:
        dropped = metrics.get("telemetry.spans_dropped", 0)
        tail = f"  dropped {_fmt(dropped)}" if dropped else ""
        lines.append(f"tracer    spans {_fmt(spans)}{tail}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.top", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="sampler snapshot file (<expose_path>.json)")
    source.add_argument("--url", help="metrics server /metrics.json URL")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period in seconds (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit")
    args = parser.parse_args(argv)

    url = args.url
    if url and url.endswith("/metrics"):
        url += ".json"
    while True:
        try:
            doc = read_snapshot(path=args.file, url=url)
        except Exception as err:
            print(f"snapshot unavailable: {err}", file=sys.stderr)
            if args.once:
                return 1
            time.sleep(args.interval)
            continue
        frame = render(doc)
        if args.once:
            print(frame)
            return 0
        # Clear + home, like watch(1); plain prints if not a tty.
        if sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        print(frame, flush=True)
        time.sleep(args.interval)


if __name__ == "__main__":
    raise SystemExit(main())
