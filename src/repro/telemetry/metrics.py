"""Metric primitives: counters, gauges, and histograms with labels.

The registry is deliberately tiny.  Kernel hot paths (``bdd/manager.py``,
``bdd/zdd.py``) do *not* call into it — they bump plain integer fields on
their always-on ``KernelStats`` objects, and the registry pulls those raw
numbers in at snapshot time (see ``repro.telemetry.session``).  Push-style
updates (SAT solve results, GC pauses) happen at most a
few times per second, so a dict lookup there is fine.

A metric name plus a sorted tuple of ``(label, value)`` pairs identifies a
series, mirroring the Prometheus data model the ROADMAP's future perf
dashboards will want to scrape.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "format_labels"]

LabelPairs = Tuple[Tuple[str, str], ...]


def format_labels(labels: LabelPairs) -> str:
    """Render label pairs as ``{k=v,k2=v2}`` (empty string when unlabelled)."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """Monotonically increasing count (events, cache hits, conflicts)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set_total(self, total: float) -> None:
        """Overwrite the running total.

        Used by pull-style collectors that mirror an external raw counter
        (kernel stats) into the registry; callers must only ever pass
        non-decreasing values.
        """
        self.value = total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}{format_labels(self.labels)}={self.value})"


class Gauge:
    """Point-in-time value (table size, load factor, live nodes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}{format_labels(self.labels)}={self.value})"


class Histogram:
    """Streaming distribution (GC pause, span length).

    Keeps count/sum/min/max plus fixed buckets; enough for a text report
    or Chrome-trace args without storing every observation.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "bounds", "buckets")

    #: Default bucket upper bounds, in the metric's own unit (seconds for
    #: all current users), roughly log-spaced from 10us to 10s.
    DEFAULT_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        bounds: Optional[Iterable[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Histogram({self.name}{format_labels(self.labels)} "
            f"count={self.count} sum={self.total:.6f})"
        )


class MetricsRegistry:
    """Registry of metric series keyed by name + labels.

    ``counter``/``gauge``/``histogram`` create on first use and return the
    existing series afterwards, so call sites never need to pre-register.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str, LabelPairs], object] = {}

    @staticmethod
    def _key(kind: str, name: str, labels: Dict[str, str]) -> Tuple[str, str, LabelPairs]:
        pairs = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return (kind, name, pairs)

    def counter(self, name: str, **labels: str) -> Counter:
        key = self._key("counter", name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Counter(name, key[2])
        return series  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = self._key("gauge", name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Gauge(name, key[2])
        return series  # type: ignore[return-value]

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = self._key("histogram", name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Histogram(name, key[2])
        return series  # type: ignore[return-value]

    def series(self) -> List[object]:
        """All registered series, sorted by (name, labels) for stable output."""
        return [self._series[k] for k in sorted(self._series, key=lambda k: (k[1], k[2]))]

    def snapshot(self) -> Dict[str, float]:
        """Flatten the registry into ``{"name{labels}": value}``.

        Histograms contribute ``_count``/``_sum``/``_mean``/``_max``
        derived series so a flat snapshot still carries distribution
        shape.
        """
        out: Dict[str, float] = {}
        for series in self.series():
            label = format_labels(series.labels)  # type: ignore[attr-defined]
            if isinstance(series, Histogram):
                base = f"{series.name}{label}"
                out[f"{base}_count"] = series.count
                out[f"{base}_sum"] = series.total
                if series.count:
                    out[f"{base}_mean"] = series.mean
                    out[f"{base}_max"] = series.max
            else:
                out[f"{series.name}{label}"] = series.value  # type: ignore[attr-defined]
        return out

    def clear(self) -> None:
        self._series.clear()
