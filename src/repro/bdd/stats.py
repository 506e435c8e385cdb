"""Always-on raw kernel counters for the BDD/ZDD managers.

The managers' hot paths (apply-cache probes, node creation, GC sweeps)
bump plain integer fields or list slots on a :class:`KernelStats` —
one ``+= 1`` next to the existing cache probe, no dict lookups, no
telemetry check.  ``repro.telemetry`` pulls these raw numbers into its
metrics registry at snapshot time, so the kernels stay ignorant of the
observability layer and pay the same (negligible) cost whether or not
telemetry is enabled.

Per-binary-op counters are lists indexed by the manager's op tag
(``_OP_AND`` etc.), matching the apply cache's own keying.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = ["KernelStats"]


class KernelStats:
    """Raw counters for one manager instance.

    ``op_names`` names the binary-op tags in tag order (index ``i``
    corresponds to the manager's op tag ``i``); extra unary/cache
    counters are scalar hit/miss pairs, zero when a manager has no such
    cache.
    """

    __slots__ = (
        "op_names",
        "op_hits",
        "op_misses",
        "not_hits",
        "not_misses",
        "exist_hits",
        "exist_misses",
        "and_exist_hits",
        "and_exist_misses",
        "replace_hits",
        "replace_misses",
        "change_hits",
        "change_misses",
        "count_hits",
        "count_misses",
        "nodes_created",
        "peak_live_nodes",
        "gc_runs",
        "gc_seconds",
        "gc_reclaimed",
        "last_gc_seconds",
    )

    _SCALAR_CACHES = ("not", "exist", "and_exist", "replace", "change", "count")

    def __init__(self, op_names: Tuple[str, ...]) -> None:
        self.op_names = op_names
        self.op_hits: List[int] = [0] * len(op_names)
        self.op_misses: List[int] = [0] * len(op_names)
        self.not_hits = 0
        self.not_misses = 0
        self.exist_hits = 0
        self.exist_misses = 0
        self.and_exist_hits = 0
        self.and_exist_misses = 0
        self.replace_hits = 0
        self.replace_misses = 0
        self.change_hits = 0
        self.change_misses = 0
        self.count_hits = 0
        self.count_misses = 0
        self.nodes_created = 0
        self.peak_live_nodes = 0
        self.gc_runs = 0
        self.gc_seconds = 0.0
        self.gc_reclaimed = 0
        self.last_gc_seconds = 0.0

    def note_live(self, live: int) -> None:
        """Update the live-node high-water mark.

        Not called from ``mk`` hot paths: managers report at the natural
        peaks — GC entry (live count is maximal just before a sweep) and
        ``table_stats()`` (every telemetry snapshot / sampler tick) — so
        the mark tracks the true maximum without per-node cost.
        """
        if live > self.peak_live_nodes:
            self.peak_live_nodes = live

    def per_op(self) -> List[Tuple[str, int, int]]:
        """``(op_name, hits, misses)`` for every binary-op tag."""
        return [
            (name, self.op_hits[i], self.op_misses[i])
            for i, name in enumerate(self.op_names)
        ]

    def op_totals(self) -> Tuple[int, int]:
        return (sum(self.op_hits), sum(self.op_misses))

    def scalar_caches(self) -> Iterator[Tuple[str, int, int]]:
        """``(cache_name, hits, misses)`` for the unary/auxiliary caches."""
        for cache in self._SCALAR_CACHES:
            yield (
                f"{cache}_cache",
                getattr(self, f"{cache}_hits"),
                getattr(self, f"{cache}_misses"),
            )

    def reset(self) -> None:
        for i in range(len(self.op_hits)):
            self.op_hits[i] = 0
            self.op_misses[i] = 0
        for cache in self._SCALAR_CACHES:
            setattr(self, f"{cache}_hits", 0)
            setattr(self, f"{cache}_misses", 0)
        self.nodes_created = 0
        self.peak_live_nodes = 0
        self.gc_runs = 0
        self.gc_seconds = 0.0
        self.gc_reclaimed = 0
        self.last_gc_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        hits, misses = self.op_totals()
        return (
            f"KernelStats(apply={hits}h/{misses}m nodes={self.nodes_created} "
            f"gc={self.gc_runs})"
        )
