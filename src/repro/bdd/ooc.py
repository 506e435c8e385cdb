"""Out-of-core streaming BDD kernel (Adiar-style time-forward processing).

Every other kernel in this reproduction (reference, ZDD, MTBDD) keeps
the whole node table in Python lists, so the analyses die once the
table outgrows RAM.  Sølvsten & van de Pol (PAPERS.md, arXiv
2505.11229) show that an external-memory BDD package handles exactly
the relational-product workloads Jedd generates by replacing the
depth-first recursion with *time-forward processing*: every operation
becomes one sweep **down** the levels (a level-ordered request queue —
a child request always sits at a strictly deeper level than its
parent, so processing levels in ascending order visits every request
after all its producers) followed by one sweep **up** (resolving each
level's requests through hash-consing, children before parents).  Both
phases touch data level-major and strictly forward, which is what
makes them spillable: cold levels of the request queue go to disk, the
node arrays page to disk under an LRU budget, and the unique table
overflows into level-major sorted runs.

:class:`OocBDDManager` is that kernel behind the existing
``DiagramBackend`` seam.  It subclasses :class:`BDDManager` and keeps
its *semantics* bit-for-bit: hash-consing stays global, so diagrams
are canonical and serialized wire bytes (``repro.bdd.io``) are
identical to the reference kernel's — the cross-kernel differential
suites assert exactly that.  What changes is the storage and the
evaluation strategy:

- node fields live in :class:`PagedIntArray` (fixed 4096-entry pages,
  shared LRU byte budget, dirty pages spilled to the spill directory),
- the unique table is a :class:`SpillableUniqueTable` (bounded
  in-memory delta dict over level-major sorted runs on disk),
- ``apply`` / ``exist`` / fused ``and_exist`` / ``replace`` run as
  two-phase streaming sweeps; ``apply_not`` lowers to ``XOR TRUE`` so
  it shares the iterative engine (no recursion anywhere in the hot
  ops — managers thousands of levels deep work),
- every resident structure is byte-accounted against
  ``memory_cap_bytes``; the per-structure budgets (page cache, unique
  delta, request queues, operation caches) spill or evict under
  pressure, so peak resident bytes stay under the cap plus the
  *cut-bounded* slack of the in-flight sweep (the set of resolved
  child results still awaited by shallower parents — Adiar's bound).

The cap is opt-in: ``memory_cap_bytes=None`` (the default) never
spills and behaves like a slightly slower reference kernel, which is
what the 5-way differential chains run.  ``benchmarks/test_ooc.py``
proves the capped regime: a solve under a cap smaller than the
uncapped footprint stays under cap + slack and produces wire bytes
identical to the reference kernel.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import weakref
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bdd.manager import (
    FALSE,
    TRUE,
    _OP_AND,
    _OP_DIFF,
    _OP_OR,
    _OP_XOR,
    BDDError,
    BDDManager,
)

__all__ = [
    "OocBDDManager",
    "PagedIntArray",
    "SpillableUniqueTable",
    "SortedRun",
    "merge_runs",
]


# Page geometry: 4096 int64 entries = 32 KiB of payload per page.
_PAGE_SHIFT = 12
_PAGE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE - 1
_PAGE_PAYLOAD = _PAGE * 8
#: Accounted bytes per resident page (payload + array/object overhead).
_PAGE_BYTES = _PAGE_PAYLOAD + 64

# Documented per-entry byte estimates for the accounting.  These are
# CPython-measured ballparks (64-bit): a dict slot plus a 3-int tuple
# key plus an int value is ~100 bytes; queue/plan rows are small
# tuples of ints.  The cap test's slack absorbs the estimation error.
_EST_DICT_ENTRY = 100
_EST_ROW = 120
_EST_FENCE = 120
_EST_RESOLVED = 120

#: Unique-table run record: (level, low, high, node) as 4 little-endian
#: int64s, sorted by (level, low, high) — level-major on disk.
_RUN_RECORD = struct.Struct("<4q")
#: One fence key kept in memory per this many run records.
_FENCE_EVERY = 64
#: Sorted runs are k-way merged down to one once this many accumulate.
_MAX_RUNS = 8
#: Tombstone marker for deletions that may shadow older run entries.
_TOMB = -1

_ABSENT = object()


# ----------------------------------------------------------------------
# Paged node arrays
# ----------------------------------------------------------------------


class _PageCache:
    """Shared LRU byte budget across all :class:`PagedIntArray` pages.

    ``budget_bytes=None`` disables eviction (everything stays
    resident); otherwise faulting or allocating a page beyond the
    budget evicts least-recently-stamped pages, writing dirty ones to
    their array's page file first.
    """

    __slots__ = (
        "budget_bytes",
        "arrays",
        "resident_bytes",
        "stamp",
        "faults",
        "evictions",
        "bytes_written",
        "bytes_read",
    )

    def __init__(self, budget_bytes: Optional[int]) -> None:
        self.budget_bytes = budget_bytes
        self.arrays: List["PagedIntArray"] = []
        self.resident_bytes = 0
        self.stamp = 0
        self.faults = 0
        self.evictions = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def tick(self) -> int:
        self.stamp += 1
        return self.stamp

    def ensure_room(self, keep) -> None:
        """Evict oldest pages until under budget, never evicting ``keep``
        (the page the caller is about to read or write)."""
        if self.budget_bytes is None:
            return
        while self.resident_bytes > self.budget_bytes:
            victim_arr = None
            victim_pno = -1
            victim_stamp = None
            for arr in self.arrays:
                for pno, st in arr._stamps.items():
                    if (arr, pno) == keep:
                        continue
                    if victim_stamp is None or st < victim_stamp:
                        victim_arr, victim_pno, victim_stamp = arr, pno, st
            if victim_arr is None:
                return  # nothing evictable (single pinned page)
            victim_arr._evict(victim_pno)
            self.evictions += 1


class PagedIntArray:
    """A list of int64s stored in fixed-size pages behind a shared
    LRU byte budget.

    Supports exactly the surface the reference kernel uses on its
    parallel node lists — ``a[i]``, ``a[i] = v``, ``append``, ``pop``,
    ``len``, truthiness, and forward iteration — so the inherited
    ``mk`` / serializers / debug walks run unchanged.  Pages are
    spilled to ``<path>`` at ``page_index * 32KiB`` offsets; a page is
    only ever faulted back from disk, so an unevicted page never hits
    the filesystem at all (the uncapped regime does zero I/O).
    """

    __slots__ = ("_cache", "_path", "_file", "_pages", "_dirty", "_stamps", "_len")

    def __init__(self, cache: _PageCache, path, init: Sequence[int] = ()) -> None:
        # ``path`` may be a zero-argument callable resolved on first
        # spill, so creating an array costs no filesystem work at all.
        self._cache = cache
        self._path = path
        self._file = None
        self._pages: List[Optional[array]] = []
        self._dirty: set = set()
        self._stamps: Dict[int, int] = {}
        self._len = 0
        cache.arrays.append(self)
        for v in init:
            self.append(v)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def _open_file(self):
        if self._file is None:
            path = self._path() if callable(self._path) else self._path
            # "r+b" keeps seek+write positional ("a+b" would force
            # every write to the end of the file on POSIX).
            self._file = open(path, "r+b" if os.path.exists(path) else "w+b")
        return self._file

    def _fault(self, pno: int) -> array:
        f = self._open_file()
        f.seek(pno * _PAGE_PAYLOAD)
        data = f.read(_PAGE_PAYLOAD)
        page = array("q")
        page.frombytes(data)
        if len(page) < _PAGE:
            page.extend([0] * (_PAGE - len(page)))
        self._pages[pno] = page
        self._stamps[pno] = self._cache.tick()
        self._cache.resident_bytes += _PAGE_BYTES
        self._cache.faults += 1
        self._cache.bytes_read += _PAGE_PAYLOAD
        self._cache.ensure_room((self, pno))
        return page

    def _evict(self, pno: int) -> None:
        page = self._pages[pno]
        if pno in self._dirty:
            f = self._open_file()
            f.seek(pno * _PAGE_PAYLOAD)
            f.write(page.tobytes())
            self._dirty.discard(pno)
            self._cache.bytes_written += _PAGE_PAYLOAD
        self._pages[pno] = None
        del self._stamps[pno]
        self._cache.resident_bytes -= _PAGE_BYTES

    def __getitem__(self, i: int) -> int:
        pno = i >> _PAGE_SHIFT
        page = self._pages[pno]
        if page is None:
            page = self._fault(pno)
        elif self._cache.budget_bytes is not None:
            self._stamps[pno] = self._cache.tick()
        return page[i & _PAGE_MASK]

    def __setitem__(self, i: int, value: int) -> None:
        pno = i >> _PAGE_SHIFT
        page = self._pages[pno]
        if page is None:
            page = self._fault(pno)
        elif self._cache.budget_bytes is not None:
            self._stamps[pno] = self._cache.tick()
        page[i & _PAGE_MASK] = value
        self._dirty.add(pno)

    def append(self, value: int) -> None:
        i = self._len
        pno = i >> _PAGE_SHIFT
        if pno == len(self._pages):
            page = array("q", bytes(_PAGE_PAYLOAD))
            self._pages.append(page)
            self._stamps[pno] = self._cache.tick()
            self._cache.resident_bytes += _PAGE_BYTES
            self._cache.ensure_room((self, pno))
        else:
            page = self._pages[pno]
            if page is None:
                page = self._fault(pno)
        page[i & _PAGE_MASK] = value
        self._dirty.add(pno)
        self._len = i + 1

    def pop(self) -> int:
        if not self._len:
            raise IndexError("pop from empty PagedIntArray")
        self._len -= 1
        return self[self._len]

    def __iter__(self) -> Iterator[int]:
        remaining = self._len
        for pno in range(len(self._pages)):
            if not remaining:
                return
            page = self._pages[pno]
            if page is None:
                # Transient read: iteration must not thrash the budget.
                f = self._open_file()
                f.seek(pno * _PAGE_PAYLOAD)
                data = f.read(_PAGE_PAYLOAD)
                page = array("q")
                page.frombytes(data)
                if len(page) < _PAGE:
                    page.extend([0] * (_PAGE - len(page)))
                self._cache.bytes_read += _PAGE_PAYLOAD
            n = min(remaining, _PAGE)
            if n == _PAGE:
                yield from page
            else:
                yield from page[:n]
            remaining -= n

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


# ----------------------------------------------------------------------
# Level-major sorted runs (the on-disk unique table)
# ----------------------------------------------------------------------


class SortedRun:
    """One immutable sorted run of ``(level, low, high) -> node``
    records on disk, with an in-memory fence-pointer index (one key per
    :data:`_FENCE_EVERY` records) so a point probe costs one seek plus
    one 2 KiB block read."""

    __slots__ = ("path", "count", "_fences", "_file")

    def __init__(self, path: str, items) -> None:
        """Write ``items`` (an iterable of ``(key, node)`` in sorted key
        order) to ``path``."""
        self.path = path
        self._fences: List[Tuple[int, int, int]] = []
        pack = _RUN_RECORD.pack
        count = 0
        with open(path, "wb") as f:
            buf = bytearray()
            for key, node in items:
                if count % _FENCE_EVERY == 0:
                    self._fences.append(key)
                buf += pack(key[0], key[1], key[2], node)
                count += 1
                if len(buf) >= 1 << 18:
                    f.write(buf)
                    buf.clear()
            if buf:
                f.write(buf)
        self.count = count
        self._file = None

    def _open(self):
        if self._file is None:
            self._file = open(self.path, "rb")
        return self._file

    def get(self, key: Tuple[int, int, int]) -> Optional[int]:
        """The stored node for ``key`` (may be the tombstone), or None."""
        if not self._fences or key < self._fences[0]:
            return None
        block = bisect_right(self._fences, key) - 1
        f = self._open()
        f.seek(block * _FENCE_EVERY * _RUN_RECORD.size)
        data = f.read(_FENCE_EVERY * _RUN_RECORD.size)
        lo, hi = 0, len(data) // _RUN_RECORD.size
        while lo < hi:
            mid = (lo + hi) // 2
            l, lw, h, node = _RUN_RECORD.unpack_from(data, mid * _RUN_RECORD.size)
            k = (l, lw, h)
            if k == key:
                return node
            if k < key:
                lo = mid + 1
            else:
                hi = mid
        return None

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int, int], int]]:
        with open(self.path, "rb") as f:
            while True:
                data = f.read(_RUN_RECORD.size * 4096)
                if not data:
                    return
                for off in range(0, len(data), _RUN_RECORD.size):
                    l, lw, h, node = _RUN_RECORD.unpack_from(data, off)
                    yield (l, lw, h), node

    def fence_bytes(self) -> int:
        return len(self._fences) * _EST_FENCE

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def unlink(self) -> None:
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


def merge_runs(runs: Sequence[SortedRun], path: str) -> SortedRun:
    """K-way merge sorted runs into one, newest-wins, tombstones dropped.

    ``runs`` are ordered oldest first (the order the table spilled
    them); for equal keys the record from the newest run shadows the
    rest, and a surviving tombstone erases the key entirely (nothing
    older can resurrect it once the merge is total).  Streaming: only
    one read buffer per run is resident at a time.
    """
    import heapq

    def merged():
        # Heap entries sort by (key, -run_index): for equal keys the
        # newest run pops first and is authoritative.
        heap = []
        for prio, run in enumerate(runs):
            it = iter(run)
            first = next(it, None)
            if first is not None:
                heap.append((first[0], -prio, first[1], it))
        heapq.heapify(heap)
        while heap:
            key, negprio, node, it = heapq.heappop(heap)
            # Drain every shadowed (older) record for the same key.
            while heap and heap[0][0] == key:
                _, dup_neg, _, dup_it = heapq.heappop(heap)
                nxt = next(dup_it, None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], dup_neg, nxt[1], dup_it))
            nxt = next(it, None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], negprio, nxt[1], it))
            if node != _TOMB:
                yield key, node

    return SortedRun(path, merged())


class SpillableUniqueTable:
    """The ``(level, low, high) -> node`` unique table, spillable.

    A bounded in-memory *delta* dict absorbs all writes; when it
    outgrows its byte budget it is sorted and flushed as a new
    :class:`SortedRun`.  Lookups probe the delta, then runs newest
    first.  Deletions write tombstones (a deleted key may still exist
    in an older run).  Runs are k-way merged once :data:`_MAX_RUNS`
    accumulate.  ``len`` is exact (maintained by presence checks on
    every mutation) because ``check_integrity`` compares it against
    the live node count.
    """

    __slots__ = (
        "mgr",
        "delta",
        "runs",
        "count",
        "_last_miss",
        "flushes",
        "merges",
        "disk_probes",
    )

    def __init__(self, mgr: "OocBDDManager") -> None:
        self.mgr = mgr
        self.delta: Dict[Tuple[int, int, int], int] = {}
        self.runs: List[SortedRun] = []
        self.count = 0
        # mk() always probes before inserting; remembering the probed
        # key lets the insert skip a second disk probe.
        self._last_miss = None
        self.flushes = 0
        self.merges = 0
        self.disk_probes = 0

    def __len__(self) -> int:
        return self.count

    def _probe(self, key) -> object:
        """Delta-then-runs probe; returns the node, or _ABSENT."""
        v = self.delta.get(key, _ABSENT)
        if v is not _ABSENT:
            return _ABSENT if v == _TOMB else v
        for run in reversed(self.runs):
            self.disk_probes += 1
            node = run.get(key)
            if node is not None:
                return _ABSENT if node == _TOMB else node
        return _ABSENT

    def get(self, key, default=None):
        v = self._probe(key)
        if v is _ABSENT:
            self._last_miss = key
            return default
        self._last_miss = None
        return v

    def __contains__(self, key) -> bool:
        return self._probe(key) is not _ABSENT

    def __setitem__(self, key, node: int) -> None:
        if key == self._last_miss:
            prior = _ABSENT
            self._last_miss = None
        else:
            prior = self._probe(key)
        if prior is _ABSENT:
            self.count += 1
        self.delta[key] = node
        budget = self.mgr._unique_budget
        if budget is not None and len(self.delta) * _EST_DICT_ENTRY > budget:
            self.flush()

    def __delitem__(self, key) -> None:
        prior = self._probe(key)
        if prior is _ABSENT:
            raise KeyError(key)
        self.count -= 1
        self._last_miss = None
        if self.runs:
            self.delta[key] = _TOMB
        else:
            self.delta.pop(key, None)

    def flush(self) -> None:
        """Spill the delta as a new level-major sorted run."""
        if not self.delta:
            return
        path = self.mgr._spill_path(f"unique-run-{self.flushes}.bin")
        run = SortedRun(path, sorted(self.delta.items()))
        self.runs.append(run)
        self.delta.clear()
        self.flushes += 1
        self.mgr._ooc["unique_flushes"] += 1
        self.mgr._ooc["spill_bytes_written"] += run.count * _RUN_RECORD.size
        if len(self.runs) >= _MAX_RUNS:
            self.merge()
        self.mgr._note_resident()

    def merge(self) -> None:
        if len(self.runs) < 2:
            return
        path = self.mgr._spill_path(f"unique-merge-{self.merges}.bin")
        merged = merge_runs(self.runs, path)
        for run in self.runs:
            run.unlink()
        self.runs = [merged]
        self.merges += 1
        self.mgr._ooc["unique_merges"] += 1

    def run_entries(self) -> int:
        return sum(r.count for r in self.runs)

    def resident_bytes(self) -> int:
        return len(self.delta) * _EST_DICT_ENTRY + sum(
            r.fence_bytes() for r in self.runs
        )

    def close(self) -> None:
        for run in self.runs:
            run.unlink()
        self.runs = []


# ----------------------------------------------------------------------
# Spillable level-bucketed sweep queues
# ----------------------------------------------------------------------


class _SweepStore:
    """Rows bucketed by level, coldest buckets spillable to one chunk
    file in the spill directory.

    This is the "request priority queue" of the sweeps: the downward
    phase pushes child requests at strictly deeper levels and pops
    buckets in ascending level order; the upward phase pushes plan
    rows and pops them in descending order.  Either way a bucket is
    written completely before it is read, so spilled chunks are only
    ever appended and then streamed back once.
    """

    __slots__ = ("mgr", "buckets", "rows_in_mem", "file", "chunks", "path")

    def __init__(self, mgr: "OocBDDManager") -> None:
        self.mgr = mgr
        self.buckets: Dict[int, list] = {}
        self.rows_in_mem = 0
        self.file = None
        self.chunks: Dict[int, List[Tuple[int, int]]] = {}
        self.path = None
        mgr._active_stores.append(self)

    def push(self, level: int, row) -> None:
        bucket = self.buckets.get(level)
        if bucket is None:
            bucket = self.buckets[level] = []
        bucket.append(row)
        self.rows_in_mem += 1
        budget = self.mgr._queue_budget
        if budget is not None and self.rows_in_mem * _EST_ROW > budget:
            self._spill()

    def extend(self, level: int, rows: list) -> None:
        bucket = self.buckets.get(level)
        if bucket is None:
            self.buckets[level] = list(rows)
        else:
            bucket.extend(rows)
        self.rows_in_mem += len(rows)
        budget = self.mgr._queue_budget
        if budget is not None and self.rows_in_mem * _EST_ROW > budget:
            self._spill()

    def _spill(self) -> None:
        if self.file is None:
            self.path = self.mgr._spill_path(
                f"sweep-{id(self):x}-{self.mgr._ooc['sweeps']}.chunks"
            )
            self.file = open(self.path, "w+b")
        target = self.rows_in_mem // 2
        # Spill the fattest buckets first: fewest chunks per spilled row.
        for level, rows in sorted(
            self.buckets.items(), key=lambda kv: len(kv[1]), reverse=True
        ):
            if self.rows_in_mem <= target:
                break
            if not rows:
                continue
            data = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            self.file.seek(0, 2)
            off = self.file.tell()
            self.file.write(data)
            self.chunks.setdefault(level, []).append((off, len(data)))
            self.rows_in_mem -= len(rows)
            self.mgr._ooc["queue_rows_spilled"] += len(rows)
            self.mgr._ooc["spill_bytes_written"] += len(data)
            self.buckets[level] = []

    def levels(self) -> List[int]:
        out = {lvl for lvl, rows in self.buckets.items() if rows}
        out.update(self.chunks)
        return sorted(out)

    def pop_level(self, level: int) -> list:
        rows = self.buckets.pop(level, [])
        self.rows_in_mem -= len(rows)
        for off, nbytes in self.chunks.pop(level, ()):
            self.file.seek(off)
            rows.extend(pickle.loads(self.file.read(nbytes)))
            self.mgr._ooc["spill_bytes_read"] += nbytes
        return rows

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self.file = None
        self.buckets.clear()
        self.chunks.clear()
        self.rows_in_mem = 0
        try:
            self.mgr._active_stores.remove(self)
        except ValueError:
            pass


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------

_OOC_COUNTERS = (
    "sweeps",
    "queue_rows_spilled",
    "unique_flushes",
    "unique_merges",
    "spill_bytes_written",
    "spill_bytes_read",
)


class OocBDDManager(BDDManager):
    """Out-of-core BDD kernel: disk-backed node store, streaming sweeps.

    Parameters (beyond :class:`BDDManager`'s):

    memory_cap_bytes:
        Total byte budget for resident kernel state, or ``None``
        (default; also read from ``JEDD_OOC_CAP_BYTES``) for the
        uncapped regime that never touches disk.  The cap is divided
        into per-structure budgets: 50% page cache, 20% unique-table
        delta, 12% operation caches, the rest request queues.
    spill_dir:
        Directory for page files / sorted runs / queue chunks.  By
        default (or via ``JEDD_OOC_SPILL_DIR``) a private temporary
        directory is created lazily on first spill and removed when
        the manager is garbage collected.
    """

    telemetry_name = "bdd"

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
        memory_cap_bytes: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        super().__init__(num_vars, gc_threshold, cache_limit)
        if memory_cap_bytes is None:
            env = os.environ.get("JEDD_OOC_CAP_BYTES")
            if env:
                memory_cap_bytes = int(env)
        if memory_cap_bytes is not None and memory_cap_bytes <= 0:
            raise BDDError("memory_cap_bytes must be positive")
        self.memory_cap_bytes = memory_cap_bytes
        self._spill_dir = spill_dir or os.environ.get("JEDD_OOC_SPILL_DIR")
        self._spill_dir_ready = False
        self._finalizer = None
        self._spill_serial = 0
        cap = memory_cap_bytes
        self._page_cache = _PageCache(cap and max(int(cap * 0.50), 4 * _PAGE_BYTES))
        self._unique_budget = cap and max(int(cap * 0.20), 64 * _EST_DICT_ENTRY)
        self._queue_budget = cap and max(int(cap * 0.06), 64 * _EST_ROW)
        if cap is not None and cache_limit is None:
            # Six operation caches share ~12% of the cap.
            self.cache_limit = max(256, int(cap * 0.12) // (6 * _EST_DICT_ENTRY))
        # Replace the base kernel's in-memory storage with the
        # spillable equivalents (terminal entries carried over).
        self._level = PagedIntArray(
            self._page_cache, self._lazy_path("level"), self._level
        )
        self._low = PagedIntArray(self._page_cache, self._lazy_path("low"), self._low)
        self._high = PagedIntArray(
            self._page_cache, self._lazy_path("high"), self._high
        )
        self._refs = PagedIntArray(
            self._page_cache, self._lazy_path("refs"), self._refs
        )
        self._free = PagedIntArray(
            self._page_cache, self._lazy_path("free"), self._free
        )
        self._unique = SpillableUniqueTable(self)
        self._active_stores: List[_SweepStore] = []
        self._active_resolved: List[dict] = []
        self._ooc: Dict[str, int] = {k: 0 for k in _OOC_COUNTERS}
        self._peak_resident = 0
        self._mk_tick = 0
        self._sweep_trace: Optional[List[Tuple[str, int]]] = None
        self._note_resident()

    # -- spill directory ------------------------------------------------

    def _lazy_path(self, name: str):
        """Path factory for a page file; resolving it creates the spill
        directory, but PagedIntArray only resolves it when a page is
        actually spilled — an uncapped manager does zero filesystem
        work for its whole lifetime."""
        return lambda: os.path.join(self._spill_dir_path(), f"{name}.pages")

    def _spill_dir_path(self, create: bool = True) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="jedd-ooc-")
            self._spill_dir_ready = True
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._spill_dir, True
            )
        if create and not self._spill_dir_ready:
            os.makedirs(self._spill_dir, exist_ok=True)
            self._spill_dir_ready = True
        return self._spill_dir

    def _spill_path(self, name: str) -> str:
        self._spill_serial += 1
        return os.path.join(
            self._spill_dir_path(), f"{self._spill_serial:06d}-{name}"
        )

    @property
    def spill_dir(self) -> str:
        """The directory spill files land in (created on demand)."""
        return self._spill_dir_path()

    def close(self) -> None:
        """Release file handles and remove owned spill files."""
        for arr in (
            self._level,
            self._low,
            self._high,
            self._refs,
            self._free,
        ):
            arr.close()
        self._unique.close()
        for store in list(self._active_stores):
            store.close()
        if self._finalizer is not None:
            self._finalizer()

    # -- accounting -----------------------------------------------------

    def resident_bytes(self) -> int:
        """Accounted bytes of every resident kernel structure.

        This is the quantity the cap governs: resident node-array
        pages, the unique-table delta and its run fences, the
        operation caches, in-flight sweep queues, and the upward
        phase's resolved-results cut.
        """
        total = self._page_cache.resident_bytes
        total += self._unique.resident_bytes()
        total += sum(self.cache_stats().values()) * _EST_DICT_ENTRY
        for store in self._active_stores:
            total += store.rows_in_mem * _EST_ROW
        for resolved in self._active_resolved:
            total += len(resolved) * _EST_RESOLVED
        return total

    @property
    def peak_resident_bytes(self) -> int:
        return self._peak_resident

    def _note_resident(self) -> None:
        r = self.resident_bytes()
        if r > self._peak_resident:
            self._peak_resident = r

    def ooc_profile(self) -> Dict[str, int]:
        """Spill/sweep telemetry (exported as ``ooc.*`` sampler gauges)."""
        out = dict(self._ooc)
        out["cap_bytes"] = self.memory_cap_bytes or 0
        out["resident_bytes"] = self.resident_bytes()
        out["peak_resident_bytes"] = self._peak_resident
        out["pages_resident"] = self._page_cache.resident_bytes // _PAGE_BYTES
        out["pages_faulted"] = self._page_cache.faults
        out["pages_evicted"] = self._page_cache.evictions
        out["page_bytes_written"] = self._page_cache.bytes_written
        out["page_bytes_read"] = self._page_cache.bytes_read
        out["unique_delta_entries"] = len(self._unique.delta)
        out["unique_runs"] = len(self._unique.runs)
        out["unique_run_entries"] = self._unique.run_entries()
        out["unique_disk_probes"] = self._unique.disk_probes
        return out

    def reset_ooc_profile(self) -> None:
        for k in _OOC_COUNTERS:
            self._ooc[k] = 0
        self._page_cache.faults = 0
        self._page_cache.evictions = 0
        self._page_cache.bytes_written = 0
        self._page_cache.bytes_read = 0
        self._unique.disk_probes = 0
        self._peak_resident = self.resident_bytes()

    # -- node construction ----------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        node = super().mk(level, low, high)
        self._mk_tick += 1
        if not self._mk_tick & 0x3FF:
            self._note_resident()
        return node

    # -- sweep plumbing -------------------------------------------------

    @contextmanager
    def _trace(self):
        """Record (phase, level) transitions of every sweep — the
        sweep-order property tests assert downward levels ascend and
        upward levels descend."""
        self._sweep_trace = []
        try:
            yield self._sweep_trace
        finally:
            self._sweep_trace = None

    def _mark(self, phase: str, level: int) -> None:
        if self._sweep_trace is not None:
            self._sweep_trace.append((phase, level))

    @staticmethod
    def _apply_shortcut(op: int, a: int, b: int) -> Optional[int]:
        # Byte-for-byte the reference kernel's terminal short-cuts.
        if op == _OP_AND:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
            if a == b:
                return a
        elif op == _OP_OR:
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == b:
                return a
        elif op == _OP_DIFF:
            if a == FALSE or b == TRUE or a == b:
                return FALSE
            if b == FALSE:
                return a
        elif op == _OP_XOR:
            if a == b:
                return FALSE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
        return None

    @staticmethod
    def _take(resolved: dict, spec) -> int:
        if spec[0]:  # terminal/cached spec: (1, node)
            return spec[1]
        key = spec[1]
        entry = resolved[key]
        entry[1] -= 1
        if entry[1] == 0:
            del resolved[key]
        return entry[0]

    # -- binary apply ---------------------------------------------------

    def _apply(self, op: int, a: int, b: int) -> int:
        r = self._apply_shortcut(op, a, b)
        if r is not None:
            return r
        if op in (_OP_AND, _OP_OR, _OP_XOR) and a > b:
            a, b = b, a
        cached = self._apply_cache.get((op, a, b))
        if cached is not None:
            self.stats.op_hits[op] += 1
            return cached
        return self._sweep_binary(op, a, b)

    def _binary_child_spec(self, op: int, x: int, y: int, pending: _SweepStore):
        r = self._apply_shortcut(op, x, y)
        if r is not None:
            return (1, r)
        if op in (_OP_AND, _OP_OR, _OP_XOR) and x > y:
            x, y = y, x
        r = self._apply_cache.get((op, x, y))
        if r is not None:
            self.stats.op_hits[op] += 1
            return (1, r)
        clv = min(self._level[x], self._level[y])
        pending.push(clv, (x, y))
        return (0, (clv, x, y))

    def _sweep_binary(self, op: int, a: int, b: int) -> int:
        self._ooc["sweeps"] += 1
        pending = _SweepStore(self)
        plan = _SweepStore(self)
        resolved: dict = {}
        self._active_resolved.append(resolved)
        try:
            root_level = min(self._level[a], self._level[b])
            pending.push(root_level, (a, b))
            while True:
                levels = pending.levels()
                if not levels:
                    break
                level = levels[0]
                self._mark("down", level)
                agg: Dict[Tuple[int, int], int] = {}
                for key in pending.pop_level(level):
                    agg[key] = agg.get(key, 0) + 1
                rows = []
                lv_arr, lo_arr, hi_arr = self._level, self._low, self._high
                for (x, y), count in agg.items():
                    self.stats.op_misses[op] += 1
                    if lv_arr[x] == level:
                        x0, x1 = lo_arr[x], hi_arr[x]
                    else:
                        x0 = x1 = x
                    if lv_arr[y] == level:
                        y0, y1 = lo_arr[y], hi_arr[y]
                    else:
                        y0 = y1 = y
                    rows.append(
                        (
                            x,
                            y,
                            count,
                            self._binary_child_spec(op, x0, y0, pending),
                            self._binary_child_spec(op, x1, y1, pending),
                        )
                    )
                plan.extend(level, rows)
                self._note_resident()
            for level in reversed(plan.levels()):
                self._mark("up", level)
                for x, y, count, lo_spec, hi_spec in plan.pop_level(level):
                    lo = self._take(resolved, lo_spec)
                    hi = self._take(resolved, hi_spec)
                    node = self.mk(level, lo, hi)
                    self._cache_store(self._apply_cache, (op, x, y), node)
                    resolved[(level, x, y)] = [node, count]
                self._note_resident()
            return resolved[(root_level, a, b)][0]
        finally:
            self._active_resolved.remove(resolved)
            pending.close()
            plan.close()

    def apply_not(self, a: int) -> int:
        # NOT a == a XOR TRUE: sharing the streaming binary engine
        # keeps complement iterative too (the reference recursion is
        # depth-bounded by the variable count, which an out-of-core
        # table can exceed by orders of magnitude).
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            self.stats.not_hits += 1
            return cached
        self.stats.not_misses += 1
        result = self._apply(_OP_XOR, a, TRUE)
        return self._cache_store(self._not_cache, a, result)

    # -- exist ----------------------------------------------------------

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        spec = self._exist_child_spec(a, levels, None)
        if spec[0]:
            return spec[1]
        return self._sweep_exist(spec[1])

    def _exist_child_spec(
        self, c: int, levels: Tuple[int, ...], pending: Optional[_SweepStore]
    ):
        if c <= TRUE:
            return (1, c)
        lc = self._level[c]
        idx = 0
        while idx < len(levels) and levels[idx] < lc:
            idx += 1
        levels = levels[idx:]
        if not levels:
            return (1, c)
        cached = self._exist_cache.get((c, levels))
        if cached is not None:
            self.stats.exist_hits += 1
            return (1, cached)
        if pending is not None:
            pending.push(lc, (c, levels))
        return (0, (lc, c, levels))

    def _sweep_exist(self, root_key) -> int:
        self._ooc["sweeps"] += 1
        pending = _SweepStore(self)
        plan = _SweepStore(self)
        resolved: dict = {}
        self._active_resolved.append(resolved)
        try:
            root_level, root_a, root_lv = root_key
            pending.push(root_level, (root_a, root_lv))
            while True:
                present = pending.levels()
                if not present:
                    break
                level = present[0]
                self._mark("down", level)
                agg: Dict[Tuple[int, Tuple[int, ...]], int] = {}
                for key in pending.pop_level(level):
                    agg[key] = agg.get(key, 0) + 1
                rows = []
                for (node, lv), count in agg.items():
                    self.stats.exist_misses += 1
                    rows.append(
                        (
                            node,
                            lv,
                            count,
                            level == lv[0],
                            self._exist_child_spec(self._low[node], lv, pending),
                            self._exist_child_spec(self._high[node], lv, pending),
                        )
                    )
                plan.extend(level, rows)
                self._note_resident()
            for level in reversed(plan.levels()):
                self._mark("up", level)
                for node, lv, count, quantified, lo_spec, hi_spec in plan.pop_level(
                    level
                ):
                    lo = self._take(resolved, lo_spec)
                    hi = self._take(resolved, hi_spec)
                    if quantified:
                        result = self.apply_or(lo, hi)
                    else:
                        result = self.mk(level, lo, hi)
                    self._cache_store(self._exist_cache, (node, lv), result)
                    resolved[(level, node, lv)] = [result, count]
                self._note_resident()
            return resolved[root_key][0]
        finally:
            self._active_resolved.remove(resolved)
            pending.close()
            plan.close()

    # -- fused and_exist ------------------------------------------------

    def _and_exist(self, a: int, b: int, levels: Tuple[int, ...]) -> int:
        spec = self._and_exist_child_spec(a, b, levels, None)
        if spec[0]:
            return spec[1]
        return self._sweep_and_exist(spec[1])

    def _and_exist_child_spec(
        self, a: int, b: int, levels: Tuple[int, ...], pending: Optional[_SweepStore]
    ):
        if a == FALSE or b == FALSE:
            return (1, FALSE)
        if a == TRUE and b == TRUE:
            return (1, TRUE)
        top = min(self._level[a], self._level[b])
        idx = 0
        while idx < len(levels) and levels[idx] < top:
            idx += 1
        levels = levels[idx:]
        if not levels:
            return (1, self._apply(_OP_AND, a, b))
        if a > b:  # AND is commutative
            a, b = b, a
        cached = self._and_exist_cache.get((a, b, levels))
        if cached is not None:
            self.stats.and_exist_hits += 1
            return (1, cached)
        if pending is not None:
            pending.push(top, (a, b, levels))
        return (0, (top, a, b, levels))

    def _sweep_and_exist(self, root_key) -> int:
        self._ooc["sweeps"] += 1
        pending = _SweepStore(self)
        plan = _SweepStore(self)
        resolved: dict = {}
        self._active_resolved.append(resolved)
        try:
            root_level, root_a, root_b, root_lv = root_key
            pending.push(root_level, (root_a, root_b, root_lv))
            while True:
                present = pending.levels()
                if not present:
                    break
                level = present[0]
                self._mark("down", level)
                agg: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
                for key in pending.pop_level(level):
                    agg[key] = agg.get(key, 0) + 1
                rows = []
                lv_arr, lo_arr, hi_arr = self._level, self._low, self._high
                for (a, b, lv), count in agg.items():
                    self.stats.and_exist_misses += 1
                    if lv_arr[a] == level:
                        a0, a1 = lo_arr[a], hi_arr[a]
                    else:
                        a0 = a1 = a
                    if lv_arr[b] == level:
                        b0, b1 = lo_arr[b], hi_arr[b]
                    else:
                        b0 = b1 = b
                    rows.append(
                        (
                            a,
                            b,
                            lv,
                            count,
                            level == lv[0],
                            self._and_exist_child_spec(a0, b0, lv, pending),
                            self._and_exist_child_spec(a1, b1, lv, pending),
                        )
                    )
                plan.extend(level, rows)
                self._note_resident()
            for level in reversed(plan.levels()):
                self._mark("up", level)
                for a, b, lv, count, quantified, lo_spec, hi_spec in plan.pop_level(
                    level
                ):
                    lo = self._take(resolved, lo_spec)
                    hi = self._take(resolved, hi_spec)
                    if quantified:
                        result = TRUE if lo == TRUE else self.apply_or(lo, hi)
                    else:
                        result = self.mk(level, lo, hi)
                    self._cache_store(self._and_exist_cache, (a, b, lv), result)
                    resolved[(level, a, b, lv)] = [result, count]
                self._note_resident()
            return resolved[root_key][0]
        finally:
            self._active_resolved.remove(resolved)
            pending.close()
            plan.close()

    # -- replace --------------------------------------------------------

    def replace(self, a: int, permutation: Dict[int, int]) -> int:
        perm = {k: v for k, v in permutation.items() if k != v}
        if not perm:
            return a
        if len(set(perm.values())) != len(perm):
            raise BDDError("replace permutation must be injective")
        for old, new in perm.items():
            self._check_var(old)
            self._check_var(new)
        key_perm = tuple(sorted(perm.items()))
        if self.is_terminal(a):
            return a
        cached = self._replace_cache.get((a, key_perm))
        if cached is not None:
            self.stats.replace_hits += 1
            return cached
        self._ooc["sweeps"] += 1
        pending = _SweepStore(self)
        plan = _SweepStore(self)
        resolved: dict = {}
        self._active_resolved.append(resolved)
        try:
            root_level = self._level[a]
            pending.push(root_level, a)
            while True:
                present = pending.levels()
                if not present:
                    break
                level = present[0]
                self._mark("down", level)
                agg: Dict[int, int] = {}
                for node in pending.pop_level(level):
                    agg[node] = agg.get(node, 0) + 1
                rows = []
                for node, count in agg.items():
                    self.stats.replace_misses += 1
                    rows.append(
                        (
                            node,
                            count,
                            self._replace_child_spec(
                                self._low[node], key_perm, pending
                            ),
                            self._replace_child_spec(
                                self._high[node], key_perm, pending
                            ),
                        )
                    )
                plan.extend(level, rows)
                self._note_resident()
            for level in reversed(plan.levels()):
                self._mark("up", level)
                new_level = perm.get(level, level)
                for node, count, lo_spec, hi_spec in plan.pop_level(level):
                    lo = self._take(resolved, lo_spec)
                    hi = self._take(resolved, hi_spec)
                    # A target level above both children is a pure
                    # relabelling; otherwise recompose through ITE on
                    # the *target* variable so order-changing
                    # permutations stay correct — the same lowering as
                    # the reference kernel.
                    if (
                        self._level[lo] > new_level
                        and self._level[hi] > new_level
                    ):
                        result = self.mk(new_level, lo, hi)
                    else:
                        result = self.ite(
                            self.mk(new_level, FALSE, TRUE), hi, lo
                        )
                    self._cache_store(
                        self._replace_cache, (node, key_perm), result
                    )
                    resolved[(level, node)] = [result, count]
                self._note_resident()
            return resolved[(root_level, a)][0]
        finally:
            self._active_resolved.remove(resolved)
            pending.close()
            plan.close()

    def _replace_child_spec(self, c: int, key_perm, pending: _SweepStore):
        if c <= TRUE:
            return (1, c)
        cached = self._replace_cache.get((c, key_perm))
        if cached is not None:
            self.stats.replace_hits += 1
            return (1, cached)
        lc = self._level[c]
        pending.push(lc, c)
        return (0, (lc, c))

    # -- garbage collection ---------------------------------------------

    def gc(self) -> int:
        """Mark-and-sweep in level order with a byte-per-node mark map.

        The base implementation allocates a Python ``bool`` list and a
        recursion stack proportional to the whole table; here marking
        runs as one more downward level sweep (children are strictly
        deeper, so level-bucketed marking visits every node once) over
        the paged arrays, with a ``bytearray`` mark map — 1 byte per
        slot instead of an 8-byte pointer.
        """
        from time import perf_counter

        start = perf_counter()
        self.stats.note_live(self.num_nodes)
        size = len(self._level)
        marked = bytearray(size)
        marked[FALSE] = marked[TRUE] = 1
        num_vars = self._num_vars
        buckets: List[array] = [array("q") for _ in range(num_vars)]
        level_arr, low_arr, high_arr = self._level, self._low, self._high
        for node, (r, lvl) in enumerate(zip(self._refs, level_arr)):
            if r > 0 and node > TRUE and not marked[node]:
                marked[node] = 1
                buckets[lvl].append(node)
        for lvl in range(num_vars):
            for node in buckets[lvl]:
                for child in (low_arr[node], high_arr[node]):
                    if child > TRUE and not marked[child]:
                        marked[child] = 1
                        buckets[level_arr[child]].append(child)
            buckets[lvl] = array("q")
        freed = 0
        for node in range(2, size):
            if marked[node]:
                continue
            lo = low_arr[node]
            if lo == -1:
                continue  # already on the free list
            hi = high_arr[node]
            lvl = level_arr[node]
            key = (lvl, lo, hi)
            if self._unique.get(key) == node:
                del self._unique[key]
            low_arr[node] = -1
            high_arr[node] = -1
            self._free.append(node)
            freed += 1
        self._clear_caches()
        self.gc_count += 1
        seconds = perf_counter() - start
        stats = self.stats
        stats.gc_runs += 1
        stats.gc_seconds += seconds
        stats.last_gc_seconds = seconds
        stats.gc_reclaimed += freed
        self._note_resident()
        for listener in self.gc_listeners:
            listener(seconds, freed)
        return freed
