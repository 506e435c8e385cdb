"""Vectorized "arena" BDD kernel: struct-of-arrays node store with
breadth-first, level-synchronized operations.

The reference kernel (:mod:`repro.bdd.manager`) resolves every
``apply``/``exist``/``and_exist`` request with one recursive Python call
per node pair.  That is the hot path under every analysis in this
reproduction -- the paper's whole pitch (PLDI 2004, sections 3.2 and 4)
is that relational operations lower to a handful of BDD kernel calls, so
kernel time dominates.  This module reorganises those kernels the way
external-memory and vectorized BDD packages do (see PAPERS.md: Sølvsten
& van de Pol, "Symbolic Model Checking in External Memory"): requests
are bucketed by the *level* of their topmost variable and whole
frontiers of requests are processed per level as numpy array operations
-- cofactor extraction, terminal short-cuts, duplicate collapsing,
operation-cache probes and unique-table insertion all become batch
primitives instead of per-node dictionary traffic.

Layout
------

- Node store: parallel ``numpy`` int64 arrays (``_level``, ``_low``,
  ``_high``, ``_refs``, ``_parents``) with amortised-doubling growth; a
  node id indexes all five.  Terminals stay at ids 0/1.
- :class:`VectorTable`: an open-addressing hash table over three int64
  key columns with both a scalar dict-like API (so the inherited
  reordering machinery works unchanged) and batch ``lookup`` /
  ``insert_many`` / ``delete_many`` primitives whose scalar and
  vectorized hash functions agree slot-for-slot.  It backs the unique
  table and the ``apply``/``exist``/``and_exist`` operation caches.
- Breadth-first kernels: each operation seeds a request frontier, sweeps
  *down* the levels in ascending order (expanding cofactors, resolving
  terminal cases, deduplicating, probing caches, enqueueing child
  requests -- a child's top level is always strictly deeper, so every
  level is processed exactly once), then sweeps *up* resolving each
  level's unresolved requests with batched unique-table insertion
  (:meth:`ArenaBDDManager.mk_many`).
- Hybrid execution: buckets narrower than ``vector_threshold`` are
  processed with plain-Python loops (per-element numpy overhead would
  dominate tiny operations); wide buckets take the vector path.  Both
  produce identical nodes -- hash-consing makes results canonical
  regardless of evaluation strategy, which is what the cross-kernel
  differential suite (``tests/bdd/test_differential.py``) asserts.

Everything else -- reference counting, mark-and-sweep GC, Rudell
sifting/reordering, serialization (:mod:`repro.bdd.io`), telemetry
(:class:`repro.bdd.stats.KernelStats`) -- is inherited from
:class:`~repro.bdd.manager.BDDManager` or reimplemented with identical
observable behaviour, so the arena drops in behind the
``DiagramBackend`` seam: select it with ``open_universe(kernel="arena")``
or ``JEDD_KERNEL=arena``.  See ``docs/KERNEL.md``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bdd.manager import (
    FALSE,
    TRUE,
    BDDError,
    BDDManager,
    _OP_AND,
    _OP_DIFF,
    _OP_OR,
    _OP_XOR,
)

__all__ = ["ArenaBDDManager", "VectorTable"]

_EMPTY = -1
_TOMB = -2
_M64 = (1 << 64) - 1
# Mixing constants (golden-ratio / xxhash-style odd multipliers).
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xC2B2AE3D27D4EB4F
_C3 = 0x165667B19E3779F9

_I64 = np.int64
_U64 = np.uint64

#: Managers with at most this many variables run narrow (single-request)
#: apply/exist calls through the reference recursion: diagram depth is
#: bounded by the variable count, so the interpreter stack is safe, and
#: the recursive path has far less per-call overhead than building a
#: one-element frontier.  Deeper managers always take the breadth-first
#: engine, which never recurses.  Wide batches take it regardless.
_RECURSION_SAFE_VARS = 400

#: Cache-key namespace for the fused variable-insertion op (see
#: :meth:`ArenaBDDManager._ite_var`).  Binary ops use codes 0-3; keying
#: ite_var entries as ``(_ITEVAR_BASE + level, f, g)`` keeps them disjoint
#: inside the shared apply cache.
_ITEVAR_BASE = 8


class VectorTable:
    """Open-addressing hash table: three ``int64`` keys -> one ``int64``.

    Values must be non-negative (``-1``/``-2`` are the empty/tombstone
    sentinels in the value column).  Linear probing; grows at 70% fill
    by batch re-insertion.  The scalar probes (``get``/``__setitem__``/
    ``__delitem__``, used by the inherited reordering code) and the
    batch probes (``lookup``/``insert_many``/``delete_many``, used by
    the breadth-first kernels) share one hash function, computed with
    Python arbitrary-precision masking on one side and uint64
    wraparound on the other, so they land on identical slots.
    """

    __slots__ = ("_cap", "_mask", "_k1", "_k2", "_k3", "_val", "_used", "_fill")

    def __init__(self, capacity: int = 64) -> None:
        cap = 8
        while cap < capacity:
            cap <<= 1
        self._alloc(cap)

    def _alloc(self, cap: int) -> None:
        self._cap = cap
        self._mask = cap - 1
        self._k1 = np.zeros(cap, _I64)
        self._k2 = np.zeros(cap, _I64)
        self._k3 = np.zeros(cap, _I64)
        self._val = np.full(cap, _EMPTY, _I64)
        self._used = 0  # live entries
        self._fill = 0  # live entries + tombstones

    def __len__(self) -> int:
        return self._used

    def clear(self) -> None:
        self._val.fill(_EMPTY)
        self._used = 0
        self._fill = 0

    # -- hashing -------------------------------------------------------

    def _slot1(self, k1: int, k2: int, k3: int) -> int:
        h = (k1 * _C1) & _M64
        h ^= h >> 29
        h = (h + k2 * _C2) & _M64
        h ^= h >> 31
        h = (h + k3 * _C3) & _M64
        h ^= h >> 32
        return int(h & self._mask)

    def _slots(self, k1: np.ndarray, k2: np.ndarray, k3: np.ndarray) -> np.ndarray:
        h = k1.astype(_U64) * _U64(_C1)
        h ^= h >> _U64(29)
        h += k2.astype(_U64) * _U64(_C2)
        h ^= h >> _U64(31)
        h += k3.astype(_U64) * _U64(_C3)
        h ^= h >> _U64(32)
        return (h & _U64(self._mask)).astype(_I64)

    # -- scalar (dict-style) API --------------------------------------

    def get3(self, k1: int, k2: int, k3: int) -> int:
        """Scalar probe; returns the value or ``-1`` when absent."""
        # Hash inlined (and .item() reads, which return plain ints):
        # this probe sits on the kernel's hottest scalar path via mk().
        h = (k1 * _C1) & _M64
        h ^= h >> 29
        h = (h + k2 * _C2) & _M64
        h ^= h >> 31
        h = (h + k3 * _C3) & _M64
        h ^= h >> 32
        mask = self._mask
        i = int(h) & mask
        val, a1, a2, a3 = self._val, self._k1, self._k2, self._k3
        while True:
            v = val.item(i)
            if v == _EMPTY:
                return -1
            if v != _TOMB and (
                a1.item(i) == k1 and a2.item(i) == k2 and a3.item(i) == k3
            ):
                return v
            i = (i + 1) & mask

    def set3(self, k1: int, k2: int, k3: int, value: int) -> None:
        if (self._fill + 1) * 10 >= self._cap * 7:
            self._grow(self._cap * 2)
        val, a1, a2, a3 = self._val, self._k1, self._k2, self._k3
        mask = self._mask
        h = (k1 * _C1) & _M64
        h ^= h >> 29
        h = (h + k2 * _C2) & _M64
        h ^= h >> 31
        h = (h + k3 * _C3) & _M64
        h ^= h >> 32
        i = int(h) & mask
        tomb = -1
        while True:
            v = val.item(i)
            if v == _EMPTY:
                if tomb >= 0:
                    i = tomb
                else:
                    self._fill += 1
                a1[i] = k1
                a2[i] = k2
                a3[i] = k3
                val[i] = value
                self._used += 1
                return
            if v == _TOMB:
                if tomb < 0:
                    tomb = i
            elif a1.item(i) == k1 and a2.item(i) == k2 and a3.item(i) == k3:
                val[i] = value
                return
            i = (i + 1) & mask

    def get(self, key, default=None):
        v = self.get3(int(key[0]), int(key[1]), int(key[2]))
        return default if v < 0 else v

    def __getitem__(self, key) -> int:
        v = self.get3(int(key[0]), int(key[1]), int(key[2]))
        if v < 0:
            raise KeyError(key)
        return v

    def __contains__(self, key) -> bool:
        return self.get3(int(key[0]), int(key[1]), int(key[2])) >= 0

    def __setitem__(self, key, value) -> None:
        self.set3(int(key[0]), int(key[1]), int(key[2]), int(value))

    def __delitem__(self, key) -> None:
        k1, k2, k3 = int(key[0]), int(key[1]), int(key[2])
        val, a1, a2, a3 = self._val, self._k1, self._k2, self._k3
        mask = self._mask
        i = self._slot1(k1, k2, k3)
        while True:
            v = val[i]
            if v == _EMPTY:
                raise KeyError(key)
            if v != _TOMB and a1[i] == k1 and a2[i] == k2 and a3[i] == k3:
                val[i] = _TOMB
                self._used -= 1
                return
            i = (i + 1) & mask

    # -- batch API -----------------------------------------------------

    def lookup(
        self, k1: np.ndarray, k2: np.ndarray, k3: np.ndarray
    ) -> np.ndarray:
        """Batch probe; ``-1`` where a key is absent."""
        n = len(k1)
        out = np.full(n, _EMPTY, _I64)
        if n == 0 or self._used == 0:
            return out
        val, a1, a2, a3 = self._val, self._k1, self._k2, self._k3
        mask = self._mask
        slot = self._slots(k1, k2, k3)
        pend = np.arange(n)
        while pend.size:
            s = slot[pend]
            v = val[s]
            hit = (
                (v >= 0)
                & (a1[s] == k1[pend])
                & (a2[s] == k2[pend])
                & (a3[s] == k3[pend])
            )
            out[pend[hit]] = v[hit]
            pend = pend[~(hit | (v == _EMPTY))]
            slot[pend] = (slot[pend] + 1) & mask
        return out

    def insert_many(
        self,
        k1: np.ndarray,
        k2: np.ndarray,
        k3: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Batch insert of keys known to be absent and pairwise distinct.

        Within-batch slot collisions resolve first-writer-wins per
        probing round; losers advance to their next slot, so the result
        is exactly a sequence of scalar inserts.
        """
        n = len(k1)
        if n == 0:
            return
        need = self._fill + n
        cap = self._cap
        while need * 10 >= cap * 7:
            cap *= 2
        if cap != self._cap:
            self._grow(cap)
        val = self._val
        mask = self._mask
        slot = self._slots(k1, k2, k3)
        pend = np.arange(n)
        while pend.size:
            s = slot[pend]
            v = val[s]
            free = v < 0
            if free.any():
                fpos = np.flatnonzero(free)
                fslots = s[fpos]
                uslots, first = np.unique(fslots, return_index=True)
                wpos = fpos[first]  # winning positions within pend
                widx = pend[wpos]  # original batch indices
                self._k1[uslots] = k1[widx]
                self._k2[uslots] = k2[widx]
                self._k3[uslots] = k3[widx]
                self._fill += int(np.count_nonzero(val[uslots] == _EMPTY))
                val[uslots] = vals[widx]
                self._used += len(uslots)
                done = np.zeros(pend.size, dtype=bool)
                done[wpos] = True
                pend = pend[~done]
            slot[pend] = (slot[pend] + 1) & mask

    def delete_many(
        self,
        k1: np.ndarray,
        k2: np.ndarray,
        k3: np.ndarray,
        expected: np.ndarray,
    ) -> None:
        """Batch delete, skipping keys whose value is not ``expected``
        (mirrors the reference GC's ``unique.get(key) == node`` guard)."""
        n = len(k1)
        if n == 0 or self._used == 0:
            return
        val, a1, a2, a3 = self._val, self._k1, self._k2, self._k3
        mask = self._mask
        slot = self._slots(k1, k2, k3)
        pend = np.arange(n)
        removed = 0
        while pend.size:
            s = slot[pend]
            v = val[s]
            match = (
                (v >= 0)
                & (a1[s] == k1[pend])
                & (a2[s] == k2[pend])
                & (a3[s] == k3[pend])
            )
            if match.any():
                ok = v[match] == expected[pend[match]]
                targets = s[match][ok]
                val[targets] = _TOMB
                removed += len(targets)
            pend = pend[~(match | (v == _EMPTY))]
            slot[pend] = (slot[pend] + 1) & mask
        self._used -= removed

    def _grow(self, cap: int) -> None:
        k1, k2, k3, v = self._k1, self._k2, self._k3, self._val
        live = v >= 0
        self._alloc(cap)
        self.insert_many(k1[live], k2[live], k3[live], v[live])


def _apply_shortcut(op: int, a: int, b: int) -> int:
    """Scalar terminal short-cuts of the reference ``_apply``; -1 if none."""
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
    else:  # _OP_XOR
        if a == b:
            return FALSE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
    return -1


class _Frontier:
    """Per-call breadth-first state: level buckets of pending requests.

    Request results are tracked by *gid* (a dense per-call id); the
    downward sweep allocates gids for unresolved child requests and the
    upward sweep scatters resolved node ids into :attr:`res`.
    """

    __slots__ = ("buckets", "heap", "res", "n")

    def __init__(self) -> None:
        self.buckets: Dict[int, list] = {}
        self.heap: List[int] = []
        self.res = np.full(64, -1, _I64)
        self.n = 0

    def new_gids(self, count: int) -> int:
        start = self.n
        self.n += count
        if self.n > len(self.res):
            cap = len(self.res)
            while cap < self.n:
                cap *= 2
            grown = np.full(cap, -1, _I64)
            grown[:start] = self.res[:start]
            self.res = grown
        return start

    def push(self, level: int, chunk) -> None:
        b = self.buckets.get(level)
        if b is None:
            self.buckets[level] = [chunk]
            heapq.heappush(self.heap, level)
        else:
            b.append(chunk)

    def pop_level(self):
        level = heapq.heappop(self.heap)
        return level, self.buckets.pop(level)


class ArenaBDDManager(BDDManager):
    """The vectorized struct-of-arrays BDD kernel.

    A drop-in subclass of :class:`~repro.bdd.manager.BDDManager`: the
    public API, reference-counting protocol, reordering machinery and
    serialization formats are unchanged, and results are bit-identical
    (equal canonical node tables under equal variable orders).  See the
    module docstring for the execution model.

    Extra parameters
    ----------------
    vector_threshold:
        Frontier width at which bucket processing switches from the
        plain-Python loop to the numpy batch path.
    initial_capacity:
        Initial node-array capacity (grows by doubling).  Tests use tiny
        values to force growth on every path.
    """

    kernel_name = "arena"

    #: The per-level node index (``_at_level``) and the parent counters
    #: (``_parents``) are maintained lazily: the reorder machinery is
    #: their only consumer, so the steady-state hot path skips the
    #: per-node bookkeeping entirely and both are rebuilt vectorized on
    #: entry to swap/sift/reorder (then tracked eagerly while those run,
    #: since they create and free nodes mid-flight).  Class attribute so
    #: ``super().__init__`` sees it before the instance flag exists.
    _track_levels = False

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
        vector_threshold: int = 32,
        initial_capacity: int = 1024,
    ) -> None:
        super().__init__(num_vars, gc_threshold, cache_limit)
        cap = 4
        while cap < initial_capacity:
            cap <<= 1
        self._capacity = cap
        self._size = 2
        # Replace the list-based node store with numpy columns.
        self._level = np.full(cap, num_vars, _I64)
        self._low = np.full(cap, -1, _I64)
        self._high = np.full(cap, -1, _I64)
        self._refs = np.zeros(cap, _I64)
        self._refs[FALSE] = self._refs[TRUE] = 1
        self._parents = np.zeros(cap, _I64)
        # The unique table stays a Python dict: profiling shows dict probes
        # (~0.15us) beat open-addressed numpy probing both for the scalar
        # mk() path and for batch lookups at realistic frontier widths
        # (tens to a few thousand); mk_many still batches the reduce,
        # duplicate-collapse, and store-column writes as vector ops.  The
        # operation caches below are pure batch structures and do use the
        # vectorized table.
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Operation caches for the breadth-first engine.  Apply shares the
        # inherited ``_apply_cache`` (identical ``(op, a, b)`` keys, so the
        # narrow recursive path and the frontier engine feed each other's
        # hits).  Exist and and_exist key their quantified suffix by an
        # interned id instead of the level tuple, so they keep engine-local
        # dicts; all of them honour cache_limit.  Plain dicts throughout:
        # at realistic frontier widths batch dict probes via tolist() beat
        # open-addressed numpy probing (see VectorTable) by several times.
        self._vexist: Dict[Tuple[int, int, int], int] = {}
        self._vand_exist: Dict[Tuple[int, int, int], int] = {}
        #: Quantified-level suffixes interned to small ids so exist and
        #: and_exist cache keys fit the three-column table while keeping
        #: the reference kernel's suffix-sharing cache semantics.
        self._suffix_ids: Dict[Tuple[int, ...], int] = {}
        self.vector_threshold = vector_threshold
        # Frontier telemetry (satellite for the benchmark spans).
        self.frontier_levels = np.zeros(max(num_vars, 1), _I64)
        self.frontier_batches_vector = 0
        self.frontier_batches_scalar = 0
        self.max_frontier = 0

    # ------------------------------------------------------------------
    # Store management
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._size - len(self._free)

    def table_stats(self) -> Dict[str, float]:
        live = self.num_nodes
        self.stats.note_live(live)
        capacity = self._capacity
        return {
            "live_nodes": live,
            "capacity": capacity,
            "free_slots": len(self._free),
            "unique_entries": len(self._unique),
            "load": live / capacity if capacity else 0.0,
            "num_vars": self._num_vars,
            "peak_live_nodes": self.stats.peak_live_nodes,
        }

    def cache_stats(self) -> Dict[str, int]:
        out = super().cache_stats()
        out["vexist"] = len(self._vexist)
        out["vand_exist"] = len(self._vand_exist)
        return out

    def _reserve(self, need: int) -> None:
        if need <= self._capacity:
            return
        cap = self._capacity
        while cap < need:
            cap *= 2
        size = self._size
        for name, fill in (
            ("_level", 0),
            ("_low", -1),
            ("_high", -1),
            ("_refs", 0),
            ("_parents", 0),
        ):
            old = getattr(self, name)
            new = np.full(cap, fill, _I64)
            new[:size] = old[:size]
            setattr(self, name, new)
        self._capacity = cap

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return int(low)
        level = int(level)
        low = int(low)
        high = int(high)
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self._free:
            node = int(self._free.pop())
        else:
            if self._size == self._capacity:
                self._reserve(self._size + 1)
            node = self._size
            self._size += 1
        self._level[node] = level
        self._low[node] = low
        self._high[node] = high
        self._refs[node] = 0
        if self._track_levels:
            self._parents[node] = 0
            self._parents[low] += 1
            self._parents[high] += 1
            self._at_level[level].add(node)
        self._unique[key] = node
        self.stats.nodes_created += 1
        return node

    def mk_many(self, level: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vector ``mk``: reduce, batch unique lookup, batch insert."""
        n = len(lo)
        out = np.empty(n, _I64)
        red = lo == hi
        out[red] = lo[red]
        ni = ~red
        cnt = int(np.count_nonzero(ni))
        if cnt == 0:
            return out
        level = int(level)
        l2 = lo[ni]
        h2 = hi[ni]
        unique = self._unique
        uget = unique.get
        found = np.fromiter(
            (
                uget((level, l, h), -1)
                for l, h in zip(l2.tolist(), h2.tolist())
            ),
            _I64,
            cnt,
        )
        miss = found < 0
        if miss.any():
            ml = l2[miss]
            mh = h2[miss]
            # Collapse duplicate (low, high) pairs within the batch.
            key = (ml << 32) | mh
            _, uidx, uinv = np.unique(key, return_index=True, return_inverse=True)
            nl = ml[uidx]
            nh = mh[uidx]
            ids = self._alloc_many(level, nl, nh)
            for l, h, i in zip(nl.tolist(), nh.tolist(), ids.tolist()):
                unique[(level, l, h)] = i
            found[miss] = ids[uinv]
        out[ni] = found
        return out

    def _alloc_many(self, level: int, nl: np.ndarray, nh: np.ndarray) -> np.ndarray:
        n = len(nl)
        ids = np.empty(n, _I64)
        k = 0
        free = self._free
        if free:
            k = min(len(free), n)
            ids[:k] = [int(x) for x in free[-k:]]
            del free[-k:]
        m = n - k
        if m:
            self._reserve(self._size + m)
            ids[k:] = np.arange(self._size, self._size + m)
            self._size += m
        self._level[ids] = level
        self._low[ids] = nl
        self._high[ids] = nh
        self._refs[ids] = 0
        if self._track_levels:
            self._parents[ids] = 0
            np.add.at(self._parents, nl, 1)
            np.add.at(self._parents, nh, 1)
            self._at_level[level].update(ids.tolist())
        self.stats.nodes_created += n
        return ids

    def add_vars(self, count: int) -> None:
        if count < 0:
            raise BDDError("count must be non-negative")
        old_sentinel = self._num_vars
        self._num_vars += count
        size = self._size
        lv = self._level[:size]
        terminal = (lv == old_sentinel) & (self._low[:size] == -1)
        lv[terminal] = self._num_vars
        self._at_level.extend(set() for _ in range(count))
        self._var_at_level.extend(range(old_sentinel, self._num_vars))
        self._level_at_var.extend(range(old_sentinel, self._num_vars))
        self._count_cache.clear()
        self.frontier_levels = np.concatenate(
            (self.frontier_levels, np.zeros(count, _I64))
        )

    def _clear_caches(self) -> None:
        super()._clear_caches()
        self._vexist.clear()
        self._vand_exist.clear()
        # _suffix_ids is a pure interning map (no node references): keep.

    def _suffix_id(self, levels: Tuple[int, ...]) -> int:
        sid = self._suffix_ids.get(levels)
        if sid is None:
            sid = len(self._suffix_ids)
            self._suffix_ids[levels] = sid
        return sid

    def _vcache_insert(self, cache, k1, k2, k3, vals) -> None:
        """Batch cache insert honouring :attr:`cache_limit`."""
        if (
            self.cache_limit is not None
            and len(cache) + len(vals) > self.cache_limit
        ):
            cache.clear()
        for key in zip(k1.tolist(), k2.tolist(), k3.tolist(), vals.tolist()):
            cache[key[:3]] = key[3]

    @staticmethod
    def _vcache_lookup(cache, k1, k2, k3) -> np.ndarray:
        """Batch cache probe; -1 where missing."""
        get = cache.get
        n = len(k1)
        return np.fromiter(
            (
                get(key, -1)
                for key in zip(k1.tolist(), k2.tolist(), k3.tolist())
            ),
            _I64,
            n,
        )

    def _vcache_set(self, cache, k1, k2, k3, value) -> None:
        if self.cache_limit is not None and len(cache) >= self.cache_limit:
            cache.clear()
        cache[(k1, k2, k3)] = value

    # ------------------------------------------------------------------
    # Breadth-first frontier machinery
    # ------------------------------------------------------------------

    def frontier_profile(self) -> Dict[str, object]:
        """Telemetry snapshot of frontier activity since construction
        (or the last :meth:`reset_frontier_profile`)."""
        levels = self.frontier_levels
        nz = np.flatnonzero(levels)
        return {
            "per_level": {int(i): int(levels[i]) for i in nz},
            "total_requests": int(levels.sum()),
            "batches_vector": self.frontier_batches_vector,
            "batches_scalar": self.frontier_batches_scalar,
            "max_frontier": int(self.max_frontier),
        }

    def reset_frontier_profile(self) -> None:
        self.frontier_levels.fill(0)
        self.frontier_batches_vector = 0
        self.frontier_batches_scalar = 0
        self.max_frontier = 0

    def _note_bucket(self, level: int, width: int) -> bool:
        """Record telemetry; True when the bucket takes the vector path."""
        self.frontier_levels[level] += width
        if width > self.max_frontier:
            self.max_frontier = width
        if width < self.vector_threshold:
            self.frontier_batches_scalar += 1
            return False
        self.frontier_batches_vector += 1
        return True

    def _enqueue_pairs(self, fr, top, A, B, G) -> None:
        if len(top) == 1:
            fr.push(int(top[0]), (A, B, G))
            return
        order = np.argsort(top, kind="stable")
        ts = top[order]
        cuts = np.flatnonzero(ts[1:] != ts[:-1]) + 1
        for piece in np.split(order, cuts):
            fr.push(int(top[piece[0]]), (A[piece], B[piece], G[piece]))

    def _enqueue_singles(self, fr, top, A, G) -> None:
        if len(top) == 1:
            fr.push(int(top[0]), (A, G))
            return
        order = np.argsort(top, kind="stable")
        ts = top[order]
        cuts = np.flatnonzero(ts[1:] != ts[:-1]) + 1
        for piece in np.split(order, cuts):
            fr.push(int(top[piece[0]]), (A[piece], G[piece]))

    @staticmethod
    def _resolve_children(fr, g, v) -> np.ndarray:
        """Child values for the upward sweep: gid results where enqueued,
        immediate values elsewhere."""
        idx = np.where(g >= 0, g, 0)
        return np.where(g >= 0, fr.res[idx], v)

    # ------------------------------------------------------------------
    # apply (AND/OR/DIFF/XOR)
    # ------------------------------------------------------------------

    def _apply(self, op: int, a: int, b: int) -> int:
        a = int(a)
        b = int(b)
        # A single request pair starts with a frontier of width one: the
        # breadth-first machinery only pays off once frontiers widen, so
        # narrow calls use the reference recursion (safe while diagrams
        # are shallower than the interpreter's stack) and the
        # level-synchronized sweep is reserved for deep managers and the
        # wide batches issued by _apply_many/_run_exist/_run_and_exist.
        if self._num_vars <= _RECURSION_SAFE_VARS:
            return BDDManager._apply(self, op, a, b)
        v = _apply_shortcut(op, a, b)
        if v >= 0:
            return v
        if op != _OP_DIFF and a > b:
            a, b = b, a
        return int(self._run_apply(op, np.array([a], _I64), np.array([b], _I64))[0])

    def _apply_many(self, op: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Batch ``_apply`` over request pairs (short-cuts included)."""
        n = len(A)
        if n == 0:
            return np.empty(0, _I64)
        if n < self.vector_threshold:
            return np.fromiter(
                (self._apply(op, int(x), int(y)) for x, y in zip(A, B)),
                _I64,
                n,
            )
        out = self._shortcut_vector(op, A, B)
        unres = out < 0
        if unres.any():
            xa = A[unres]
            xb = B[unres]
            if op != _OP_DIFF:
                sw = xa > xb
                xa, xb = np.where(sw, xb, xa), np.where(sw, xa, xb)
            out[unres] = self._run_apply(op, xa, xb)
        return out

    @staticmethod
    def _shortcut_vector(op: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.full(len(a), -1, _I64)
        if op == _OP_AND:
            out[(a == FALSE) | (b == FALSE)] = FALSE
            eq = (a == b) & (out < 0)
            out[eq] = a[eq]
            m = (a == TRUE) & (out < 0)
            out[m] = b[m]
            m = (b == TRUE) & (out < 0)
            out[m] = a[m]
        elif op == _OP_OR:
            out[(a == TRUE) | (b == TRUE)] = TRUE
            eq = (a == b) & (out < 0)
            out[eq] = a[eq]
            m = (a == FALSE) & (out < 0)
            out[m] = b[m]
            m = (b == FALSE) & (out < 0)
            out[m] = a[m]
        elif op == _OP_DIFF:
            out[(a == FALSE) | (b == TRUE) | (a == b)] = FALSE
            m = (b == FALSE) & (out < 0)
            out[m] = a[m]
        else:  # _OP_XOR
            eq = a == b
            out[eq] = FALSE
            m = (a == FALSE) & (out < 0)
            out[m] = b[m]
            m = (b == FALSE) & (out < 0)
            out[m] = a[m]
        return out

    def _run_apply(self, op: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Resolve pre-filtered (non-shortcut, normalized) request pairs."""
        fr = _Frontier()
        n = len(A)
        fr.new_gids(n)
        lv = self._level
        top = np.minimum(lv[A], lv[B])
        self._enqueue_pairs(fr, top, A, B, np.arange(n))
        plan: list = []
        while fr.heap:
            level, chunks = fr.pop_level()
            width = sum(len(c[0]) for c in chunks)
            if self._note_bucket(level, width):
                self._apply_bucket_vector(op, fr, plan, level, chunks)
            else:
                self._apply_bucket_scalar(op, fr, plan, level, chunks)
        res = fr.res
        cl = self.cache_limit
        for rec in reversed(plan):
            if rec[0]:  # vector record
                _, level, mA, mB, gl, vl, gh, vh, G, inv, ures, misspos = rec
                lo = self._resolve_children(fr, gl, vl)
                hi = self._resolve_children(fr, gh, vh)
                r = self.mk_many(level, lo, hi)
                self._vcache_insert(
                    self._apply_cache, np.full(len(mA), op, _I64), mA, mB, r
                )
                ures[misspos] = r
                res[G] = ures[inv]
            else:
                _, level, entries = rec
                cache = self._apply_cache
                for a, b, gl, vl, gh, vh, gids in entries:
                    lo = int(res[gl]) if gl >= 0 else vl
                    hi = int(res[gh]) if gh >= 0 else vh
                    r = self.mk(level, lo, hi)
                    self._vcache_set(cache, op, a, b, r)
                    for g in gids:
                        res[g] = r
        out = fr.res[:n]
        del fr
        return out

    def _apply_bucket_scalar(self, op, fr, plan, level, chunks) -> None:
        lvl, lo, hi = self._level, self._low, self._high
        cache = self._apply_cache
        stats = self.stats
        seen: Dict[Tuple[int, int], tuple] = {}
        entries: list = []
        pending: Dict[int, list] = {}
        for chunk in chunks:
            for a, b, g in zip(*chunk):
                a = int(a)
                b = int(b)
                g = int(g)
                prev = seen.get((a, b))
                if prev is not None:
                    if prev[0] == 0:
                        # fr.res may have been reallocated by new_gids();
                        # always write through the frontier.
                        fr.res[g] = prev[1]
                    else:
                        prev[1][6].append(g)
                    continue
                v = cache.get((op, a, b), -1)
                if v >= 0:
                    stats.op_hits[op] += 1
                    fr.res[g] = v
                    seen[(a, b)] = (0, v)
                    continue
                stats.op_misses[op] += 1
                la = lvl[a]
                lb = lvl[b]
                if la == level:
                    a0, a1 = int(lo[a]), int(hi[a])
                else:
                    a0 = a1 = a
                if lb == level:
                    b0, b1 = int(lo[b]), int(hi[b])
                else:
                    b0 = b1 = b
                gl, vl = self._child_apply_scalar(op, fr, a0, b0, pending)
                gh, vh = self._child_apply_scalar(op, fr, a1, b1, pending)
                entry = [a, b, gl, vl, gh, vh, [g]]
                seen[(a, b)] = (1, entry)
                entries.append(entry)
        for clevel, lists in pending.items():
            fr.push(clevel, tuple(lists))
        if entries:
            plan.append((0, level, entries))

    def _child_apply_scalar(self, op, fr, ca, cb, pending):
        v = _apply_shortcut(op, ca, cb)
        if v >= 0:
            return -1, v
        if op != _OP_DIFF and ca > cb:
            ca, cb = cb, ca
        g = fr.new_gids(1)
        t = min(int(self._level[ca]), int(self._level[cb]))
        lists = pending.get(t)
        if lists is None:
            lists = pending[t] = ([], [], [])
        lists[0].append(ca)
        lists[1].append(cb)
        lists[2].append(g)
        return g, 0

    def _apply_bucket_vector(self, op, fr, plan, level, chunks) -> None:
        if len(chunks) == 1:
            A = np.asarray(chunks[0][0], _I64)
            B = np.asarray(chunks[0][1], _I64)
            G = np.asarray(chunks[0][2], _I64)
        else:
            A = np.concatenate([np.asarray(c[0], _I64) for c in chunks])
            B = np.concatenate([np.asarray(c[1], _I64) for c in chunks])
            G = np.concatenate([np.asarray(c[2], _I64) for c in chunks])
        key = (A << 32) | B
        _, uidx, inv = np.unique(key, return_index=True, return_inverse=True)
        uA = A[uidx]
        uB = B[uidx]
        ures = self._vcache_lookup(
            self._apply_cache, np.full(len(uA), op, _I64), uA, uB
        )
        hits = ures >= 0
        nh = int(np.count_nonzero(hits))
        self.stats.op_hits[op] += nh
        self.stats.op_misses[op] += len(uA) - nh
        misspos = np.flatnonzero(~hits)
        if misspos.size == 0:
            fr.res[G] = ures[inv]
            return
        mA = uA[misspos]
        mB = uB[misspos]
        lv, lo, hi = self._level, self._low, self._high
        onA = lv[mA] == level
        a0 = np.where(onA, lo[mA], mA)
        a1 = np.where(onA, hi[mA], mA)
        onB = lv[mB] == level
        b0 = np.where(onB, lo[mB], mB)
        b1 = np.where(onB, hi[mB], mB)
        gl, vl = self._children_apply_vector(op, fr, a0, b0)
        gh, vh = self._children_apply_vector(op, fr, a1, b1)
        plan.append((1, level, mA, mB, gl, vl, gh, vh, G, inv, ures, misspos))

    def _children_apply_vector(self, op, fr, ca, cb):
        val = self._shortcut_vector(op, ca, cb)
        unres = val < 0
        g = np.full(len(ca), -1, _I64)
        cnt = int(np.count_nonzero(unres))
        if cnt:
            xa = ca[unres]
            xb = cb[unres]
            if op != _OP_DIFF:
                sw = xa > xb
                xa, xb = np.where(sw, xb, xa), np.where(sw, xa, xb)
            start = fr.new_gids(cnt)
            gids = np.arange(start, start + cnt)
            g[unres] = gids
            lv = self._level
            top = np.minimum(lv[xa], lv[xb])
            self._enqueue_pairs(fr, top, xa, xb, gids)
        return g, val

    # ------------------------------------------------------------------
    # Fused variable insertion: ITE(var at level L, g, f) in one pass
    # ------------------------------------------------------------------
    #
    # replace() must recompose nodes whose new variable sinks below the
    # top of an already-permuted child.  Decomposing that as
    # OR(AND(v, g), DIFF(f, v)) costs three traversals and materialises
    # two throwaway intermediate diagrams; this dedicated op descends f
    # and g in lockstep once and creates only result nodes.  Results are
    # canonical, so they coincide with the three-pass decomposition
    # node-for-node.

    def _ite_var(self, L: int, f: int, g: int) -> int:
        if f == g:
            return f
        lf = int(self._level[f])
        lg = int(self._level[g])
        t = lf if lf < lg else lg
        if t > L:
            return self.mk(L, f, g)
        if t == L:
            fl = int(self._low[f]) if lf == L else f
            gh = int(self._high[g]) if lg == L else g
            return self.mk(L, fl, gh)
        key = (_ITEVAR_BASE + L, f, g)
        cache = self._apply_cache
        cached = cache.get(key)
        if cached is not None:
            self.stats.replace_hits += 1
            return cached
        self.stats.replace_misses += 1
        f0, f1 = (
            (int(self._low[f]), int(self._high[f])) if lf == t else (f, f)
        )
        g0, g1 = (
            (int(self._low[g]), int(self._high[g])) if lg == t else (g, g)
        )
        result = self.mk(
            t, self._ite_var(L, f0, g0), self._ite_var(L, f1, g1)
        )
        return self._cache_store(cache, key, result)

    def _ite_var_many(self, L: int, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        n = len(F)
        if n == 0:
            return np.empty(0, _I64)
        if n < self.vector_threshold and self._num_vars <= _RECURSION_SAFE_VARS:
            return np.fromiter(
                (self._ite_var(L, int(x), int(y)) for x, y in zip(F, G)),
                _I64,
                n,
            )
        out = np.full(n, -1, _I64)
        lv = self._level
        eq = F == G
        out[eq] = F[eq]
        lf = lv[F]
        lg = lv[G]
        t = np.minimum(lf, lg)
        # F/G index pre-existing nodes, so reads through lv stay valid
        # even after mk_many below grows (reallocates) the store arrays.
        above = (~eq) & (t > L)
        if above.any():
            out[above] = self.mk_many(L, F[above], G[above])
        at = (~eq) & (t == L)
        if at.any():
            f = F[at]
            g = G[at]
            fl = np.where(lv[f] == L, self._low[f], f)
            gh = np.where(lv[g] == L, self._high[g], g)
            out[at] = self.mk_many(L, fl, gh)
        deep = out < 0
        if deep.any():
            out[deep] = self._run_ite_var(L, F[deep], G[deep])
        return out

    def _run_ite_var(self, L: int, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        fr = _Frontier()
        n = len(F)
        fr.new_gids(n)
        lv = self._level
        top = np.minimum(lv[F], lv[G])
        self._enqueue_pairs(fr, top, F, G, np.arange(n))
        plan: list = []
        while fr.heap:
            level, chunks = fr.pop_level()
            width = sum(len(c[0]) for c in chunks)
            if self._note_bucket(level, width):
                self._ite_var_bucket_vector(L, fr, plan, level, chunks)
            else:
                self._ite_var_bucket_scalar(L, fr, plan, level, chunks)
        res = fr.res
        opk = _ITEVAR_BASE + L
        for rec in reversed(plan):
            if rec[0]:  # vector record
                _, level, mF, mG, gl, vl, gh, vh, Gd, inv, ures, misspos = rec
                lo = self._resolve_children(fr, gl, vl)
                hi = self._resolve_children(fr, gh, vh)
                r = self.mk_many(level, lo, hi)
                self._vcache_insert(
                    self._apply_cache, np.full(len(mF), opk, _I64), mF, mG, r
                )
                ures[misspos] = r
                res[Gd] = ures[inv]
            else:
                _, level, entries = rec
                cache = self._apply_cache
                for f, g, gl, vl, gh, vh, gids in entries:
                    lo = int(res[gl]) if gl >= 0 else vl
                    hi = int(res[gh]) if gh >= 0 else vh
                    r = self.mk(level, lo, hi)
                    self._vcache_set(cache, opk, f, g, r)
                    for gd in gids:
                        res[gd] = r
        out = fr.res[:n]
        del fr
        return out

    def _ite_var_bucket_scalar(self, L, fr, plan, level, chunks) -> None:
        lvl, low, high = self._level, self._low, self._high
        cache = self._apply_cache
        stats = self.stats
        opk = _ITEVAR_BASE + L
        seen: Dict[Tuple[int, int], tuple] = {}
        entries: list = []
        pending: Dict[int, list] = {}
        for chunk in chunks:
            for f, g, gd in zip(*chunk):
                f = int(f)
                g = int(g)
                gd = int(gd)
                prev = seen.get((f, g))
                if prev is not None:
                    if prev[0] == 0:
                        # fr.res may have been reallocated by new_gids();
                        # always write through the frontier.
                        fr.res[gd] = prev[1]
                    else:
                        prev[1][6].append(gd)
                    continue
                v = cache.get((opk, f, g), -1)
                if v >= 0:
                    stats.replace_hits += 1
                    fr.res[gd] = v
                    seen[(f, g)] = (0, v)
                    continue
                stats.replace_misses += 1
                lf = lvl[f]
                lg = lvl[g]
                if lf == level:
                    f0, f1 = int(low[f]), int(high[f])
                else:
                    f0 = f1 = f
                if lg == level:
                    g0, g1 = int(low[g]), int(high[g])
                else:
                    g0 = g1 = g
                gl, vl = self._child_ite_var_scalar(L, fr, f0, g0, pending)
                gh, vh = self._child_ite_var_scalar(L, fr, f1, g1, pending)
                entry = [f, g, gl, vl, gh, vh, [gd]]
                seen[(f, g)] = (1, entry)
                entries.append(entry)
        for clevel, lists in pending.items():
            fr.push(clevel, tuple(lists))
        if entries:
            plan.append((0, level, entries))

    def _child_ite_var_scalar(self, L, fr, cf, cg, pending):
        if cf == cg:
            return -1, cf
        lf = int(self._level[cf])
        lg = int(self._level[cg])
        t = lf if lf < lg else lg
        if t > L:
            return -1, self.mk(L, cf, cg)
        if t == L:
            fl = int(self._low[cf]) if lf == L else cf
            gh = int(self._high[cg]) if lg == L else cg
            return -1, self.mk(L, fl, gh)
        gid = fr.new_gids(1)
        lists = pending.get(t)
        if lists is None:
            lists = pending[t] = ([], [], [])
        lists[0].append(cf)
        lists[1].append(cg)
        lists[2].append(gid)
        return gid, 0

    def _ite_var_bucket_vector(self, L, fr, plan, level, chunks) -> None:
        if len(chunks) == 1:
            F = np.asarray(chunks[0][0], _I64)
            G = np.asarray(chunks[0][1], _I64)
            Gd = np.asarray(chunks[0][2], _I64)
        else:
            F = np.concatenate([np.asarray(c[0], _I64) for c in chunks])
            G = np.concatenate([np.asarray(c[1], _I64) for c in chunks])
            Gd = np.concatenate([np.asarray(c[2], _I64) for c in chunks])
        key = (F << 32) | G
        _, uidx, inv = np.unique(key, return_index=True, return_inverse=True)
        uF = F[uidx]
        uG = G[uidx]
        opk = np.full(len(uF), _ITEVAR_BASE + L, _I64)
        ures = self._vcache_lookup(self._apply_cache, opk, uF, uG)
        hits = ures >= 0
        nh = int(np.count_nonzero(hits))
        self.stats.replace_hits += nh
        self.stats.replace_misses += len(uF) - nh
        misspos = np.flatnonzero(~hits)
        if misspos.size == 0:
            fr.res[Gd] = ures[inv]
            return
        mF = uF[misspos]
        mG = uG[misspos]
        lv, lo, hi = self._level, self._low, self._high
        onF = lv[mF] == level
        f0 = np.where(onF, lo[mF], mF)
        f1 = np.where(onF, hi[mF], mF)
        onG = lv[mG] == level
        g0 = np.where(onG, lo[mG], mG)
        g1 = np.where(onG, hi[mG], mG)
        gl, vl = self._children_ite_var_vector(L, fr, f0, g0)
        gh, vh = self._children_ite_var_vector(L, fr, f1, g1)
        plan.append((1, level, mF, mG, gl, vl, gh, vh, Gd, inv, ures, misspos))

    def _children_ite_var_vector(self, L, fr, cf, cg):
        n = len(cf)
        val = np.full(n, -1, _I64)
        gout = np.full(n, -1, _I64)
        lv = self._level
        eq = cf == cg
        val[eq] = cf[eq]
        lf = lv[cf]
        lg = lv[cg]
        t = np.minimum(lf, lg)
        # cf/cg are pre-existing gids: stale reads through lv stay valid
        # across the mk_many growths below.
        above = (~eq) & (t > L)
        if above.any():
            val[above] = self.mk_many(L, cf[above], cg[above])
        at = (~eq) & (t == L)
        if at.any():
            f = cf[at]
            g = cg[at]
            fl = np.where(lv[f] == L, self._low[f], f)
            gh = np.where(lv[g] == L, self._high[g], g)
            val[at] = self.mk_many(L, fl, gh)
        unres = val < 0
        cnt = int(np.count_nonzero(unres))
        if cnt:
            xf = cf[unres]
            xg = cg[unres]
            start = fr.new_gids(cnt)
            gids = np.arange(start, start + cnt)
            gout[unres] = gids
            lv2 = self._level
            top = np.minimum(lv2[xf], lv2[xg])
            self._enqueue_pairs(fr, top, xf, xg, gids)
        return gout, val

    def apply_not(self, a: int) -> int:
        a = int(a)
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            self.stats.not_hits += 1
            return cached
        self.stats.not_misses += 1
        # Complement as XOR with TRUE: on deep managers this runs on the
        # breadth-first engine, so the recursion limit is never hit.
        result = self._apply(_OP_XOR, a, TRUE)
        return self._cache_store(self._not_cache, a, result)

    # ------------------------------------------------------------------
    # exist (projection)
    # ------------------------------------------------------------------

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        a = int(a)
        if a <= TRUE:
            return a
        if self._num_vars <= _RECURSION_SAFE_VARS:
            return self._exist_rec(a, levels)
        la = int(self._level[a])
        levels = levels[bisect_left(levels, la):]
        if not levels:
            return a
        return int(self._run_exist(np.array([a], _I64), levels)[0])

    def _exist_rec(self, a: int, levels: Tuple[int, ...]) -> int:
        # Mirror of BDDManager._exist, but keyed by the interned suffix id
        # so the narrow recursive path and the frontier engine share one
        # memo space instead of recomputing each other's results.
        if a <= TRUE:
            return a
        la = int(self._level[a])
        levels = levels[bisect_left(levels, la):]
        if not levels:
            return a
        sid = self._suffix_id(levels)
        cache = self._vexist
        key = (a, sid, 0)
        cached = cache.get(key)
        if cached is not None:
            self.stats.exist_hits += 1
            return cached
        self.stats.exist_misses += 1
        low = self._exist_rec(int(self._low[a]), levels)
        high = self._exist_rec(int(self._high[a]), levels)
        if la == levels[0]:
            result = self._apply(_OP_OR, low, high)
        else:
            result = self.mk(la, low, high)
        self._vcache_set(cache, a, sid, 0, result)
        return result

    def _run_exist(self, A: np.ndarray, levels: Tuple[int, ...]) -> np.ndarray:
        fr = _Frontier()
        n = len(A)
        fr.new_gids(n)
        self._enqueue_singles(fr, self._level[A], A, np.arange(n))
        plan: list = []
        last = levels[-1]
        while fr.heap:
            level, chunks = fr.pop_level()
            sfx = levels[bisect_left(levels, level):]
            sid = self._suffix_id(sfx)
            quant = sfx[0] == level
            width = sum(len(c[0]) for c in chunks)
            if self._note_bucket(level, width):
                self._exist_bucket_vector(fr, plan, level, chunks, sid, quant, last)
            else:
                self._exist_bucket_scalar(fr, plan, level, chunks, sid, quant, last)
        res = fr.res
        for rec in reversed(plan):
            if rec[0]:  # vector record
                _, level, quant, sid, mA, gl, vl, gh, vh, G, inv, ures, misspos = rec
                lo = self._resolve_children(fr, gl, vl)
                hi = self._resolve_children(fr, gh, vh)
                if quant:
                    r = self._apply_many(_OP_OR, lo, hi)
                else:
                    r = self.mk_many(level, lo, hi)
                self._vcache_insert(
                    self._vexist,
                    mA,
                    np.full(len(mA), sid, _I64),
                    np.zeros(len(mA), _I64),
                    r,
                )
                ures[misspos] = r
                res[G] = ures[inv]
            else:
                _, level, quant, sid, entries = rec
                cache = self._vexist
                for a, gl, vl, gh, vh, gids in entries:
                    lo = int(res[gl]) if gl >= 0 else vl
                    hi = int(res[gh]) if gh >= 0 else vh
                    if quant:
                        r = self._apply(_OP_OR, lo, hi)
                    else:
                        r = self.mk(level, lo, hi)
                    self._vcache_set(cache, a, sid, 0, r)
                    for g in gids:
                        res[g] = r
        out = fr.res[:n]
        del fr
        return out

    def _exist_bucket_scalar(self, fr, plan, level, chunks, sid, quant, last):
        lvl, low, high = self._level, self._low, self._high
        cache = self._vexist
        stats = self.stats
        seen: Dict[int, tuple] = {}
        entries: list = []
        pending: Dict[int, list] = {}

        def child(c):
            if lvl[c] > last:  # terminal or below all quantified levels
                return -1, c
            g = fr.new_gids(1)
            t = int(lvl[c])
            lists = pending.get(t)
            if lists is None:
                lists = pending[t] = ([], [])
            lists[0].append(c)
            lists[1].append(g)
            return g, 0

        for chunk in chunks:
            for a, g in zip(*chunk):
                a = int(a)
                g = int(g)
                prev = seen.get(a)
                if prev is not None:
                    if prev[0] == 0:
                        # fr.res may have been reallocated by new_gids();
                        # always write through the frontier.
                        fr.res[g] = prev[1]
                    else:
                        prev[1][5].append(g)
                    continue
                v = cache.get((a, sid, 0), -1)
                if v >= 0:
                    stats.exist_hits += 1
                    fr.res[g] = v
                    seen[a] = (0, v)
                    continue
                stats.exist_misses += 1
                gl, vl = child(int(low[a]))
                gh, vh = child(int(high[a]))
                entry = [a, gl, vl, gh, vh, [g]]
                seen[a] = (1, entry)
                entries.append(entry)
        for clevel, lists in pending.items():
            fr.push(clevel, tuple(lists))
        if entries:
            plan.append((0, level, quant, sid, entries))

    def _exist_bucket_vector(self, fr, plan, level, chunks, sid, quant, last):
        if len(chunks) == 1:
            A = np.asarray(chunks[0][0], _I64)
            G = np.asarray(chunks[0][1], _I64)
        else:
            A = np.concatenate([np.asarray(c[0], _I64) for c in chunks])
            G = np.concatenate([np.asarray(c[1], _I64) for c in chunks])
        uA, inv = np.unique(A, return_inverse=True)
        ures = self._vcache_lookup(
            self._vexist, uA, np.full(len(uA), sid, _I64), np.zeros(len(uA), _I64)
        )
        hits = ures >= 0
        nh = int(np.count_nonzero(hits))
        self.stats.exist_hits += nh
        self.stats.exist_misses += len(uA) - nh
        misspos = np.flatnonzero(~hits)
        if misspos.size == 0:
            fr.res[G] = ures[inv]
            return
        mA = uA[misspos]
        gl, vl = self._children_exist_vector(fr, self._low[mA], last)
        gh, vh = self._children_exist_vector(fr, self._high[mA], last)
        plan.append((1, level, quant, sid, mA, gl, vl, gh, vh, G, inv, ures, misspos))

    def _children_exist_vector(self, fr, c, last):
        lv = self._level[c]
        resolved = lv > last
        val = np.where(resolved, c, -1)
        g = np.full(len(c), -1, _I64)
        cnt = int(np.count_nonzero(~resolved))
        if cnt:
            unres = ~resolved
            x = c[unres]
            start = fr.new_gids(cnt)
            gids = np.arange(start, start + cnt)
            g[unres] = gids
            self._enqueue_singles(fr, lv[unres], x, gids)
        return g, val

    # ------------------------------------------------------------------
    # and_exist (relational product)
    # ------------------------------------------------------------------

    def _and_exist(self, a: int, b: int, levels: Tuple[int, ...]) -> int:
        a = int(a)
        b = int(b)
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE and b == TRUE:
            return TRUE
        top = min(int(self._level[a]), int(self._level[b]))
        if not levels[bisect_left(levels, top):]:
            return self._apply(_OP_AND, a, b)
        if a > b:
            a, b = b, a
        return int(
            self._run_and_exist(
                np.array([a], _I64), np.array([b], _I64), levels
            )[0]
        )

    def _run_and_exist(
        self, A: np.ndarray, B: np.ndarray, levels: Tuple[int, ...]
    ) -> np.ndarray:
        fr = _Frontier()
        n = len(A)
        fr.new_gids(n)
        lv = self._level
        top = np.minimum(lv[A], lv[B])
        self._enqueue_pairs(fr, top, A, B, np.arange(n))
        plan: list = []
        last = levels[-1]
        while fr.heap:
            level, chunks = fr.pop_level()
            sfx = levels[bisect_left(levels, level):]
            sid = self._suffix_id(sfx)
            quant = sfx[0] == level
            width = sum(len(c[0]) for c in chunks)
            if self._note_bucket(level, width):
                self._and_exist_bucket_vector(
                    fr, plan, level, chunks, sid, quant, last
                )
            else:
                self._and_exist_bucket_scalar(
                    fr, plan, level, chunks, sid, quant, last
                )
        res = fr.res
        for rec in reversed(plan):
            if rec[0]:  # vector record
                (_, level, quant, sid, mA, mB,
                 gl, vl, gh, vh, G, inv, ures, misspos) = rec
                lo = self._resolve_children(fr, gl, vl)
                hi = self._resolve_children(fr, gh, vh)
                if quant:
                    r = self._apply_many(_OP_OR, lo, hi)
                else:
                    r = self.mk_many(level, lo, hi)
                self._vcache_insert(
                    self._vand_exist, mA, mB, np.full(len(mA), sid, _I64), r
                )
                ures[misspos] = r
                res[G] = ures[inv]
            else:
                _, level, quant, sid, entries = rec
                cache = self._vand_exist
                for a, b, gl, vl, gh, vh, gids in entries:
                    lo = int(res[gl]) if gl >= 0 else vl
                    hi = int(res[gh]) if gh >= 0 else vh
                    if quant:
                        r = self._apply(_OP_OR, lo, hi)
                    else:
                        r = self.mk(level, lo, hi)
                    self._vcache_set(cache, a, b, sid, r)
                    for g in gids:
                        res[g] = r
        out = fr.res[:n]
        del fr
        return out

    def _and_exist_bucket_scalar(self, fr, plan, level, chunks, sid, quant, last):
        lvl, low, high = self._level, self._low, self._high
        cache = self._vand_exist
        stats = self.stats
        seen: Dict[Tuple[int, int], tuple] = {}
        entries: list = []
        pending: Dict[int, list] = {}

        def child(ca, cb):
            if ca == FALSE or cb == FALSE:
                return -1, FALSE
            if ca == TRUE and cb == TRUE:
                return -1, TRUE
            t = min(int(lvl[ca]), int(lvl[cb]))
            if t > last:  # no quantified levels remain: plain conjunction
                return -1, self._apply(_OP_AND, ca, cb)
            if ca > cb:
                ca, cb = cb, ca
            g = fr.new_gids(1)
            lists = pending.get(t)
            if lists is None:
                lists = pending[t] = ([], [], [])
            lists[0].append(ca)
            lists[1].append(cb)
            lists[2].append(g)
            return g, 0

        for chunk in chunks:
            for a, b, g in zip(*chunk):
                a = int(a)
                b = int(b)
                g = int(g)
                prev = seen.get((a, b))
                if prev is not None:
                    if prev[0] == 0:
                        # fr.res may have been reallocated by new_gids();
                        # always write through the frontier.
                        fr.res[g] = prev[1]
                    else:
                        prev[1][6].append(g)
                    continue
                v = cache.get((a, b, sid), -1)
                if v >= 0:
                    stats.and_exist_hits += 1
                    fr.res[g] = v
                    seen[(a, b)] = (0, v)
                    continue
                stats.and_exist_misses += 1
                la = lvl[a]
                lb = lvl[b]
                if la == level:
                    a0, a1 = int(low[a]), int(high[a])
                else:
                    a0 = a1 = a
                if lb == level:
                    b0, b1 = int(low[b]), int(high[b])
                else:
                    b0 = b1 = b
                gl, vl = child(a0, b0)
                gh, vh = child(a1, b1)
                entry = [a, b, gl, vl, gh, vh, [g]]
                seen[(a, b)] = (1, entry)
                entries.append(entry)
        for clevel, lists in pending.items():
            fr.push(clevel, tuple(lists))
        if entries:
            plan.append((0, level, quant, sid, entries))

    def _and_exist_bucket_vector(self, fr, plan, level, chunks, sid, quant, last):
        if len(chunks) == 1:
            A = np.asarray(chunks[0][0], _I64)
            B = np.asarray(chunks[0][1], _I64)
            G = np.asarray(chunks[0][2], _I64)
        else:
            A = np.concatenate([np.asarray(c[0], _I64) for c in chunks])
            B = np.concatenate([np.asarray(c[1], _I64) for c in chunks])
            G = np.concatenate([np.asarray(c[2], _I64) for c in chunks])
        key = (A << 32) | B
        _, uidx, inv = np.unique(key, return_index=True, return_inverse=True)
        uA = A[uidx]
        uB = B[uidx]
        ures = self._vcache_lookup(
            self._vand_exist, uA, uB, np.full(len(uA), sid, _I64)
        )
        hits = ures >= 0
        nh = int(np.count_nonzero(hits))
        self.stats.and_exist_hits += nh
        self.stats.and_exist_misses += len(uA) - nh
        misspos = np.flatnonzero(~hits)
        if misspos.size == 0:
            fr.res[G] = ures[inv]
            return
        mA = uA[misspos]
        mB = uB[misspos]
        lv, lo, hi = self._level, self._low, self._high
        onA = lv[mA] == level
        a0 = np.where(onA, lo[mA], mA)
        a1 = np.where(onA, hi[mA], mA)
        onB = lv[mB] == level
        b0 = np.where(onB, lo[mB], mB)
        b1 = np.where(onB, hi[mB], mB)
        gl, vl = self._children_and_exist_vector(fr, a0, b0, last)
        gh, vh = self._children_and_exist_vector(fr, a1, b1, last)
        plan.append(
            (1, level, quant, sid, mA, mB, gl, vl, gh, vh, G, inv, ures, misspos)
        )

    def _children_and_exist_vector(self, fr, ca, cb, last):
        n = len(ca)
        val = np.full(n, -1, _I64)
        val[(ca == FALSE) | (cb == FALSE)] = FALSE
        both_true = (ca == TRUE) & (cb == TRUE) & (val < 0)
        val[both_true] = TRUE
        lv = self._level
        top = np.minimum(lv[ca], lv[cb])
        anded = (val < 0) & (top > last)
        if anded.any():
            val[anded] = self._apply_many(_OP_AND, ca[anded], cb[anded])
        unres = val < 0
        g = np.full(n, -1, _I64)
        cnt = int(np.count_nonzero(unres))
        if cnt:
            xa = ca[unres]
            xb = cb[unres]
            sw = xa > xb
            xa, xb = np.where(sw, xb, xa), np.where(sw, xa, xb)
            start = fr.new_gids(cnt)
            gids = np.arange(start, start + cnt)
            g[unres] = gids
            self._enqueue_pairs(fr, top[unres], xa, xb, gids)
        return g, val

    # ------------------------------------------------------------------
    # Iterative reimplementations of recursive base-class operations
    # ------------------------------------------------------------------

    def _levelize(self, a: int) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
        """Vectorized level-ordered reachability from ``a``.

        Children are always deeper than their parents, so an ascending
        sweep visits every node exactly once and buckets it by level.
        Buckets hold possibly-duplicated candidate arrays; dedup happens
        per level.  Returns ``{level: unique node array}`` (internal
        nodes only) and the visited mask (terminals pre-marked).
        """
        lvl_arr, low_arr, high_arr = self._level, self._low, self._high
        visited = np.zeros(lvl_arr.shape[0], dtype=np.bool_)
        visited[FALSE] = visited[TRUE] = True
        level_nodes: Dict[int, np.ndarray] = {}
        if a <= TRUE:
            return level_nodes, visited
        buckets: Dict[int, list] = {}
        root_level = int(lvl_arr[a])
        buckets[root_level] = [np.array([a], _I64)]
        for level in range(root_level, self._num_vars):
            parts = buckets.pop(level, None)
            if not parts:
                continue
            arr = np.unique(parts[0] if len(parts) == 1 else np.concatenate(parts))
            arr = arr[~visited[arr]]
            if arr.size == 0:
                continue
            visited[arr] = True
            level_nodes[level] = arr
            children = np.concatenate((low_arr[arr], high_arr[arr]))
            children = children[~visited[children]]
            if children.size:
                clv = lvl_arr[children]
                order = np.argsort(clv, kind="stable")
                children = children[order]
                uniq, starts = np.unique(clv[order], return_index=True)
                for child_level, chunk in zip(
                    uniq, np.split(children, starts[1:])
                ):
                    buckets.setdefault(int(child_level), []).append(chunk)
        return level_nodes, visited

    def node_count(self, a: int) -> int:
        level_nodes, _ = self._levelize(int(a))
        return sum(arr.size for arr in level_nodes.values())

    def support(self, a: int) -> frozenset:
        level_nodes, _ = self._levelize(int(a))
        return frozenset(self._var_at_level[lv] for lv in level_nodes)

    def shape(self, a: int) -> List[int]:
        counts = [0] * self._num_vars
        level_nodes, _ = self._levelize(int(a))
        for lv, arr in level_nodes.items():
            counts[lv] = arr.size
        return counts

    def replace(self, a: int, permutation: Dict[int, int]) -> int:
        perm_vars = {k: v for k, v in permutation.items() if k != v}
        if not perm_vars:
            return int(a)
        if len(set(perm_vars.values())) != len(perm_vars):
            raise BDDError("replace permutation must be injective")
        perm: Dict[int, int] = {}
        for old, new in perm_vars.items():
            self._check_var(old)
            self._check_var(new)
            perm[self._level_at_var[old]] = self._level_at_var[new]
        key_perm = tuple(sorted(perm.items()))
        a = int(a)
        if self.is_terminal(a):
            return a
        rcache = self._replace_cache
        root_cached = rcache.get((a, key_perm))
        if root_cached is not None:
            self.stats.replace_hits += 1
            return root_cached
        self.stats.replace_misses += 1
        low_arr, high_arr = self._low, self._high
        level_nodes, visited = self._levelize(a)
        support_levels = sorted(level_nodes)
        if not any(level in perm for level in support_levels):
            # The permutation does not touch the support: canonical
            # hash-consing would rebuild the identical diagram.
            self._cache_store(rcache, (a, key_perm), a)
            return a
        # Bottom-up recomposition, one batch per original level (deepest
        # first, so children are always resolved before their parents).
        # memo maps old gid -> new gid; it is sized to the store *before*
        # any growth and is only ever indexed by pre-existing gids, so
        # reallocation inside mk_many/_apply_many cannot bite.
        memo = np.zeros(visited.shape[0], dtype=_I64)
        memo[FALSE] = FALSE
        memo[TRUE] = TRUE
        for level in reversed(support_levels):
            nodes = level_nodes[level]
            new_level = perm.get(level, level)
            lo = memo[low_arr[nodes]]
            hi = memo[high_arr[nodes]]
            # Rows whose (already permuted) children still sit below the
            # new level keep the order for this slice and are a pure
            # relabelling: one mk_many.  Only rows where the new variable
            # must sink into a child diagram pay for a batched
            # if-then-else (identical decomposition to BDDManager.ite, so
            # results land on the same canonical nodes).  Child results
            # may live in newer arrays than those bound above (the store
            # grows), so read levels freshly.
            cur_lvl = self._level
            ok = (cur_lvl[lo] > new_level) & (cur_lvl[hi] > new_level)
            if ok.all():
                r = self.mk_many(new_level, lo, hi)
            else:
                r = np.empty(len(nodes), _I64)
                if ok.any():
                    r[ok] = self.mk_many(new_level, lo[ok], hi[ok])
                bad = ~ok
                r[bad] = self._ite_var_many(new_level, lo[bad], hi[bad])
            memo[nodes] = r
        result = int(memo[a])
        self._cache_store(rcache, (a, key_perm), result)
        return result

    def sat_count(self, a: int, variables: Sequence[int] | None = None) -> int:
        a = int(a)
        if variables is None:
            level_set = None
            width = self._num_vars
        else:
            level_set = frozenset(self._to_levels(variables))
            width = len(level_set)
        level_nodes, _ = self._levelize(a)
        if level_set is not None:
            # The level batches are the support: no separate walk.
            bad = set(level_nodes) - level_set
            if bad:
                raise BDDError(
                    f"sat_count variables {sorted(variables)} do not cover "
                    f"support variables "
                    f"{sorted(self._var_at_level[lv] for lv in bad)}"
                )
        sorted_levels = (
            sorted(level_set) if level_set is not None else list(range(width))
        )
        rank_below: Dict[int, int] = {}
        for i, lvl in enumerate(sorted_levels):
            rank_below[lvl] = len(sorted_levels) - i - 1

        def relevant_below(level: int) -> int:
            if level >= self._num_vars:
                return -1
            if level_set is None:
                return self._num_vars - level - 1
            return rank_below[level]

        if a == FALSE:
            return 0
        if a == TRUE:
            return 1 << width
        # Counts are arbitrary-precision integers, so the arithmetic stays
        # in Python; the traversal and child/level gathers are batched per
        # level and iterated via tolist (C-speed), replacing the per-node
        # postorder walk of the reference.
        rb: List[int] = [0] * (self._num_vars + 1)
        for lvl in range(self._num_vars):
            if level_set is None or lvl in rank_below:
                rb[lvl] = relevant_below(lvl)
        rb[self._num_vars] = -1
        low_arr, high_arr, lvl_arr = self._low, self._high, self._level
        memo: Dict[int, int] = {FALSE: 0, TRUE: 1}
        for level in sorted(level_nodes, reverse=True):
            nodes = level_nodes[level]
            here = rb[level]
            los = low_arr[nodes]
            his = high_arr[nodes]
            llv = lvl_arr[los]
            hlv = lvl_arr[his]
            for node, lo, hi, ll, hl in zip(
                nodes.tolist(), los.tolist(), his.tolist(),
                llv.tolist(), hlv.tolist(),
            ):
                total = 0
                c = memo[lo]
                if c:
                    total += c << (here - rb[ll] - 1)
                c = memo[hi]
                if c:
                    total += c << (here - rb[hl] - 1)
                memo[node] = total
        top_skipped = width - rb[int(self._level[a])] - 1
        return memo[a] << top_skipped

    def postorder(self, root: int) -> List[int]:
        # Plain-int node ids (callers build dict tables and wire bytes
        # from these; keep numpy scalars out of the public surface).
        return [int(n) for n in super().postorder(int(root))]

    # ------------------------------------------------------------------
    # Reordering support
    # ------------------------------------------------------------------

    def _rebuild_at_level(self) -> None:
        """Vectorized reconstruction of the per-level node index and the
        parent counters.

        Live internal nodes are exactly the allocated slots with a valid
        low edge (terminals and freed slots carry ``-1``).
        """
        ats: List[set] = [set() for _ in range(self._num_vars)]
        live = np.flatnonzero(self._low[: self._size] >= 0)
        parents = np.zeros(self._capacity, _I64)
        if live.size:
            np.add.at(parents, self._low[live], 1)
            np.add.at(parents, self._high[live], 1)
            lv = self._level[live]
            order = np.argsort(lv, kind="stable")
            live = live[order]
            ul, starts = np.unique(lv[order], return_index=True)
            for lvl, chunk in zip(ul.tolist(), np.split(live, starts[1:])):
                ats[lvl] = set(chunk.tolist())
        self._at_level = ats
        self._parents = parents

    def _enter_level_index(self) -> bool:
        """Make ``_at_level`` valid and eagerly tracked; returns the
        previous tracking flag for the paired restore."""
        prev = self._track_levels
        if not prev:
            self._rebuild_at_level()
            self._track_levels = True
        return prev

    def swap_levels(self, level: int) -> int:
        prev = self._enter_level_index()
        try:
            return super().swap_levels(level)
        finally:
            self._track_levels = prev

    def sift(self, *args, **kwargs):
        prev = self._enter_level_index()
        try:
            return super().sift(*args, **kwargs)
        finally:
            self._track_levels = prev

    def sift_groups(self, *args, **kwargs):
        prev = self._enter_level_index()
        try:
            return super().sift_groups(*args, **kwargs)
        finally:
            self._track_levels = prev

    def reorder(self, *args, **kwargs):
        prev = self._enter_level_index()
        try:
            return super().reorder(*args, **kwargs)
        finally:
            self._track_levels = prev

    def set_order(self, order: Sequence[int]) -> None:
        prev = self._enter_level_index()
        try:
            super().set_order(order)
        finally:
            self._track_levels = prev

    def _swap_adjacent(self, i: int) -> None:
        # The inherited swap binds the node arrays to locals and then
        # calls mk(); pre-reserving the worst case (two fresh nodes per
        # rewritten upper node) guarantees mk() never reallocates the
        # arrays out from under those bindings.
        self._reserve(self._size + 2 * len(self._at_level[i]) + 2)
        super()._swap_adjacent(i)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self) -> int:
        start = perf_counter()
        self.stats.note_live(self.num_nodes)
        size = self._size
        level, low, high = self._level, self._low, self._high
        marked = np.zeros(size, dtype=bool)
        roots = np.flatnonzero(self._refs[:size] > 0)
        wave = roots[roots > TRUE]
        marked[wave] = True
        while wave.size:
            kids = np.concatenate((low[wave], high[wave]))
            kids = kids[kids > TRUE]
            kids = np.unique(kids)
            kids = kids[~marked[kids]]
            marked[kids] = True
            wave = kids
        free_mask = np.zeros(size, dtype=bool)
        if self._free:
            free_mask[np.asarray(self._free, _I64)] = True
        dead = np.flatnonzero(~marked & ~free_mask)
        dead = dead[dead > TRUE]
        freed = len(dead)
        if freed:
            dlv = level[dead].copy()
            dlo = low[dead].copy()
            dhi = high[dead].copy()
            unique = self._unique
            for k in zip(dlv.tolist(), dlo.tolist(), dhi.tolist()):
                del unique[k]
            if self._track_levels:
                for lv in np.unique(dlv):
                    self._at_level[int(lv)].difference_update(
                        dead[dlv == lv].tolist()
                    )
                kids = np.concatenate((dlo, dhi))
                kids = kids[kids > TRUE]
                np.subtract.at(self._parents, kids, 1)
                self._parents[dead] = 0
            low[dead] = -1
            high[dead] = -1
            self._free.extend(dead.tolist())
        self._clear_caches()
        self.gc_count += 1
        seconds = perf_counter() - start
        stats = self.stats
        stats.gc_runs += 1
        stats.gc_seconds += seconds
        stats.last_gc_seconds = seconds
        stats.gc_reclaimed += freed
        for listener in self.gc_listeners:
            listener(seconds, freed)
        return freed

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------

    def check_integrity(self) -> None:
        # Same invariants as the base class, scanned over the allocated
        # prefix of the arrays (capacity beyond _size is uninitialised).
        # The level index and parent counters are lazily maintained (see
        # _track_levels): while reordering is not in flight they may be
        # arbitrarily stale, so their invariants below only bite when
        # tracking is on; rebuild first otherwise.
        if not self._track_levels:
            self._rebuild_at_level()
        free_set = set(int(n) for n in self._free)
        live = [n for n in range(2, self._size) if n not in free_set]
        parents = {n: 0 for n in range(self._size)}
        for n in live:
            lo, hi = int(self._low[n]), int(self._high[n])
            if lo == -1 or hi == -1:
                raise BDDError(f"live node {n} has freed children")
            if lo == hi:
                raise BDDError(f"node {n} is a redundant test")
            lvl = int(self._level[n])
            if not 0 <= lvl < self._num_vars:
                raise BDDError(f"node {n} has bad level {lvl}")
            for child in (lo, hi):
                parents[child] += 1
                if self._level[child] <= lvl:
                    raise BDDError(
                        f"ordering violated: node {n} (level {lvl}) -> "
                        f"{child} (level {int(self._level[child])})"
                    )
            if self._unique.get((lvl, lo, hi)) != n:
                raise BDDError(f"node {n} missing from unique table")
            if n not in self._at_level[lvl]:
                raise BDDError(f"node {n} missing from level index {lvl}")
        if len(self._unique) != len(live):
            raise BDDError(
                f"unique table has {len(self._unique)} entries for "
                f"{len(live)} live nodes"
            )
        total_indexed = sum(len(s) for s in self._at_level)
        if total_indexed != len(live):
            raise BDDError(
                f"level index holds {total_indexed} nodes, expected "
                f"{len(live)}"
            )
        for n in live:
            if self._parents[n] != parents[n]:
                raise BDDError(
                    f"node {n}: parent count {int(self._parents[n])} != "
                    f"recomputed {parents[n]}"
                )
        if sorted(self._var_at_level) != list(range(self._num_vars)):
            raise BDDError("variable order is not a permutation")
        for lvl, var in enumerate(self._var_at_level):
            if self._level_at_var[var] != lvl:
                raise BDDError("var<->level tables are not inverses")
