"""Zero-suppressed decision diagrams (ZDDs, Minato [18]).

Section 4.1 of the paper reports an in-progress ZDD backend for Jedd so
that "all our algorithms [run] using ZDDs without modification".  This
module provides that backend.

A ZDD represents a *family of sets of levels* -- equivalently, a set of
bit strings in which a variable absent from a path is **0** (not a
wildcard as in BDDs).  Relations are therefore encoded with every used
bit explicit and all unused bits zero; the backend adapter in
``repro.relations.backend`` inserts explicit don't-care expansion where
the BDD encoding would rely on wildcards (e.g. for joins).

Node convention: ``EMPTY`` (0) is the empty family, ``BASE`` (1) is the
family containing only the empty set.  The zero-suppression rule
eliminates nodes whose high branch is ``EMPTY``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDDError, build_from_keys
from repro.bdd.stats import KernelStats

__all__ = ["ZDDManager", "EMPTY", "BASE"]

#: The empty family (no bit strings at all).
EMPTY = 0
#: The unit family, containing only the all-zeros string.
BASE = 1

_OP_UNION = 0
_OP_INTERSECT = 1
_OP_DIFF = 2

#: Op-tag names, in tag order, for :class:`KernelStats` per-op counters.
_OP_NAMES = ("union", "intersect", "diff")


class ZDDManager:
    """Manager for zero-suppressed decision diagrams.

    Duck-types the parts of :class:`repro.bdd.manager.BDDManager` that the
    relation layer needs (``num_vars``, ref counting, ``gc``,
    ``node_count``, ``shape``); the set-algebra operations have
    ZDD-specific signatures used via the backend adapter.
    """

    #: Metric prefix used by ``repro.telemetry`` for managers of this kind.
    telemetry_name = "zdd"

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
    ) -> None:
        if num_vars < 0:
            raise BDDError("num_vars must be non-negative")
        self._num_vars = num_vars
        self._level: List[int] = [num_vars, num_vars]
        self._low: List[int] = [-1, -1]
        self._high: List[int] = [-1, -1]
        self._refs: List[int] = [1, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._free: List[int] = []
        self._op_cache: Dict[Tuple[int, int, int], int] = {}
        self._change_cache: Dict[Tuple[int, int], int] = {}
        self._exist_cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self._count_cache: Dict[int, int] = {}
        self.gc_threshold = gc_threshold
        #: Entry bound per operation cache (``None`` = unbounded), as in
        #: :class:`repro.bdd.manager.BDDManager`.
        self.cache_limit = cache_limit
        self.gc_count = 0
        #: Always-on raw counters (cache probes, node creation, GC); the
        #: telemetry layer pulls these at snapshot time.
        self.stats = KernelStats(_OP_NAMES)
        #: Callbacks invoked as ``listener(seconds, freed)`` after each GC.
        self.gc_listeners: List = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of boolean variables (bit positions) managed."""
        return self._num_vars

    @property
    def num_nodes(self) -> int:
        """Number of live nodes, terminals included."""
        return len(self._level) - len(self._free)

    def table_stats(self) -> Dict[str, float]:
        """Unique/node table occupancy gauges (for telemetry snapshots)."""
        live = self.num_nodes
        self.stats.note_live(live)
        capacity = len(self._level)
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
        """Current entry counts of the operation caches (occupancy, not
        hits/misses — the sampler turns these into gauges)."""
        return {
            "op": len(self._op_cache),
            "change": len(self._change_cache),
            "exist": len(self._exist_cache),
            "count": len(self._count_cache),
        }

    def is_terminal(self, node: int) -> bool:
        """True for ``EMPTY`` and ``BASE``."""
        return node <= BASE

    def add_vars(self, count: int) -> None:
        """Append ``count`` fresh variables below all existing levels."""
        if count < 0:
            raise BDDError("count must be non-negative")
        old_sentinel = self._num_vars
        self._num_vars += count
        for node in range(len(self._level)):
            if self._level[node] == old_sentinel and self._low[node] == -1:
                self._level[node] = self._num_vars

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        """Canonical node; applies the zero-suppression rule."""
        if high == EMPTY:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self._free:
            node = self._free.pop()
            self._level[node] = level
            self._low[node] = low
            self._high[node] = high
            self._refs[node] = 0
        else:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._refs.append(0)
        self._unique[key] = node
        self.stats.nodes_created += 1
        return node

    def single(self, levels: Iterable[int]) -> int:
        """The family containing exactly one set (the given levels)."""
        node = BASE
        for level in sorted(set(levels), reverse=True):
            if not 0 <= level < self._num_vars:
                raise BDDError(f"level {level} out of range")
            node = self.mk(level, EMPTY, node)
        return node

    def cube(self, assignment: Dict[int, bool]) -> int:
        """Single bit string given as ``{level: value}``; absent bits are 0."""
        return self.single(lv for lv, bit in assignment.items() if bit)

    def from_keys(self, levels: Sequence[int], keys: Iterable[int]) -> int:
        """The union of one bit string per key, built in one bottom-up
        pass (bit ``p`` of each key is the value at ``levels[p]``)."""
        for level in levels:
            if not 0 <= level < self._num_vars:
                raise BDDError(f"level {level} out of range")
        return build_from_keys(self.mk, levels, keys, EMPTY, BASE)

    # ------------------------------------------------------------------
    # Family algebra
    # ------------------------------------------------------------------

    def union(self, a: int, b: int) -> int:
        """All strings in either family."""
        return self._binop(_OP_UNION, a, b)

    def intersect(self, a: int, b: int) -> int:
        """Strings present in both families."""
        return self._binop(_OP_INTERSECT, a, b)

    def diff(self, a: int, b: int) -> int:
        """Strings in ``a`` but not in ``b``."""
        return self._binop(_OP_DIFF, a, b)

    def _binop(self, op: int, a: int, b: int) -> int:
        if op == _OP_UNION:
            if a == EMPTY:
                return b
            if b == EMPTY or a == b:
                return a
        elif op == _OP_INTERSECT:
            if a == EMPTY or b == EMPTY:
                return EMPTY
            if a == b:
                return a
        else:  # DIFF
            if a == EMPTY or a == b:
                return EMPTY
            if b == EMPTY:
                return a
        if op != _OP_DIFF and a > b:
            a, b = b, a
        key = (op, a, b)
        cached = self._op_cache.get(key)
        if cached is not None:
            self.stats.op_hits[op] += 1
            return cached
        self.stats.op_misses[op] += 1
        la, lb = self._level[a], self._level[b]
        if op == _OP_UNION:
            if la < lb:
                result = self.mk(la, self._binop(op, self._low[a], b), self._high[a])
            elif lb < la:
                result = self.mk(lb, self._binop(op, a, self._low[b]), self._high[b])
            else:
                result = self.mk(
                    la,
                    self._binop(op, self._low[a], self._low[b]),
                    self._binop(op, self._high[a], self._high[b]),
                )
        elif op == _OP_INTERSECT:
            # Strings of the earlier-level operand with that bit set cannot
            # be in the other operand (where the bit is always 0).
            if la < lb:
                result = self._binop(op, self._low[a], b)
            elif lb < la:
                result = self._binop(op, a, self._low[b])
            else:
                result = self.mk(
                    la,
                    self._binop(op, self._low[a], self._low[b]),
                    self._binop(op, self._high[a], self._high[b]),
                )
        else:  # DIFF
            if la < lb:
                result = self.mk(la, self._binop(op, self._low[a], b), self._high[a])
            elif lb < la:
                result = self._binop(op, a, self._low[b])
            else:
                result = self.mk(
                    la,
                    self._binop(op, self._low[a], self._low[b]),
                    self._binop(op, self._high[a], self._high[b]),
                )
        return self._cache_store(self._op_cache, key, result)

    def _cache_store(self, cache, key, result):
        """Insert into an operation cache, honouring :attr:`cache_limit`."""
        if self.cache_limit is not None and len(cache) >= self.cache_limit:
            cache.clear()
        cache[key] = result
        return result

    def change(self, a: int, level: int) -> int:
        """Flip bit ``level`` in every string of the family."""
        if not 0 <= level < self._num_vars:
            raise BDDError(f"level {level} out of range")
        return self._change(a, level)

    def _change(self, a: int, level: int) -> int:
        if a == EMPTY:
            return EMPTY
        la = self._level[a]
        if la > level:
            # Bit is 0 in every string (including the BASE case): set it.
            return self.mk(level, EMPTY, a)
        key = (a, level)
        cached = self._change_cache.get(key)
        if cached is not None:
            self.stats.change_hits += 1
            return cached
        self.stats.change_misses += 1
        if la == level:
            result = self.mk(level, self._high[a], self._low[a])
        else:
            result = self.mk(
                la,
                self._change(self._low[a], level),
                self._change(self._high[a], level),
            )
        return self._cache_store(self._change_cache, key, result)

    def dontcare(self, a: int, levels: Iterable[int]) -> int:
        """Expand each given bit to both 0 and 1 (explicit wildcard).

        This is how the ZDD backend emulates the BDD encoding's implicit
        wildcards before an intersection-based join.
        """
        node = a
        for level in sorted(set(levels)):
            node = self.union(node, self.change(node, level))
        return node

    def subset0(self, a: int, level: int) -> int:
        """Strings with bit ``level`` = 0 (bit kept, trivially absent)."""
        if self.is_terminal(a) or self._level[a] > level:
            return a
        if self._level[a] == level:
            return self._low[a]
        return self.mk(
            self._level[a],
            self.subset0(self._low[a], level),
            self.subset0(self._high[a], level),
        )

    def subset1(self, a: int, level: int) -> int:
        """Strings with bit ``level`` = 1, with that bit removed."""
        if self.is_terminal(a) or self._level[a] > level:
            return EMPTY
        if self._level[a] == level:
            return self._high[a]
        return self.mk(
            self._level[a],
            self.subset1(self._low[a], level),
            self.subset1(self._high[a], level),
        )

    # ------------------------------------------------------------------
    # Quantification and permutation
    # ------------------------------------------------------------------

    def exist(self, a: int, levels: Iterable[int]) -> int:
        """Remove the given bit positions (relational projection).

        Two strings differing only in removed bits collapse to one.
        """
        lv = tuple(sorted(set(levels)))
        if not lv:
            return a
        return self._exist(a, lv)

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        if self.is_terminal(a):
            return a
        la = self._level[a]
        idx = 0
        while idx < len(levels) and levels[idx] < la:
            idx += 1
        levels = levels[idx:]
        if not levels:
            return a
        key = (a, levels)
        cached = self._exist_cache.get(key)
        if cached is not None:
            self.stats.exist_hits += 1
            return cached
        self.stats.exist_misses += 1
        low = self._exist(self._low[a], levels)
        high = self._exist(self._high[a], levels)
        if la == levels[0]:
            result = self.union(low, high)
        else:
            result = self.mk(la, low, high)
        return self._cache_store(self._exist_cache, key, result)

    def replace(self, a: int, permutation: Dict[int, int]) -> int:
        """Rename bit positions by an injective ``permutation``.

        Levels in the permutation's image that occur in ``a``'s support
        must themselves be renamed (otherwise renamed bits would collide
        with existing ones); this is checked.
        """
        perm = {k: v for k, v in permutation.items() if k != v}
        if not perm:
            return a
        if len(set(perm.values())) != len(perm):
            raise BDDError("replace permutation must be injective")
        support = self.support(a)
        collisions = (set(perm.values()) & support) - set(perm.keys())
        if collisions:
            raise BDDError(
                f"replace targets {sorted(collisions)} already used and "
                "not renamed away"
            )
        memo: Dict[int, int] = {}

        def rec(node: int) -> int:
            if self.is_terminal(node):
                return node
            hit = memo.get(node)
            if hit is not None:
                return hit
            level = self._level[node]
            new_level = perm.get(level, level)
            low = rec(self._low[node])
            high = rec(self._high[node])
            result = self.union(low, self.change(high, new_level))
            memo[node] = result
            return result

        return rec(a)

    def support(self, a: int) -> frozenset:
        """The set of levels occurring on some path of ``a``."""
        seen = set()
        levels = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return frozenset(levels)

    # ------------------------------------------------------------------
    # Counting and enumeration
    # ------------------------------------------------------------------

    def count(self, a: int) -> int:
        """Number of strings in the family (exact, no wildcards)."""
        if a == EMPTY:
            return 0
        if a == BASE:
            return 1
        cached = self._count_cache.get(a)
        if cached is not None:
            self.stats.count_hits += 1
            return cached
        self.stats.count_misses += 1
        result = self.count(self._low[a]) + self.count(self._high[a])
        return self._cache_store(self._count_cache, a, result)

    def to_keys(self, a: int, levels: Sequence[int]) -> List[int]:
        """The strings of the family, one integer key each: the inverse
        of :meth:`from_keys` (bit ``p`` of each key is the value at
        ``levels[p]``; a level absent from a path is 0).

        ``levels`` must cover the support (checked).  The walk keeps an
        explicit stack of path prefixes, so it needs O(depth + output)
        memory, and visits paths low branch first, in level order.
        """
        bit: Dict[int, int] = {}
        for p, level in enumerate(levels):
            if not 0 <= level < self._num_vars:
                raise BDDError(f"level {level} out of range")
            bit[level] = 1 << p
        if len(bit) != len(levels):
            raise BDDError(f"to_keys over repeated levels {list(levels)}")
        level_of, low_of, high_of = self._level, self._low, self._high
        keys: List[int] = []
        bad: set = set()
        stack = [(a, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            node, key = pop()
            if node <= BASE:
                if node == BASE and not bad:
                    keys.append(key)
                continue
            level = level_of[node]
            b = bit.get(level)
            if b is None:
                bad.add(level)
                b = 0
            push((high_of[node], key | b))
            low = low_of[node]
            if low != EMPTY:
                push((low, key))
        if bad:
            raise BDDError(
                f"to_keys levels do not cover support levels {sorted(bad)}"
            )
        return keys

    def to_dot(self, a: int, var_names: Optional[Dict[int, str]] = None) -> str:
        """GraphViz rendering of the ZDD rooted at ``a``.

        Dashed edges are else-branches (bit absent), solid edges
        then-branches (bit present); terminals are boxes labelled with
        the family they denote.
        """
        names = var_names or {}
        lines = [
            "digraph zdd {",
            '  node0 [label="{}", shape=box];',
            '  node1 [label="{{}}", shape=box];',
        ]
        seen = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            level = self._level[node]
            label = names.get(level, f"x{level}")
            lines.append(f'  node{node} [label="{label}"];')
            lines.append(
                f"  node{node} -> node{self._low[node]} [style=dashed];"
            )
            lines.append(f"  node{node} -> node{self._high[node]};")
            stack.append(self._low[node])
            stack.append(self._high[node])
        lines.append("}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Shape and size (profiler support)
    # ------------------------------------------------------------------

    def node_count(self, a: int) -> int:
        """Number of distinct internal nodes reachable from ``a``."""
        seen = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    def shape(self, a: int) -> List[int]:
        """Node count at each level."""
        counts = [0] * self._num_vars
        seen = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            counts[self._level[node]] += 1
            stack.append(self._low[node])
            stack.append(self._high[node])
        return counts

    def postorder(self, root: int) -> List[int]:
        """The internal nodes reachable from ``root``, children before
        parents — the topological order the serializers write.  Explicit
        stack: deep single chains never hit the recursion limit."""
        order: List[int] = []
        if self.is_terminal(root):
            return order
        seen = set()
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            stack.append((node, True))
            stack.append((self._high[node], False))
            stack.append((self._low[node], False))
        return order

    # ------------------------------------------------------------------
    # Reference counting and garbage collection
    # ------------------------------------------------------------------

    def ref(self, node: int) -> int:
        """Increment ``node``'s external reference count; returns ``node``."""
        self._refs[node] += 1
        return node

    def deref(self, node: int) -> None:
        """Decrement ``node``'s external reference count."""
        if self._refs[node] <= 0:
            raise BDDError(f"deref of node {node} with zero refcount")
        self._refs[node] -= 1

    def ref_count(self, node: int) -> int:
        """Current external reference count of ``node``."""
        return self._refs[node]

    def maybe_gc(self) -> bool:
        """Collect if the node table exceeds the threshold."""
        if self.num_nodes <= self.gc_threshold:
            return False
        self.gc()
        if self.num_nodes > self.gc_threshold * 3 // 4:
            self.gc_threshold *= 2
        return True

    def gc(self) -> int:
        """Sweep unreferenced nodes; clears all operation caches."""
        start = perf_counter()
        self.stats.note_live(self.num_nodes)
        marked = [False] * len(self._level)
        stack = [n for n, r in enumerate(self._refs) if r > 0]
        while stack:
            node = stack.pop()
            if marked[node] or self.is_terminal(node):
                continue
            marked[node] = True
            stack.append(self._low[node])
            stack.append(self._high[node])
        marked[EMPTY] = marked[BASE] = True
        freed = 0
        free_set = set(self._free)
        for node in range(2, len(self._level)):
            if not marked[node] and node not in free_set:
                key = (self._level[node], self._low[node], self._high[node])
                if self._unique.get(key) == node:
                    del self._unique[key]
                self._low[node] = -1
                self._high[node] = -1
                self._free.append(node)
                freed += 1
        self._op_cache.clear()
        self._change_cache.clear()
        self._exist_cache.clear()
        self._count_cache.clear()
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
