"""Reduced Ordered Binary Decision Diagram (ROBDD) engine.

This module is the reproduction's stand-in for the BuDDy/CUDD C libraries
used by the Jedd runtime (paper sections 3.2 and 4.1).  It implements the
exact operation set Jedd's code generator needs:

- the boolean combinators ``AND``/``OR``/``DIFF``/``XOR`` (set operations
  on relations),
- existential quantification (``exist`` -- projection),
- combined conjunction + quantification (``and_exist`` -- composition,
  BuDDy's ``bdd_appex`` / CUDD's ``bddAndAbstract``),
- variable permutation (``replace`` -- BuDDy's ``bdd_replace`` / CUDD's
  ``SwapVariables``), used to move data between physical domains,
- satisfying-assignment counting (``sat_count``, relation ``size()``;
  per-node counts persist across calls until the next GC) and
  enumeration as integer keys (``to_keys``, the inverse of
  ``from_keys``; relation iterators decode them by shift and mask),
- bulk construction of a set of tuples in one bottom-up pass
  (``from_keys``; :func:`build_from_keys` is shared with the ZDD kernel),
- per-level node counts (the "shape" of a BDD, used by the profiler).

Nodes are hash-consed, so two BDDs represent the same boolean function if
and only if they are the same node index; relation equality is therefore a
constant-time comparison, as the paper notes.

Variables are levels
--------------------

The paper (section 3.2.1) leaves the *relative bit ordering* -- which
physical position each boolean variable occupies -- to the user, because
it dominates BDD sizes.  The relation layer fixes that order once, when
``Universe.finalize()`` maps the bits of each physical domain onto
variable ids, so a variable's id *is* its level: variable 0 is tested at
the root of every BDD, variable ``num_vars - 1`` closest to the
terminals.  The order never changes afterwards.

Memory management mirrors the reference-counting protocol of the C
libraries: external references are counted with :meth:`BDDManager.ref` and
:meth:`BDDManager.deref`, and :meth:`BDDManager.gc` sweeps unreferenced
nodes.  Collection is never triggered implicitly in the middle of an
operation; the Jedd runtime calls :meth:`BDDManager.maybe_gc` at operation
boundaries, which is sound because at that point every live BDD is pinned
by a reference count (see ``repro.relations.containers``).

Hot paths
---------

``and``/``or``/``diff``/``xor``, ``and_exist``, ``exist`` and
``replace`` each recurse through a closure over locals bound once per
top-level call (node arrays, unique table, free list, the op's cache,
``stats``, ``cache_limit``), never in ``__init__``: subclasses swap the
arrays or the stats object after construction, and ``cache_limit`` may
change between calls.  They build nodes with :meth:`~BDDManager.mk`
inlined, so a subclass that overrides ``mk`` overrides them too (the
ooc kernel does); every other builder keeps calling ``self.mk``.  The
quantifier-suffix and permutation ids that key their caches are shared
across calls and survive :meth:`~BDDManager.gc`; each cache key packs
them and the operand node ids into one int.  Hit/miss counters and
``nodes_created`` are those of the plain recursions.  See "Reference
kernel hot paths" in docs/KERNEL.md.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.bdd.stats import KernelStats

__all__ = [
    "BDDManager",
    "BDDError",
    "FALSE",
    "TRUE",
    "build_from_keys",
]

#: Node index of the constant-false terminal.
FALSE = 0
#: Node index of the constant-true terminal.
TRUE = 1

# Operation tags for the binary apply cache.
_OP_AND = 0
_OP_OR = 1
_OP_DIFF = 2
_OP_XOR = 3
# Stats slot for simplify() probes (the apply cache holds them under a
# private -1 tag, which cannot index the per-op counter lists).
_OP_SIMPLIFY_STAT = 4

#: Op-tag names, in tag order, for :class:`KernelStats` per-op counters.
_OP_NAMES = ("and", "or", "diff", "xor", "simplify")


class BDDError(Exception):
    """Raised on misuse of the BDD manager (bad levels, foreign nodes...)."""


class BDDManager:
    """A manager owning a shared node table for one variable order.

    The manager is created with a fixed number of boolean variables
    (``num_vars``).  A variable's id is its level: level 0 is tested at
    the root of every BDD, level ``num_vars - 1`` closest to the
    terminals.  The Jedd layer above maps bits of physical domains onto
    variable ids, which is how the user-specified "relative bit
    ordering" of the paper takes effect.

    Parameters
    ----------
    num_vars:
        Number of boolean variables.  May be grown later with
        :meth:`add_vars` (new variables are appended below existing ones).
    gc_threshold:
        Node count above which :meth:`maybe_gc` actually collects.
    cache_limit:
        Maximum number of entries held in each operation cache, or
        ``None`` for unbounded caches.  Real BDD packages (BuDDy's
        ``bdd_setcacheratio``, CUDD's ``maxCacheHard``) bound their
        operation caches, so memoised results from earlier iterations
        of a fixpoint loop are eventually evicted; the bound here
        emulates that regime by clearing a cache that reaches the
        limit.  Mutable at runtime, like :attr:`gc_threshold`.
    """

    #: Metric prefix used by ``repro.telemetry`` for managers of this kind.
    telemetry_name = "bdd"

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
    ) -> None:
        if num_vars < 0:
            raise BDDError("num_vars must be non-negative")
        self._num_vars = num_vars
        # Parallel node arrays.  Index 0 / 1 are the terminals; their level
        # is a sentinel strictly below every real variable level.
        self._level: List[int] = [num_vars, num_vars]
        self._low: List[int] = [-1, -1]
        self._high: List[int] = [-1, -1]
        self._refs: List[int] = [1, 1]  # terminals are permanently live
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._free: List[int] = []
        # Operation caches (cleared by gc()).  Each key is one int: the
        # operand node ids (below 2**32) in the low 32 or 64 bits, and
        # above them the op tag (apply) or an id from _key_ids
        # (exist/and_exist via _quantifier_keys, replace, sat_count).  An
        # int key takes half the memory of the equivalent tuple.  The ooc
        # and MTBDD kernels' own recursions keep tuple keys, which never
        # equal an int.
        self._apply_cache: Dict[int, int] = {}
        self._not_cache: Dict[int, int] = {}
        self._exist_cache: Dict[int, int] = {}
        self._and_exist_cache: Dict[int, int] = {}
        self._replace_cache: Dict[int, int] = {}
        self._count_cache: Dict[int, int] = {}
        #: Interned ids of the quantifier suffixes, permutations and
        #: counted level sets that key those caches.  Manager-wide and
        #: never cleared (gc() keeps it): equal tuples get equal ids in
        #: every call.
        self._key_ids: Dict[tuple, int] = {}
        self.gc_threshold = gc_threshold
        #: Entry bound per operation cache (``None`` = unbounded).
        self.cache_limit = cache_limit
        #: Number of garbage collections performed (exposed for profiling).
        self.gc_count = 0
        #: Always-on raw counters (cache probes, node creation, GC); the
        #: telemetry layer pulls these at snapshot time.
        self.stats = KernelStats(_OP_NAMES)
        #: Callbacks invoked as ``listener(seconds, freed)`` after each GC.
        self.gc_listeners: List[Callable[[float, int], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of boolean variables managed."""
        return self._num_vars

    @property
    def num_nodes(self) -> int:
        """Number of live (allocated, not freed) nodes, terminals included."""
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
            "apply": len(self._apply_cache),
            "not": len(self._not_cache),
            "exist": len(self._exist_cache),
            "and_exist": len(self._and_exist_cache),
            "replace": len(self._replace_cache),
            "count": len(self._count_cache),
        }

    def level_of(self, node: int) -> int:
        """Level of ``node`` (``num_vars`` for terminals)."""
        return self._level[node]

    def var_of(self, node: int) -> int:
        """Variable id tested by ``node`` (``num_vars`` for terminals)."""
        return min(self._level[node], self._num_vars)

    def low(self, node: int) -> int:
        """The else-branch (variable = 0) child of ``node``."""
        return self._low[node]

    def high(self, node: int) -> int:
        """The then-branch (variable = 1) child of ``node``."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """True for the constant nodes ``FALSE`` and ``TRUE``."""
        return node <= TRUE

    def _terminal_nodes(self) -> Iterable[int]:
        """Every constant node (the ones :meth:`is_terminal` accepts)."""
        return (FALSE, TRUE)

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self._num_vars:
            raise BDDError(
                f"variable {var} out of range [0, {self._num_vars})"
            )

    def _to_levels(self, variables: Iterable[int]) -> List[int]:
        """Check external variable ids; each is its own level."""
        out = list(variables)
        for var in out:
            self._check_var(var)
        return out

    def _clear_caches(self) -> None:
        self._apply_cache.clear()
        self._not_cache.clear()
        self._exist_cache.clear()
        self._and_exist_cache.clear()
        self._replace_cache.clear()
        self._count_cache.clear()

    def _cache_store(self, cache, key, result):
        """Insert into an operation cache, honouring :attr:`cache_limit`."""
        if self.cache_limit is not None and len(cache) >= self.cache_limit:
            cache.clear()
        cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def add_vars(self, count: int) -> None:
        """Append ``count`` fresh variables below all existing levels.

        Existing nodes remain valid: terminal levels are stored lazily as
        "any level >= _num_vars", so we bump the terminal sentinel.
        """
        if count < 0:
            raise BDDError("count must be non-negative")
        self._num_vars += count
        for node in self._terminal_nodes():
            self._level[node] = self._num_vars
        # Counting caches depend on the distance to the terminal level.
        self._count_cache.clear()

    def mk(self, level: int, low: int, high: int) -> int:
        """Return the canonical node testing ``level``.

        Applies the two ROBDD reduction rules: redundant tests collapse
        (``low == high``) and structurally equal nodes are shared.
        """
        if low == high:
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

    def var(self, var: int) -> int:
        """The BDD of the single variable with id ``var``."""
        self._check_var(var)
        return self.mk(var, FALSE, TRUE)

    def nvar(self, var: int) -> int:
        """The BDD of the negation of the variable with id ``var``."""
        self._check_var(var)
        return self.mk(var, TRUE, FALSE)

    def cube(self, assignment: Dict[int, bool]) -> int:
        """The conjunction of literals given as ``{variable: value}``.

        Used to encode a single tuple: the bits of each attribute's
        physical domain are constrained, all other bits stay wildcards.
        """
        for var in assignment:
            self._check_var(var)
        node = TRUE
        for var, value in sorted(assignment.items(), reverse=True):
            if value:
                node = self.mk(var, FALSE, node)
            else:
                node = self.mk(var, node, FALSE)
        return node

    def from_keys(
        self,
        variables: Sequence[int],
        keys: Iterable[int],
        leaves: Optional[Sequence[int]] = None,
    ) -> int:
        """The union of one cube per key, built in one bottom-up pass.

        Bit ``p`` of each key is the value of variable ``variables[p]``
        (see :func:`build_from_keys`); ``leaves`` optionally gives each
        key's terminal instead of ``TRUE``.
        """
        return build_from_keys(
            self.mk, self._to_levels(variables), keys, FALSE, TRUE, leaves
        )

    # ------------------------------------------------------------------
    # Boolean combinators
    # ------------------------------------------------------------------

    def apply_and(self, a: int, b: int) -> int:
        """Conjunction (set intersection of relations)."""
        return self._apply(_OP_AND, a, b)

    def apply_or(self, a: int, b: int) -> int:
        """Disjunction (set union of relations)."""
        return self._apply(_OP_OR, a, b)

    def apply_diff(self, a: int, b: int) -> int:
        """Difference ``a AND NOT b`` (set difference of relations)."""
        return self._apply(_OP_DIFF, a, b)

    def apply_xor(self, a: int, b: int) -> int:
        """Exclusive or (symmetric difference of relations)."""
        return self._apply(_OP_XOR, a, b)

    def _apply(self, op: int, a: int, b: int) -> int:
        return self._apply_rec(op)(a, b)

    def _apply_rec(self, op: int) -> Callable[[int, int], int]:
        """The apply recursion of ``op``, bound to the current tables
        (see "Hot paths" in the module docstring)."""
        level_of, low_of, high_of, refs = (
            self._level, self._low, self._high, self._refs
        )
        unique, free = self._unique, self._free
        cache = self._apply_cache
        stats = self.stats
        hits, misses = stats.op_hits, stats.op_misses
        limit = self.cache_limit
        tag = op << 64
        # Normalise commutative operations for better cache hit rates.
        commutative = op != _OP_DIFF

        def rec(a: int, b: int) -> int:
            # Terminal short-cuts.
            if op == _OP_AND:
                if a == FALSE or b == FALSE:
                    return FALSE
                if a == TRUE:
                    return b
                if b == TRUE or a == b:
                    return a
            elif op == _OP_OR:
                if a == TRUE or b == TRUE:
                    return TRUE
                if a == FALSE:
                    return b
                if b == FALSE or a == b:
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
            if commutative and a > b:
                a, b = b, a
            key = tag | a << 32 | b
            result = cache.get(key)
            if result is not None:
                hits[op] += 1
                return result
            misses[op] += 1
            la = level_of[a]
            lb = level_of[b]
            level = la if la < lb else lb
            if la == level:
                a0 = low_of[a]
                a1 = high_of[a]
            else:
                a0 = a1 = a
            if lb == level:
                b0 = low_of[b]
                b1 = high_of[b]
            else:
                b0 = b1 = b
            low = rec(a0, b0)
            high = rec(a1, b1)
            if low == high:
                result = low
            else:  # mk, inlined
                node_key = (level, low, high)
                result = unique.get(node_key)
                if result is None:
                    if free:
                        result = free.pop()
                        level_of[result] = level
                        low_of[result] = low
                        high_of[result] = high
                        refs[result] = 0
                    else:
                        result = len(level_of)
                        level_of.append(level)
                        low_of.append(low)
                        high_of.append(high)
                        refs.append(0)
                    unique[node_key] = result
                    stats.nodes_created += 1
            if limit is not None and len(cache) >= limit:
                cache.clear()
            cache[key] = result
            return result

        return rec

    def apply_not(self, a: int) -> int:
        """Complement (the full relation minus ``a``)."""
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            self.stats.not_hits += 1
            return cached
        self.stats.not_misses += 1
        result = self.mk(
            self._level[a],
            self.apply_not(self._low[a]),
            self.apply_not(self._high[a]),
        )
        return self._cache_store(self._not_cache, a, result)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        return self.apply_or(
            self.apply_and(f, g), self.apply_diff(h, f)
        )

    # ------------------------------------------------------------------
    # Quantification (projection / composition)
    # ------------------------------------------------------------------

    def exist(self, a: int, variables: Iterable[int]) -> int:
        """Existentially quantify the given variables.

        This implements relational *projection*: each quantified bit takes
        the wildcard value in the result, exactly as section 3.2.2 of the
        paper describes.
        """
        lv = tuple(sorted(set(self._to_levels(variables))))
        if not lv:
            return a
        return self._exist(a, lv)

    def _quantifier_keys(self, levels: Tuple[int, ...]) -> List[int]:
        """Per-level cache-key ids for quantifying the sorted ``levels``.

        Entry ``t`` (for ``t <= levels[-1]``) stands for the suffix of
        ``levels`` at or below level ``t``: its interned id in
        :attr:`_key_ids`, complemented (``~id``, negative) where level
        ``t`` is itself quantified.  A node's level fixes the entry, so
        ``(node, entry)`` keys the cache exactly as ``(node, suffix)``
        would, without a fresh tuple per node.
        """
        ids = self._key_ids
        table: List[int] = []
        for i, level in enumerate(levels):
            sid = ids.setdefault(levels[i:], len(ids))
            table += [sid] * (level - len(table))
            table.append(~sid)
        return table

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        level_of, low_of, high_of, refs = (
            self._level, self._low, self._high, self._refs
        )
        unique, free = self._unique, self._free
        cache = self._exist_cache
        stats = self.stats
        limit = self.cache_limit
        apply_or = self._apply_rec(_OP_OR)
        keys = [k << 32 for k in self._quantifier_keys(levels)]
        last = levels[-1]

        def rec(a: int) -> int:
            la = level_of[a]
            # No quantified level at or below this node (terminals sit
            # below every level).
            if la > last:
                return a
            qkey = keys[la]
            key = qkey | a
            result = cache.get(key)
            if result is not None:
                stats.exist_hits += 1
                return result
            stats.exist_misses += 1
            low = rec(low_of[a])
            high = rec(high_of[a])
            if qkey < 0:  # la is quantified
                result = apply_or(low, high)
            elif low == high:
                result = low
            else:  # mk, inlined
                node_key = (la, low, high)
                result = unique.get(node_key)
                if result is None:
                    if free:
                        result = free.pop()
                        level_of[result] = la
                        low_of[result] = low
                        high_of[result] = high
                        refs[result] = 0
                    else:
                        result = len(level_of)
                        level_of.append(la)
                        low_of.append(low)
                        high_of.append(high)
                        refs.append(0)
                    unique[node_key] = result
                    stats.nodes_created += 1
            if limit is not None and len(cache) >= limit:
                cache.clear()
            cache[key] = result
            return result

        return rec(a)

    def and_exist(self, a: int, b: int, variables: Iterable[int]) -> int:
        """``exist(a AND b, variables)`` in one pass (relational composition).

        This is the "special function of the BDD library" the paper uses
        for ``<>``: BuDDy's ``bdd_appex`` with AND, CUDD's
        ``bddAndAbstract``.  Doing conjunction and quantification together
        avoids materialising the (often much larger) intermediate product.
        """
        lv = tuple(sorted(set(self._to_levels(variables))))
        if not lv:
            return self.apply_and(a, b)
        return self._and_exist(a, b, lv)

    def _and_exist(self, a: int, b: int, levels: Tuple[int, ...]) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE and b == TRUE:
            return TRUE
        level_of, low_of, high_of, refs = (
            self._level, self._low, self._high, self._refs
        )
        unique, free = self._unique, self._free
        cache = self._and_exist_cache
        stats = self.stats
        limit = self.cache_limit
        apply_and = self._apply_rec(_OP_AND)
        apply_or = self._apply_rec(_OP_OR)
        keys = [k << 64 for k in self._quantifier_keys(levels)]
        last = levels[-1]

        def rec(a: int, b: int) -> int:
            # Callers pass no FALSE operand; TRUE AND TRUE falls through
            # to apply_and, below every level.
            la = level_of[a]
            lb = level_of[b]
            top = la if la < lb else lb
            if top > last:  # nothing left to quantify
                return apply_and(a, b)
            if a > b:  # AND is commutative
                a, b, la, lb = b, a, lb, la
            qkey = keys[top]
            key = qkey | a << 32 | b
            result = cache.get(key)
            if result is not None:
                stats.and_exist_hits += 1
                return result
            stats.and_exist_misses += 1
            if la == top:
                a0 = low_of[a]
                a1 = high_of[a]
            else:
                a0 = a1 = a
            if lb == top:
                b0 = low_of[b]
                b1 = high_of[b]
            else:
                b0 = b1 = b
            low = FALSE if a0 == FALSE or b0 == FALSE else rec(a0, b0)
            if qkey < 0:
                # Quantified level: OR the cofactors.  Short-circuit on TRUE.
                if low == TRUE:
                    result = TRUE
                else:
                    high = FALSE if a1 == FALSE or b1 == FALSE else rec(a1, b1)
                    if low == FALSE or high == TRUE:
                        result = high
                    elif high == FALSE or low == high:
                        result = low
                    else:
                        result = apply_or(low, high)
            else:
                high = FALSE if a1 == FALSE or b1 == FALSE else rec(a1, b1)
                if low == high:
                    result = low
                else:  # mk, inlined
                    node_key = (top, low, high)
                    result = unique.get(node_key)
                    if result is None:
                        if free:
                            result = free.pop()
                            level_of[result] = top
                            low_of[result] = low
                            high_of[result] = high
                            refs[result] = 0
                        else:
                            result = len(level_of)
                            level_of.append(top)
                            low_of.append(low)
                            high_of.append(high)
                            refs.append(0)
                        unique[node_key] = result
                        stats.nodes_created += 1
            if limit is not None and len(cache) >= limit:
                cache.clear()
            cache[key] = result
            return result

        return rec(a, b)

    # ------------------------------------------------------------------
    # Variable permutation (physical domain moves)
    # ------------------------------------------------------------------

    def replace(self, a: int, permutation: Dict[int, int]) -> int:
        """Rebuild ``a`` with variables renamed by ``permutation``.

        ``permutation`` maps old variable ids to new variable ids and
        must be injective.  This is Jedd's ``replace``: it moves the bits
        of one physical domain to another, so the relation's tuples are
        unchanged but stored in different BDD variables.

        Where the target level lies above both rebuilt children the
        node is rebuilt directly with :meth:`mk` (BuDDy's
        ``correctify`` fast path); otherwise it is recomposed via ITE so
        that permutations that change the relative order of variables
        are handled correctly.  Both give the same canonical node.
        """
        perm = {k: v for k, v in permutation.items() if k != v}
        if not perm:
            return a
        if len(set(perm.values())) != len(perm):
            raise BDDError("replace permutation must be injective")
        for old, new in perm.items():
            self._check_var(old)
            self._check_var(new)
        key_perm = tuple(sorted(perm.items()))
        ids = self._key_ids
        pkey = ids.setdefault(key_perm, len(ids)) << 32
        level_of, low_of, high_of, refs = (
            self._level, self._low, self._high, self._refs
        )
        unique, free = self._unique, self._free
        cache = self._replace_cache
        stats = self.stats
        limit = self.cache_limit
        mk, ite = self.mk, self.ite
        memo: Dict[int, int] = {}

        def rec(node: int) -> int:
            low = low_of[node]
            if low < 0:  # a terminal
                return node
            key = pkey | node
            result = cache.get(key)
            if result is not None:
                stats.replace_hits += 1
                return result
            result = memo.get(node)
            if result is not None:
                return result
            stats.replace_misses += 1
            level = level_of[node]
            new_level = perm.get(level, level)
            low = rec(low)
            high = rec(high_of[node])
            if level_of[low] <= new_level or level_of[high] <= new_level:
                result = ite(mk(new_level, FALSE, TRUE), high, low)
            elif low == high:
                result = low
            else:  # mk, inlined
                node_key = (new_level, low, high)
                result = unique.get(node_key)
                if result is None:
                    if free:
                        result = free.pop()
                        level_of[result] = new_level
                        low_of[result] = low
                        high_of[result] = high
                        refs[result] = 0
                    else:
                        result = len(level_of)
                        level_of.append(new_level)
                        low_of.append(low)
                        high_of.append(high)
                        refs.append(0)
                    unique[node_key] = result
                    stats.nodes_created += 1
            memo[node] = result
            if limit is not None and len(cache) >= limit:
                cache.clear()
            cache[key] = result
            return result

        return rec(a)

    def simplify(self, f: int, care: int) -> int:
        """Coudert-Madre restrict: minimise ``f`` against a care set.

        Returns a BDD ``g``, typically smaller than ``f``, such that
        ``g AND care == f AND care`` -- i.e. ``g`` agrees with ``f``
        wherever ``care`` holds and is arbitrary elsewhere.  Useful for
        shrinking relation representations when only tuples within a
        known universe matter (BuDDy's ``bdd_simplify``).
        """
        return self._simplify(f, care)

    def _simplify(self, f: int, care: int) -> int:
        if care == FALSE:
            return FALSE
        if care == TRUE or self.is_terminal(f):
            return f
        key = -1 << 64 | f << 32 | care  # the apply cache, a private tag
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.stats.op_hits[_OP_SIMPLIFY_STAT] += 1
            return cached
        self.stats.op_misses[_OP_SIMPLIFY_STAT] += 1
        lf, lc = self._level[f], self._level[care]
        if lc < lf:
            # The care set constrains a variable f does not test.
            result = self._simplify(
                f, self.apply_or(self._low[care], self._high[care])
            )
        else:
            c0, c1 = (
                (self._low[care], self._high[care])
                if lc == lf
                else (care, care)
            )
            if c0 == FALSE:
                result = self._simplify(self._high[f], c1)
            elif c1 == FALSE:
                result = self._simplify(self._low[f], c0)
            else:
                result = self.mk(
                    lf,
                    self._simplify(self._low[f], c0),
                    self._simplify(self._high[f], c1),
                )
        return self._cache_store(self._apply_cache, key, result)

    def to_dot(self, a: int, var_names: Optional[Dict[int, str]] = None) -> str:
        """GraphViz rendering of the BDD rooted at ``a``.

        Dashed edges are else-branches, solid edges then-branches; the
        terminals are drawn as boxes.  ``var_names`` optionally labels
        variables (e.g. with physical-domain bit names).
        """
        names = var_names or {}
        lines = [
            "digraph bdd {",
            '  node0 [label="0", shape=box];',
            '  node1 [label="1", shape=box];',
        ]
        seen = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            var = self._level[node]
            label = names.get(var, f"x{var}")
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
    # Restriction / cofactors
    # ------------------------------------------------------------------

    def restrict(self, a: int, assignment: Dict[int, bool]) -> int:
        """Cofactor ``a`` by fixing the given ``{variable: value}`` bits."""
        if not assignment:
            return a
        for var in assignment:
            self._check_var(var)
        memo: Dict[int, int] = {}

        def rec(node: int) -> int:
            if self.is_terminal(node):
                return node
            hit = memo.get(node)
            if hit is not None:
                return hit
            level = self._level[node]
            if level in assignment:
                result = rec(
                    self._high[node] if assignment[level] else self._low[node]
                )
            else:
                result = self.mk(level, rec(self._low[node]), rec(self._high[node]))
            memo[node] = result
            return result

        return rec(a)

    def support(self, a: int) -> frozenset:
        """The set of variables on which ``a`` actually depends."""
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

    def sat_count(self, a: int, variables: Sequence[int] | None = None) -> int:
        """Number of satisfying assignments over ``variables``.

        ``variables`` defaults to all of them.  Variables outside the
        given set must not occur in ``a``'s support; the relation layer
        passes the union of its attributes' physical domain bits, and all
        other bits are wildcards (quantified out of relation BDDs).

        Per-node counts persist in :attr:`_count_cache` under the node
        and an id interned in :attr:`_key_ids` from the width and the
        sorted level set, so a recount after an update
        walks only the nodes the update created.  A call that raises a
        coverage error leaves none of its entries behind; :meth:`gc` and
        :meth:`add_vars` clear them all.
        """
        if variables is None:
            sorted_levels = tuple(range(self._num_vars))
        else:
            sorted_levels = tuple(sorted(set(self._to_levels(variables))))
        width = len(sorted_levels)
        if a == FALSE:
            return 0
        if a == TRUE:
            return 1 << width
        ids = self._key_ids
        kid = ids.setdefault((width, sorted_levels), len(ids)) << 32
        # Count assignments over *relevant* levels only: between a parent
        # at level l and a child at level m, the number of skipped
        # relevant levels determines the wildcard multiplier.
        # below[l] = number of relevant levels strictly below l (deeper),
        # None for a level outside the set, and -1 at the terminal
        # sentinel, so the "levels skipped on an edge" formula
        #     skipped = below[parent] - below[child] - 1
        # counts every relevant level strictly below the parent.
        below: List[Optional[int]] = [None] * (self._num_vars + 1)
        below[self._num_vars] = -1
        for i, lvl in enumerate(sorted_levels):
            below[lvl] = width - i - 1
        levels, lows, highs = self._level, self._low, self._high
        cache = self._count_cache
        stats = self.stats
        limit = self.cache_limit
        # This call's new entries, dropped again if the walk finds a
        # support level outside the set.
        added: List[int] = []
        # Support levels outside the set, found by the counting walk
        # itself (it visits every uncached node) instead of a support()
        # pass.  A cached node was counted over this same set, so
        # nothing below it is uncovered.
        bad: set = set()

        def count(node: int) -> int:
            # Returns count over relevant levels strictly below node level,
            # plus the node's own level if relevant.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            key = kid | node
            hit = cache.get(key)
            if hit is not None:
                stats.count_hits += 1
                return hit
            stats.count_misses += 1
            low, high = lows[node], highs[node]
            c_low, c_high = count(low), count(high)
            here = below[levels[node]]
            total = 0
            if here is None:
                bad.add(levels[node])
            elif not bad:
                if c_low:
                    total = c_low << (here - below[levels[low]] - 1)
                if c_high:
                    total += c_high << (here - below[levels[high]] - 1)
            if limit is not None and len(cache) >= limit:
                cache.clear()
            cache[key] = total
            added.append(key)
            return total

        total = count(a)
        if bad:
            for key in added:
                cache.pop(key, None)
            raise BDDError(
                f"sat_count variables {list(sorted_levels)} do not cover "
                f"support variables "
                f"{sorted(bad)}"
            )
        return total << (width - below[levels[a]] - 1)

    def any_sat(self, a: int) -> Dict[int, bool] | None:
        """One satisfying partial assignment (by variable id), or None."""
        if a == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = a
        while not self.is_terminal(node):
            var = self._level[node]
            if self._low[node] != FALSE:
                assignment[var] = False
                node = self._low[node]
            else:
                assignment[var] = True
                node = self._high[node]
        return assignment

    def to_keys(self, a: int, variables: Sequence[int]) -> List[int]:
        """The satisfying assignments of ``a`` over ``variables``, one
        integer key each: the inverse of :meth:`from_keys`.

        Bit ``p`` of each key is the value of ``variables[p]``.  Every
        terminal other than ``FALSE`` is a leaf (so a multi-terminal
        diagram yields the keys of its non-zero assignments).  Bits of
        ``a``'s support outside ``variables`` must not occur (checked);
        a requested variable no path tests is a wildcard, expanded to
        both values by doubling the path's key list.  The walk keeps an
        explicit stack of path prefixes, so it needs O(depth + output)
        memory, and visits paths low branch first, in level order.
        """
        levels = self._to_levels(variables)
        n = len(levels)
        if len(set(levels)) != n:
            raise BDDError(f"to_keys over repeated variables {levels}")
        if a == FALSE:
            return []
        order = sorted(range(n), key=levels.__getitem__)
        lv = [levels[p] for p in order]
        bit = [1 << p for p in order]
        # rank[l]: how many requested levels lie above level l; span[i]:
        # the key bits of the i requested levels nearest the root.
        rank: List[int] = []
        for i, level in enumerate(lv):
            rank += [i] * (level + 1 - len(rank))
        rank += [n] * (self._num_vars + 1 - len(rank))
        span = [0]
        for b in bit:
            span.append(span[-1] | b)
        level_of, low_of, high_of = self._level, self._low, self._high
        keys: List[int] = []
        bad: set = set()
        # (node, requested levels decided above it, key, wildcard bits)
        stack = [(a, 0, 0, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            node, i, key, wild = pop()
            level = level_of[node]
            j = rank[level]
            wild |= span[j] ^ span[i]
            low = low_of[node]
            if low < 0:
                if bad:
                    continue
                if not wild:
                    keys.append(key)
                    continue
                out = [key]
                while wild:
                    b = wild & -wild
                    out += [k | b for k in out]
                    wild ^= b
                keys += out
                continue
            high = high_of[node]
            if j < n and lv[j] == level:
                if high != FALSE:
                    push((high, j + 1, key | bit[j], wild))
                if low != FALSE:
                    push((low, j + 1, key, wild))
            else:
                bad.add(level)
                push((high, j, key, wild))
                push((low, j, key, wild))
        if bad:
            raise BDDError(
                f"to_keys variables do not cover support variables "
                f"{sorted(bad)}"
            )
        return keys

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
        """Node count at each level -- the BDD "shape" of section 4.3."""
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
        parents (low subtree, then high, then the node itself).

        Uses an explicit stack, so arbitrarily deep diagrams — a cube
        over thousands of variables is one long chain — never approach
        the interpreter recursion limit.  This is the topological order
        the serializers (:mod:`repro.bdd.io`) write.
        """
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
        """Collect if the node table has outgrown :attr:`gc_threshold`.

        Called by the relation runtime at operation boundaries, where all
        live BDDs are pinned by container reference counts.  Returns True
        if a collection ran.
        """
        if self.num_nodes <= self.gc_threshold:
            return False
        self.gc()
        if self.num_nodes > self.gc_threshold * 3 // 4:
            self.gc_threshold *= 2
        return True

    def gc(self) -> int:
        """Sweep nodes unreachable from externally referenced roots.

        Returns the number of nodes freed.  All operation caches are
        cleared, as they may reference dead nodes.
        """
        start = perf_counter()
        self.stats.note_live(self.num_nodes)
        marked = [False] * len(self._level)
        stack = [n for n, r in enumerate(self._refs) if r > 0]
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            # Marked before the terminal test: subclasses with interned
            # terminals beyond FALSE/TRUE keep them live.
            marked[node] = True
            if self.is_terminal(node):
                continue
            stack.append(self._low[node])
            stack.append(self._high[node])
        marked[FALSE] = marked[TRUE] = True
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
        """Verify every table invariant; raises :class:`BDDError` if any
        fails.  The differential harness runs it at the end of every
        chain: each live node is reduced, ordered, and the unique table's
        entry for its key, and the unique table holds nothing else."""
        free_set = set(self._free)
        live = [
            n
            for n in range(2, len(self._level))
            if n not in free_set and not self.is_terminal(n)
        ]
        for n in live:
            lo, hi = self._low[n], self._high[n]
            if lo == -1 or hi == -1:
                raise BDDError(f"live node {n} has freed children")
            if lo == hi:
                raise BDDError(f"node {n} is a redundant test")
            lvl = self._level[n]
            if not 0 <= lvl < self._num_vars:
                raise BDDError(f"node {n} has bad level {lvl}")
            for child in (lo, hi):
                if self._level[child] <= lvl:
                    raise BDDError(
                        f"ordering violated: node {n} (level {lvl}) -> "
                        f"{child} (level {self._level[child]})"
                    )
            if self._unique.get((lvl, lo, hi)) != n:
                raise BDDError(f"node {n} missing from unique table")
        if len(self._unique) != len(live):
            raise BDDError(
                f"unique table has {len(self._unique)} entries for "
                f"{len(live)} live nodes"
            )

    def eval(self, a: int, assignment: Callable[[int], bool]) -> bool:
        """Evaluate ``a`` under a total assignment ``variable -> bool``."""
        node = a
        while not self.is_terminal(node):
            var = self._level[node]
            node = (
                self._high[node]
                if assignment(var)
                else self._low[node]
            )
        return node == TRUE


# ----------------------------------------------------------------------
# Bulk construction
# ----------------------------------------------------------------------
#
# A relation literal -- a fact file, a list of tuples -- is a set of
# complete assignments to the variables of its schema.  Folding it as
# ``union(node, cube(row))`` per row costs one apply per row and leaves
# every intermediate union behind as garbage.  Sorted, the same set is a
# binary trie whose reduction *is* the diagram, so it can be built in one
# bottom-up pass with no apply-cache work, the way Adiar builds diagrams
# level by level from sorted streams.  The pass is written once, against
# a node constructor and two terminals: the BDD kernels (reference,
# ooc, and MTBDD with per-key terminal leaves) pass their
# hash-consing ``mk``, the ZDD kernel its zero-suppressing one.
# Canonicity makes the result the very node the fold would return.


def build_from_keys(
    mk: Callable[[int, int, int], int],
    levels: Sequence[int],
    keys: Iterable[int],
    zero: int,
    one: int,
    leaves: Optional[Sequence[int]] = None,
) -> int:
    """The diagram holding exactly the assignments encoded by ``keys``.

    Bit ``p`` of every key is the value of the variable at
    ``levels[p]``; the variables are visited by level, so ``levels``
    may list them in any order.  ``keys`` are sorted and
    deduplicated, then the trie is built by recursing on ``bisect``
    split points and calling ``mk(level, low, high)`` once per trie
    node, with ``zero`` for an absent branch and ``one`` at a complete
    assignment.  A subrange that holds every assignment of the levels
    below it is built once per depth and shared.

    ``leaves`` optionally gives the terminal of each key instead of
    ``one`` (a multi-terminal diagram); its keys must then be distinct.
    """
    n = len(levels)
    if len(set(levels)) != n:
        raise BDDError(f"bulk build over repeated levels {list(levels)}")
    keys = list(keys)
    if keys and (min(keys) < 0 or max(keys) >> n):
        raise BDDError(f"bulk build key outside {n} bit(s)")
    order = sorted(range(n), key=levels.__getitem__)
    top = [levels[p] for p in order]
    keys = _level_keys(keys, order)
    if leaves is None:
        keys = sorted(set(keys))
        leaf = None
    else:
        if len(leaves) != len(keys):
            raise BDDError(
                f"bulk build: {len(keys)} key(s) but {len(leaves)} leaves"
            )
        pairs = sorted(zip(keys, leaves))
        keys = [k for k, _ in pairs]
        leaf = [t for _, t in pairs]
        if any(a == b for a, b in zip(keys, keys[1:])):
            raise BDDError("bulk build: repeated key with per-key leaves")
    if not keys:
        return zero

    full: List[int] = [one]  # full[i]: every assignment of the i lowest levels

    def complete(d: int) -> int:
        while len(full) <= n - d:
            below = full[-1]
            full.append(mk(top[n - len(full)], below, below))
        return full[n - d]

    def chain(key: int, d: int, node: int) -> int:
        # The cube of one key, bottom up: depth n - 1 is key bit 0.
        for e in range(n - 1, d - 1, -1):
            if key & 1:
                node = mk(top[e], zero, node)
            else:
                node = mk(top[e], node, zero)
            key >>= 1
        return node

    def rec(lo: int, hi: int, d: int) -> int:
        # keys[lo:hi] agree on the levels above depth d.
        if hi - lo == 1:
            return chain(keys[lo], d, one if leaf is None else leaf[lo])
        if leaf is None and hi - lo == 1 << (n - d):
            return complete(d)
        shift = n - 1 - d
        split = bisect_left(keys, (keys[lo] >> shift | 1) << shift, lo, hi)
        low = rec(lo, split, d + 1) if split > lo else zero
        high = rec(split, hi, d + 1) if split < hi else zero
        return mk(top[d], low, high)

    return rec(0, len(keys), 0)


def _level_keys(keys: List[int], order: List[int]) -> List[int]:
    """Rewrite each key so its bits run from the top level (most
    significant) down: then integer order is the trie's order.

    ``order[d]`` is the key bit tested at depth ``d``.  The rewrite
    reads each key in chunks through precomputed tables; the chunk
    width grows with the number of keys, so a single key pays for no
    large table.
    """
    n = len(order)
    dest = [0] * n
    for d, p in enumerate(order):
        dest[p] = n - 1 - d
    width = max(1, min(8, len(keys).bit_length()))
    mask = (1 << width) - 1
    tables = []
    for base in range(0, n, width):
        table = [0]
        for target in dest[base:base + width]:
            table += [v | 1 << target for v in table]
        tables.append((base, table))
    return [
        sum(table[k >> base & mask] for base, table in tables) for k in keys
    ]
