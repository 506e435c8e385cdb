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
- satisfying-assignment counting and enumeration (relation ``size()`` and
  iterators),
- bulk construction of a set of tuples in one bottom-up pass
  (``from_keys``; :func:`build_from_keys` is shared with the ZDD kernel),
- per-level node counts (the "shape" of a BDD, used by the profiler),
- dynamic variable reordering by Rudell sifting (BuDDy's
  ``bdd_reorder(BDD_REORDER_SIFT)`` / CUDD's ``CUDD_REORDER_SIFT``).

Nodes are hash-consed, so two BDDs represent the same boolean function if
and only if they are the same node index; relation equality is therefore a
constant-time comparison, as the paper notes.

Variables versus levels
-----------------------

The paper (section 3.2.1) leaves the *relative bit ordering* -- which
physical position each boolean variable occupies -- to the user, because
it dominates BDD sizes.  To allow that order to change at run time
without invalidating the handles held by the relation layer, the manager
distinguishes *variables* (stable external identifiers; what ``var()``,
``cube()``, ``exist()`` and friends accept and report) from *levels*
(current physical positions, level 0 at the root).  An indirection table
maps one to the other; initially variable ``i`` sits at level ``i``.
Reordering permutes the table and rewrites nodes in place, so external
node indices keep denoting the same boolean function over the same
variables throughout.  See :meth:`BDDManager.swap_levels`,
:meth:`BDDManager.sift` and :meth:`BDDManager.enable_reorder`.

Reordering may only run at *operation boundaries* (no diagram operation
in progress); the relation runtime triggers it from
:meth:`BDDManager.maybe_gc`, which it already calls only at such points.

Memory management mirrors the reference-counting protocol of the C
libraries: external references are counted with :meth:`BDDManager.ref` and
:meth:`BDDManager.deref`, and :meth:`BDDManager.gc` sweeps unreferenced
nodes.  Collection is never triggered implicitly in the middle of an
operation; the Jedd runtime calls :meth:`BDDManager.maybe_gc` at operation
boundaries, which is sound because at that point every live BDD is pinned
by a reference count (see ``repro.relations.containers``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.bdd.stats import KernelStats

__all__ = [
    "BDDManager",
    "BDDError",
    "ReorderEvent",
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


@dataclass
class ReorderEvent:
    """One dynamic-reordering pass, as reported to reorder listeners.

    The profiler records these (section 4.3's "browsable profile" gains
    a reordering view): what triggered the pass, how long it took, the
    live node count before and after, the variable order that resulted
    (variable ids from level 0 downwards), and how many adjacent level
    swaps the pass performed.
    """

    trigger: str  # "auto" (growth trigger) or "manual"
    seconds: float
    nodes_before: int
    nodes_after: int
    order: List[int] = field(default_factory=list)
    swaps: int = 0
    method: str = "sift"  # "sift" or "group-sift"


class _ReorderGuard:
    """Context manager suppressing automatic reordering (hot loops)."""

    def __init__(self, manager: "BDDManager") -> None:
        self._manager = manager

    def __enter__(self) -> "BDDManager":
        self._manager._reorder_suppressed += 1
        return self._manager

    def __exit__(self, *exc) -> None:
        self._manager._reorder_suppressed -= 1


class BDDManager:
    """A manager owning a shared node table for one variable order.

    The manager is created with a fixed number of boolean variables
    (``num_vars``).  Variables are identified by a stable *variable id*;
    the id doubles as the variable's initial level (level 0 is tested at
    the root of every BDD, level ``num_vars - 1`` closest to the
    terminals), but dynamic reordering may later move variables to other
    levels without changing their ids.  The Jedd layer above maps bits
    of physical domains onto variable ids (the user-specified "relative
    bit ordering" of the paper fixes only the *initial* levels).

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
        #: Internal parent-edge counts (number of live nodes pointing at
        #: each node).  Maintained so adjacent level swaps can reclaim
        #: nodes orphaned by the rewrite without a full mark-and-sweep.
        self._parents: List[int] = [0, 0]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._free: List[int] = []
        #: Live internal nodes grouped by their current level.
        self._at_level: List[set] = [set() for _ in range(num_vars)]
        # Variable <-> level indirection (identity until a reorder runs).
        self._var_at_level: List[int] = list(range(num_vars))
        self._level_at_var: List[int] = list(range(num_vars))
        # Operation caches (cleared by gc() and by reordering).
        self._apply_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._exist_cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self._and_exist_cache: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
        self._replace_cache: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], int] = {}
        self._count_cache: Dict[Tuple[int, int], int] = {}
        self.gc_threshold = gc_threshold
        #: Entry bound per operation cache (``None`` = unbounded).
        self.cache_limit = cache_limit
        #: Number of garbage collections performed (exposed for profiling).
        self.gc_count = 0
        # Dynamic reordering configuration/state.
        self.reorder_enabled = False
        self.reorder_threshold = 1 << 12
        self.reorder_max_growth = 2.0
        #: Variable groups sifted as blocks (list of variable-id lists,
        #: or a callable returning one); ``None`` sifts single variables.
        self.reorder_groups = None
        #: Number of reordering passes performed.
        self.reorder_count = 0
        #: Total adjacent level swaps performed (for tests/benchmarks).
        self.swap_count = 0
        #: Callbacks invoked with a :class:`ReorderEvent` after each pass.
        self.reorder_listeners: List[Callable[[ReorderEvent], None]] = []
        self._reorder_suppressed = 0
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
        """Current level (physical position) of ``node``
        (``num_vars`` for terminals)."""
        return self._level[node]

    def var_of(self, node: int) -> int:
        """Variable id tested by ``node`` (``num_vars`` for terminals)."""
        level = self._level[node]
        if level >= self._num_vars:
            return self._num_vars
        return self._var_at_level[level]

    def level_of_var(self, var: int) -> int:
        """Current level of variable ``var``."""
        self._check_var(var)
        return self._level_at_var[var]

    def var_at_level(self, level: int) -> int:
        """Variable id currently sitting at ``level``."""
        if not 0 <= level < self._num_vars:
            raise BDDError(f"level {level} out of range [0, {self._num_vars})")
        return self._var_at_level[level]

    def current_order(self) -> List[int]:
        """Variable ids from level 0 (root) downwards."""
        return list(self._var_at_level)

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
        """Translate external variable ids to current levels."""
        out = []
        for var in variables:
            self._check_var(var)
            out.append(self._level_at_var[var])
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
        "any level >= _num_vars", so we bump the terminal sentinel.  The
        new variables' ids equal their initial levels, even if older
        variables have been reordered.
        """
        if count < 0:
            raise BDDError("count must be non-negative")
        old_sentinel = self._num_vars
        self._num_vars += count
        for node in self._terminal_nodes():
            self._level[node] = self._num_vars
        self._at_level.extend(set() for _ in range(count))
        self._var_at_level.extend(range(old_sentinel, self._num_vars))
        self._level_at_var.extend(range(old_sentinel, self._num_vars))
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
            self._parents[node] = 0
        else:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._refs.append(0)
            self._parents.append(0)
        self._parents[low] += 1
        self._parents[high] += 1
        self._at_level[level].add(node)
        self._unique[key] = node
        self.stats.nodes_created += 1
        return node

    def _var_bdd_at(self, level: int) -> int:
        """The BDD testing the variable currently at ``level``."""
        return self.mk(level, FALSE, TRUE)

    def var(self, var: int) -> int:
        """The BDD of the single variable with id ``var``."""
        self._check_var(var)
        return self.mk(self._level_at_var[var], FALSE, TRUE)

    def nvar(self, var: int) -> int:
        """The BDD of the negation of the variable with id ``var``."""
        self._check_var(var)
        return self.mk(self._level_at_var[var], TRUE, FALSE)

    def cube(self, assignment: Dict[int, bool]) -> int:
        """The conjunction of literals given as ``{variable: value}``.

        Used to encode a single tuple: the bits of each attribute's
        physical domain are constrained, all other bits stay wildcards.
        """
        items = []
        for var, value in assignment.items():
            self._check_var(var)
            items.append((self._level_at_var[var], value))
        items.sort(reverse=True)
        node = TRUE
        for level, value in items:
            if value:
                node = self.mk(level, FALSE, node)
            else:
                node = self.mk(level, node, FALSE)
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
        # Terminal short-cuts.
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
        # Normalise commutative operations for better cache hit rates.
        if op in (_OP_AND, _OP_OR, _OP_XOR) and a > b:
            a, b = b, a
        key = (op, a, b)
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.stats.op_hits[op] += 1
            return cached
        self.stats.op_misses[op] += 1
        la, lb = self._level[a], self._level[b]
        level = min(la, lb)
        a0, a1 = (self._low[a], self._high[a]) if la == level else (a, a)
        b0, b1 = (self._low[b], self._high[b]) if lb == level else (b, b)
        result = self.mk(
            level, self._apply(op, a0, b0), self._apply(op, a1, b1)
        )
        return self._cache_store(self._apply_cache, key, result)

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

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        if self.is_terminal(a):
            return a
        la = self._level[a]
        # Drop quantified levels above this node: they no longer occur.
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
            result = self.apply_or(low, high)
        else:
            result = self.mk(la, low, high)
        return self._cache_store(self._exist_cache, key, result)

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
        la, lb = self._level[a], self._level[b]
        top = min(la, lb)
        idx = 0
        while idx < len(levels) and levels[idx] < top:
            idx += 1
        levels = levels[idx:]
        if not levels:
            return self.apply_and(a, b)
        if a > b:  # AND is commutative
            a, b = b, a
            la, lb = lb, la
        key = (a, b, levels)
        cached = self._and_exist_cache.get(key)
        if cached is not None:
            self.stats.and_exist_hits += 1
            return cached
        self.stats.and_exist_misses += 1
        a0, a1 = (self._low[a], self._high[a]) if la == top else (a, a)
        b0, b1 = (self._low[b], self._high[b]) if lb == top else (b, b)
        low = self._and_exist(a0, b0, levels)
        if top == levels[0]:
            # Quantified level: OR the cofactors.  Short-circuit on TRUE.
            if low == TRUE:
                result = TRUE
            else:
                result = self.apply_or(low, self._and_exist(a1, b1, levels))
        else:
            result = self.mk(top, low, self._and_exist(a1, b1, levels))
        return self._cache_store(self._and_exist_cache, key, result)

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
        perm_vars = {k: v for k, v in permutation.items() if k != v}
        if not perm_vars:
            return a
        if len(set(perm_vars.values())) != len(perm_vars):
            raise BDDError("replace permutation must be injective")
        perm: Dict[int, int] = {}
        for old, new in perm_vars.items():
            self._check_var(old)
            self._check_var(new)
            perm[self._level_at_var[old]] = self._level_at_var[new]
        key_perm = tuple(sorted(perm.items()))
        memo: Dict[int, int] = {}

        def rec(node: int) -> int:
            if self.is_terminal(node):
                return node
            cached = self._replace_cache.get((node, key_perm))
            if cached is not None:
                self.stats.replace_hits += 1
                return cached
            hit = memo.get(node)
            if hit is not None:
                return hit
            self.stats.replace_misses += 1
            level = self._level[node]
            new_level = perm.get(level, level)
            low = rec(self._low[node])
            high = rec(self._high[node])
            lv = self._level
            if lv[low] > new_level and lv[high] > new_level:
                result = self.mk(new_level, low, high)
            else:
                result = self.ite(self._var_bdd_at(new_level), high, low)
            memo[node] = result
            return self._cache_store(
                self._replace_cache, (node, key_perm), result
            )

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
        key = (-1, f, care)  # share the apply cache with a private tag
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
            var = self._var_at_level[self._level[node]]
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
        by_level: Dict[int, bool] = {}
        for var, value in assignment.items():
            self._check_var(var)
            by_level[self._level_at_var[var]] = value
        memo: Dict[int, int] = {}

        def rec(node: int) -> int:
            if self.is_terminal(node):
                return node
            hit = memo.get(node)
            if hit is not None:
                return hit
            level = self._level[node]
            if level in by_level:
                result = rec(
                    self._high[node] if by_level[level] else self._low[node]
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
        return frozenset(self._var_at_level[lv] for lv in levels)

    # ------------------------------------------------------------------
    # Counting and enumeration
    # ------------------------------------------------------------------

    def sat_count(self, a: int, variables: Sequence[int] | None = None) -> int:
        """Number of satisfying assignments over ``variables``.

        ``variables`` defaults to all of them.  Variables outside the
        given set must not occur in ``a``'s support; the relation layer
        passes the union of its attributes' physical domain bits, and all
        other bits are wildcards (quantified out of relation BDDs).
        """
        if variables is None:
            level_set = None
            width = self._num_vars
        else:
            level_set = frozenset(self._to_levels(variables))
            width = len(level_set)
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
        sorted_levels = (
            sorted(level_set) if level_set is not None else range(width)
        )
        for i, lvl in enumerate(sorted_levels):
            below[lvl] = width - i - 1
        levels, lows, highs = self._level, self._low, self._high
        memo: Dict[int, int] = {}
        # Support levels outside ``level_set``, found by the counting
        # walk itself (it visits every node) instead of a support() pass.
        bad: set = set()

        def count(node: int) -> int:
            # Returns count over relevant levels strictly below node level,
            # plus the node's own level if relevant.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            hit = memo.get(node)
            if hit is not None:
                return hit
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
            memo[node] = total
            return total

        if a == FALSE:
            return 0
        if a == TRUE:
            return 1 << width
        total = count(a)
        if bad:
            raise BDDError(
                f"sat_count variables {sorted(variables)} do not cover "
                f"support variables "
                f"{sorted(self._var_at_level[lv] for lv in bad)}"
            )
        return total << (width - below[levels[a]] - 1)

    def any_sat(self, a: int) -> Dict[int, bool] | None:
        """One satisfying partial assignment (by variable id), or None."""
        if a == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = a
        while not self.is_terminal(node):
            var = self._var_at_level[self._level[node]]
            if self._low[node] != FALSE:
                assignment[var] = False
                node = self._low[node]
            else:
                assignment[var] = True
                node = self._high[node]
        return assignment

    def all_sat(
        self, a: int, variables: Sequence[int]
    ) -> Iterator[Dict[int, bool]]:
        """Iterate complete assignments over ``variables`` satisfying ``a``.

        Bits of ``a``'s support outside ``variables`` must not occur
        (checked); wildcard bits *within* ``variables`` are expanded to
        both values, so each yielded dict assigns every requested
        variable.
        """
        level_list = sorted(set(self._to_levels(variables)))
        bad = self.support(a) - set(variables)
        if bad:
            raise BDDError(
                f"all_sat variables do not cover support variables "
                f"{sorted(bad)}"
            )

        def rec(node: int, idx: int) -> Iterator[Dict[int, bool]]:
            if node == FALSE:
                return
            if idx == len(level_list):
                yield {}
                return
            level = level_list[idx]
            node_level = self._level[node]
            if node_level == level:
                for value, child in (
                    (False, self._low[node]),
                    (True, self._high[node]),
                ):
                    for rest in rec(child, idx + 1):
                        rest[level] = value
                        yield rest
            else:
                # level is a wildcard here (node tests something deeper).
                for rest in rec(node, idx + 1):
                    for value in (False, True):
                        out = dict(rest)
                        out[level] = value
                        yield out

        var_at = self._var_at_level
        return (
            {var_at[lv]: value for lv, value in sol.items()}
            for sol in rec(a, 0)
        )

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
        """Node count at each level -- the BDD "shape" of section 4.3.

        Indexed by current level (physical position from the root), so
        after a reorder the profile shows where the diagram is actually
        wide.
        """
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
    # Dynamic variable reordering (Rudell sifting)
    # ------------------------------------------------------------------
    #
    # The swap primitive exchanges two adjacent levels *in place*: node
    # indices keep denoting the same boolean function over the same
    # variables, so every externally held handle stays valid.  A node at
    # the upper level whose children do not test the lower level is
    # untouched by the exchange (its function ignores the other
    # variable) and only slides down one level; a node that does test
    # both is rewritten through the standard cofactor identity
    #
    #     f = y ? (x ? f11 : f01) : (x ? f10 : f00)
    #
    # which creates at most two fresh nodes at the lower level and may
    # orphan the old children.  Orphans are reclaimed immediately using
    # the parent-edge counts so the table size seen by the sifting
    # search is exact.

    def swap_levels(self, level: int) -> int:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        External node indices remain valid (they denote the same
        functions); all operation caches are invalidated.  Returns the
        live node count after the swap.  May only be called at an
        operation boundary.
        """
        if not 0 <= level < self._num_vars - 1:
            raise BDDError(
                f"swap_levels({level}): need 0 <= level < {self._num_vars - 1}"
            )
        self._clear_caches()
        self._swap_adjacent(level)
        return self.num_nodes

    def _swap_adjacent(self, i: int) -> None:
        """Core in-place exchange of levels ``i`` and ``i + 1``.

        Callers must have cleared the operation caches (they may hold
        level-keyed entries and references to nodes freed here).
        """
        j = i + 1
        self.swap_count += 1
        level, low, high = self._level, self._low, self._high
        unique, parents = self._unique, self._parents
        upper, lower = self._at_level[i], self._at_level[j]
        # Partition the upper level: nodes with a child at level j must
        # be rewritten, the rest merely slide down one level.
        rewrite: List[int] = []
        keep: List[int] = []
        for n in upper:
            if level[low[n]] == j or level[high[n]] == j:
                rewrite.append(n)
            else:
                keep.append(n)
        # Drop every stale unique-table key before re-inserting any new
        # ones (level fields of all nodes at both levels change).
        for n in rewrite:
            del unique[(i, low[n], high[n])]
        for n in keep:
            del unique[(i, low[n], high[n])]
        for n in lower:
            del unique[(j, low[n], high[n])]
        for n in keep:
            level[n] = j
            unique[(j, low[n], high[n])] = n
        for n in lower:
            level[n] = i
            unique[(i, low[n], high[n])] = n
        # The lower set becomes the new level-i population (rewritten
        # nodes join it); untouched upper nodes seed level j, and mk()
        # adds the fresh interior nodes there.
        self._at_level[i] = lower
        self._at_level[j] = new_lower = set(keep)
        orphans: List[int] = []
        for n in rewrite:
            lo, hi = low[n], high[n]
            # Children relabelled to level i above are exactly the nodes
            # that sat at level j before this swap.
            if level[lo] == i:
                f00, f01 = low[lo], high[lo]
            else:
                f00 = f01 = lo
            if level[hi] == i:
                f10, f11 = low[hi], high[hi]
            else:
                f10 = f11 = hi
            a = self.mk(j, f00, f10)
            b = self.mk(j, f01, f11)
            parents[lo] -= 1
            parents[hi] -= 1
            if parents[lo] == 0 and self._refs[lo] == 0 and level[lo] == i:
                orphans.append(lo)
            if parents[hi] == 0 and self._refs[hi] == 0 and level[hi] == i:
                orphans.append(hi)
            parents[a] += 1
            parents[b] += 1
            level[n] = i
            low[n] = a
            high[n] = b
            unique[(i, a, b)] = n
            lower.add(n)
        del new_lower
        # Reclaim nodes orphaned by the rewrites (cascading downwards).
        while orphans:
            n = orphans.pop()
            if (
                low[n] == -1
                or parents[n] != 0
                or self._refs[n] != 0
            ):
                continue
            del unique[(level[n], low[n], high[n])]
            self._at_level[level[n]].discard(n)
            for child in (low[n], high[n]):
                if child > TRUE:
                    parents[child] -= 1
                    if parents[child] == 0 and self._refs[child] == 0:
                        orphans.append(child)
            low[n] = -1
            high[n] = -1
            parents[n] = 0
            self._free.append(n)
        # Finally exchange the variable <-> level bookkeeping.
        vx, vy = self._var_at_level[i], self._var_at_level[j]
        self._var_at_level[i], self._var_at_level[j] = vy, vx
        self._level_at_var[vx] = j
        self._level_at_var[vy] = i

    def set_order(self, order: Sequence[int]) -> None:
        """Reorder so variable ``order[k]`` sits at level ``k``.

        Implemented as a sequence of adjacent swaps, so external node
        indices stay valid.  ``order`` must be a permutation of all
        variable ids.
        """
        if sorted(order) != list(range(self._num_vars)):
            raise BDDError("set_order needs a permutation of all variables")
        self._clear_caches()
        self.gc()
        self._apply_order(order)

    def _apply_order(self, order: Sequence[int]) -> None:
        for target in range(len(order)):
            current = self._level_at_var[order[target]]
            while current > target:
                self._swap_adjacent(current - 1)
                current -= 1

    def sift(
        self,
        max_growth: float = 2.0,
        variables: Optional[Sequence[int]] = None,
    ) -> "ReorderEvent":
        """Rudell sifting: move each variable to its best level.

        Variables are processed from the most populous level downwards;
        each is bubbled to the bottom and the top of the order,
        remembering the level at which the whole table was smallest, and
        parked there.  A direction is abandoned early once the table
        exceeds ``max_growth`` times its size at the start of that
        variable's sift (the growth bound of the original algorithm).
        """
        return self.reorder(
            groups=(), max_growth=max_growth, variables=variables,
            trigger="manual",
        )

    def _sift_pass(
        self, max_growth: float, variables: Optional[Sequence[int]]
    ) -> None:
        if variables is None:
            candidates = list(range(self._num_vars))
        else:
            candidates = list(variables)
            for v in candidates:
                self._check_var(v)
        # Most nodes first: shrinking a fat level helps every later sift.
        candidates.sort(
            key=lambda v: len(self._at_level[self._level_at_var[v]]),
            reverse=True,
        )
        for v in candidates:
            self._sift_var(v, max_growth)

    def _sift_var(self, v: int, max_growth: float) -> None:
        start_size = self.num_nodes
        limit = int(start_size * max_growth) + 2
        best_size = start_size
        best_level = self._level_at_var[v]
        # Sweep towards the nearer end first: fewer swaps wasted when the
        # variable is already close to one boundary.
        down_first = (
            self._num_vars - 1 - best_level >= best_level
        )
        sweeps = ("up", "down") if not down_first else ("down", "up")
        for direction in sweeps:
            if direction == "down":
                while self._level_at_var[v] < self._num_vars - 1:
                    self._swap_adjacent(self._level_at_var[v])
                    size = self.num_nodes
                    if size < best_size:
                        best_size = size
                        best_level = self._level_at_var[v]
                    if size > limit:
                        break
            else:
                while self._level_at_var[v] > 0:
                    self._swap_adjacent(self._level_at_var[v] - 1)
                    size = self.num_nodes
                    # <= prefers positions nearer the root on ties.
                    if size <= best_size:
                        best_size = size
                        best_level = self._level_at_var[v]
                    if size > limit:
                        break
        while self._level_at_var[v] < best_level:
            self._swap_adjacent(self._level_at_var[v])
        while self._level_at_var[v] > best_level:
            self._swap_adjacent(self._level_at_var[v] - 1)

    def sift_groups(
        self,
        groups: Sequence[Sequence[int]],
        max_growth: float = 2.0,
    ) -> "ReorderEvent":
        """Group sifting: blocks of variables move as indivisible units.

        ``groups`` lists variable-id blocks (e.g. the bits of one
        physical domain, which Jedd's encodings keep correlated);
        variables in no group form singleton blocks.  Each block is
        first gathered to contiguous levels (preserving the members'
        relative order), then blocks are sifted like single variables.
        """
        return self.reorder(
            groups=groups, max_growth=max_growth, trigger="manual"
        )

    def _group_sift_pass(
        self, groups: Sequence[Sequence[int]], max_growth: float
    ) -> None:
        blocks: List[List[int]] = []
        mentioned: set = set()
        for group in groups:
            block = list(group)
            if not block:
                continue
            for v in block:
                self._check_var(v)
                if v in mentioned:
                    raise BDDError(
                        f"variable {v} appears in two reorder groups"
                    )
                mentioned.add(v)
            blocks.append(block)
        blocks.extend(
            [v] for v in range(self._num_vars) if v not in mentioned
        )
        # Gather each block contiguously, keeping blocks in the order of
        # their topmost members and members in their current order.
        blocks.sort(key=lambda b: min(self._level_at_var[v] for v in b))
        blocks = [
            sorted(b, key=lambda v: self._level_at_var[v]) for b in blocks
        ]
        self._apply_order([v for b in blocks for v in b])
        # Sift blocks, heaviest first.
        by_weight = sorted(
            range(len(blocks)),
            key=lambda k: sum(
                len(self._at_level[self._level_at_var[v]])
                for v in blocks[k]
            ),
            reverse=True,
        )
        for k in by_weight:
            block = blocks[k]
            self._sift_block(blocks, blocks.index(block), max_growth)

    def _sift_block(
        self, blocks: List[List[int]], idx: int, max_growth: float
    ) -> None:
        start_size = self.num_nodes
        limit = int(start_size * max_growth) + 2
        best_size = start_size
        best_idx = idx
        for direction in ("down", "up"):
            if direction == "down":
                while idx < len(blocks) - 1:
                    self._swap_adjacent_blocks(blocks, idx)
                    idx += 1
                    size = self.num_nodes
                    if size < best_size:
                        best_size, best_idx = size, idx
                    if size > limit:
                        break
            else:
                while idx > 0:
                    self._swap_adjacent_blocks(blocks, idx - 1)
                    idx -= 1
                    size = self.num_nodes
                    if size <= best_size:
                        best_size, best_idx = size, idx
                    if size > limit:
                        break
        while idx < best_idx:
            self._swap_adjacent_blocks(blocks, idx)
            idx += 1
        while idx > best_idx:
            self._swap_adjacent_blocks(blocks, idx - 1)
            idx -= 1

    def _swap_adjacent_blocks(self, blocks: List[List[int]], idx: int) -> None:
        """Exchange the adjacent blocks at positions ``idx``/``idx + 1``."""
        x, y = blocks[idx], blocks[idx + 1]
        base = sum(len(b) for b in blocks[:idx])
        sx = len(x)
        for t in range(len(y)):
            # Bubble the t-th member of y up across the whole of x.
            for lvl in range(base + sx + t, base + t, -1):
                self._swap_adjacent(lvl - 1)
        blocks[idx], blocks[idx + 1] = y, x

    def reorder(
        self,
        groups: Optional[Sequence[Sequence[int]]] = None,
        max_growth: Optional[float] = None,
        variables: Optional[Sequence[int]] = None,
        trigger: str = "manual",
    ) -> ReorderEvent:
        """Run one reordering pass and notify the reorder listeners.

        ``groups=None`` uses the configured :attr:`reorder_groups` (block
        sifting when set); pass an empty sequence to force plain
        per-variable sifting.  Garbage is collected first so the sifting
        search sees exact live sizes; all operation caches are cleared.
        Returns the :class:`ReorderEvent` describing the pass.
        """
        if max_growth is None:
            max_growth = self.reorder_max_growth
        self._clear_caches()
        self.gc()
        before = self.num_nodes
        swaps_before = self.swap_count
        start = perf_counter()
        if groups is None:
            groups = self.reorder_groups
            if callable(groups):
                groups = groups()
        if groups:
            self._group_sift_pass(groups, max_growth)
            method = "group-sift"
        else:
            self._sift_pass(max_growth, variables)
            method = "sift"
        event = ReorderEvent(
            trigger=trigger,
            seconds=perf_counter() - start,
            nodes_before=before,
            nodes_after=self.num_nodes,
            order=list(self._var_at_level),
            swaps=self.swap_count - swaps_before,
            method=method,
        )
        self.reorder_count += 1
        self.stats.reorder_runs += 1
        self.stats.reorder_seconds += event.seconds
        for listener in self.reorder_listeners:
            listener(event)
        return event

    def enable_reorder(
        self,
        threshold: Optional[int] = None,
        max_growth: Optional[float] = None,
        groups=None,
    ) -> None:
        """Turn on automatic reordering on node-table growth.

        ``threshold`` is the live node count above which
        :meth:`maybe_reorder` sifts (it doubles after each pass that
        leaves the table large); ``max_growth`` bounds the transient
        growth sifting may cause; ``groups`` optionally fixes variable
        blocks (a list of lists, or a zero-argument callable evaluated
        at each pass) sifted as units.
        """
        self.reorder_enabled = True
        if threshold is not None:
            self.reorder_threshold = threshold
        if max_growth is not None:
            self.reorder_max_growth = max_growth
        if groups is not None:
            self.reorder_groups = groups

    def disable_reorder(self) -> _ReorderGuard:
        """Suppress automatic reordering within a ``with`` block.

        Useful around hot loops whose intermediate results would make
        sifting decisions on unrepresentative diagrams::

            with manager.disable_reorder():
                for edge in worklist:
                    ...

        Reentrant; manual :meth:`reorder` calls are still honoured.
        To switch the feature off permanently set
        :attr:`reorder_enabled` to False instead.
        """
        return _ReorderGuard(self)

    def maybe_reorder(self) -> bool:
        """Reorder if enabled, unsuppressed, and the table has grown.

        Called at operation boundaries (from :meth:`maybe_gc`); returns
        True if a pass ran.  Collects garbage first -- if that alone
        brings the table back under the threshold, no reorder runs.
        """
        if (
            not self.reorder_enabled
            or self._reorder_suppressed > 0
            or self.num_nodes <= self.reorder_threshold
        ):
            return False
        self.gc()
        if self.num_nodes <= self.reorder_threshold:
            return False
        self.reorder(trigger="auto")
        # Back off so a table that settles at N nodes is not re-sifted
        # on every subsequent operation.
        self.reorder_threshold = max(
            self.reorder_threshold, 2 * self.num_nodes
        )
        return True

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
        """Collect (and possibly reorder) if thresholds are exceeded.

        Called by the relation runtime at operation boundaries, where all
        live BDDs are pinned by container reference counts.  Returns True
        if a collection or a reordering pass ran.
        """
        ran = False
        if self.num_nodes > self.gc_threshold:
            self.gc()
            if self.num_nodes > self.gc_threshold * 3 // 4:
                self.gc_threshold *= 2
            ran = True
        if self.maybe_reorder():
            ran = True
        return ran

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
                self._at_level[self._level[node]].discard(node)
                for child in (self._low[node], self._high[node]):
                    if child > TRUE:
                        self._parents[child] -= 1
                self._low[node] = -1
                self._high[node] = -1
                self._parents[node] = 0
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
        fails.  Used by the reordering tests (a swap touches the unique
        table, the level index, and the parent counts all at once)."""
        free_set = set(self._free)
        live = [
            n
            for n in range(2, len(self._level))
            if n not in free_set and not self.is_terminal(n)
        ]
        parents = {n: 0 for n in range(len(self._level))}
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
                parents[child] += 1
                if self._level[child] <= lvl:
                    raise BDDError(
                        f"ordering violated: node {n} (level {lvl}) -> "
                        f"{child} (level {self._level[child]})"
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
                    f"node {n}: parent count {self._parents[n]} != "
                    f"recomputed {parents[n]}"
                )
        if sorted(self._var_at_level) != list(range(self._num_vars)):
            raise BDDError("variable order is not a permutation")
        for lvl, var in enumerate(self._var_at_level):
            if self._level_at_var[var] != lvl:
                raise BDDError("var<->level tables are not inverses")

    def eval(self, a: int, assignment: Callable[[int], bool]) -> bool:
        """Evaluate ``a`` under a total assignment ``variable -> bool``."""
        node = a
        while not self.is_terminal(node):
            var = self._var_at_level[self._level[node]]
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

    Bit ``p`` of every key is the value of the variable currently at
    ``levels[p]``; the variables are visited by level, so the build is
    correct under any variable order.  ``keys`` are sorted and
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
