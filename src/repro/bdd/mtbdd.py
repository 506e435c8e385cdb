"""Multi-terminal BDDs (MTBDD/ADD): diagrams over numeric terminals.

A boolean BDD is the MTBDD whose only terminals are 0 and 1, so
:class:`MTBDDManager` subclasses the reference
:class:`~repro.bdd.manager.BDDManager` and generalises its terminal set
to an interned table of numbers (ints and floats), turning the diagrams
into Algebraic Decision Diagrams.  Node ``0`` *is* the number 0 and
node ``1`` the number 1, so the relational layer's FALSE/TRUE handles
keep their meaning; weighted relations (points-to multiplicities, call
frequencies, fuzzy/scored edges, as in the MTBDD fuzzy-relations line
of work) are diagrams whose terminals carry the weights.

The node arrays, hash-consing :meth:`~BDDManager.mk`, reference
counting and GC, the shape/postorder/support walks, ``cube``/``var``
construction, ``replace``, ``to_keys`` and the level introspection are
inherited.  The subclass overrides only what terminals beyond 0/1
change:

* the terminal table: :meth:`terminal`/:meth:`value`/
  :meth:`terminal_values`/:meth:`const` and :meth:`is_terminal`;
* :meth:`apply` — pointwise binary combinators (``and``/``or``/
  ``diff``/``xor`` for the boolean special case, ``add``/``mul``/
  ``max``/``min`` for arithmetic) plus the ternary :meth:`ite`;
* :meth:`abstract` — quantification generalised from the boolean
  ``exist``: ``or``-abstraction is projection, while ``add``/``max``/
  ``min``-abstraction computes grouped sums, maxima, and minima (the
  engine under the relational ``count/sum/max/min/mean`` aggregates).
  Sum-abstraction doubles over skipped levels, exactly compensating
  for the reduction rule that elides don't-care tests;
* the terminal-aware ``exist``/``and_exist``/``sat_count``/
  :meth:`weighted_total`/:meth:`all_terminals`/:meth:`evaluate`/
  :meth:`terminals_of`, and the cache set and gauges.
"""

from __future__ import annotations

from math import isnan
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bdd.manager import (
    _OP_AND,
    _OP_DIFF,
    _OP_NAMES as _BDD_OP_NAMES,
    _OP_OR,
    _OP_XOR,
    FALSE,
    TRUE,
    BDDError,
    BDDManager,
)
from repro.bdd.stats import KernelStats

__all__ = ["MTBDDManager", "APPLY_OPS", "ABSTRACT_OPS"]

# The boolean tags are the reference kernel's, so the inherited
# apply_and/apply_or/apply_diff/apply_xor dispatch into _apply below.
_OP_ADD = 5
_OP_MUL = 6
_OP_MAX = 7
_OP_MIN = 8
_OP_ITE = 9

_OP_NAMES = _BDD_OP_NAMES + ("add", "mul", "max", "min", "ite")

#: Public names accepted by :meth:`MTBDDManager.apply`.
APPLY_OPS = ("or", "and", "diff", "xor", "add", "mul", "max", "min")
#: Public names accepted by :meth:`MTBDDManager.abstract`.
ABSTRACT_OPS = ("or", "add", "max", "min")

_OP_TAG = {name: i for i, name in enumerate(_OP_NAMES)}
_COMMUTATIVE = frozenset(
    (_OP_OR, _OP_AND, _OP_XOR, _OP_ADD, _OP_MUL, _OP_MAX, _OP_MIN)
)
_BOOLEAN_OPS = frozenset((_OP_OR, _OP_AND, _OP_DIFF, _OP_XOR))

_TERMINAL_FN: Dict[int, Callable] = {
    _OP_OR: lambda x, y: 1 if (x or y) else 0,
    _OP_AND: lambda x, y: 1 if (x and y) else 0,
    _OP_DIFF: lambda x, y: 1 if (x and not y) else 0,
    _OP_XOR: lambda x, y: 1 if bool(x) != bool(y) else 0,
    _OP_ADD: lambda x, y: x + y,
    _OP_MUL: lambda x, y: x * y,
    _OP_MAX: max,
    _OP_MIN: min,
}


class MTBDDManager(BDDManager):
    """A :class:`~repro.bdd.manager.BDDManager` whose terminals are an
    interned table of numbers instead of exactly ``FALSE``/``TRUE``.

    Overrides the terminal table (:meth:`terminal`, :meth:`value`,
    :meth:`terminal_values`, :meth:`const`, :meth:`is_terminal`), the
    generalised :meth:`apply`/:meth:`ite`/:meth:`abstract` family, the
    terminal-aware ``exist``/``and_exist``/``sat_count``/
    :meth:`weighted_total`/:meth:`all_terminals`/:meth:`evaluate`/
    :meth:`terminals_of`, and the cache plumbing; everything else is the
    reference kernel's.

    Terminal nodes ``0`` and ``1`` are pre-interned for the values 0
    and 1, so handles of boolean functions coincide with the reference
    kernel's ``FALSE``/``TRUE`` convention.  Values are interned by
    numeric equality (``1`` and ``1.0`` share a terminal); ``NaN`` is
    rejected because it would break interning.  Interned terminals hold
    a permanent reference, so GC never frees them.
    """

    telemetry_name = "mtbdd"

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
    ) -> None:
        super().__init__(num_vars, gc_threshold, cache_limit)
        #: value -> terminal node (interned) and the reverse map.
        self._terminal_of: Dict[object, int] = {0: FALSE, 1: TRUE}
        self._value_of: Dict[int, object] = {FALSE: 0, TRUE: 1}
        self._abstract_cache: Dict[Tuple, int] = {}
        self.stats = KernelStats(_OP_NAMES)

    # ------------------------------------------------------------------
    # Terminal table, gauges and caches
    # ------------------------------------------------------------------

    def table_stats(self) -> Dict[str, float]:
        """Node-table occupancy gauges plus the terminal count."""
        stats = super().table_stats()
        stats["terminals"] = len(self._terminal_of)
        return stats

    def cache_stats(self) -> Dict[str, int]:
        """Entry counts of the operation caches."""
        return {
            "apply": len(self._apply_cache),
            "abstract": len(self._abstract_cache),
            "replace": len(self._replace_cache),
        }

    def _clear_caches(self) -> None:
        super()._clear_caches()
        self._abstract_cache.clear()

    def is_terminal(self, node: int) -> bool:
        """True for interned terminal (constant) nodes."""
        return node in self._value_of

    def _terminal_nodes(self) -> Iterable[int]:
        return self._value_of

    def terminal(self, value) -> int:
        """The interned terminal node carrying ``value``.

        ``value`` must be an int, float, or bool (normalised to int);
        numerically equal values share one terminal.
        """
        if isinstance(value, bool):
            value = int(value)
        elif not isinstance(value, (int, float)):
            raise BDDError(
                f"terminal values must be numbers, got {type(value).__name__}"
            )
        if isinstance(value, float) and isnan(value):
            raise BDDError("NaN terminals are not interned")
        node = self._terminal_of.get(value)
        if node is not None:
            return node
        # Freed slots already have low == high == -1.
        if self._free:
            node = self._free.pop()
            self._level[node] = self._num_vars
            self._refs[node] = 1
        else:
            node = len(self._level)
            self._level.append(self._num_vars)
            self._low.append(-1)
            self._high.append(-1)
            self._refs.append(1)
        self._terminal_of[value] = node
        self._value_of[node] = value
        self.stats.nodes_created += 1
        return node

    def value(self, node: int):
        """The number carried by a terminal node."""
        try:
            return self._value_of[node]
        except KeyError:
            raise BDDError(f"node {node} is not a terminal") from None

    def terminal_values(self) -> List[object]:
        """All interned terminal values, in interning order."""
        return list(self._terminal_of)

    def const(self, value) -> int:
        """Alias of :meth:`terminal` (ADD-style naming)."""
        return self.terminal(value)

    # ------------------------------------------------------------------
    # Pointwise combinators
    # ------------------------------------------------------------------

    def apply(self, op: str, a: int, b: int) -> int:
        """Combine two diagrams pointwise with the named operation.

        ``or``/``and``/``diff``/``xor`` require 0/1 terminals (the
        boolean special case); ``add``/``mul``/``max``/``min`` accept
        any numeric terminals.
        """
        if op not in APPLY_OPS:
            raise BDDError(f"unknown apply operation {op!r}")
        return self._apply(_OP_TAG[op], a, b)

    def apply_not(self, a: int) -> int:
        """Boolean complement (via diff from the constant 1)."""
        return self._apply(_OP_DIFF, TRUE, a)

    def _require_boolean(self, node: int) -> int:
        value = self._value_of[node]
        if value not in (0, 1):
            raise BDDError(
                f"boolean operation on non-boolean terminal {value!r}"
            )
        return value

    def _apply(self, op: int, a: int, b: int) -> int:
        # Terminal short-cuts that do not need the value table.
        if op == _OP_OR:
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == b:
                return a
        elif op == _OP_AND:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
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
        elif op == _OP_ADD:
            if a == FALSE:
                return b
            if b == FALSE:
                return a
        elif op == _OP_MUL:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
        elif op in (_OP_MAX, _OP_MIN):
            if a == b:
                return a
        if self._low[a] == -1 and self._low[b] == -1:
            va, vb = self._value_of[a], self._value_of[b]
            if op in _BOOLEAN_OPS:
                if va not in (0, 1) or vb not in (0, 1):
                    raise BDDError(
                        f"boolean operation {_OP_NAMES[op]!r} on "
                        f"non-boolean terminals {va!r}, {vb!r}"
                    )
            return self.terminal(_TERMINAL_FN[op](va, vb))
        if op in _COMMUTATIVE and a > b:
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

    def ite(self, f: int, g: int, h: int) -> int:
        """Pointwise if-then-else: ``f(x) ? g(x) : h(x)``.

        ``f`` must have 0/1 terminals; ``g``/``h`` may carry any values.
        """
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if self._low[f] == -1:
            return g if self._require_boolean(f) else h
        if g == TRUE and h == FALSE:
            return f
        key = (_OP_ITE, f, g, h)
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.stats.op_hits[_OP_ITE] += 1
            return cached
        self.stats.op_misses[_OP_ITE] += 1
        lf, lg, lh = self._level[f], self._level[g], self._level[h]
        level = min(lf, lg, lh)
        f0, f1 = (self._low[f], self._high[f]) if lf == level else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if lg == level else (g, g)
        h0, h1 = (self._low[h], self._high[h]) if lh == level else (h, h)
        result = self.mk(
            level, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
        )
        return self._cache_store(self._apply_cache, key, result)

    # ------------------------------------------------------------------
    # Abstraction (generalised quantification)
    # ------------------------------------------------------------------

    def exist(self, a: int, variables: Iterable[int]) -> int:
        """Boolean existential quantification (``or``-abstraction)."""
        return self.abstract("or", a, variables)

    def abstract(self, op: str, a: int, variables: Iterable[int]) -> int:
        """Quantify ``variables`` out of ``a`` by combining cofactors
        with ``op`` (``or``, ``add``, ``max``, or ``min``).

        ``add``-abstraction sums the function over all assignments of
        the quantified variables: a quantified variable skipped by the
        diagram's reduction rule contributes a factor of two, which the
        implementation applies explicitly.  ``or``/``max``/``min`` are
        idempotent, so skipped variables are no-ops for them.
        """
        if op not in ABSTRACT_OPS:
            raise BDDError(f"unknown abstraction operation {op!r}")
        lv = tuple(sorted(set(self._to_levels(variables))))
        if not lv:
            return a
        return self._abstract(_OP_TAG[op], a, lv)

    def _abstract(self, op: int, a: int, levels: Tuple[int, ...]) -> int:
        if self._low[a] == -1:  # terminal
            if op == _OP_ADD and levels and a != FALSE:
                return self.terminal(self._value_of[a] * (2 ** len(levels)))
            return a
        la = self._level[a]
        # Quantified levels above this node no longer occur below it;
        # each one doubles a sum (or(x,x) = max(x,x) = x, but x+x = 2x).
        idx = 0
        while idx < len(levels) and levels[idx] < la:
            idx += 1
        dropped = idx
        levels = levels[idx:]
        if not levels:
            result = a
        else:
            key = (op, a, levels)
            cached = self._abstract_cache.get(key)
            if cached is not None:
                self.stats.exist_hits += 1
                result = cached
            else:
                self.stats.exist_misses += 1
                if la == levels[0]:
                    rest = levels[1:]
                    low = self._abstract(op, self._low[a], rest)
                    if op == _OP_OR and low == TRUE:
                        result = TRUE  # short-circuit, as in _exist
                    else:
                        high = self._abstract(op, self._high[a], rest)
                        result = self._apply(op, low, high)
                else:
                    result = self.mk(
                        la,
                        self._abstract(op, self._low[a], levels),
                        self._abstract(op, self._high[a], levels),
                    )
                self._cache_store(self._abstract_cache, key, result)
        if op == _OP_ADD and dropped and result != FALSE:
            result = self._apply(
                _OP_MUL, result, self.terminal(2 ** dropped)
            )
        return result

    def and_exist(self, a: int, b: int, variables: Iterable[int]) -> int:
        """``exist(a AND b, variables)`` (boolean operands only).

        Not fused: correctness-first, matching the generic backend path.
        """
        return self.exist(self.apply_and(a, b), variables)

    # ------------------------------------------------------------------
    # Evaluation and enumeration
    # ------------------------------------------------------------------

    def evaluate(self, a: int, assignment: Dict[int, bool]):
        """The terminal value of ``a`` under a (possibly partial)
        assignment covering its support."""
        node = a
        while self._low[node] != -1:
            var = self._level[node]
            if var not in assignment:
                raise BDDError(
                    f"assignment does not cover variable {var}"
                )
            node = self._high[node] if assignment[var] else self._low[node]
        return self._value_of[node]

    def sat_count(self, a: int, variables: Sequence[int]) -> int:
        """Number of assignments of ``variables`` mapped to a non-zero
        value (the relational cardinality for 0/1 diagrams).

        Implemented via ``add``-abstraction over the requested
        variables, so it is exact in O(nodes); requires 0/1 terminals.
        """
        bad = self.support(a) - set(variables)
        if bad:
            raise BDDError(
                f"sat_count variables do not cover support variables "
                f"{sorted(bad)}"
            )
        for v in self.terminals_of(a):
            if v not in (0, 1):
                raise BDDError(
                    f"sat_count over non-boolean terminal {v!r}"
                )
        total = self._abstract(
            _OP_ADD, a, tuple(sorted(set(self._to_levels(variables))))
        ) if variables else a
        return int(self._value_of[total])

    def weighted_total(self, a: int, variables: Sequence[int]):
        """Sum of the function over all assignments of ``variables``
        (which must cover the support)."""
        bad = self.support(a) - set(variables)
        if bad:
            raise BDDError(
                f"weighted_total variables do not cover support "
                f"variables {sorted(bad)}"
            )
        lv = tuple(sorted(set(self._to_levels(variables))))
        node = self._abstract(_OP_ADD, a, lv) if lv else a
        return self._value_of[node]

    def terminals_of(self, a: int) -> List[object]:
        """Distinct terminal values reachable from ``a``."""
        seen = set()
        values = set()
        stack = [a]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self._low[node] == -1:
                values.add(self._value_of[node])
                continue
            stack.append(self._low[node])
            stack.append(self._high[node])
        return sorted(values, key=lambda v: (float(v), isinstance(v, float)))

    def all_terminals(
        self, a: int, variables: Sequence[int]
    ) -> Iterator[Tuple[Dict[int, bool], object]]:
        """Iterate ``(assignment, value)`` pairs over ``variables`` for
        every assignment mapped to a non-zero value.  Wildcard bits
        within ``variables`` are expanded to both values."""
        level_list = sorted(set(self._to_levels(variables)))
        bad = self.support(a) - set(variables)
        if bad:
            raise BDDError(
                f"all_terminals variables do not cover support "
                f"variables {sorted(bad)}"
            )

        def rec(node: int, idx: int):
            if node == FALSE:
                return
            if idx == len(level_list):
                if self._low[node] == -1:
                    value = self._value_of[node]
                    if value != 0:
                        yield {}, value
                return
            level = level_list[idx]
            if self._level[node] == level:
                for value, child in (
                    (False, self._low[node]),
                    (True, self._high[node]),
                ):
                    for rest, terminal in rec(child, idx + 1):
                        rest[level] = value
                        yield rest, terminal
            else:
                for rest, terminal in rec(node, idx + 1):
                    for value in (False, True):
                        out = dict(rest)
                        out[level] = value
                        yield out, terminal

        return rec(a, 0)

    def check_integrity(self) -> None:
        """Verify table invariants; raises :class:`BDDError` on failure."""
        super().check_integrity()
        for value, node in self._terminal_of.items():
            if self._value_of.get(node) != value or self._low[node] != -1:
                raise BDDError(f"terminal table inconsistent at {value!r}")
