"""A CDCL SAT solver with unsat-core extraction.

The paper delegates the (NP-complete) physical domain assignment problem
to the zchaff solver and uses zchaff's *unsatisfiable core extraction*
[30] to produce meaningful error messages (section 3.3.3).  This module
is the reproduction's solver: conflict-driven clause learning with
two-watched-literal propagation, first-UIP learning, chronological
backtracking, VSIDS-style activities, phase saving, and Luby restarts.

Backtracking is chronological (Nadel and Ryvchin, "Chronological
Backtracking", SAT 2018, with the corrections of Moehle and Biere,
"Backing Backtracking", SAT 2019).  An implied literal takes the highest
level among its reason's other literals, which can be below the current
decision level, so levels on the trail are not sorted.  A conflict's
level is the highest level in the conflicting clause, and the solver
undoes that level only: with one literal there, the clause implies it
at the second-highest level; otherwise the first-UIP clause learned
against the conflict level implies its asserting literal at its
backjump level.  A learned unit thus goes to level 0 while the
decisions below the conflict stay, where a jump to level 0 would undo
them and, through phase saving, make nearly all of them again.

Core extraction works by tracking, for every learned clause, the set of
*original* clause indices used in its derivation (the leaves of the
resolution proof).  A level-0 assignment records only its direct
origins: its unit input clause, its reason's origins, or, for a learned
unit, its derivation's.  Its *origin closure* adds the closures of the
reason's other literals, all false at level 0; it is computed, and
memoised, only when a learned clause's derivation or a core resolves
the literal away.  A level-0 literal never leaves the trail, so its
reason is never deleted and its closure is the same whenever it is
taken.  When a conflict has all its literals at level 0 (whatever the
current decision level), the union of the conflict's origins with the
origin closures of its falsified literals is an unsatisfiable subset of
the input -- the core reported to the caller.  Like zchaff's, the core
is small in practice but not guaranteed minimal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
from typing import (
    Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro import telemetry as _telemetry
from repro.sat.cnf import CNF

__all__ = ["SATResult", "SolveStats", "Solver", "solve"]


@dataclass
class SATResult:
    """Outcome of a SAT query.

    Attributes
    ----------
    satisfiable:
        Whether a model was found.
    model:
        On SAT, ``model[var]`` for every variable ``1..num_vars``.
    core:
        On UNSAT, indices (into the input CNF's clause list) of an
        unsatisfiable subset of the clauses.
    conflicts, decisions, propagations:
        Search statistics, reported in the Table 1 benchmark.
    """

    satisfiable: bool
    model: Optional[Dict[int, bool]] = None
    core: Optional[List[int]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


@dataclass(frozen=True)
class SolveStats:
    """Cumulative search statistics of a :class:`Solver` instance.

    Unlike the per-result fields on :class:`SATResult`, these cover the
    solver's whole lifetime (restarts, learned-clause churn included) and
    are what the telemetry registry surfaces as ``sat.*`` counters.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    reductions: int = 0


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """One-shot CDCL solver over a :class:`~repro.sat.cnf.CNF` formula.

    Truth values live in ``lval``, indexed by literal: ``lval[lit]`` is
    ``True``, ``False`` or ``None`` (unassigned), and a negative literal
    ``-v`` lands, by Python's negative indexing, at ``2*nv + 1 - v``.
    Assigning a variable writes both of its slots.  Watch lists are
    indexed the same way: ``watches[lit]`` holds the clauses to visit
    when ``lit`` becomes true (those watching ``-lit``).
    """

    def __init__(self, cnf: CNF) -> None:
        self.cnf = cnf
        nv = self.nv = cnf.num_vars
        # Clause database, indexed by clause id.  An input clause's id is
        # its index in ``cnf.clauses``; learned clauses are appended.  A
        # unit, empty or tautological input leaves a None slot, as does a
        # learned clause deleted by a database reduction.  Binary input
        # clauses are the CNF's own tuples, which propagation never
        # reorders; longer clauses are lists whose first two literals are
        # the watched ones.  An input clause's origin (the input clauses
        # at the leaves of its derivation) is its own id;
        # ``learned_origins`` holds the origin set of each learned clause.
        self.n_input = len(cnf.clauses)
        self.clauses: List[Optional[Sequence[int]]] = []
        self.learned_origins: Dict[int, FrozenSet[int]] = {}
        self.watches: List[List[int]] = [[] for _ in range(2 * nv + 1)]
        # Assignment state.
        self.lval: List[Optional[bool]] = [None] * (2 * nv + 1)
        self.reason: List[Optional[int]] = [None] * (nv + 1)
        self.level: List[int] = [0] * (nv + 1)
        # A level-0 literal's direct origins (see the module docstring),
        # and the origin closures taken so far, by variable.
        self.zero_direct: List[Optional[Collection[int]]] = [None] * (nv + 1)
        self.zero_closure: Dict[int, FrozenSet[int]] = {}
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        # VSIDS.  ``order`` is a heap of ``(-activity, var)`` entries, some
        # of them stale; ``queued[v]`` is the activity of v's freshest
        # entry still in the heap, or None when it has none.  Activities
        # only grow between rescales, so an unassigned variable's freshest
        # entry is also its smallest key, and a variable needs a new
        # entry on backtrack only when its activity moved since.
        self.activity: List[float] = [0.0] * (nv + 1)
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.order: List[Tuple[float, int]] = []  # filled by _solve
        self.queued: List[Optional[float]] = [0.0] * (nv + 1)
        self.saved_phase: List[bool] = [False] * (nv + 1)
        # Learned-clause database management.
        self.learned_cids: List[int] = []
        self.clause_activity: Dict[int, float] = {}
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.max_learned = 4000
        # Stats.
        self.n_conflicts = 0
        self.n_decisions = 0
        self.n_propagations = 0
        self.n_reductions = 0
        self.n_restarts = 0
        self.n_learned = 0
        self.n_deleted = 0
        # Input bookkeeping.
        self._empty_clause_idx: Optional[int] = None
        self._unit_inputs: List[Tuple[int, int]] = []  # (literal, orig idx)
        tel = _telemetry.active()
        if tel.enabled:
            with tel.span("sat.load", cat="sat", vars=nv, clauses=self.n_input):
                self._load()
        else:
            self._load()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _load(self) -> None:
        self.clauses = clauses = list(self.cnf.clauses)
        watches = self.watches
        for idx, clause in enumerate(clauses):
            # A tautology (a variable in both polarities) is always
            # satisfied and never in a core: it has fewer distinct
            # variables than distinct literals.
            if len(clause) == 2:
                a, b = clause
                if a != -b:
                    watches[-a].append(idx)
                    watches[-b].append(idx)
                else:
                    clauses[idx] = None
            elif len(clause) > 2:
                if len(set(map(abs, clause))) != len(set(clause)):
                    clauses[idx] = None
                    continue
                clauses[idx] = list(clause)
                watches[-clause[0]].append(idx)
                watches[-clause[1]].append(idx)
            else:
                clauses[idx] = None
                if clause:
                    self._unit_inputs.append((clause[0], idx))
                else:
                    self._empty_clause_idx = idx

    def _origins(self, cid: int) -> Collection[int]:
        """The input clauses at the leaves of clause ``cid``'s derivation."""
        return (cid,) if cid < self.n_input else self.learned_origins[cid]

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _assign(
        self,
        lit: int,
        reason_cid: Optional[int],
        unit_origin: Optional[int],
        level: Optional[int] = None,
    ) -> None:
        """Assign ``lit`` at ``level``, by default the current decision
        level.  A level-0 assignment also records its direct origins,
        whatever the current decision level."""
        var = lit if lit > 0 else -lit
        self.lval[lit] = True
        self.lval[-lit] = False
        self.reason[var] = reason_cid
        if level is None:
            level = len(self.trail_lim)
        self.level[var] = level
        self.saved_phase[var] = lit > 0
        if level == 0:
            self.zero_direct[var] = (
                (unit_origin,) if reason_cid is None
                else self._origins(reason_cid)
            )
        self.trail.append(lit)

    def level0_origins(self, var: int) -> FrozenSet[int]:
        """The origin closure of level-0 variable ``var``: the input
        clauses that force its value.

        Taken once per variable, iteratively over the level-0 reasons
        (the literals below ``var`` first), then kept.
        """
        closure = self.zero_closure
        done = closure.get(var)
        if done is not None:
            return done
        clauses, reason, level = self.clauses, self.reason, self.level
        direct = self.zero_direct
        stack = [var]
        while stack:
            v = stack[-1]
            if v in closure:
                stack.pop()
                continue
            cid = reason[v]
            below = () if cid is None else [
                u for u in map(abs, clauses[cid]) if u != v and level[u] == 0
            ]
            todo = [u for u in below if u not in closure]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            acc = set(direct[v] or ())
            for u in below:
                acc.update(closure[u])
            closure[v] = frozenset(acc)
        return closure[var]

    def _backtrack(self, target_level: int) -> None:
        """Undo every assignment above ``target_level``.

        Implied literals can sit above the decisions of higher levels, so
        the undone part of the trail may hold literals at or below
        ``target_level``; they stay, in trail order, and propagate again.
        """
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) <= target_level:
            return
        boundary = trail_lim[target_level]
        del trail_lim[target_level:]
        kept: List[int] = []
        lval, reason, level = self.lval, self.reason, self.level
        activity, queued, order = self.activity, self.queued, self.order
        for lit in trail[boundary:]:
            var = lit if lit > 0 else -lit
            if level[var] <= target_level:
                kept.append(lit)
                continue
            lval[lit] = lval[-lit] = None
            reason[var] = None
            a = activity[var]
            if queued[var] != a:
                queued[var] = a
                heapq.heappush(order, (-a, var))
        del trail[boundary:]
        trail.extend(kept)
        if self.prop_head > boundary:
            self.prop_head = boundary

    # ------------------------------------------------------------------
    # Propagation (two watched literals)
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Propagate pending assignments; returns a conflicting cid or None.

        An implied literal takes the highest level among its reason's
        other literals, which may be below the current decision level.
        Implied assignments are made inline; one at level 0 also records
        its reason's origins as its direct origins.

        A binary clause never moves its watches: its implied literal is
        the one that is not ``false_lit``.  A watch list is compacted in
        place, and only from the first watcher it drops (a long clause
        that moved its watch, or a deleted clause); ``w`` is the next
        write position from then on, -1 while nothing was dropped.
        """
        trail, lval = self.trail, self.lval
        clauses, watches = self.clauses, self.watches
        reason, level, phase = self.reason, self.level, self.saved_phase
        n_input, zero_direct = self.n_input, self.zero_direct
        dl = len(self.trail_lim)
        head = start = self.prop_head
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            watching = watches[lit]
            if not watching:
                continue
            false_lit = -lit
            w = -1
            for i, cid in enumerate(watching):
                clause = clauses[cid]
                if clause is None:  # deleted by a database reduction
                    if w < 0:
                        w = i
                    continue
                if len(clause) == 2:
                    first = clause[0]
                    if first == false_lit:
                        first = clause[1]
                    first_val = lval[first]
                else:
                    # Ensure the falsified literal is in position 1.
                    if clause[0] == false_lit:
                        clause[0], clause[1] = clause[1], false_lit
                    first = clause[0]
                    first_val = lval[first]
                    if first_val is not True:
                        # Find a new literal to watch.
                        for k in range(2, len(clause)):
                            other = clause[k]
                            if lval[other] is not False:
                                clause[1], clause[k] = other, false_lit
                                watches[-other].append(cid)
                                break
                        else:
                            other = None
                        if other is not None:
                            if w < 0:
                                w = i
                            continue
                if w >= 0:
                    watching[w] = cid
                    w += 1
                if first_val is None:
                    # Implied at the highest level among the clause's
                    # other literals, all false; ``false_lit`` is one.
                    lvl = level[lit if lit > 0 else -lit]
                    if lvl < dl and len(clause) > 2:
                        for k in range(2, len(clause)):
                            other = clause[k]
                            k_lvl = level[other if other > 0 else -other]
                            if k_lvl > lvl:
                                lvl = k_lvl
                                if lvl == dl:
                                    break
                    lval[first] = True
                    lval[-first] = False
                    var = first if first > 0 else -first
                    reason[var] = cid
                    level[var] = lvl
                    phase[var] = first > 0
                    trail.append(first)
                    if lvl == 0:
                        zero_direct[var] = (
                            (cid,) if cid < n_input
                            else self.learned_origins[cid]
                        )
                elif first_val is False:
                    # Conflict: keep the remaining watchers, stop.
                    if w >= 0:
                        del watching[w:i + 1]
                    conflict = cid
                    break
            else:
                if w >= 0:
                    del watching[w:]
            if conflict is not None:
                break
        self.n_propagations += head - start
        self.prop_head = head
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            self._rescale()

    def _rescale(self) -> None:
        """Scale every activity and ``var_inc`` by 1e-100.

        The heap keys are activities too, so the heap is rebuilt from the
        unassigned variables' scaled activities; an entry left at the old
        scale would outrank every later push, whatever its activity.
        Assigned variables lose their entries and get fresh ones when
        backtracking unassigns them.
        """
        nv, lval = self.nv, self.lval
        self.activity = activity = [a * 1e-100 for a in self.activity]
        self.var_inc *= 1e-100
        self.queued = queued = [None] * (nv + 1)
        order = []
        for v in range(1, nv + 1):
            if lval[v] is None:
                queued[v] = activity[v]
                order.append((-activity[v], v))
        order.sort()
        self.order = order

    def _analyze(
        self, conflict_cid: int, conflict_level: int
    ) -> Tuple[List[int], int, FrozenSet[int]]:
        """Derive a 1UIP clause; returns (learnt, backjump_level, origins).

        The conflict clause has two or more literals at ``conflict_level``,
        its highest level.  Literals of other levels can sit among that
        level's on the trail, so the walk looks for marked literals of
        ``conflict_level`` only; literals above it are never marked.
        """
        clauses, closure = self.clauses, self.zero_closure
        level, trail = self.level, self.trail
        bump = self._bump
        learnt: List[int] = []
        seen: Set[int] = set()
        origins_acc: Set[int] = set(self._origins(conflict_cid))
        self._bump_clause(conflict_cid)
        counter = 0
        lits = clauses[conflict_cid]
        trail_idx = len(trail) - 1
        p: Optional[int] = None
        while True:
            for q in lits:
                if q == p:
                    continue
                var = q if q > 0 else -q
                q_level = level[var]
                if q_level == 0:
                    origins_acc.update(
                        closure.get(var) or self.level0_origins(var)
                    )
                    continue
                if var not in seen:
                    seen.add(var)
                    bump(var)
                    if q_level == conflict_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Walk the trail back to the next marked conflict-level literal.
            while True:
                p = trail[trail_idx]
                trail_idx -= 1
                p_var = p if p > 0 else -p
                if p_var in seen and level[p_var] == conflict_level:
                    break
            seen.discard(p_var)
            counter -= 1
            if counter == 0:
                learnt.append(-p)
                break
            reason_cid = self.reason[p_var]
            assert reason_cid is not None, "UIP literal must be implied"
            self._bump_clause(reason_cid)
            origins_acc.update(self._origins(reason_cid))
            lits = clauses[reason_cid]
        # Asserting literal last; the backjump level is the highest other.
        backjump = max((level[abs(l)] for l in learnt[:-1]), default=0)
        return learnt, backjump, frozenset(origins_acc)

    def _conflict_core_at_zero(self, conflict_cid: int) -> List[int]:
        acc: Set[int] = set(self._origins(conflict_cid))
        for lit in self.clauses[conflict_cid]:
            acc.update(self.level0_origins(abs(lit)))
        return sorted(acc)

    def check_trail(self) -> List[str]:
        """The trail's invariants, as a list of violations (empty if all
        hold); the solver's counterpart of ``BDDManager.check_integrity``,
        for tests:

        * every literal on the trail is true, and no variable is on it
          twice;
        * every decision sits at its ``trail_lim`` position, at its level;
        * every implied literal's level is the highest level among its
          reason's other literals, which are all false;
        * every reasonless literal off ``trail_lim`` is at level 0;
        * every level-0 literal has a nonempty :meth:`level0_origins`.
        """
        problems: List[str] = []
        lval, level, reason = self.lval, self.level, self.reason
        decision_at = {pos: i + 1 for i, pos in enumerate(self.trail_lim)}
        if len(decision_at) != len(self.trail_lim) or any(
            pos >= len(self.trail) for pos in decision_at
        ):
            problems.append(f"bad trail_lim {self.trail_lim}")
        seen: Set[int] = set()
        for pos, lit in enumerate(self.trail):
            var = abs(lit)
            if var in seen:
                problems.append(f"variable {var} is on the trail twice")
            seen.add(var)
            if lval[lit] is not True:
                problems.append(f"trail literal {lit} is not true")
            cid, lvl = reason[var], level[var]
            if pos in decision_at:
                if cid is not None or lvl != decision_at[pos]:
                    problems.append(
                        f"decision {lit} at {pos}: reason {cid}, level {lvl},"
                        f" expected level {decision_at[pos]}"
                    )
            elif cid is not None:
                clause = self.clauses[cid]
                if clause is None or lit not in clause:
                    problems.append(f"{lit}'s reason {cid} does not hold it")
                    continue
                others = [o for o in clause if o != lit]
                if any(lval[o] is not False for o in others):
                    problems.append(f"{lit}'s reason {cid} is not unit")
                implied = max((level[abs(o)] for o in others), default=0)
                if lvl != implied:
                    problems.append(
                        f"{lit} implied by {cid} at level {lvl}, its "
                        f"reason's other literals reach level {implied}"
                    )
            elif lvl != 0:
                problems.append(f"reasonless {lit} at level {lvl}")
            if lvl == 0 and not self.level0_origins(var):
                problems.append(f"level-0 {lit} has no origins")
        return problems

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def stats(self) -> SolveStats:
        """Snapshot of the cumulative search statistics."""
        return SolveStats(
            conflicts=self.n_conflicts,
            decisions=self.n_decisions,
            propagations=self.n_propagations,
            restarts=self.n_restarts,
            learned=self.n_learned,
            deleted=self.n_deleted,
            reductions=self.n_reductions,
        )

    def solve(self) -> SATResult:
        """Run the CDCL search to completion."""
        tel = _telemetry.active()
        if not tel.enabled:
            return self._solve()
        before = self.stats()
        with tel.span("sat.solve", cat="sat", vars=self.nv, clauses=len(self.clauses)):
            result = self._solve()
        tel.record_sat(self.stats(), before)
        return result

    def _solve(self) -> SATResult:
        if self._empty_clause_idx is not None:
            return SATResult(False, core=[self._empty_clause_idx])
        # Level-0 unit clauses.
        for lit, idx in self._unit_inputs:
            val = self.lval[lit]
            if val is True:
                continue
            if val is False:
                var = abs(lit)
                core = sorted({idx} | self.level0_origins(var))
                return SATResult(False, core=core)
            self._assign(lit, None, idx, 0)
        conflict = self._propagate()
        if conflict is not None:
            return SATResult(
                False,
                core=self._conflict_core_at_zero(conflict),
                conflicts=self.n_conflicts,
                decisions=self.n_decisions,
                propagations=self.n_propagations,
            )
        # Every activity is zero, so the heap is the unassigned variables
        # in order (sorted, hence already a heap).  A level-0 variable
        # never leaves the trail and gets no entry.
        nv, lval = self.nv, self.lval
        unset = map(is_, lval[1:nv + 1], repeat(None))
        self.order = list(zip(repeat(0.0), compress(range(1, nv + 1), unset)))
        clauses, level = self.clauses, self.level
        restart_count = 0
        conflicts_until_restart = 64 * _luby(1)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.n_conflicts += 1
                # Backtrack chronologically: undo the conflict level only.
                lits = clauses[conflict]
                conflict_level = max(level[abs(lit)] for lit in lits)
                if conflict_level == 0:
                    return SATResult(
                        False,
                        core=self._conflict_core_at_zero(conflict),
                        conflicts=self.n_conflicts,
                        decisions=self.n_decisions,
                        propagations=self.n_propagations,
                    )
                top = [l for l in lits if level[abs(l)] == conflict_level]
                if len(top) == 1:
                    # One literal at the conflict level: the clause implies
                    # it at the second-highest level.
                    forced = top[0]
                    second = max(level[abs(l)] for l in lits if l != forced)
                    self._backtrack(second)
                    self._assign(forced, conflict, None, second)
                    continue
                learnt, backjump, origins = self._analyze(
                    conflict, conflict_level
                )
                self._backtrack(conflict_level - 1)
                self._learn(learnt, origins, backjump)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                conflicts_until_restart -= 1
                continue
            if conflicts_until_restart <= 0 and self._decision_level() > 0:
                restart_count += 1
                self.n_restarts += 1
                conflicts_until_restart = 64 * _luby(restart_count + 1)
                self._backtrack(0)
                continue
            var = self._pick_branch_var()
            if var is None:
                # Every variable is assigned: True or False.
                model = dict(zip(range(1, nv + 1), lval[1:nv + 1]))
                return SATResult(
                    True,
                    model=model,
                    conflicts=self.n_conflicts,
                    decisions=self.n_decisions,
                    propagations=self.n_propagations,
                )
            self.n_decisions += 1
            self.trail_lim.append(len(self.trail))
            lit = var if self.saved_phase[var] else -var
            self._assign(lit, None, None)

    def _learn(
        self, learnt: List[int], origins: FrozenSet[int], backjump: int
    ) -> None:
        """Add ``learnt`` and imply its asserting literal at ``backjump``,
        the highest level among its other literals."""
        self.n_learned += 1
        asserting = learnt[-1]
        if len(learnt) == 1:
            # Unit learned clause: assign at level 0; its direct origins
            # are the derivation's origin set.
            var = abs(asserting)
            self.zero_direct[var] = origins
            self.lval[asserting] = True
            self.lval[-asserting] = False
            self.reason[var] = None
            self.level[var] = 0
            self.trail.append(asserting)
            return
        cid = len(self.clauses)
        # Put the asserting literal and the highest-level other literal in
        # the watch positions.
        lits = [asserting] + [l for l in learnt[:-1]]
        lits[1:] = sorted(
            lits[1:], key=lambda l: -self.level[abs(l)]
        )
        self.clauses.append(lits)
        self.learned_origins[cid] = origins
        for lit in lits[:2]:
            self.watches[-lit].append(cid)
        self.learned_cids.append(cid)
        self.clause_activity[cid] = self.cla_inc
        self._assign(asserting, cid, None, backjump)
        if len(self.learned_cids) > self.max_learned:
            self._reduce_db()

    def _bump_clause(self, cid: int) -> None:
        if cid in self.clause_activity:
            self.clause_activity[cid] += self.cla_inc
            if self.clause_activity[cid] > 1e20:
                for key in self.clause_activity:
                    self.clause_activity[key] *= 1e-20
                self.cla_inc *= 1e-20

    def _reduce_db(self) -> None:
        """Delete the less active half of the learned clauses.

        Clauses currently serving as reasons on the trail are locked;
        binary clauses are cheap to keep.  Deleted slots are set to None
        and purged lazily from watch lists during propagation.
        """
        locked = {
            self.reason[abs(lit)]
            for lit in self.trail
            if self.reason[abs(lit)] is not None
        }
        candidates = [
            cid
            for cid in self.learned_cids
            if self.clauses[cid] is not None
            and len(self.clauses[cid]) > 2
            and cid not in locked
        ]
        candidates.sort(key=lambda cid: self.clause_activity.get(cid, 0.0))
        for cid in candidates[: len(candidates) // 2]:
            self.clauses[cid] = None
            self.clause_activity.pop(cid, None)
            del self.learned_origins[cid]
            self.n_deleted += 1
        self.learned_cids = [
            cid for cid in self.learned_cids if self.clauses[cid] is not None
        ]
        self.max_learned = int(self.max_learned * 1.2)
        self.n_reductions += 1

    def _pick_branch_var(self) -> Optional[int]:
        order, lval, queued = self.order, self.lval, self.queued
        while order:
            key, var = heapq.heappop(order)
            if queued[var] == -key:  # popped var's freshest entry
                queued[var] = None
            if lval[var] is None:
                return var
        return None


def solve(cnf: CNF) -> SATResult:
    """Solve ``cnf``; convenience wrapper constructing a fresh solver."""
    return Solver(cnf).solve()
