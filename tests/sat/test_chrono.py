"""Chronological backtracking in the CDCL solver.

After a conflict the solver undoes only the conflict level (Nadel and
Ryvchin, SAT 2018; Moehle and Biere, SAT 2019).  A learned unit is
asserted at level 0, but the decisions below the conflict level stay on
the trail instead of being undone and made again.  These tests pin
that, check the trail invariants where implied literals sit below the
current decision level, and check answers and cores against an
independent DPLL on random 3-SAT at the satisfiability threshold, where
such out-of-order literals are common.
"""

import random

from repro.sat import CNF
from repro.sat.solver import Solver

from tests.sat.test_solver import TrailCheckingSolver


class DecisionRecordingSolver(TrailCheckingSolver):
    """Records each decision variable, how many literals each backtrack
    keeps above its target level's boundary, and how many implied
    literals each propagation leaves below the level of the decision
    before them on the trail."""

    def __init__(self, cnf):
        super().__init__(cnf)
        self.decided = []
        self.kept = 0
        self.out_of_order = 0

    def _propagate(self):
        conflict = super()._propagate()
        starts, current = set(self.trail_lim), 0
        for pos, lit in enumerate(self.trail):
            if pos in starts:
                current += 1
            elif self.level[abs(lit)] < current:
                self.out_of_order += 1
        return conflict

    def _pick_branch_var(self):
        var = super()._pick_branch_var()
        if var is not None:
            self.decided.append(var)
        return var

    def _backtrack(self, target_level):
        lim = self.trail_lim
        boundary = (lim[target_level] if len(lim) > target_level
                    else len(self.trail))
        super()._backtrack(target_level)
        self.kept += len(self.trail) - boundary


def test_learned_unit_keeps_unrelated_decisions():
    """d unrelated decisions, then one that conflicts on its own level.

    Variables 1..d occur in no clause; with every activity at zero they
    are decided first, in order.  Deciding ``-y`` then implies ``z`` and
    ``-z``, and the solver learns the unit ``y``.  Backtracking to level
    0 would undo all d decisions and make each again; backtracking
    chronologically keeps them and decides only ``z`` afterwards.
    """
    d = 20
    y, z = d + 1, d + 2
    cnf = CNF(d + 2)
    cnf.add_clause([y, z])
    cnf.add_clause([y, -z])
    solver = DecisionRecordingSolver(cnf)
    result = solver.solve()
    assert result.satisfiable and result.model[y] is True
    assert result.conflicts == 1
    assert solver.decided == list(range(1, d + 2)) + [z]
    assert result.decisions == d + 2
    # y is implied at level 0 while the d decisions stay on the trail.
    assert solver.level[y] == 0 and solver.level0_origins(y) == {0, 1}


def test_check_trail_reports_a_wrong_implied_level():
    cnf = CNF(3)
    cnf.add_clause([-1, 2])
    cnf.add_clause([-2, 3])
    solver = Solver(cnf)
    solver.trail_lim.append(len(solver.trail))
    solver._assign(1, None, None)
    assert solver._propagate() is None
    assert solver.check_trail() == []
    assert solver.level[3] == 1
    solver.level[3] = 0
    problems = solver.check_trail()
    assert any("implied by 1 at level 0" in p for p in problems), problems
    assert any("no origins" in p for p in problems), problems


def test_check_trail_reports_a_misplaced_decision():
    solver = Solver(CNF(2))
    solver.trail_lim.append(len(solver.trail))
    solver._assign(1, None, None)
    solver.trail_lim.append(len(solver.trail))
    solver._assign(2, None, None)
    assert solver.check_trail() == []
    solver.trail_lim[1] = 0
    assert solver.check_trail()


def _dpll(clauses):
    """Plain DPLL with unit propagation: whether ``clauses`` (tuples of
    literals) have a model.  Shares no code with the CDCL solver."""

    def assign(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            if -lit in c:
                c = c - {-lit}
                if not c:
                    return None
            out.append(c)
        return out

    def search(cls):
        while True:
            unit = next((c for c in cls if len(c) == 1), None)
            if unit is None:
                break
            cls = assign(cls, next(iter(unit)))
            if cls is None:
                return False
        if not cls:
            return True
        lit = min(cls[0])
        for choice in (lit, -lit):
            rest = assign(cls, choice)
            if rest is not None and search(rest):
                return True
        return False

    return search([frozenset(c) for c in clauses])


def _random_3sat(rng, n):
    cnf = CNF(n)
    for _ in range(round(n * 4.26)):
        cnf.add_clause([v * rng.choice((1, -1))
                        for v in rng.sample(range(1, n + 1), 3)])
    return cnf


def test_threshold_3sat_agrees_with_dpll():
    """Random 3-SAT at clause ratio 4.26, 20-40 variables: answers agree
    with DPLL, models satisfy, cores are unsatisfiable, and the trail
    invariants hold after every propagation.  The sweep must also keep
    literals across backtracks and imply literals out of level order, or
    it would not test chronological backtracking at all."""
    rng = random.Random(20181004)
    outcomes = {True: 0, False: 0}
    kept = out_of_order = 0
    for _ in range(60):
        cnf = _random_3sat(rng, rng.randrange(20, 41))
        solver = DecisionRecordingSolver(cnf)
        result = solver.solve()
        kept += solver.kept
        out_of_order += solver.out_of_order
        outcomes[result.satisfiable] += 1
        assert result.satisfiable == _dpll(cnf.clauses), cnf.to_dimacs()
        if result.satisfiable:
            assert cnf.evaluate(
                [result.model[v] for v in range(1, cnf.num_vars + 1)]
            )
        else:
            assert not _dpll([cnf.clauses[i] for i in result.core])
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes
    assert kept > 0 and out_of_order > 0, (kept, out_of_order)
