"""Unit and property tests for the CDCL solver and CNF container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CNF, CNFError, brute_force_solve, solve
from repro.sat.solver import Solver


class TrailCheckingSolver(Solver):
    """A :class:`Solver` that checks :meth:`Solver.check_trail` after
    every propagation, conflicting or not."""

    def _propagate(self):
        conflict = super()._propagate()
        problems = self.check_trail()
        assert not problems, problems
        return conflict


def checked_solve(cnf):
    return TrailCheckingSolver(cnf).solve()


def cnf_of(num_vars, clauses):
    cnf = CNF(num_vars)
    for c in clauses:
        cnf.add_clause(c)
    return cnf


class TestCNF:
    def test_add_clause_returns_index(self):
        cnf = CNF(2)
        assert cnf.add_clause([1, -2]) == 0
        assert cnf.add_clause([2]) == 1

    def test_add_clause_grows_num_vars(self):
        cnf = CNF(0)
        cnf.add_clause([5])
        assert cnf.num_vars == 5

    def test_zero_literal_rejected(self):
        with pytest.raises(CNFError):
            CNF(1).add_clause([0])

    def test_duplicate_literals_collapsed(self):
        cnf = CNF(1)
        cnf.add_clause([1, 1])
        assert cnf.clauses[0] == (1,)

    def test_num_literals(self):
        cnf = cnf_of(3, [[1, 2], [3], [-1, -2, -3]])
        assert cnf.num_literals == 6

    def test_evaluate(self):
        cnf = cnf_of(2, [[1, 2], [-1]])
        assert cnf.evaluate([False, True])
        assert not cnf.evaluate([True, True])

    def test_dimacs_roundtrip(self):
        cnf = cnf_of(3, [[1, -2], [2, 3], [-3]])
        again = CNF.from_dimacs(cnf.to_dimacs())
        assert again.clauses == cnf.clauses
        assert again.num_vars == cnf.num_vars

    def test_dimacs_comments_ignored(self):
        text = "c a comment\np cnf 2 1\n1 -2 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.clauses == [(1, -2)]

    def test_dimacs_unterminated_clause(self):
        with pytest.raises(CNFError):
            CNF.from_dimacs("p cnf 1 1\n1\n")

    def test_dimacs_bad_problem_line(self):
        with pytest.raises(CNFError):
            CNF.from_dimacs("p sat 1 1\n")


class TestSolverSAT:
    def test_empty_formula_sat(self):
        res = solve(CNF(3))
        assert res.satisfiable
        assert set(res.model) == {1, 2, 3}

    def test_single_unit(self):
        res = solve(cnf_of(1, [[1]]))
        assert res.satisfiable and res.model[1] is True

    def test_negative_unit(self):
        res = solve(cnf_of(1, [[-1]]))
        assert res.satisfiable and res.model[1] is False

    def test_simple_implication_chain(self):
        res = solve(cnf_of(3, [[1], [-1, 2], [-2, 3]]))
        assert res.satisfiable
        assert res.model == {1: True, 2: True, 3: True}

    def test_model_satisfies_formula(self):
        cnf = cnf_of(4, [[1, 2], [-1, 3], [-3, -2], [2, 4]])
        res = solve(cnf)
        assert res.satisfiable
        assert cnf.evaluate([res.model[v] for v in range(1, 5)])

    def test_tautology_is_ignored(self):
        res = solve(cnf_of(2, [[1, -1], [2]]))
        assert res.satisfiable and res.model[2] is True

    def test_raw_duplicate_literal_clause_still_constrains(self):
        # (1 1 2) bypasses add_clause's dedupe; it is not a tautology and
        # must still force 2 once 1 is false.
        cnf = cnf_of(2, [[-1]])
        cnf.clauses.append((1, 1, 2))
        res = solve(cnf)
        assert res.satisfiable
        assert res.model == {1: False, 2: True}
        cnf.add_clause([-2])
        res = solve(cnf)
        assert not res.satisfiable
        assert res.core == [0, 1, 2]

    def test_requires_search(self):
        # A formula with no unit clauses, forcing decisions + backtracking.
        cnf = cnf_of(
            4,
            [
                [1, 2],
                [-1, 3],
                [-2, 3],
                [-3, 4],
                [-4, 1, 2],
                [-1, -2],
            ],
        )
        res = solve(cnf)
        assert res.satisfiable
        assert cnf.evaluate([res.model[v] for v in range(1, 5)])


class TestSolverUNSAT:
    def test_contradictory_units(self):
        res = solve(cnf_of(1, [[1], [-1]]))
        assert not res.satisfiable
        assert sorted(res.core) == [0, 1]

    def test_empty_clause(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        cnf.clauses.append(())  # direct empty clause
        res = solve(cnf)
        assert not res.satisfiable
        assert res.core == [1]

    def test_raw_tautology_never_in_core(self):
        # (1 -1 2) appended raw is skipped: 2 stays free, and the
        # contradiction's core leaves the tautology out.
        cnf = CNF(2)
        cnf.clauses.append((1, -1, 2))
        cnf.add_clause([-2])
        res = solve(cnf)
        assert res.satisfiable and res.model[2] is False
        cnf.add_clause([1])
        cnf.add_clause([-1])
        res = solve(cnf)
        assert not res.satisfiable
        assert res.core == [2, 3]

    def test_pigeonhole_2_into_1(self):
        # Two pigeons, one hole: p1 in h, p2 in h, not both.
        cnf = cnf_of(2, [[1], [2], [-1, -2]])
        res = solve(cnf)
        assert not res.satisfiable
        assert sorted(res.core) == [0, 1, 2]

    def test_core_excludes_irrelevant_clauses(self):
        # Clause 0 is irrelevant; 1..3 form the contradiction.
        cnf = cnf_of(3, [[3], [1], [-1, 2], [-2]])
        res = solve(cnf)
        assert not res.satisfiable
        assert 0 not in res.core
        assert set(res.core) <= {1, 2, 3}

    def test_core_is_unsat(self):
        cnf = cnf_of(
            4,
            [
                [1, 2],
                [-1, 2],
                [1, -2],
                [-1, -2],
                [3, 4],
            ],
        )
        res = solve(cnf)
        assert not res.satisfiable
        sub = CNF(cnf.num_vars)
        for idx in res.core:
            sub.add_clause(cnf.clauses[idx])
        assert brute_force_solve(sub) is None

    def test_pigeonhole_3_into_2(self):
        # var p_{i,j} = pigeon i in hole j; i in 0..2, j in 0..1.
        def v(i, j):
            return i * 2 + j + 1

        cnf = CNF(6)
        for i in range(3):
            cnf.add_clause([v(i, 0), v(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    cnf.add_clause([-v(i1, j), -v(i2, j)])
        res = solve(cnf)
        assert not res.satisfiable
        sub = CNF(cnf.num_vars)
        for idx in res.core:
            sub.add_clause(cnf.clauses[idx])
        assert brute_force_solve(sub) is None


# ----------------------------------------------------------------------
# Property-based: agreement with brute force on random 3-CNF.
# ----------------------------------------------------------------------

N = 8

random_cnfs = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=N).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    ),
    max_size=40,
)


@given(clauses=random_cnfs)
@settings(max_examples=200, deadline=None)
def test_agrees_with_brute_force(clauses):
    cnf = cnf_of(N, clauses)
    res = checked_solve(cnf)
    brute = brute_force_solve(cnf)
    if brute is None:
        assert not res.satisfiable
    else:
        assert res.satisfiable
        assert cnf.evaluate([res.model[v] for v in range(1, N + 1)])


@given(clauses=random_cnfs)
@settings(max_examples=200, deadline=None)
def test_unsat_cores_are_unsat(clauses):
    cnf = cnf_of(N, clauses)
    res = checked_solve(cnf)
    if res.satisfiable:
        return
    assert res.core is not None and res.core
    sub = CNF(cnf.num_vars)
    for idx in res.core:
        assert 0 <= idx < len(cnf.clauses)
        sub.add_clause(cnf.clauses[idx])
    assert brute_force_solve(sub) is None


@given(clauses=random_cnfs)
@settings(max_examples=100, deadline=None)
def test_solver_deterministic(clauses):
    """Two fresh solvers on one CNF return the same result, field by
    field: answer, model, core and search counters."""
    cnf = cnf_of(N, clauses)
    first, second = checked_solve(cnf), checked_solve(cnf)
    # SATResult is a dataclass: == compares satisfiable, model, core,
    # conflicts, decisions and propagations.
    assert first == second


class TestVSIDSRescale:
    """Activities past 1e100 are scaled down by 1e-100; the branching
    heap must be rescaled with them."""

    @staticmethod
    def _decide(solver, lit):
        solver.trail_lim.append(len(solver.trail))
        solver._assign(lit, None, None)

    def test_next_decision_is_most_active_after_rescale(self):
        solver = Solver(CNF(3))
        solver.var_inc = 0.99e100
        # Variable 1 is bumped once, unassigned, and re-queued under its
        # pre-rescale activity.
        self._decide(solver, 1)
        solver._bump(1)
        solver._backtrack(0)
        # Variable 2's second bump crosses 1e100 and rescales.
        self._decide(solver, 2)
        solver._bump(2)
        solver._bump(2)
        assert solver.var_inc < 1.0
        solver._backtrack(0)
        activity = solver.activity
        assert activity[2] > activity[1] > activity[3] == 0.0
        assert solver._pick_branch_var() == 2
        self._decide(solver, 2)
        assert solver._pick_branch_var() == 1

    def test_solve_across_rescales_stays_correct(self):
        # Start var_inc just below the threshold so that the first bumps
        # already rescale, then keep rescaling through a real search.
        holes = 5

        def v(i, j):
            return i * holes + j + 1

        cnf = CNF(6 * holes)
        for i in range(6):
            cnf.add_clause([v(i, j) for j in range(holes)])
        for j in range(holes):
            for i1 in range(6):
                for i2 in range(i1 + 1, 6):
                    cnf.add_clause([-v(i1, j), -v(i2, j)])
        solver = Solver(cnf)
        solver.var_inc = 0.99e100
        solver.var_decay = 0.01
        rescales = []
        rescale = solver._rescale
        solver._rescale = lambda: (rescales.append(1), rescale())
        result = solver.solve()
        assert len(rescales) >= 2
        assert not result.satisfiable
        sub = CNF(cnf.num_vars)
        for idx in result.core:
            sub.add_clause(cnf.clauses[idx])
        assert not solve(sub).satisfiable


class TestClauseDatabaseReduction:
    def _hard_instance(self, n_pigeons):
        # Pigeonhole: n pigeons into n-1 holes; generates many conflicts.
        holes = n_pigeons - 1

        def v(i, j):
            return i * holes + j + 1

        cnf = CNF(n_pigeons * holes)
        for i in range(n_pigeons):
            cnf.add_clause([v(i, j) for j in range(holes)])
        for j in range(holes):
            for i1 in range(n_pigeons):
                for i2 in range(i1 + 1, n_pigeons):
                    cnf.add_clause([-v(i1, j), -v(i2, j)])
        return cnf

    def test_reduction_triggers_and_stays_correct(self):
        cnf = self._hard_instance(7)
        solver = Solver(cnf)
        solver.max_learned = 30  # force frequent reductions
        result = solver.solve()
        assert not result.satisfiable
        assert solver.n_reductions > 0
        # core still sound
        sub = CNF(cnf.num_vars)
        for idx in result.core:
            sub.add_clause(cnf.clauses[idx])
        # pigeonhole cores are too big to brute force; check instead
        # that the full solver also finds the core unsatisfiable
        assert not solve(sub).satisfiable

    def test_reduction_preserves_sat_answers(self):
        # A satisfiable instance exercised with a tiny learned budget.
        cnf = self._hard_instance(6)
        # make it satisfiable: 6 pigeons into 6 holes
        def v(i, j):
            return i * 6 + j + 1

        cnf2 = CNF(36)
        for i in range(6):
            cnf2.add_clause([v(i, j) for j in range(6)])
        for j in range(6):
            for i1 in range(6):
                for i2 in range(i1 + 1, 6):
                    cnf2.add_clause([-v(i1, j), -v(i2, j)])
        solver = Solver(cnf2)
        solver.max_learned = 20
        result = solver.solve()
        assert result.satisfiable
        assert cnf2.evaluate(
            [result.model[x] for x in range(1, cnf2.num_vars + 1)]
        )


@given(clauses=random_cnfs)
@settings(max_examples=100, deadline=None)
def test_agrees_with_brute_force_under_tiny_db(clauses):
    """Aggressive clause deletion must never change answers."""
    cnf = cnf_of(N, clauses)
    solver = TrailCheckingSolver(cnf)
    solver.max_learned = 2
    res = solver.solve()
    brute = brute_force_solve(cnf)
    assert res.satisfiable == (brute is not None)


class TestRandomFuzz:
    """Seeded fuzz sweep: ~200 random small CNFs against the oracle.

    Complements the hypothesis properties above with a fixed, wider
    sweep over formula shapes (varying variable count, clause count,
    and clause width), checking the full result contract each time:
    SAT answers carry a genuine model, UNSAT answers carry a core that
    is itself unsatisfiable.  The trail invariants are checked after
    every propagation.
    """

    N_FORMULAS = 200

    @staticmethod
    def _random_cnf(rng):
        num_vars = rng.randrange(1, 9)
        num_clauses = rng.randrange(1, 21)
        cnf = CNF(num_vars)
        for _ in range(num_clauses):
            width = rng.randrange(1, 4)
            lits = [
                rng.choice([1, -1]) * rng.randrange(1, num_vars + 1)
                for _ in range(width)
            ]
            cnf.add_clause(lits)
        return cnf

    def test_solver_matches_brute_force(self):
        import random

        rng = random.Random(20260805)
        sat = unsat = 0
        for _ in range(self.N_FORMULAS):
            cnf = self._random_cnf(rng)
            res = checked_solve(cnf)
            brute = brute_force_solve(cnf)
            assert res.satisfiable == (brute is not None), cnf.to_dimacs()
            if res.satisfiable:
                sat += 1
                # the reported model is total and satisfies the formula
                assert set(res.model) == set(range(1, cnf.num_vars + 1))
                assert cnf.evaluate(
                    [res.model[v] for v in range(1, cnf.num_vars + 1)]
                ), cnf.to_dimacs()
            else:
                unsat += 1
                # the reported core is a subset of the input clauses and
                # is unsatisfiable on its own
                assert res.core, cnf.to_dimacs()
                assert all(
                    0 <= idx < len(cnf.clauses) for idx in res.core
                )
                sub = CNF(cnf.num_vars)
                for idx in res.core:
                    sub.add_clause(cnf.clauses[idx])
                assert brute_force_solve(sub) is None, cnf.to_dimacs()
        # the sweep must actually exercise both outcomes
        assert sat >= 20 and unsat >= 20
