"""Replace minimisation in the points-to solvers (paper section 3.3).

Deterministic kernel counters, no timing:

- every semi-naive delta sits in its relation's declared physical
  domains, so the static facts a rule joins it with are moved under the
  same permutation each round and the replace cache hits;
- rule bodies move the delta, never the static ``assign``/``store``/
  ``load`` fact it joins (the hand-coded solver's placement);
- on ``jedit`` the default semi-naive ``PointsTo`` does at most 1.15x
  the ``replace`` misses of the whole-relation loop, and that loop does
  no more than the hand-coded ``LowLevelPointsTo``.
"""

import pytest

from repro.analyses import (
    AnalysisUniverse,
    LowLevelPointsTo,
    PointsTo,
    preset,
)
from repro.relations import FixpointEngine


def _placement(rel):
    return {attr.name: pd.name for attr, pd in rel.schema.pairs}


@pytest.fixture
def checked_iterations(monkeypatch):
    """Check every delta's placement after each semi-naive round."""
    rounds = []
    iterate = FixpointEngine._iterate

    def checked(self, tel):
        iterate(self, tel)
        for name in self._order:
            declared = _placement(self._schema_of(name))
            assert _placement(self._delta[name]) == declared, name
            assert _placement(self._full[name]) == declared, name
        rounds.append(self.iterations)

    monkeypatch.setattr(FixpointEngine, "_iterate", checked)
    return rounds


@pytest.mark.parametrize("type_filter", [False, True])
def test_deltas_keep_declared_domains(checked_iterations, type_filter):
    solver = PointsTo(AnalysisUniverse(preset("javac-s")), type_filter)
    solver.solve()
    assert len(checked_iterations) == solver.iterations > 1


def test_warm_update_deltas_keep_declared_domains(checked_iterations):
    facts = preset("javac-s")
    solver = PointsTo(AnalysisUniverse(facts))
    solver.solve()
    eng = solver.fixpoint
    # Every allocation seeds pt: retracting them all and putting them
    # back drives both DRed's deletion and its semi-naive grow rounds.
    eng.retract("pt", facts.allocs)
    solved = len(checked_iterations)
    eng.insert("pt", facts.allocs)
    assert len(checked_iterations) > solved
    assert eng["pt"] == solver.pt


@pytest.mark.parametrize("name", ["javac-s", "jedit"])
def test_rule_bodies_never_move_static_facts(monkeypatch, name):
    au = AnalysisUniverse(preset(name))
    solver = PointsTo(au)
    m = au.universe.manager
    moved = []
    replace = m.replace

    def spy(node, perm):
        moved.append(node)
        return replace(node, perm)

    monkeypatch.setattr(m, "replace", spy)
    solver.solve()
    facts = {
        solver.assign.node: "assign",
        solver.store.node: "store",
        solver.load.node: "load",
    }
    assert moved, "the solve moved no delta at all"
    assert [facts[n] for n in moved if n in facts] == []


def test_jedit_replace_misses():
    facts = preset("jedit")

    def jedd(policy):
        def run():
            au = AnalysisUniverse(facts)
            PointsTo(au, policy=policy).solve()
            return au.universe.manager
        return run

    def low():
        solver = LowLevelPointsTo(facts)
        solver.solve()
        return solver.m

    seminaive = jedd(None)().stats.replace_misses
    naive = jedd("naive")().stats.replace_misses
    lowlevel = low().stats.replace_misses
    print(f"\njedit replace misses: seminaive {seminaive}, "
          f"naive {naive}, low-level {lowlevel}")
    assert naive <= lowlevel
    assert seminaive <= 1.15 * naive
