"""Acceptance benchmark: incremental maintenance beats re-solving.

After an initial points-to solve, a single-fact ``insert`` and a
single-fact ``retract`` against the standing :class:`FixpointEngine`
must each produce relations **bit-identical** to a cold re-solve over
the updated fact base -- same canonical diagrams, byte for byte on the
wire -- while doing at least **10x less kernel work**, measured on the
always-on :class:`KernelStats` counters (nodes created plus
operation-cache misses).

Bit-identity across two universes relies on identical interning:
:class:`AnalysisUniverse` interns every domain object from the fact
*lists* (variables, allocation sites, ...), so edits that only add or
remove ``assigns`` edges between existing variables leave the integer
codes -- and therefore the canonical diagrams -- unchanged.
"""

from repro.analyses import AnalysisUniverse, PointsTo
from repro.bdd.io import dumps_diagram_binary

from benchmarks.chain import chained_facts

#: Length of the copy chain appended to the javac-s preset (deep def-use
#: chains are what make the cold fixpoint iterate).
CHAIN_DEPTH = 40
#: The acceptance bar: a one-fact update must cost at most a tenth of
#: the cold solve it replaces.
SPEEDUP_FLOOR = 10.0


def edited_facts(extra_assign=None, drop_assign=None):
    """The javac-s preset plus a copy chain, with one optional edit."""
    facts = chained_facts("javac-s", CHAIN_DEPTH)
    if drop_assign is not None:
        facts.assigns.remove(drop_assign)
    if extra_assign is not None:
        facts.assigns.append(extra_assign)
    return facts


def kernel_work(au):
    stats = au.universe.manager.stats
    return stats.nodes_created + stats.op_totals()[1]


def cold_solve(**edit):
    """Fresh universe, fresh solve over the edited facts; returns the
    solver and the kernel work the solve cost."""
    au = AnalysisUniverse(edited_facts(**edit))
    before = kernel_work(au)
    solver = PointsTo(au)
    solver.solve()
    return solver, kernel_work(au) - before


def wires(solver):
    """Canonical wire bytes of the solution's (pt, hpt) diagrams."""
    manager = solver.au.universe.manager
    return (
        dumps_diagram_binary(manager, solver.pt.node),
        dumps_diagram_binary(manager, solver.hpt.node),
    )


def warm_engine():
    solver, _ = cold_solve()
    return solver, solver.fixpoint


class TestWarmInsert:
    def test_insert_bit_identical_and_cheaper(self):
        solver, eng = warm_engine()
        # A brand-new copy edge feeding the chain from a javac variable.
        edge = ("chain1", solver.au.facts.variables[0])
        before = kernel_work(solver.au)
        solution = eng.insert("assign", [edge])
        update_work = kernel_work(solver.au) - before
        solver.pt, solver.hpt = solution["pt"], solution["hpt"]

        cold, cold_work = cold_solve(extra_assign=edge)
        assert wires(solver) == wires(cold)
        assert update_work == eng.last_update_stats["kernel_work"]
        assert cold_work >= SPEEDUP_FLOOR * max(1, update_work), (
            f"insert did {update_work} kernel work vs {cold_work} cold -- "
            f"less than the {SPEEDUP_FLOOR}x floor"
        )


class TestWarmRetract:
    def test_retract_bit_identical_and_cheaper(self):
        solver, eng = warm_engine()
        # Retract a copy edge near the chain's tail: the deletion cone
        # is small, but the over-delete pass still has to consult every
        # rule with an ``assign`` occurrence against the full solution.
        edge = ("chain38", "chain37")
        before = kernel_work(solver.au)
        solution = eng.retract("assign", [edge])
        update_work = kernel_work(solver.au) - before
        solver.pt, solver.hpt = solution["pt"], solution["hpt"]

        cold, cold_work = cold_solve(drop_assign=edge)
        assert wires(solver) == wires(cold)
        assert eng.last_update_stats["deleted"] > 0
        assert cold_work >= SPEEDUP_FLOOR * max(1, update_work), (
            f"retract did {update_work} kernel work vs {cold_work} cold -- "
            f"less than the {SPEEDUP_FLOOR}x floor"
        )


class TestFlapStability:
    def test_retract_insert_flap_returns_to_start(self):
        """A retract/insert round trip lands back on the original
        diagrams exactly -- the invariant the ``pointsto-warm-update``
        benchmark workload flaps on."""
        solver, eng = warm_engine()
        original = wires(solver)
        edge = ("chain20", "chain19")
        eng.retract("assign", [edge])
        solution = eng.insert("assign", [edge])
        solver.pt, solver.hpt = solution["pt"], solution["hpt"]
        assert wires(solver) == original
