"""The analysis universe's bit order (section 3.2.1).

``AnalysisUniverse(ordering=...)`` selects a layout: the hand-tuned
groups of :data:`repro.analyses.universe.BIT_ORDER` by default, or one
of :class:`Universe`'s own layouts.  The tuned order interleaves the
call-site domain with the method domains, which keeps the call graph's
join on ``site`` from pairing every caller with every callee.
"""

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    PointsTo,
    naive_call_graph,
    preset,
    synthesize,
)
from repro.analyses.universe import BIT_ORDER, ORDERINGS
from tests.analyses.test_analyses import by_names

#: The Figure 2 pipeline's 150-class program (the ``figure2`` bench
#: workload's generator settings).
FIGURE2_PROGRAM = dict(
    n_classes=150,
    n_signatures=20,
    methods_per_class=4.0,
    vars_per_method=5.0,
    assigns_per_method=4.0,
    field_ops_per_method=1.5,
    calls_per_method=2.0,
    n_fields=16,
    seed=7,
)

#: ``and`` misses ``CallGraph.build`` may cost on that program.  With
#: the call-site domain in a block of its own below the method domains
#: it took 357,223; interleaved with them, 37,292.
MAX_CALLGRAPH_AND_MISSES = 60_000


def _levels(au):
    return {
        pd.name: tuple(pd.levels) for pd in au.universe.physical_domains()
    }


def _and_misses(manager):
    return sum(m for op, _, m in manager.stats.per_op() if op == "and")


class TestOrderingSelectsLayout:
    def test_orderings_differ_in_levels_and_agree_on_pt(self):
        facts = preset("javac-s")
        levels, pts = {}, {}
        for ordering in ORDERINGS:
            au = AnalysisUniverse(facts, ordering=ordering)
            solver = PointsTo(au)
            solver.solve()
            levels[ordering] = _levels(au)
            pts[ordering] = set(solver.pt.tuples())
        assert len({frozenset(l.items()) for l in levels.values()}) == 3
        assert pts["tuned"] == pts["interleaved"] == pts["sequential"]
        assert pts["tuned"]

    def test_default_is_the_tuned_order(self):
        au = AnalysisUniverse(preset("javac-s"))
        top = [name for group in BIT_ORDER for name in group]
        by_level = sorted(
            au.universe.physical_domains(), key=lambda pd: min(pd.levels)
        )
        assert [pd.name for pd in by_level] == top
        # Within the last group the site bits interleave with M1/M2.
        m1, c1 = (au.universe.get_physdom(n) for n in ("M1", "C1"))
        assert min(m1.levels) < max(c1.levels)
        assert min(c1.levels) < max(m1.levels)


def test_call_graph_kernel_work_on_figure2_program():
    """The call graph's join on ``site`` stays cheap under the tuned
    order, and its edges are the reference's."""
    facts = synthesize("figure2", **FIGURE2_PROGRAM)
    au = AnalysisUniverse(facts)
    pt = PointsTo(au).solve()
    manager = au.universe.manager
    before = _and_misses(manager)
    calls = CallGraph(au, pt).build()
    misses = _and_misses(manager) - before
    print(f"\nCallGraph.build on the figure2 program: {misses} and misses")
    assert misses <= MAX_CALLGRAPH_AND_MISSES
    assert by_names(calls, "caller", "callee") == naive_call_graph(facts)
