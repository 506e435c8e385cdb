"""Cross-kernel differential tests at the analysis level: the arena
kernel must drive all four whole-program analyses to *bit-identical*
results — the same canonical node tables, not merely the same tuple
sets — as the reference kernel, under the semi-naive engine.

Relations from different universes cannot be compared with ``==`` (it
requires a shared manager), so equality is asserted through the
serialized wire bytes of each result diagram: ROBDDs are canonical, so
equal wire bytes under equal variable orders means equal node tables.
"""

import signal

import pytest

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    PointsTo,
    SideEffects,
    VirtualCallResolver,
    preset,
)
from repro.relations import ExecutionPolicy
from repro.bdd.io import dumps_diagram_binary

WATCHDOG_SECONDS = 300


@pytest.fixture(autouse=True)
def watchdog():
    """Self-contained pytest-timeout stand-in: fail, don't hang CI."""

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded {WATCHDOG_SECONDS}s watchdog")

    old = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def by_names(relation, *names):
    order = [relation.schema.names().index(n) for n in names]
    return {tuple(t[i] for i in order) for t in relation.tuples()}


def wire(au, relation):
    return dumps_diagram_binary(au.universe.manager, relation.node)


def assert_same_relation(au_ref, rel_ref, au_arena, rel_arena, *names):
    assert by_names(rel_ref, *names) == by_names(rel_arena, *names)
    assert wire(au_ref, rel_ref) == wire(au_arena, rel_arena)


@pytest.fixture(scope="module")
def setup():
    facts = preset("javac-s")
    au_ref = AnalysisUniverse(facts, kernel="reference")
    au_arena = AnalysisUniverse(facts, kernel="arena")
    # Wire-byte equality is only meaningful under equal variable orders.
    assert (
        au_ref.universe.manager.current_order()
        == au_arena.universe.manager.current_order()
    )
    return facts, au_ref, au_arena


ENGINES = [("seminaive", {})]
ENGINE_IDS = ["serial"]


class TestPointsToArena:
    @pytest.mark.parametrize(("engine", "kw"), ENGINES, ids=ENGINE_IDS)
    def test_bit_identical(self, setup, engine, kw):
        _, au_ref, au_arena = setup
        ref = PointsTo(au_ref, policy="seminaive")
        arena = PointsTo(au_arena, policy=ExecutionPolicy(engine=engine, **kw))
        pt_ref = ref.solve()
        pt_arena = arena.solve()
        assert_same_relation(au_ref, pt_ref, au_arena, pt_arena, "var", "obj")
        assert_same_relation(
            au_ref, ref.hpt, au_arena, arena.hpt, "baseobj", "field", "srcobj"
        )

    def test_type_filter_variant(self, setup):
        _, au_ref, au_arena = setup
        ref = PointsTo(au_ref, type_filter=True, policy="seminaive")
        arena = PointsTo(au_arena, type_filter=True, policy="seminaive")
        assert_same_relation(
            au_ref, ref.solve(), au_arena, arena.solve(), "var", "obj"
        )


class TestVirtualCallArena:
    @pytest.mark.parametrize(("engine", "kw"), ENGINES, ids=ENGINE_IDS)
    def test_bit_identical(self, setup, engine, kw):
        facts, au_ref, au_arena = setup
        recv = {(c, s) for c in facts.classes for s in facts.signatures[:4]}
        cols = ("rectype", "signature", "tgttype", "method")
        rel_ref = au_ref.rel(["rectype", "signature"], recv, ["T1", "S1"])
        rel_arena = au_arena.rel(["rectype", "signature"], recv, ["T1", "S1"])
        res_ref = VirtualCallResolver(au_ref, policy="seminaive").resolve(
            rel_ref
        )
        res_arena = VirtualCallResolver(au_arena, policy=ExecutionPolicy(engine=engine, **kw)).resolve(
            rel_arena
        )
        assert_same_relation(au_ref, res_ref, au_arena, res_arena, *cols)


class TestCallGraphArena:
    @pytest.mark.parametrize(("engine", "kw"), ENGINES, ids=ENGINE_IDS)
    def test_edges_and_reachability(self, setup, engine, kw):
        facts, au_ref, au_arena = setup
        pt_ref = PointsTo(au_ref, policy="seminaive").solve()
        pt_arena = PointsTo(au_arena, policy="seminaive").solve()
        cg_ref = CallGraph(au_ref, pt_ref, policy="seminaive")
        cg_arena = CallGraph(au_arena, pt_arena, policy=ExecutionPolicy(engine=engine, **kw))
        edges_ref = cg_ref.build()
        edges_arena = cg_arena.build()
        assert_same_relation(
            au_ref, edges_ref, au_arena, edges_arena, "caller", "callee"
        )
        entry = {(m,) for _, m in facts.site_methods}
        roots_ref = au_ref.rel(["method"], entry, ["M1"])
        roots_arena = au_arena.rel(["method"], entry, ["M1"])
        assert_same_relation(
            au_ref,
            cg_ref.reachable_from(roots_ref),
            au_arena,
            cg_arena.reachable_from(roots_arena),
            "method",
        )


class TestSideEffectsArena:
    @pytest.mark.parametrize(("engine", "kw"), ENGINES, ids=ENGINE_IDS)
    def test_reads_writes(self, setup, engine, kw):
        _, au_ref, au_arena = setup
        pt_ref = PointsTo(au_ref, policy="seminaive").solve()
        pt_arena = PointsTo(au_arena, policy="seminaive").solve()
        edges_ref = CallGraph(au_ref, pt_ref, policy="seminaive").build()
        edges_arena = CallGraph(au_arena, pt_arena, policy="seminaive").build()
        se_ref = SideEffects(au_ref, pt_ref, edges_ref, policy="seminaive")
        se_arena = SideEffects(
            au_arena, pt_arena, edges_arena, policy=ExecutionPolicy(engine=engine, **kw)
        )
        reads_ref, writes_ref = se_ref.solve()
        reads_arena, writes_arena = se_arena.solve()
        cols = ("method", "baseobj", "field")
        assert_same_relation(au_ref, reads_ref, au_arena, reads_arena, *cols)
        assert_same_relation(au_ref, writes_ref, au_arena, writes_arena, *cols)
