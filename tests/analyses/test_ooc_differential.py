"""Cross-kernel differential tests at the analysis level for the
out-of-core kernel: ``kernel="ooc"`` must drive all four whole-program
analyses to *bit-identical* results — the same canonical node tables,
not merely the same tuple sets — as the reference kernel, under the
semi-naive engine.

One ooc-specific dimension rides along: the incremental maintenance
engine.  Interleaved insert/retract streams (the scenarios from
:mod:`tests.relations.test_incremental`) are replayed on an ooc-backed
fixpoint engine and every warm state is compared wire-for-wire against
a cold reference-kernel solve of the same fact base.
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
from repro.bdd.io import dumps_diagram_binary
from repro.relations import (
    FixpointEngine,
    Relation,
    open_universe,
)

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


def assert_same_relation(au_ref, rel_ref, au_ooc, rel_ooc, *names):
    assert by_names(rel_ref, *names) == by_names(rel_ooc, *names)
    assert wire(au_ref, rel_ref) == wire(au_ooc, rel_ooc)


@pytest.fixture(scope="module")
def setup():
    facts = preset("javac-s")
    au_ref = AnalysisUniverse(facts, kernel="reference")
    au_ooc = AnalysisUniverse(facts, kernel="ooc")
    return facts, au_ref, au_ooc


class TestPointsToOoc:
    def test_bit_identical(self, setup):
        _, au_ref, au_ooc = setup
        ref = PointsTo(au_ref, policy="seminaive")
        ooc = PointsTo(au_ooc, policy="seminaive")
        pt_ref = ref.solve()
        pt_ooc = ooc.solve()
        assert_same_relation(au_ref, pt_ref, au_ooc, pt_ooc, "var", "obj")
        assert_same_relation(
            au_ref, ref.hpt, au_ooc, ooc.hpt, "baseobj", "field", "srcobj"
        )

    def test_type_filter_variant(self, setup):
        _, au_ref, au_ooc = setup
        ref = PointsTo(au_ref, type_filter=True, policy="seminaive")
        ooc = PointsTo(au_ooc, type_filter=True, policy="seminaive")
        assert_same_relation(
            au_ref, ref.solve(), au_ooc, ooc.solve(), "var", "obj"
        )


class TestVirtualCallOoc:
    def test_bit_identical(self, setup):
        facts, au_ref, au_ooc = setup
        recv = {(c, s) for c in facts.classes for s in facts.signatures[:4]}
        cols = ("rectype", "signature", "tgttype", "method")
        rel_ref = au_ref.rel(["rectype", "signature"], recv, ["T1", "S1"])
        rel_ooc = au_ooc.rel(["rectype", "signature"], recv, ["T1", "S1"])
        res_ref = VirtualCallResolver(au_ref, policy="seminaive").resolve(
            rel_ref
        )
        res_ooc = VirtualCallResolver(au_ooc, policy="seminaive").resolve(
            rel_ooc
        )
        assert_same_relation(au_ref, res_ref, au_ooc, res_ooc, *cols)


class TestCallGraphOoc:
    def test_edges_and_reachability(self, setup):
        facts, au_ref, au_ooc = setup
        pt_ref = PointsTo(au_ref, policy="seminaive").solve()
        pt_ooc = PointsTo(au_ooc, policy="seminaive").solve()
        cg_ref = CallGraph(au_ref, pt_ref, policy="seminaive")
        cg_ooc = CallGraph(au_ooc, pt_ooc, policy="seminaive")
        edges_ref = cg_ref.build()
        edges_ooc = cg_ooc.build()
        assert_same_relation(
            au_ref, edges_ref, au_ooc, edges_ooc, "caller", "callee"
        )
        entry = {(m,) for _, m in facts.site_methods}
        roots_ref = au_ref.rel(["method"], entry, ["M1"])
        roots_ooc = au_ooc.rel(["method"], entry, ["M1"])
        assert_same_relation(
            au_ref,
            cg_ref.reachable_from(roots_ref),
            au_ooc,
            cg_ooc.reachable_from(roots_ooc),
            "method",
        )


class TestSideEffectsOoc:
    def test_reads_writes(self, setup):
        _, au_ref, au_ooc = setup
        pt_ref = PointsTo(au_ref, policy="seminaive").solve()
        pt_ooc = PointsTo(au_ooc, policy="seminaive").solve()
        edges_ref = CallGraph(au_ref, pt_ref, policy="seminaive").build()
        edges_ooc = CallGraph(au_ooc, pt_ooc, policy="seminaive").build()
        se_ref = SideEffects(au_ref, pt_ref, edges_ref, policy="seminaive")
        se_ooc = SideEffects(au_ooc, pt_ooc, edges_ooc, policy="seminaive")
        reads_ref, writes_ref = se_ref.solve()
        reads_ooc, writes_ooc = se_ooc.solve()
        cols = ("method", "baseobj", "field")
        assert_same_relation(au_ref, reads_ref, au_ooc, reads_ooc, *cols)
        assert_same_relation(au_ref, writes_ref, au_ooc, writes_ooc, *cols)


# ----------------------------------------------------------------------
# Incremental insert/retract streams replayed on the ooc kernel
# ----------------------------------------------------------------------

CHAIN = [("a", "b"), ("b", "c"), ("c", "d")]


def make_universe(kernel):
    u = open_universe(
        "bdd",
        "interleaved",
        kernel=kernel,
        domains={"N": 32},
        attributes={"src": "N", "dst": "N", "mid": "N"},
        physdoms={"N1": 5, "N2": 5},
    )
    for obj in "abcdefgh":
        u.get_domain("N").intern(obj)
    return u


def tc_engine(kernel, edges, shortcuts=None, blocked=None):
    """Transitive closure with optional alternate-rule and negation
    structure (the :mod:`tests.relations.test_incremental` program)."""
    u = make_universe(kernel)
    eng = FixpointEngine(u)
    eng.fact("edge", Relation.from_tuples(
        u, ["src", "dst"], list(edges), ["N1", "N2"]
    ))
    guard = []
    if blocked is not None:
        eng.fact("blocked", Relation.from_tuples(
            u, ["src"], [(b,) for b in blocked], ["N1"]
        ))
        guard = [("!blocked", ("src",))]
    if shortcuts is not None:
        eng.fact("shortcut", Relation.from_tuples(
            u, ["src", "dst"], list(shortcuts), ["N1", "N2"]
        ))
    eng.relation("path", Relation.empty(u, ["src", "dst"], ["N1", "N2"]))
    eng.rule("path", ["src", "dst"], [("edge", ("src", "dst"))] + guard)
    if shortcuts is not None:
        eng.rule(
            "path", ["src", "dst"], [("shortcut", ("src", "dst"))] + guard
        )
    eng.rule("path", ["src", "dst"], [
        ("edge", ("src", "mid")),
        ("path", {"src": "mid", "dst": "dst"}),
    ] + guard)
    return u, eng


def rel_wire(rel):
    return dumps_diagram_binary(rel.universe.manager, rel.node)


def assert_matches_cold_reference(engine, edges, shortcuts=None,
                                  blocked=None):
    """The warm *ooc* engine's ``path`` must be wire-identical to a
    cold solve of the same fact base on the *reference* kernel."""
    _, cold = tc_engine("reference", edges, shortcuts, blocked)
    cold_path = cold.solve()["path"]
    warm_path = engine["path"]
    assert set(warm_path.tuples()) == set(cold_path.tuples())
    assert rel_wire(warm_path) == rel_wire(cold_path)


class TestIncrementalOnOoc:
    def test_insert_closes_cycle(self):
        _, eng = tc_engine("ooc", CHAIN)
        eng.solve()
        eng.insert("edge", [("d", "a")])
        assert_matches_cold_reference(eng, CHAIN + [("d", "a")])

    def test_retract_splits_chain(self):
        _, eng = tc_engine("ooc", CHAIN)
        eng.solve()
        eng.retract("edge", [("b", "c")])
        assert_matches_cold_reference(
            eng, [e for e in CHAIN if e != ("b", "c")]
        )

    def test_rederivation_through_alternate_rule(self):
        shortcuts = [("a", "c")]
        _, eng = tc_engine("ooc", CHAIN, shortcuts=shortcuts)
        eng.solve()
        eng.retract("edge", [("b", "c")])
        assert_matches_cold_reference(
            eng, [e for e in CHAIN if e != ("b", "c")], shortcuts=shortcuts
        )

    def test_negation_block_and_unblock(self):
        _, eng = tc_engine("ooc", CHAIN, blocked=[])
        eng.solve()
        eng.insert("blocked", [("b",)])
        assert_matches_cold_reference(eng, CHAIN, blocked=["b"])
        eng.retract("blocked", [("b",)])
        assert_matches_cold_reference(eng, CHAIN, blocked=[])

    def test_interleaved_insert_retract_stream(self):
        _, eng = tc_engine("ooc", CHAIN)
        eng.solve()
        edges = set(CHAIN)
        stream = [
            ({"edge": [("d", "e")]}, {}),
            ({}, {"edge": [("a", "b")]}),
            ({"edge": [("e", "a"), ("a", "b")]}, {}),
            ({}, {"edge": [("c", "d")]}),
            ({"edge": [("c", "d")]}, {"edge": [("e", "a")]}),
        ]
        for inserts, retracts in stream:
            eng.update(inserts=inserts or None, retracts=retracts or None)
            for t in inserts.get("edge", []):
                edges.add(tuple(t))
            for t in retracts.get("edge", []):
                edges.discard(tuple(t))
            assert_matches_cold_reference(eng, sorted(edges))

    def test_flap_returns_to_original(self):
        _, eng = tc_engine("ooc", CHAIN)
        baseline = rel_wire(eng.solve()["path"])
        for _ in range(3):
            eng.insert("edge", [("d", "a")])
            eng.retract("edge", [("d", "a")])
        assert rel_wire(eng["path"]) == baseline
        assert_matches_cold_reference(eng, CHAIN)
