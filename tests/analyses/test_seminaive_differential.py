"""Differential tests: the four analyses, run on the semi-naive
fixpoint engine, must compute the same relations, tuple for tuple, as
the Python-set reference oracles (``naive_points_to``, ``naive_resolve``,
``naive_call_graph``, ``naive_side_effects``) on both diagram backends.
The whole-relation loop the paper runs is its own Jedd program
(``jedd_sources.pointsto_source``), held to the same oracles in
``test_jedd_sources``."""

import pytest

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    PointsTo,
    SideEffects,
    VirtualCallResolver,
    naive_call_graph,
    naive_points_to,
    naive_resolve,
    naive_side_effects,
    preset,
    synthesize,
)


def by_names(relation, *names):
    order = [relation.schema.names().index(n) for n in names]
    return {tuple(t[i] for i in order) for t in relation.tuples()}


@pytest.fixture(
    scope="module",
    params=["bdd", "zdd"],
    ids=["bdd", "zdd"],
)
def setup(request):
    facts = preset("javac-s")
    return facts, AnalysisUniverse(facts, backend=request.param)


class TestPointsToDifferential:
    @pytest.mark.parametrize("type_filter", [False, True])
    def test_seminaive_equals_naive_and_oracle(self, setup, type_filter):
        facts, au = setup
        sn = PointsTo(au, type_filter=type_filter, policy="seminaive")
        pt_sn = sn.solve()
        opt, ohpt = naive_points_to(facts, type_filter=type_filter)
        assert by_names(pt_sn, "var", "obj") == opt
        assert by_names(sn.hpt, "baseobj", "field", "srcobj") == ohpt


class TestVirtualCallDifferential:
    def test_seminaive_equals_naive_and_oracle(self, setup):
        facts, au = setup
        recv = {
            (c, s) for c in facts.classes for s in facts.signatures[:4]
        }
        rel = au.rel(["rectype", "signature"], recv, ["T1", "S1"])
        sn = VirtualCallResolver(au, policy="seminaive").resolve(rel)
        cols = ("rectype", "signature", "tgttype", "method")
        assert by_names(sn, *cols) == naive_resolve(facts, recv)


class TestCallGraphDifferential:
    def test_edges_and_reachability(self, setup):
        facts, au = setup
        pt = PointsTo(au, policy="seminaive").solve()
        sn = CallGraph(au, pt, policy="seminaive")
        edges = naive_call_graph(facts)
        assert by_names(sn.build(), "caller", "callee") == edges
        roots = {m for _, m in facts.site_methods}
        reached = set(roots)
        frontier = set(roots)
        while frontier:
            frontier = {
                callee for caller, callee in edges if caller in frontier
            } - reached
            reached |= frontier
        assert reached > roots
        got = sn.reachable_from(
            au.rel(["method"], {(m,) for m in roots}, ["M1"])
        )
        assert by_names(got, "method") == {(m,) for m in reached}


class TestSideEffectsDifferential:
    def test_reads_writes(self, setup):
        facts, au = setup
        pt = PointsTo(au, policy="seminaive").solve()
        edges = CallGraph(au, pt, policy="seminaive").build()
        sn = SideEffects(au, pt, edges, policy="seminaive")
        reads_sn, writes_sn = sn.solve()
        cols = ("method", "baseobj", "field")
        oreads, owrites = naive_side_effects(facts)
        assert by_names(reads_sn, *cols) == oreads
        assert by_names(writes_sn, *cols) == owrites


class TestSyntheticProgram:
    """A second, randomised program shape (module fixture uses javac-s)."""

    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_pointsto_with_filter(self, backend):
        facts = synthesize("diff", seed=7)
        au = AnalysisUniverse(facts, backend=backend)
        sn = PointsTo(au, type_filter=True, policy="seminaive")
        opt, _ = naive_points_to(facts, type_filter=True)
        assert by_names(sn.solve(), "var", "obj") == opt


class TestUpdateStreamDifferential:
    """DRed maintenance vs. whole-program recomputation.

    A warm points-to engine absorbs a stream of fact insertions and
    retractions through :meth:`FixpointEngine.update`; after every step
    its ``pt``/``hpt`` must match the naive set oracle recomputed from
    scratch on the mutated fact base.
    """

    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_stream_matches_cold_recompute(self, backend):
        facts = synthesize(
            "stream", n_classes=6, n_signatures=3, seed=11
        )
        au = AnalysisUniverse(facts, backend=backend)
        pta = PointsTo(au, policy="seminaive")
        pta.solve()
        eng = pta.fixpoint

        v = facts.variables
        f = facts.fields[0]
        stream = [
            ("insert", "assign", (v[0], v[1])),
            ("insert", "store", (v[2], f, v[0])),
            ("retract", "assign", facts.assigns[0]),
            ("insert", "load", (v[3], v[2], f)),
            ("retract", "store", (v[2], f, v[0])),
        ]
        current = {
            "assign": list(facts.assigns),
            "store": list(facts.stores),
            "load": list(facts.loads),
        }
        attr = {"assign": "assigns", "store": "stores", "load": "loads"}
        for op, rel, fact in stream:
            if op == "insert":
                solution = eng.insert(rel, [fact])
                current[rel].append(fact)
            else:
                solution = eng.retract(rel, [fact])
                current[rel].remove(fact)
            for name, tuples in current.items():
                setattr(facts, attr[name], tuples)
            opt, ohpt = naive_points_to(facts)
            assert by_names(solution["pt"], "var", "obj") == opt
            assert by_names(
                solution["hpt"], "baseobj", "field", "srcobj"
            ) == ohpt

    def test_stream_matches_warm_seminaive_resolve(self):
        # The same stream, judged against a *semi-naive* cold re-solve
        # (not just the set oracle) so the maintained diagrams agree
        # with what a fresh engine would build.
        facts = synthesize(
            "stream2", n_classes=5, n_signatures=3, seed=4
        )
        au = AnalysisUniverse(facts, backend="bdd")
        pta = PointsTo(au, policy="seminaive")
        pta.solve()
        eng = pta.fixpoint
        v = facts.variables
        warm = eng.update(
            inserts={"assign": [(v[1], v[0]), (v[2], v[1])]},
            retracts={"assign": [facts.assigns[-1]]},
        )
        facts.assigns = [
            t for t in facts.assigns[:-1]
        ] + [(v[1], v[0]), (v[2], v[1])]
        cold = PointsTo(
            AnalysisUniverse(facts, backend="bdd"), policy="seminaive"
        )
        cold.solve()
        assert by_names(warm["pt"], "var", "obj") == by_names(
            cold.pt, "var", "obj"
        )
        assert by_names(
            warm["hpt"], "baseobj", "field", "srcobj"
        ) == by_names(cold.hpt, "baseobj", "field", "srcobj")
