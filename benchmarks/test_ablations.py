"""Ablations for the design choices DESIGN.md calls out.

1. **Backend** (section 4.1): the same analysis runs unmodified on the
   BDD and the ZDD backend; results must match, and we report the
   relative cost (the paper leaves ZDD performance as future work).
2. **Variable ordering** (section 4.3): the hand-tuned family groups
   vs plain interleaved vs sequential bit ordering of the physical
   domains changes BDD sizes -- exactly the kind of effect the profiler
   exists to expose.
3. **Compose vs join-then-project** (section 2.2.3): "a composition is
   implemented more efficiently than a join followed by a projection"
   via the fused and-exist; we verify equal results and report the node
   traffic of both strategies.
"""

import time

import pytest

from repro.analyses import AnalysisUniverse, PointsTo, preset
from repro.analyses.universe import ORDERINGS
from repro.relations import Relation, Universe


def _best_of(f, n=3):
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return best, result


class TestBackendAblation:
    def test_backends_agree_and_report_cost(self):
        facts = preset("javac-s")

        def run(backend):
            au = AnalysisUniverse(facts, backend=backend)
            solver = PointsTo(au)
            solver.solve()
            return set(solver.pt.tuples())

        t_bdd, pt_bdd = _best_of(lambda: run("bdd"))
        t_zdd, pt_zdd = _best_of(lambda: run("zdd"))
        print(f"\nbackend ablation (points-to, javac-s): "
              f"bdd {t_bdd:.4f}s, zdd {t_zdd:.4f}s")
        assert pt_bdd == pt_zdd

    def test_zdd_benchmark(self, benchmark):
        facts = preset("javac-s")

        def run():
            au = AnalysisUniverse(facts, backend="zdd")
            return PointsTo(au).solve().size()

        assert benchmark(run) > 0


class TestOrderingAblation:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_ordering_benchmark(self, benchmark, ordering):
        facts = preset("javac-s")

        def run():
            au = AnalysisUniverse(facts, ordering=ordering)
            solver = PointsTo(au)
            solver.solve()
            return solver.pt.node_count()

        nodes = benchmark(run)
        print(f"\n{ordering}: final pt BDD has {nodes} nodes")
        assert nodes > 0

    def test_orderings_agree(self):
        facts = preset("javac-s")
        results = {}
        for ordering in ORDERINGS:
            au = AnalysisUniverse(facts, ordering=ordering)
            solver = PointsTo(au)
            solver.solve()
            results[ordering] = set(solver.pt.tuples())
            print(f"\n{ordering}: V1 levels "
                  f"{au.universe.get_physdom('V1').levels}")
        assert results["tuned"] == results["interleaved"] == results["sequential"]


class TestComposeAblation:
    def _universe(self):
        u = Universe()
        d = u.domain("D", 256)
        for name in ("a", "b", "c"):
            u.attribute(name, d)
        for pd in ("P1", "P2", "P3"):
            u.physical_domain(pd, d.bits)
        u.finalize()
        return u

    def _relations(self, u):
        import random

        rng = random.Random(0)
        objs = [f"x{i}" for i in range(120)]
        left = Relation.from_tuples(
            u,
            ["a", "b"],
            {(rng.choice(objs), rng.choice(objs)) for _ in range(400)},
            ["P1", "P2"],
        )
        right = Relation.from_tuples(
            u,
            ["b", "c"],
            {(rng.choice(objs), rng.choice(objs)) for _ in range(400)},
            ["P2", "P3"],
        )
        return left, right

    def test_compose_equals_join_project(self):
        u = self._universe()
        left, right = self._relations(u)
        fused = left.compose(right, ["b"], ["b"])
        stepped = left.join(right, ["b"], ["b"]).project_away("b")
        assert fused == stepped

    def test_compose_benchmark(self, benchmark):
        u = self._universe()
        left, right = self._relations(u)
        result = benchmark(lambda: left.compose(right, ["b"], ["b"]).size())
        assert result >= 0

    def test_join_project_benchmark(self, benchmark):
        u = self._universe()
        left, right = self._relations(u)
        result = benchmark(
            lambda: left.join(right, ["b"], ["b"]).project_away("b").size()
        )
        assert result >= 0


class TestTypeFilterAblation:
    """Declared-type filtering (the full Berndl et al. [5] algorithm):
    a sharper analysis whose intermediate relations are smaller."""

    def test_filter_shrinks_results(self):
        from repro.analyses import naive_points_to

        facts = preset("javac-s")
        au = AnalysisUniverse(facts)
        unfiltered = PointsTo(au).solve()
        au2 = AnalysisUniverse(facts)
        filtered = PointsTo(au2, type_filter=True).solve()
        print(f"\ntype filter: {unfiltered.size()} -> {filtered.size()} "
              "pt pairs")
        assert filtered.size() <= unfiltered.size()
        npt, _ = naive_points_to(facts, type_filter=True)
        assert set(filtered.tuples()) == npt

    def test_unfiltered_benchmark(self, benchmark):
        facts = preset("javac-s")
        result = benchmark(
            lambda: PointsTo(AnalysisUniverse(facts)).solve().size()
        )
        assert result >= 0

    def test_filtered_benchmark(self, benchmark):
        facts = preset("javac-s")
        result = benchmark(
            lambda: PointsTo(
                AnalysisUniverse(facts), type_filter=True
            ).solve().size()
        )
        assert result >= 0


class TestAdvisorAblation:
    """The bit-ordering advisor (repro.profiler.advisor) vs the default
    round-robin interleaving, measured on the Jedd-interpreted
    points-to program."""

    def _setup(self):
        from repro.analyses.facts import synthesize
        from repro.analyses.jedd_sources import pointsto_source
        from repro.jedd.compiler import compile_source

        facts = synthesize("advise", n_classes=60, n_signatures=10,
                           methods_per_class=3.0, vars_per_method=3.0,
                           assigns_per_method=3.0, seed=31)
        c = facts.counts()
        bits = dict(
            type_bits=max(2, (c["classes"]).bit_length()),
            var_bits=max(2, (c["variables"]).bit_length()),
            obj_bits=max(2, (c["alloc_sites"]).bit_length()),
            field_bits=max(2, (c["fields"]).bit_length()),
        )
        cp = compile_source(pointsto_source(**bits))
        return facts, cp

    def _run(self, facts, cp, bit_order):
        it = cp.interpreter(bit_order=bit_order)
        it.set_global("alloc", it.relation_of(["var", "obj"], facts.allocs))
        it.set_global(
            "assignEdge", it.relation_of(["dstvar", "srcvar"], facts.assigns)
        )
        it.set_global(
            "storeEdge",
            it.relation_of(["basevar", "field", "srcvar"], facts.stores),
        )
        it.set_global(
            "loadEdge",
            it.relation_of(["dstvar", "basevar", "field"], facts.loads),
        )
        it.call("solvePointsTo")
        return set(it.global_relation("pt").tuples())

    def test_advised_matches_default(self):
        facts, cp = self._setup()
        default = self._run(facts, cp, None)
        advised = self._run(facts, cp, cp.suggested_bit_order())
        assert default == advised

    @pytest.mark.parametrize("advised", [False, True], ids=["default", "advised"])
    def test_order_benchmark(self, benchmark, advised):
        facts, cp = self._setup()
        order = cp.suggested_bit_order() if advised else None
        result = benchmark(lambda: len(self._run(facts, cp, order)))
        assert result > 0
