"""The five analyses as Jedd source: compile, assign domains, execute."""

import pytest

from repro.analyses import naive_points_to, naive_subtypes, synthesize
from repro.analyses.jedd_sources import (
    ANALYSIS_SOURCES,
    PointsToProgram,
    combined_source,
    hierarchy_source,
    source_widths,
)
from repro.jedd.assignment import validate_assignment
from repro.jedd.compiler import compile_source


@pytest.mark.parametrize("name", sorted(ANALYSIS_SOURCES))
def test_source_compiles_with_valid_assignment(name):
    cp = compile_source(ANALYSIS_SOURCES[name]())
    tp = cp.tp
    widths = {d: tp.domain_bits(d) for d in tp.domains}
    assert validate_assignment(
        cp.graph, cp.assignment.node_domains, tp.physdoms, widths
    ) == []


def test_combined_is_largest():
    stats = {
        name: compile_source(builder()).stats
        for name, builder in ANALYSIS_SOURCES.items()
    }
    combined = stats["All 5 combined"]
    for name, s in stats.items():
        if name != "All 5 combined":
            assert combined["relation_exprs"] >= s["relation_exprs"]
            assert combined["sat_clauses"] >= s["sat_clauses"]


class TestPointsToExecution:
    @pytest.fixture(scope="class")
    def executed(self):
        facts = synthesize("exec", n_classes=8, n_signatures=5, seed=3)
        return facts, PointsToProgram(facts).solve()

    def test_pt_matches_reference(self, executed):
        facts, it = executed
        npt, _ = naive_points_to(facts)
        assert set(it.global_relation("pt").tuples()) == npt

    def test_hpt_matches_reference(self, executed):
        facts, it = executed
        _, nhpt = naive_points_to(facts)
        assert set(it.global_relation("hpt").tuples()) == nhpt


class TestHierarchyExecution:
    def test_subtype_closure(self):
        facts = synthesize("exec", n_classes=9, n_signatures=4, seed=12)
        cp = compile_source(hierarchy_source(**source_widths(facts)))
        it = cp.interpreter()
        it.set_global(
            "extend", it.relation_of(["subtype", "supertype"], facts.extends)
        )
        it.set_global(
            "selfPairs",
            it.relation_of(
                ["subtype", "supertype"], [(c, c) for c in facts.classes]
            ),
        )
        it.call("computeHierarchy")
        got = set(it.global_relation("subtypeRel").tuples())
        assert got == naive_subtypes(facts)


class TestCombinedExecution:
    def test_full_pipeline_via_jedd(self):
        """Compile the combined program and run hierarchy + points-to +
        call graph + side effects end-to-end through the interpreter."""
        from repro.analyses import (
            naive_call_graph,
            naive_side_effects,
        )

        facts = synthesize("exec", n_classes=7, n_signatures=4, seed=21)
        cp = compile_source(combined_source(**source_widths(facts)))
        it = cp.interpreter()
        it.set_global(
            "extend", it.relation_of(["subtype", "supertype"], facts.extends)
        )
        it.set_global(
            "selfPairs",
            it.relation_of(
                ["subtype", "supertype"], [(c, c) for c in facts.classes]
            ),
        )
        it.set_global(
            "declaresMethod",
            it.relation_of(["type", "signature", "method"], facts.declares),
        )
        it.set_global("alloc", it.relation_of(["var", "obj"], facts.allocs))
        it.set_global(
            "allocType", it.relation_of(["obj", "type"], facts.alloc_types)
        )
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
        it.set_global(
            "virtualCalls",
            it.relation_of(["site", "var", "signature"], facts.virtual_calls),
        )
        it.set_global(
            "siteMethod", it.relation_of(["site", "caller"], facts.site_methods)
        )
        it.set_global(
            "methodVar", it.relation_of(["method", "var"], facts.method_vars)
        )
        it.call("computeHierarchy")
        it.call("solvePointsTo")
        npt, _ = naive_points_to(facts)
        assert set(it.global_relation("pt").tuples()) == npt
        it.call("buildCallGraph")
        edges = it.global_relation("callEdges")
        order = [edges.schema.names().index(n) for n in ("caller", "callee")]
        got = {tuple(t[i] for i in order) for t in edges.tuples()}
        assert got == naive_call_graph(facts)
        it.call("solveSideEffects")
        nreads, nwrites = naive_side_effects(facts)
        for global_name, expected in (
            ("readSet", nreads),
            ("writeSet", nwrites),
        ):
            rel = it.global_relation(global_name)
            idx = [
                rel.schema.names().index(n)
                for n in ("method", "baseobj", "field")
            ]
            got = {tuple(t[i] for i in idx) for t in rel.tuples()}
            assert got == expected
