"""Cross-checks: every BDD analysis equals its naive reference oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    Hierarchy,
    LowLevelPointsTo,
    PointsTo,
    SideEffects,
    VirtualCallResolver,
    naive_call_graph,
    naive_points_to,
    naive_resolve,
    naive_side_effects,
    naive_subtypes,
    synthesize,
)
from repro.bdd import BDDError


@pytest.fixture(scope="module")
def small():
    facts = synthesize("small", n_classes=10, n_signatures=6, seed=7)
    return facts, AnalysisUniverse(facts)


def by_names(relation, *names):
    order = [relation.schema.names().index(n) for n in names]
    return {tuple(t[i] for i in order) for t in relation.tuples()}


class TestHierarchy:
    def test_matches_reference(self, small):
        facts, au = small
        h = Hierarchy(au)
        assert set(h.subtype.tuples()) == naive_subtypes(facts)

    def test_reflexive(self, small):
        facts, au = small
        h = Hierarchy(au)
        pairs = set(h.subtype.tuples())
        for cls in facts.classes:
            assert (cls, cls) in pairs

    def test_transitive(self, small):
        facts, au = small
        h = Hierarchy(au)
        pairs = set(h.subtype.tuples())
        for a, b in pairs:
            for c, d in pairs:
                if b == c:
                    assert (a, d) in pairs


class TestVirtualCalls:
    def test_matches_reference(self, small):
        facts, au = small
        recv = {
            (c, s)
            for c in facts.classes
            for s in facts.signatures[:4]
        }
        resolver = VirtualCallResolver(au)
        rel = au.rel(["rectype", "signature"], recv, ["T1", "S1"])
        got = set(resolver.resolve(rel).tuples())
        assert got == naive_resolve(facts, recv)

    def test_empty_input(self, small):
        facts, au = small
        resolver = VirtualCallResolver(au)
        rel = au.rel(["rectype", "signature"], [], ["T1", "S1"])
        assert resolver.resolve(rel).is_empty()

    def test_each_call_resolves_to_one_target(self, small):
        facts, au = small
        recv = {(c, facts.signatures[0]) for c in facts.classes}
        resolver = VirtualCallResolver(au)
        rel = au.rel(["rectype", "signature"], recv, ["T1", "S1"])
        answer = resolver.resolve(rel)
        per_pair = {}
        for rectype, sig, tgt, method in answer.tuples():
            per_pair.setdefault((rectype, sig), set()).add(method)
        for targets in per_pair.values():
            assert len(targets) == 1  # virtual dispatch is a function


class TestPointsTo:
    def test_matches_reference(self, small):
        facts, au = small
        solver = PointsTo(au)
        pt = solver.solve()
        npt, nhpt = naive_points_to(facts)
        assert set(pt.tuples()) == npt
        assert by_names(solver.hpt, "baseobj", "field", "srcobj") == nhpt

    def test_allocs_always_in_pt(self, small):
        facts, au = small
        pt = PointsTo(au).solve()
        got = set(pt.tuples())
        for pair in facts.allocs:
            assert pair in got

    def test_lowlevel_agrees(self, small):
        facts, au = small
        high = PointsTo(au).solve()
        low = LowLevelPointsTo(facts)
        low.solve()
        assert low.pt_tuples() == set(high.tuples())

    @pytest.mark.parametrize("field", ["var", "obj"])
    def test_lowlevel_rejects_uninterned_index(self, small, field):
        """A pt pair holding an index no variable or object was given
        raises instead of silently leaving the decoded set."""
        facts, _ = small
        low = LowLevelPointsTo(facts)
        low.solve()
        v, o = 0, 0
        if field == "var":
            v = len(low._vars)
            assert v < 1 << low.V1.bits
        else:
            o = len(low._objs)
            assert o < 1 << low.H1.bits
        stray = low.m.from_keys(
            low.V1.levels + low.H1.levels, [v | o << low.V1.bits]
        )
        low.pt = low.m.apply_or(low.pt, stray)
        with pytest.raises(BDDError, match="interned"):
            low.pt_tuples()


class TestCallGraph:
    def test_matches_reference(self, small):
        facts, au = small
        pt = PointsTo(au).solve()
        cg = CallGraph(au, pt)
        edges = cg.build()
        assert by_names(edges, "caller", "callee") == naive_call_graph(facts)

    def test_reachability(self, small):
        facts, au = small
        pt = PointsTo(au).solve()
        cg = CallGraph(au, pt)
        cg.build()
        root = facts.methods[0]
        roots = au.rel(["method"], [(root,)], ["M1"])
        reached = cg.reachable_from(roots)
        got = {t[0] for t in reached.tuples()}
        # naive closure
        edges = naive_call_graph(facts)
        expected = {root}
        frontier = [root]
        while frontier:
            m = frontier.pop()
            for caller, callee in edges:
                if caller == m and callee not in expected:
                    expected.add(callee)
                    frontier.append(callee)
        assert got == expected


class TestSideEffects:
    def test_matches_reference(self, small):
        facts, au = small
        pt = PointsTo(au).solve()
        cg = CallGraph(au, pt)
        edges = cg.build()
        se = SideEffects(au, pt, edges)
        reads, writes = se.solve()
        nreads, nwrites = naive_side_effects(facts)
        assert by_names(reads, "method", "baseobj", "field") == nreads
        assert by_names(writes, "method", "baseobj", "field") == nwrites

    def test_callers_inherit_callee_effects(self, small):
        facts, au = small
        pt = PointsTo(au).solve()
        cg = CallGraph(au, pt)
        edges = cg.build()
        se = SideEffects(au, pt, edges)
        reads, writes = se.solve()
        w = by_names(writes, "method", "baseobj", "field")
        edge_pairs = by_names(edges, "caller", "callee")
        for caller, callee in edge_pairs:
            for m, bo, f in list(w):
                if m == callee:
                    assert (caller, bo, f) in w


@pytest.mark.parametrize("backend", ["bdd", "zdd"])
def test_pipeline_on_both_backends(backend):
    """Full pipeline agrees with the oracles on BDD and ZDD backends."""
    facts = synthesize("tiny", n_classes=6, n_signatures=4, seed=11)
    au = AnalysisUniverse(facts, backend=backend)
    assert set(Hierarchy(au).subtype.tuples()) == naive_subtypes(facts)
    pt = PointsTo(au).solve()
    npt, _ = naive_points_to(facts)
    assert set(pt.tuples()) == npt
    edges = CallGraph(au, pt).build()
    assert by_names(edges, "caller", "callee") == naive_call_graph(facts)


@given(seed=st.integers(0, 500), n_classes=st.integers(3, 14))
@settings(max_examples=15, deadline=None)
def test_pointsto_property(seed, n_classes):
    """Property: BDD points-to equals naive points-to on random programs."""
    facts = synthesize("prop", n_classes=n_classes, n_signatures=5, seed=seed)
    au = AnalysisUniverse(facts)
    pt = PointsTo(au).solve()
    npt, _ = naive_points_to(facts)
    assert set(pt.tuples()) == npt


@given(seed=st.integers(0, 500))
@settings(max_examples=10, deadline=None)
def test_vcall_property(seed):
    """Property: relational resolution equals chain walking."""
    facts = synthesize("prop", n_classes=8, n_signatures=5, seed=seed)
    au = AnalysisUniverse(facts)
    recv = {(c, s) for c in facts.classes for s in facts.signatures[:2]}
    resolver = VirtualCallResolver(au)
    rel = au.rel(["rectype", "signature"], recv, ["T1", "S1"])
    assert set(resolver.resolve(rel).tuples()) == naive_resolve(facts, recv)


class TestTypeFiltering:
    """The declared-type filter of Berndl et al. [5]."""

    def test_matches_reference(self, small):
        facts, au = small
        solver = PointsTo(au, type_filter=True)
        pt = solver.solve()
        npt, nhpt = naive_points_to(facts, type_filter=True)
        assert set(pt.tuples()) == npt
        assert by_names(solver.hpt, "baseobj", "field", "srcobj") == nhpt

    def test_filter_is_sound_restriction(self, small):
        facts, au = small
        unfiltered = set(PointsTo(au).solve().tuples())
        filtered = set(PointsTo(au, type_filter=True).solve().tuples())
        assert filtered <= unfiltered

    def test_allocations_survive_filter(self, small):
        # The generator only emits type-correct allocations, so every
        # allocation pair passes the filter.
        facts, au = small
        filtered = set(PointsTo(au, type_filter=True).solve().tuples())
        assert set(facts.allocs) <= filtered

    def test_compat_relation_schema(self, small):
        facts, au = small
        solver = PointsTo(au, type_filter=True)
        solver.solve()
        assert set(solver.compat.schema.names()) == {"var", "obj"}


@given(seed=st.integers(0, 300))
@settings(max_examples=10, deadline=None)
def test_type_filter_property(seed):
    facts = synthesize("tfprop", n_classes=10, n_signatures=5, seed=seed)
    au = AnalysisUniverse(facts)
    pt = PointsTo(au, type_filter=True).solve()
    npt, _ = naive_points_to(facts, type_filter=True)
    assert set(pt.tuples()) == npt
