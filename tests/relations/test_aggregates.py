"""Differential suite for quantitative relations.

:meth:`Relation.aggregate` must equal a dict oracle computed in this
file straight from the tuple sets (:func:`oracle`) -- on the bdd and the
zdd backend, for random relations, for every aggregate and grouping,
and for the relations of all four whole-program analyses (points-to,
call graph, side effects, hierarchy), whose tuple sets come from the
``naive_*`` reference analyses rather than from the diagrams.  Weights
here are integers, so the comparison is exact equality, not tolerance.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    Hierarchy,
    PointsTo,
    SideEffects,
    naive_call_graph,
    naive_points_to,
    naive_side_effects,
    naive_subtypes,
    synthesize,
)
from repro.relations import (
    AGGREGATE_OPS,
    CsvFormatError,
    JeddError,
    Relation,
    Universe,
    WeightedRelation,
)

BACKENDS = ("bdd", "zdd")

NUMS = list(range(6))

num_rows = st.sets(
    st.tuples(
        st.sampled_from(NUMS), st.sampled_from(NUMS), st.sampled_from(NUMS)
    ),
    max_size=20,
)


def make_numeric_universe(backend):
    u = Universe(backend=backend)
    d = u.domain("D", len(NUMS))
    for n in NUMS:
        d.intern(n)
    for name in ("a", "b", "c"):
        u.attribute(name, d)
    for pd in ("P1", "P2", "P3"):
        u.physical_domain(pd, d.bits)
    u.finalize()
    return u


def oracle(rows, names, agg, attr=None, group_by=()):
    """The aggregate of ``rows`` (tuples over ``names``), computed
    directly: project onto the aggregated and grouped columns (all of
    them for a bare ``count``) as a set, group, and fold each group.
    Weight 0 means absent, so zero results are dropped, as
    :class:`WeightedRelation` does."""
    cols = list(names) if attr is None else list(group_by) + [attr]
    projected = {tuple(row[names.index(c)] for c in cols) for row in rows}
    groups = {}
    for prow in projected:
        values = dict(zip(cols, prow))
        key = tuple(values[g] for g in group_by)
        groups.setdefault(key, []).append(values.get(attr))
    fold = {
        "count": len,
        "sum": sum,
        "max": max,
        "min": min,
        "mean": lambda vs: sum(vs) / len(vs),
    }[agg]
    out = {key: fold(vs) for key, vs in groups.items()}
    return {key: w for key, w in out.items() if w != 0}


def groupings():
    for attr in (None, "a", "b"):
        for group_by in ((), ("b",), ("c",), ("b", "c")):
            if attr in group_by:
                continue
            yield attr, group_by


class TestAggregateDifferential:
    """Every backend's aggregate == the dict oracle."""

    @given(rows=num_rows)
    @settings(max_examples=40, deadline=None)
    def test_all_aggregates_match_oracle(self, rows):
        for backend in BACKENDS:
            u = make_numeric_universe(backend)
            rel = Relation.from_tuples(
                u, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
            )
            for agg in AGGREGATE_OPS:
                for attr, group_by in groupings():
                    if agg != "count" and attr is None:
                        continue
                    got = rel.aggregate(agg, attr, group_by)
                    expected = oracle(
                        rows, ("a", "b", "c"), agg, attr, group_by
                    )
                    assert got.as_dict() == expected, (
                        backend, agg, attr, group_by,
                    )

    @given(rows=num_rows)
    @settings(max_examples=30, deadline=None)
    def test_count_equals_satcount(self, rows):
        for backend in BACKENDS:
            u = make_numeric_universe(backend)
            rel = Relation.from_tuples(
                u, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
            )
            assert rel.count() == len(rows)
            ungrouped = rel.aggregate("count")
            assert ungrouped.as_dict() == ({(): len(rows)} if rows else {})

    @given(rows=num_rows)
    @settings(max_examples=30, deadline=None)
    def test_weighted_total_and_size(self, rows):
        for backend in BACKENDS:
            u = make_numeric_universe(backend)
            rel = Relation.from_tuples(
                u, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
            )
            w = rel.aggregate("count", group_by=["b"])
            assert isinstance(w, WeightedRelation)
            groups = {b for _, b, _ in rows}
            assert w.size() == len(groups)
            # per-group counts sum to the total cardinality
            assert w.total() == len(rows)


class TestAggregateErrors:
    def setup_method(self):
        self.u = Universe()
        d = self.u.domain("S", 4)
        for obj in ("x", "y"):
            d.intern(obj)
        self.u.attribute("p", d)
        self.u.attribute("q", d)
        self.u.physical_domain("A", d.bits)
        self.u.physical_domain("B", d.bits)
        self.u.finalize()
        self.rel = Relation.from_tuples(
            self.u, ["p", "q"], [("x", "y")], ["A", "B"]
        )

    def test_non_numeric_attribute_rejected(self):
        with pytest.raises(JeddError, match="non-numeric object"):
            self.rel.aggregate("sum", "p")

    def test_unknown_aggregate(self):
        with pytest.raises(JeddError, match="unknown aggregate"):
            self.rel.aggregate("median", "p")

    def test_attr_required_for_sum(self):
        with pytest.raises(JeddError, match="needs an attribute"):
            self.rel.aggregate("sum")

    def test_grouped_and_aggregated_rejected(self):
        with pytest.raises(JeddError, match="both aggregated and grouped"):
            self.rel.aggregate("count", "p", ["p"])

    def test_unknown_attributes_rejected(self):
        with pytest.raises(JeddError, match="no attribute"):
            self.rel.aggregate("count", "nope")
        with pytest.raises(JeddError, match="no attribute"):
            self.rel.aggregate("count", group_by=["nope"])

    def test_weighted_result_not_checkpointable(self):
        from repro.relations import save_universe

        w = self.rel.aggregate("count", group_by=["p"])
        with pytest.raises(JeddError, match="weighted aggregate"):
            save_universe(self.u, {"r": self.rel, "w": w}, io.BytesIO())


@pytest.fixture(scope="module")
def analysis_relations():
    """Per backend, the four analyses' result relations, each with the
    tuple set of its ``naive_*`` reference analysis (in schema order)."""
    facts = synthesize("small", n_classes=10, n_signatures=6, seed=7)
    naive_reads, naive_writes = naive_side_effects(facts)
    naive = {
        "subtype": (("subtype", "supertype"), naive_subtypes(facts)),
        "pt": (("var", "obj"), naive_points_to(facts)[0]),
        "callgraph": (("caller", "callee"), naive_call_graph(facts)),
        "reads": (("method", "baseobj", "field"), naive_reads),
        "writes": (("method", "baseobj", "field"), naive_writes),
    }
    out = {}
    for backend in BACKENDS:
        au = AnalysisUniverse(facts, backend=backend)
        h = Hierarchy(au)
        pt = PointsTo(au).solve()
        edges = CallGraph(au, pt).build()
        reads, writes = SideEffects(au, pt, edges).solve()
        rels = {
            "subtype": h.subtype,
            "pt": pt,
            "callgraph": edges,
            "reads": reads,
            "writes": writes,
        }
        out[backend] = {}
        for name, rel in rels.items():
            cols, rows = naive[name]
            names = rel.schema.names()
            out[backend][name] = (
                rel,
                {tuple(row[cols.index(n)] for n in names) for row in rows},
            )
    return out


class TestAnalysisAggregates:
    """Acceptance: every aggregate equals the dict oracle over the
    reference analyses' tuples, for all four analyses' relations, on
    every backend."""

    def test_counts_match_oracle_all_groupings(self, analysis_relations):
        for backend, relations in analysis_relations.items():
            for name, (rel, rows) in relations.items():
                assert set(rel.tuples()) == rows, (backend, name)
                names = list(rel.schema.names())
                group_choices = [()] + [(n,) for n in names] + (
                    [tuple(names[:2])] if len(names) > 2 else []
                )
                for group_by in group_choices:
                    got = rel.aggregate("count", group_by=list(group_by))
                    expected = oracle(rows, names, "count", None, group_by)
                    assert got.as_dict() == expected, (
                        backend, name, group_by,
                    )

    def test_numeric_aggregates_match_oracle(self, analysis_relations):
        # The analyses intern string objects, so the numeric aggregates
        # run over each relation's *index mirror*: the same tuples with
        # every object replaced by its integer index -- exercising
        # sum/max/min/mean on real analysis shapes with integer weights
        # (exact comparison).
        for backend, relations in analysis_relations.items():
            for name, (rel, rows) in relations.items():
                names = list(rel.schema.names())
                mirrors = [
                    {
                        obj: i
                        for i, obj in enumerate(sorted({r[k] for r in rows}))
                    }
                    for k in range(len(names))
                ]
                mirrored = {
                    tuple(mirrors[k][row[k]] for k in range(len(names)))
                    for row in rows
                }
                u = Universe(backend=backend)
                for k, mirror in enumerate(mirrors):
                    d = u.domain(f"D{k}", max(2, len(mirror)))
                    for i in range(len(mirror)):
                        d.intern(i)
                    u.attribute(names[k], d)
                    u.physical_domain(f"P{k}", d.bits)
                u.finalize()
                mrel = Relation.from_tuples(
                    u, names, mirrored, [f"P{k}" for k in range(len(names))]
                )
                for agg in ("sum", "max", "min", "mean", "count"):
                    attr = names[-1] if agg != "count" else None
                    group_by = [names[0]]
                    got = mrel.aggregate(agg, attr, group_by)
                    expected = oracle(mirrored, names, agg, attr, group_by)
                    assert got.as_dict() == expected, (backend, name, agg)


class TestCsvLoading:
    def test_csv_roundtrip_with_converters(self):
        u = make_numeric_universe("bdd")
        src = io.StringIO("a,b,c\n1,2,3\n4,5,0\n1,2,3\n")
        rel = Relation.from_csv(
            u,
            src,
            ["a", "b", "c"],
            ["P1", "P2", "P3"],
            has_header=True,
            converters={"a": int, "b": int, "c": int},
        )
        assert set(rel.tuples()) == {(1, 2, 3), (4, 5, 0)}
        assert rel.count() == 2

    def test_malformed_row_reports_line(self):
        u = make_numeric_universe("bdd")
        src = io.StringIO("1,2,3\nbadrow\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            Relation.from_csv(
                u,
                src,
                ["a", "b", "c"],
                ["P1", "P2", "P3"],
                converters={"a": int, "b": int, "c": int},
            )
