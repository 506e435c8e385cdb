"""Unit tests for the relational IR: nodes, rewrites, planning,
evaluation.

The IR is the single lowering target of every layer (interpreter,
codegen, fixpoint engine, shell), so its invariants
are load-bearing: structural keys identify computations, the
constructors' rewrites (flattening, projection pushdown) must preserve
meaning, and the planner's reordered schedules must compute exactly
what the unoptimized left-to-right order computes.
"""

import pytest

from repro.relations import JeddError, Relation, Universe
from repro.relations import ir

OBJECTS = ["o0", "o1", "o2", "o3", "o4", "o5"]


def make_universe(backend="bdd"):
    u = Universe(backend=backend)
    d = u.domain("D", len(OBJECTS))
    for obj in OBJECTS:
        d.intern(obj)
    for name in ("a", "b", "c", "d"):
        u.attribute(name, d)
    for pd in ("P1", "P2", "P3", "P4"):
        u.physical_domain(pd, d.bits)
    u.finalize()
    return u


@pytest.fixture
def u():
    return make_universe()


def rel(u, attrs, rows, pds=None):
    if pds is None:
        pds = [f"P{i + 1}" for i in range(len(attrs))]
    return Relation.from_tuples(u, attrs, rows, pds)


class TestNodeStructure:
    def test_equal_construction_equal_keys(self):
        x = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        y = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        assert x.key == y.key
        assert x.attrs == frozenset(("a", "c"))
        assert x.slots == ("r", "s")

    def test_quantify_distinguishes_keys(self):
        parts = (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c")))
        assert ir.product(parts, ("b",)).key != ir.product(parts).key

    def test_replace_tag_in_key(self):
        child = ir.leaf("r", ("a",))
        one = ir.replace(child, {"a": "P2"}, tag="3,1")
        two = ir.replace(child, {"a": "P2"}, tag="7,1")
        assert one.key != two.key

    def test_empty_leaf_rejected(self):
        with pytest.raises(JeddError, match="empty attribute set"):
            ir.leaf("r", ())

    def test_quantify_must_be_produced(self):
        with pytest.raises(JeddError, match="cannot quantify"):
            ir.product((ir.leaf("r", ("a",)),), ("z",))

    def test_rename_collision_rejected(self):
        with pytest.raises(JeddError, match="collides"):
            ir.rename(ir.leaf("r", ("a", "b")), {"a": "b"})

    def test_match_validates_lengths_and_attrs(self):
        r = ir.leaf("r", ("a", "b"))
        s = ir.leaf("s", ("c", "d"))
        with pytest.raises(JeddError, match="length"):
            ir.match(r, s, ("a", "b"), ("c",), True)
        with pytest.raises(JeddError, match="not in the operand"):
            ir.match(r, s, ("z",), ("c",), True)


class TestConstructorRewrites:
    def test_nested_products_flatten(self):
        inner = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        outer = ir.product((inner, ir.leaf("t", ("c", "d"))), ("c",))
        assert isinstance(outer, ir.Product)
        assert len(outer.parts) == 3
        assert outer.quantify == frozenset(("b", "c"))

    def test_unsafe_flattening_keeps_barrier(self):
        # the inner product quantifies "b", but a sibling also produces
        # "b" -- inlining would join them, so the nest must survive
        inner = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        outer = ir.product((inner, ir.leaf("t", ("b", "d"))))
        assert isinstance(outer, ir.Product)
        assert len(outer.parts) == 2
        assert any(isinstance(p, ir.Product) for p in outer.parts)

    def test_project_pushes_into_product(self):
        prod = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c")))
        )
        pushed = ir.project(prod, ("b",))
        assert isinstance(pushed, ir.Product)
        assert pushed.quantify == frozenset(("b",))

    def test_identity_rename_collapses(self):
        child = ir.leaf("r", ("a",))
        assert ir.rename(child, {"a": "a"}) is child

    def test_empty_replace_collapses(self):
        child = ir.leaf("r", ("a",))
        assert ir.replace(child, {}) is child

    def test_single_part_product_collapses(self):
        child = ir.leaf("r", ("a",))
        assert ir.product((child,)) is child

    def test_to_source_round_trips(self):
        node = ir.replace(
            ir.project(
                ir.product(
                    (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))),
                    ("b",),
                ),
                ("c",),
            ),
            {"a": "P3"},
        )
        rebuilt = eval(ir.to_source(node, alias="ir"), {"ir": ir})
        assert rebuilt.key == node.key


class TestPositionalJoin:
    def test_join_lowers_to_product_with_rename(self):
        r = ir.leaf("r", ("a", "b"))
        s = ir.leaf("s", ("c", "d"))
        node = ir.positional_join(r, s, ("b",), ("c",), True)
        assert isinstance(node, ir.Product)
        assert node.attrs == frozenset(("a", "b", "d"))

    def test_compose_quantifies_compared(self):
        r = ir.leaf("r", ("a", "b"))
        s = ir.leaf("s", ("c", "d"))
        node = ir.positional_join(r, s, ("b",), ("c",), False)
        assert isinstance(node, ir.Product)
        assert node.attrs == frozenset(("a", "d"))

    def test_both_names_live_falls_back_to_match(self):
        # transitive closure's shape: both attribute names stay live on
        # both sides, no rename direction is collision-free
        r = ir.leaf("path", ("a", "b"))
        s = ir.leaf("edge", ("a", "b"))
        node = ir.positional_join(r, s, ("b",), ("a",), False)
        assert isinstance(node, ir.Match)

    def test_overlap_falls_back_to_match(self):
        # uncompared "b" lives on both sides: the runtime must raise its
        # own error, so lowering may not silently natural-join it
        r = ir.leaf("r", ("a", "b"))
        s = ir.leaf("s", ("c", "b"))
        node = ir.positional_join(r, s, ("a",), ("c",), True)
        assert isinstance(node, ir.Match)


class TestEvaluation:
    def test_product_is_natural_join(self, u):
        node = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        r = rel(u, ["a", "b"], [("o0", "o1"), ("o2", "o3")])
        s = rel(u, ["b", "c"], [("o1", "o4"), ("o5", "o0")], ["P2", "P3"])
        out = node.evaluate({"r": r, "s": s}, u)
        assert set(out.tuples()) == {("o0", "o4")}

    def test_match_executes_join(self, u):
        r = rel(u, ["a", "b"], [("o0", "o1")])
        s = rel(u, ["c", "d"], [("o1", "o2")])
        join = ir.match(
            ir.leaf("r", ("a", "b")), ir.leaf("s", ("c", "d")),
            ("b",), ("c",), True,
        )
        assert set(join.evaluate({"r": r, "s": s}, u).tuples()) == set(
            r.join(s, ["b"], ["c"]).tuples()
        )

    def test_match_executes_compose(self, u):
        # the transitive-closure shape only Match can express: both
        # attribute names stay live on both sides
        r = rel(u, ["a", "b"], [("o0", "o1")])
        s = rel(u, ["a", "b"], [("o1", "o2")])
        compose = ir.match(
            ir.leaf("r", ("a", "b")), ir.leaf("s", ("a", "b")),
            ("b",), ("a",), False,
        )
        assert set(
            compose.evaluate({"r": r, "s": s}, u).tuples()
        ) == set(r.compose(s, ["b"], ["a"]).tuples())

    def test_replace_reports_only_actual_moves(self, u):
        # "a" is already in P1: a full-map replace must not log it
        node = ir.replace(
            ir.leaf("r", ("a", "b")), {"a": "P1", "b": "P3"}, tag="site"
        )
        r = rel(u, ["a", "b"], [("o0", "o1")])
        logged = []
        ctx = ir.EvalContext(
            u, {"r": r}, on_replace=lambda tag, moves: logged.append(
                (tag, moves)
            )
        )
        out = ir.evaluate(node, ctx)
        assert logged == [("site", {"b": "P3"})]
        assert out.schema.physdom("b").name == "P3"

    def test_replace_noop_not_reported(self, u):
        node = ir.replace(ir.leaf("r", ("a",)), {"a": "P1"}, tag="site")
        logged = []
        ctx = ir.EvalContext(
            u, {"r": rel(u, ["a"], [("o0",)])},
            on_replace=lambda tag, moves: logged.append((tag, moves)),
        )
        ir.evaluate(node, ctx)
        assert logged == []

    def test_missing_slot_is_an_error(self, u):
        with pytest.raises(JeddError, match="no binding"):
            ir.leaf("nope", ("a",)).evaluate({}, u)

    def test_schema_mismatch_is_an_error(self, u):
        node = ir.leaf("r", ("a", "b"))
        with pytest.raises(JeddError, match="expects"):
            node.evaluate({"r": rel(u, ["a"], [("o0",)])}, u)

    def test_memo_shares_common_subexpressions(self, u):
        sub = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        both = ir.union(sub, sub)
        r = rel(u, ["a", "b"], [("o0", "o1")])
        s = rel(u, ["b", "c"], [("o1", "o2")], ["P2", "P3"])
        planner = ir.Planner()
        memo: dict = {}
        ctx = ir.EvalContext(u, {"r": r, "s": s}, planner=planner, memo=memo)
        out = ir.evaluate(both, ctx)
        assert set(out.tuples()) == {("o0", "o2")}
        # the shared product was evaluated once: one memo entry for it,
        # and the planner was only consulted on that one evaluation
        assert any(key[0][0] == "product" for key, _v in memo.items())
        assert planner.hits + planner.misses == 1

    def test_collect_reports_actuals(self, u):
        node = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        reports = []
        ctx = ir.EvalContext(
            u,
            {
                "r": rel(u, ["a", "b"], [("o0", "o1")]),
                "s": rel(u, ["b", "c"], [("o1", "o2")], ["P2", "P3"]),
            },
            collect=reports,
            label="site",
        )
        ir.evaluate(node, ctx)
        (report,) = reports
        assert report.label == "site"
        assert report.actual_nodes is not None
        assert report.estimate_error() >= 1.0
        assert "plan site" in report.format()

    def test_reported_forced_plan_gets_estimates(self, u):
        r = rel(u, ["a", "b"], [("o0", "o1"), ("o2", "o1")])
        s = rel(u, ["b", "c"], [("o1", "o2")], ["P2", "P3"])
        shape = ([r.schema.name_set(), s.schema.name_set()], frozenset("b"))
        weight = ir.default_weight(u)

        def measured():
            return [ir.Estimate(float(x.size()), float(x.node_count()))
                    for x in (r, s)]

        # Planned for an unreported run, the anchored plan has no
        # estimates; reporting it fills them in from the same model.
        plan = ir.Planner().product_plan(
            ("fwd",), 0, *shape, lambda: 1 / 0, weight, anchor=0
        )
        assert plan.est_nodes is None
        reports = []
        ir.run_product_plan([r, s], plan, collect=reports)
        (report,) = reports
        expected = ir.estimate_plan(plan, shape[0], measured(), weight)
        assert report.est_nodes == expected.est_nodes
        assert report.steps[0]["est_card"] == expected.steps[0].est_card
        # Planned for a reported run, it carries them from the start.
        planned = ir.Planner().product_plan(
            ("fwd",), 0, *shape, measured, weight, anchor=0, report=True
        )
        assert planned == expected


class TestPlanner:
    WEIGHT = staticmethod(lambda a: 6.0)

    def test_optimized_starts_from_smallest(self):
        plan = ir.plan_product(
            [frozenset("ab"), frozenset("bc"), frozenset("cd")],
            frozenset("bc"),
            [
                ir.Estimate(100.0, 500.0),
                ir.Estimate(100.0, 500.0),
                ir.Estimate(2.0, 10.0),
            ],
            self.WEIGHT,
        )
        assert plan.optimized
        assert plan.order[0] == 2
        assert len(plan.steps) == 2

    def test_unoptimized_keeps_source_order(self):
        plan = ir.plan_product(
            [frozenset("ab"), frozenset("bc"), frozenset("cd")],
            frozenset("bc"),
            [
                ir.Estimate(100.0, 500.0),
                ir.Estimate(100.0, 500.0),
                ir.Estimate(2.0, 10.0),
            ],
            self.WEIGHT,
            optimize=False,
        )
        assert not plan.optimized
        assert plan.order == (0, 1, 2)
        # all quantification deferred to the last step
        assert plan.steps[-1].drop == ("b", "c")
        assert plan.steps[0].drop == ()

    def test_anchor_forces_base(self):
        plan = ir.plan_product(
            [frozenset("ab"), frozenset("bc")],
            frozenset(),
            [ir.Estimate(1.0, 1.0), ir.Estimate(100.0, 100.0)],
            self.WEIGHT,
            anchor=1,
        )
        assert plan.order[0] == 1

    def test_early_quantification(self):
        # "b" dies after the first join; the optimizer must not carry it
        plan = ir.plan_product(
            [frozenset("ab"), frozenset("bc"), frozenset("cd")],
            frozenset("bc"),
            [
                ir.Estimate(2.0, 10.0),
                ir.Estimate(100.0, 500.0),
                ir.Estimate(100.0, 500.0),
            ],
            self.WEIGHT,
        )
        dropped = [set(s.drop) for s in plan.steps]
        assert {"b"} <= dropped[0]

    def test_cache_hits_by_shape_and_generation(self):
        planner = ir.Planner()
        calls = []

        def estimates():
            calls.append(1)
            return [ir.Estimate(1.0, 1.0), ir.Estimate(2.0, 2.0)]

        args = (
            [frozenset("ab"), frozenset("bc")], frozenset("b"),
            estimates, self.WEIGHT,
        )
        planner.product_plan(("shape",), 0, *args)
        planner.product_plan(("shape",), 0, *args)
        assert planner.hits == 1 and planner.misses == 1
        assert len(calls) == 1  # satcount thunk not re-run on a hit
        planner.product_plan(("shape",), 1, *args)  # generation moved
        assert planner.misses == 2

    def test_forced_plans_skip_the_estimate_thunk(self):
        planner = ir.Planner()
        calls = []

        def estimates():
            calls.append(1)
            return [ir.Estimate(1.0, 1.0), ir.Estimate(2.0, 2.0)]

        two = ([frozenset("ab"), frozenset("bc")], frozenset("b"))
        plan = planner.product_plan(
            ("anchored",), 0, *two, estimates, self.WEIGHT, anchor=1
        )
        assert calls == []
        assert plan.est_nodes is None and plan.steps[0].est_card is None
        # Two unanchored parts: which one is the base is a choice.
        planner.product_plan(("free",), 0, *two, estimates, self.WEIGHT)
        assert calls == [1]
        # Filled in later, the estimates are the planner's own.
        assert ir.estimate_plan(
            plan, two[0], estimates(), self.WEIGHT
        ) == ir.plan_product(*two, estimates(), self.WEIGHT, anchor=1)

    def test_invalidate_plans_bumps_plan_generation(self, u):
        before = u.plan_generation
        u.invalidate_plans()
        assert u.plan_generation == before + 1


class TestStaticReports:
    def test_static_reports_label_products(self, u):
        node = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        est, reports = ir.static_reports(
            node, ir.default_weight(u, static=True), label="f:1,1 x ="
        )
        assert est.card > 0
        (report,) = reports
        assert report.label == "f:1,1 x ="
        assert report.actual_nodes is None
        assert "est" in ir.format_reports(reports)

    def test_no_products_formats_placeholder(self):
        assert ir.format_reports([]) == "(no products to plan)"

    def test_aggregate_estimated_statically(self, u):
        # jeddc --explain walks aggregate expressions too: the group
        # columns bound the estimate, the child product still plans.
        child = ir.product(
            (ir.leaf("r", ("a", "b")), ir.leaf("s", ("b", "c"))), ("b",)
        )
        node = ir.aggregate(child, "count", None, ("a",))
        weight = ir.default_weight(u, static=True)
        est, reports = ir.static_reports(node, weight, label="agg")
        assert 0 < est.card <= weight("a")
        assert len(reports) == 1  # the child product's plan


def test_forced_rule_plans_walk_no_diagrams(monkeypatch):
    """Every points-to rule body is an anchored delta and one other
    atom: an untraced solve never counts a diagram, while a collected
    plan report still shows estimates next to the actuals."""
    from repro.analyses import AnalysisUniverse, PointsTo, preset
    from repro.relations import ExecutionPolicy

    au = AnalysisUniverse(preset("javac-s"))
    m = au.universe.manager
    walks = []
    for name in ("sat_count", "node_count"):
        def counted(*args, _walk=getattr(m, name), _name=name):
            walks.append(_name)
            return _walk(*args)

        monkeypatch.setattr(m, name, counted)
    PointsTo(au).solve()
    assert walks == []

    solver = PointsTo(
        AnalysisUniverse(preset("javac-s")),
        policy=ExecutionPolicy(collect_plans=True),
    )
    solver.solve()
    reports = solver.fixpoint.plan_reports
    assert reports
    for report in reports:
        assert report.est_nodes is not None
        for row in report.steps:
            assert row["est_card"] is not None
            assert row["est_nodes"] is not None
