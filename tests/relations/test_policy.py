"""ExecutionPolicy: the one value describing how a solve runs.

Covers the dataclass itself (coercion, derivation) and the entry points
that accept it: ``FixpointEngine`` and the four analyses take a policy
(or its ``"seminaive"`` shorthand) and nothing else — the per-option
keyword arguments the policy replaced are gone.
"""

import dataclasses
import warnings

import pytest

from repro.analyses.callgraph import CallGraph
from repro.analyses.facts import synthesize
from repro.analyses.pointsto import PointsTo
from repro.analyses.sideeffects import SideEffects
from repro.analyses.universe import AnalysisUniverse
from repro.analyses.vcall import VirtualCallResolver
from repro.relations import (
    ExecutionPolicy,
    FixpointEngine,
    JeddError,
    Relation,
    open_universe,
)


class TestDataclass:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.optimize is True
        assert policy.collect_plans is False
        assert [f.name for f in dataclasses.fields(policy)] == [
            "optimize", "collect_plans",
        ]

    def test_unknown_engine_rejected(self):
        for name in ("threads", "parallel", "naive"):
            with pytest.raises(
                JeddError, match=r"unknown engine .* \(expected 'seminaive'\)"
            ):
                ExecutionPolicy.of(name)
        with pytest.raises(TypeError, match="engine"):
            ExecutionPolicy(engine="seminaive")

    def test_bad_workers_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            ExecutionPolicy(workers=2)

    def test_frozen_and_hashable(self):
        policy = ExecutionPolicy(optimize=False)
        with pytest.raises(Exception):
            policy.optimize = True
        assert policy in {policy}

    def test_of_coercions(self):
        assert ExecutionPolicy.of(None) == ExecutionPolicy()
        assert ExecutionPolicy.of("seminaive") == ExecutionPolicy()
        policy = ExecutionPolicy(optimize=False)
        assert ExecutionPolicy.of(policy) is policy

    def test_of_rejects_other_types(self):
        for value in (42, 0, False, [], {}):
            with pytest.raises(JeddError, match="ExecutionPolicy"):
                ExecutionPolicy.of(value)

    def test_with_options(self):
        base = ExecutionPolicy()
        derived = base.with_options(optimize=False, collect_plans=True)
        assert derived.optimize is False
        assert derived.collect_plans is True
        assert base == ExecutionPolicy()

    def test_str_forms(self):
        assert str(ExecutionPolicy()) == "seminaive"
        assert str(ExecutionPolicy(optimize=False)) == "seminaive unoptimized"


def tc_universe():
    u = open_universe(
        "bdd",
        "interleaved",
        domains={"N": 16},
        attributes={"src": "N", "dst": "N", "mid": "N"},
        physdoms={"N1": 4, "N2": 4},
    )
    edge = Relation.from_tuples(
        u, ["src", "dst"], [("a", "b"), ("b", "c")], ["N1", "N2"]
    )
    return u, edge


def solve_with(**engine_kwargs):
    u, edge = tc_universe()
    eng = FixpointEngine(u, **engine_kwargs)
    eng.fact("edge", edge)
    eng.relation("path", edge)
    eng.rule("path", ["src", "dst"], [
        ("edge", ("src", "mid")),
        ("path", {"src": "mid", "dst": "dst"}),
    ])
    return eng, eng.solve()["path"]


class TestFixpointEngineShims:
    def test_policy_positional(self):
        eng, path = solve_with(policy=ExecutionPolicy(collect_plans=True))
        assert path.size() == 3
        assert eng.collect_plans is True

    def test_policy_string_shorthand(self):
        eng, _ = solve_with(policy="seminaive")
        assert eng.policy == ExecutionPolicy()

    REMOVED_KWARGS = {
        "engine": "seminaive",
        "workers": 2,
        "task_timeout": 30.0,
        "fault_injection": {},
        "optimize": False,
        "collect_plans": True,
    }

    @pytest.mark.parametrize("kwarg", sorted(REMOVED_KWARGS))
    def test_removed_kwargs_rejected(self, kwarg):
        u, _ = tc_universe()
        with pytest.raises(TypeError, match=kwarg):
            FixpointEngine(u, **{kwarg: self.REMOVED_KWARGS[kwarg]})

    def test_policy_only_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solve_with(policy=ExecutionPolicy())
            solve_with()

    def test_unknown_engine_via_policy(self):
        u, _ = tc_universe()
        with pytest.raises(JeddError, match="unknown engine"):
            FixpointEngine(u, "threads")


class TestAnalysisShims:
    @pytest.fixture(scope="class")
    def au(self):
        facts = synthesize("policy", n_classes=8, n_signatures=4, seed=3)
        return AnalysisUniverse(facts)

    def test_pointsto_policy(self, au):
        pta = PointsTo(au, policy=ExecutionPolicy())
        assert pta.policy == ExecutionPolicy()
        assert pta.solve().size() > 0
        with pytest.raises(JeddError, match="unknown engine"):
            PointsTo(au, policy="turbo")

    # The engine= keyword each analysis used to take is gone; how a
    # solve runs comes only from the policy (or its shorthand).
    def test_pointsto_engine_kwarg_rejected(self, au):
        with pytest.raises(TypeError, match="engine"):
            PointsTo(au, engine="naive")
        assert PointsTo(au, policy="seminaive").policy == ExecutionPolicy()

    def test_vcall_engine_kwarg_rejected(self, au):
        with pytest.raises(TypeError, match="engine"):
            VirtualCallResolver(au, engine="naive")
        resolver = VirtualCallResolver(au, policy="seminaive")
        assert resolver.policy == ExecutionPolicy()

    def test_callgraph_engine_kwarg_rejected(self, au):
        pt = PointsTo(au).solve()
        with pytest.raises(TypeError, match="engine"):
            CallGraph(au, pt, engine="seminaive")
        assert CallGraph(au, pt, "seminaive").policy == ExecutionPolicy()

    def test_sideeffects_engine_kwarg_rejected(self, au):
        pt = PointsTo(au).solve()
        edges = CallGraph(au, pt).build()
        with pytest.raises(TypeError, match="engine"):
            SideEffects(au, pt, edges, engine="seminaive")
        se = SideEffects(au, pt, edges, "seminaive")
        assert se.policy == ExecutionPolicy()

    def test_removed_workers_kwarg_rejected(self, au):
        pt = PointsTo(au).solve()
        edges = CallGraph(au, pt).build()
        for make in (
            lambda **kw: PointsTo(au, **kw),
            lambda **kw: VirtualCallResolver(au, **kw),
            lambda **kw: CallGraph(au, pt, **kw),
            lambda **kw: SideEffects(au, pt, edges, **kw),
        ):
            with pytest.raises(TypeError, match="workers"):
                make(workers=2)

    def test_analyses_policy_only_warning_free(self, au):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pt = PointsTo(au, policy="seminaive").solve()
            VirtualCallResolver(au, ExecutionPolicy())
            cg = CallGraph(au, pt, ExecutionPolicy())
            edges = cg.build()
            SideEffects(au, pt, edges, ExecutionPolicy()).solve()
