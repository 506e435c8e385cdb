"""ExecutionPolicy: the one value describing how a solve runs.

Covers the dataclass itself (validation, coercion, derivation) and the
entry points that accept it: ``FixpointEngine`` and the four analyses
take a policy (or an engine-name shorthand) and nothing else — the
per-option keyword arguments the policy replaced are gone.
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
from repro.relations.policy import POLICY_ENGINES


class TestDataclass:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.engine == "seminaive"
        assert policy.optimize is True
        assert policy.collect_plans is False
        assert [f.name for f in dataclasses.fields(policy)] == [
            "engine", "optimize", "collect_plans",
        ]

    def test_unknown_engine_rejected(self):
        with pytest.raises(JeddError, match="unknown engine"):
            ExecutionPolicy(engine="threads")
        with pytest.raises(
            JeddError, match=r"expected one of seminaive, naive"
        ):
            ExecutionPolicy(engine="parallel")

    def test_bad_workers_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            ExecutionPolicy(workers=2)

    def test_frozen_and_hashable(self):
        policy = ExecutionPolicy(engine="naive", optimize=False)
        with pytest.raises(Exception):
            policy.engine = "naive"
        assert policy in {policy}

    def test_of_coercions(self):
        assert ExecutionPolicy.of(None) == ExecutionPolicy()
        assert ExecutionPolicy.of("naive").engine == "naive"
        policy = ExecutionPolicy(optimize=False)
        assert ExecutionPolicy.of(policy) is policy

    def test_of_rejects_other_types(self):
        with pytest.raises(JeddError, match="ExecutionPolicy"):
            ExecutionPolicy.of(42)

    def test_with_options(self):
        base = ExecutionPolicy()
        derived = base.with_options(engine="naive", optimize=False)
        assert derived.engine == "naive"
        assert derived.optimize is False
        assert base.engine == "seminaive"

    def test_str_forms(self):
        assert str(ExecutionPolicy()) == "seminaive"
        assert str(ExecutionPolicy(engine="naive")) == "naive"
        assert "unoptimized" in str(ExecutionPolicy(optimize=False))

    def test_engine_names_documented(self):
        assert set(POLICY_ENGINES) == {"seminaive", "naive"}


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
        assert pta.engine == "seminaive"
        assert pta.solve().size() > 0

    # The engine= keyword each analysis used to take is gone; the engine
    # now comes only from the policy (or its engine-name shorthand).
    def test_pointsto_legacy_engine_warns(self, au):
        with pytest.raises(TypeError, match="engine"):
            PointsTo(au, engine="naive")
        assert PointsTo(au, policy="naive").policy.engine == "naive"

    def test_vcall_legacy_engine_warns(self, au):
        with pytest.raises(TypeError, match="engine"):
            VirtualCallResolver(au, engine="naive")
        resolver = VirtualCallResolver(au, policy="naive")
        assert resolver.policy.engine == "naive"

    def test_callgraph_legacy_engine_warns(self, au):
        pt = PointsTo(au).solve()
        with pytest.raises(TypeError, match="engine"):
            CallGraph(au, pt, engine="seminaive")
        assert CallGraph(au, pt, "seminaive").policy.engine == "seminaive"

    def test_sideeffects_legacy_engine_warns(self, au):
        pt = PointsTo(au).solve()
        edges = CallGraph(au, pt).build()
        with pytest.raises(TypeError, match="engine"):
            SideEffects(au, pt, edges, engine="seminaive")
        se = SideEffects(au, pt, edges, "seminaive")
        assert se.policy.engine == "seminaive"

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
