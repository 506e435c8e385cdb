"""Unit tests for the semi-naive fixed-point engine."""

import pytest

from repro import telemetry
from repro.relations import (
    FixpointEngine,
    JeddError,
    Relation,
    open_universe,
)


def node_universe(backend):
    return open_universe(
        backend=backend,
        domains={"Node": 16},
        attributes={"src": "Node", "dst": "Node"},
        physdoms={"N1": 4, "N2": 4, "N3": 4},
    )


@pytest.fixture(params=["bdd", "zdd"])
def u(request):
    return node_universe(request.param)


EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 5), (2, 7)]


def closure_oracle(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def tuples_of(rel, *attrs):
    names = rel.schema.names()
    idx = [names.index(a) for a in attrs]
    return {tuple(t[i] for i in idx) for t in rel.tuples()}


class TestTransitiveClosure:
    def test_closure_matches_oracle(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        eng.rule(
            "path",
            ("a", "c"),
            [("path", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
        )
        path = eng.solve()["path"]
        assert tuples_of(path, "src", "dst") == closure_oracle(EDGES)
        assert eng.iterations >= 2
        assert eng.rule_evaluations >= eng.iterations

    def test_solution_also_on_engine(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        eng.rule(
            "path",
            ("a", "c"),
            [("path", ("a", "b")), ("edge", ("b", "c"))],
        )
        solution = eng.solve()
        assert tuples_of(eng["path"], "src", "dst") == tuples_of(
            solution["path"], "src", "dst"
        )
        assert tuples_of(eng["edge"], "src", "dst") == set(EDGES)

    def test_empty_seed_empty_rules(self, u):
        empty = u.empty(["src", "dst"], ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", empty)
        eng.relation("path", empty)
        eng.rule("path", ("a", "c"), [("path", ("a", "b")), ("edge", ("b", "c"))])
        assert eng.solve()["path"].is_empty()
        assert eng.iterations == 0


class TestRuleForms:
    def test_dict_vars_ignore_attribute_order(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        # Same rule as above, but every atom in mapping form.
        eng.rule(
            "path",
            {"src": "a", "dst": "c"},
            [
                ("path", {"dst": "b", "src": "a"}),
                ("edge", {"src": "b", "dst": "c"}),
            ],
        )
        path = eng.solve()["path"]
        assert tuples_of(path, "src", "dst") == closure_oracle(EDGES)

    def test_dict_vars_must_cover_schema(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        with pytest.raises(JeddError, match="cover exactly"):
            eng.rule("path", {"src": "a"}, [("edge", ("a", "b"))])

    def test_static_rule_evaluated_once(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        two_step = u.empty(["src", "dst"], ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("pairs", two_step)
        # No recursive atom in the body: contributes once, before the loop.
        eng.rule(
            "pairs",
            ("a", "c"),
            [("edge", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
        )
        pairs = eng.solve()["pairs"]
        expected = {
            (a, d) for a, b in EDGES for c, d in EDGES if b == c
        }
        assert tuples_of(pairs, "src", "dst") == expected
        assert eng.iterations == 1  # one round to discover the delta is final

    def test_filter_restricts_solution(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        small = u.relation_of(
            ["src", "dst"],
            [(a, b) for a in range(8) for b in range(4)],
            ["N1", "N2"],
        )
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        eng.filter("path", small)
        eng.rule("path", ("a", "c"), [("path", ("a", "b")), ("edge", ("b", "c"))])
        path = eng.solve()["path"]
        got = tuples_of(path, "src", "dst")
        assert got <= {(a, b) for a in range(8) for b in range(4)}
        # The filter also prunes *intermediate* tuples, so the result is
        # the fixed point of the filtered step, not the filtered closure.
        assert got
        full = closure_oracle(EDGES)
        assert got <= full

    def test_negation_subtracts_fact(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        blocked = u.relation_of(["src", "dst"], [(0, 3)], ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.fact("blocked", blocked)
        eng.relation("path", edge)
        eng.rule(
            "path",
            ("a", "c"),
            [
                ("path", ("a", "b")),
                ("edge", {"src": "b", "dst": "c"}),
                ("!blocked", ("a", "c")),
            ],
        )
        path = eng.solve()["path"]
        got = tuples_of(path, "src", "dst")
        assert (0, 3) not in got
        assert got < closure_oracle(EDGES)

    def test_negation_requires_fact(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        with pytest.raises(JeddError, match="static fact"):
            eng.rule(
                "path",
                ("a", "c"),
                [("edge", ("a", "c")), ("!path", ("a", "c"))],
            )

    def test_negated_vars_must_be_bound(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        with pytest.raises(JeddError, match="not bound"):
            eng.rule(
                "path",
                ("a", "b"),
                [("path", ("a", "b")), ("!edge", ("x", "y"))],
            )

    def test_head_vars_must_be_bound(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        with pytest.raises(JeddError, match="not bound"):
            eng.rule("path", ("a", "z"), [("path", ("a", "b"))])

    def test_repeated_variable_rejected(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        with pytest.raises(JeddError, match="repeated variable"):
            eng.rule("path", ("a", "a"), [("edge", ("a", "b"))])

    def test_duplicate_registration_rejected(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        with pytest.raises(JeddError, match="already registered"):
            eng.relation("edge", edge)

    def test_unknown_head_rejected(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        with pytest.raises(JeddError, match="not a recursive relation"):
            eng.rule("edge", ("a", "b"), [("edge", ("a", "b"))])

    def test_foreign_universe_rejected(self, u):
        other = node_universe("bdd")
        edge = other.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        with pytest.raises(JeddError, match="different universe"):
            eng.fact("edge", edge)


class TestMutualRecursion:
    def test_even_odd_paths(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        empty = u.empty(["src", "dst"], ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("odd", edge)
        eng.relation("even", empty)
        eng.rule(
            "even",
            ("a", "c"),
            [("odd", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
        )
        eng.rule(
            "odd",
            ("a", "c"),
            [("even", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
        )
        sol = eng.solve()

        # Oracle: paths of odd/even length >= 1 via BFS over lengths.
        def paths_of_parity():
            odd, even = set(EDGES), set()
            frontier_odd, frontier_even = set(EDGES), set()
            changed = True
            while changed:
                changed = False
                nxt_even = {
                    (a, d)
                    for (a, b) in frontier_odd
                    for (c, d) in EDGES
                    if b == c
                } - even
                nxt_odd = {
                    (a, d)
                    for (a, b) in frontier_even
                    for (c, d) in EDGES
                    if b == c
                } - odd
                if nxt_even or nxt_odd:
                    changed = True
                even |= nxt_even
                odd |= nxt_odd
                frontier_odd, frontier_even = nxt_odd, nxt_even
            return odd, even

        odd, even = paths_of_parity()
        assert tuples_of(sol["odd"], "src", "dst") == odd
        assert tuples_of(sol["even"], "src", "dst") == even


class TestTelemetry:
    def test_solve_emits_fixpoint_spans(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        tel = telemetry.enable()
        try:
            eng = FixpointEngine(u)
            eng.fact("edge", edge)
            eng.relation("path", edge)
            eng.rule(
                "path",
                ("a", "c"),
                [("path", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
            )
            eng.solve()
            spans = list(tel.tracer.spans)
        finally:
            telemetry.disable()
        names = [s.name for s in spans]
        assert "fixpoint.solve" in names
        iteration_spans = [s for s in spans if s.name == "fixpoint.iteration"]
        assert len(iteration_spans) == eng.iterations
        assert all("delta_path" in s.args for s in iteration_spans)
        rule_spans = [s for s in spans if s.name == "fixpoint.rule"]
        assert len(rule_spans) == eng.rule_evaluations

    def test_rule_spans_keep_delta_beside_kernel_deltas(self, u):
        """Kernel-counter deltas must not overwrite a rule span's own
        ``delta`` argument (the name of the delta relation it joins)."""
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        tel = telemetry.enable()
        try:
            tel.instrument_universe(u)
            eng = FixpointEngine(u)
            eng.fact("edge", edge)
            eng.relation("path", edge)
            eng.rule(
                "path",
                ("a", "c"),
                [("path", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
            )
            eng.solve()
            spans = list(tel.tracer.spans)
        finally:
            telemetry.disable()
        rule_spans = [
            s for s in spans
            if s.name == "fixpoint.rule" and s.args["iteration"] >= 1
        ]
        assert rule_spans
        assert all(s.args["delta"] == "path" for s in rule_spans)
        kdeltas = [s.args["kdelta"] for s in rule_spans if "kdelta" in s.args]
        assert kdeltas
        # Per-op attribution: the rule's kernel work is split by op tag.
        assert any(
            any(".apply_cache.misses{op=" in key for key in kd)
            for kd in kdeltas
        )

    def test_intermediates_are_disposed(self, u):
        edge = u.relation_of(["src", "dst"], EDGES, ["N1", "N2"])
        eng = FixpointEngine(u)
        eng.fact("edge", edge)
        eng.relation("path", edge)
        eng.rule(
            "path",
            ("a", "c"),
            [("path", ("a", "b")), ("edge", {"src": "b", "dst": "c"})],
        )
        path = eng.solve()["path"]
        # The iteration scopes must not dispose the solution relations.
        assert not path.disposed
        assert tuples_of(path, "src", "dst") == closure_oracle(EDGES)
