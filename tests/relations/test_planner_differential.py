"""Differential suite: the planner never changes what is computed.

For randomized inputs (seeded via hypothesis), an optimized plan —
conjuncts reordered, quantification pushed early — must produce exactly
the relation the unoptimized left-to-right order produces, on both
diagram backends and through both execution paths (direct IR
evaluation and the semi-naive fixpoint engine).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relations import (
    ExecutionPolicy,
    FixpointEngine,
    Relation,
    Universe,
    ir,
    open_universe,
)

OBJECTS = ["o0", "o1", "o2", "o3", "o4", "o5"]
ATTRS = ["a", "b", "c", "d"]
BACKENDS = ["bdd", "zdd"]


def make_universe(backend):
    u = Universe(backend=backend)
    d = u.domain("D", len(OBJECTS))
    for obj in OBJECTS:
        d.intern(obj)
    for name in ATTRS:
        u.attribute(name, d)
    for i in range(len(ATTRS)):
        u.physical_domain(f"P{i + 1}", d.bits)
    u.finalize()
    return u


# -- random products over random relations ------------------------------

parts_strategy = st.lists(
    st.tuples(
        # each part: a non-empty attribute subset and a set of rows
        st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3),
        st.sets(
            st.tuples(*[st.sampled_from(OBJECTS)] * 3), max_size=8
        ),
    ),
    min_size=2,
    max_size=4,
)


def normalized(rel):
    """Tuples in sorted-attribute-name column order: the planner may
    legally change the presentational column order of the result."""
    names = rel.schema.names()
    idx = [names.index(a) for a in sorted(names)]
    return {tuple(t[i] for i in idx) for t in rel.tuples()}


def build_parts(u, drawn):
    """Bind each drawn (attrs, rows) pair to a relation; rows are
    truncated to the attribute count.  Attribute i always lives in
    physical domain i+1 so every natural join is well-placed."""
    env = {}
    leaves = []
    for i, (attrs, rows3) in enumerate(drawn):
        attrs = sorted(attrs)
        rows = {row[: len(attrs)] for row in rows3}
        pds = [f"P{ATTRS.index(a) + 1}" for a in attrs]
        env[f"r{i}"] = Relation.from_tuples(u, attrs, rows, pds)
        leaves.append(ir.leaf(f"r{i}", attrs))
    return env, leaves


@pytest.mark.parametrize("backend", BACKENDS)
class TestProductDifferential:
    @given(drawn=parts_strategy, quantify_bits=st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_optimized_equals_unoptimized(
        self, backend, drawn, quantify_bits
    ):
        u = make_universe(backend)
        env, leaves = build_parts(u, drawn)
        produced = sorted(set().union(*(l.attrs for l in leaves)))
        quantify = [
            a
            for bit, a in enumerate(produced)
            if quantify_bits & (1 << bit)
        ]
        node = ir.Product(leaves, quantify)
        optimized = node.evaluate(env, u, ir.Planner(optimize=True))
        baseline = node.evaluate(env, u, ir.Planner(optimize=False))
        assert normalized(optimized) == normalized(baseline)
        assert optimized.schema.name_set() == baseline.schema.name_set()


# -- random fixpoint rule bodies ----------------------------------------

VARS = ["x", "y", "z", "w"]


@st.composite
def rule_programs(draw):
    n_atoms = draw(st.integers(2, 4))
    atoms = []
    for _ in range(n_atoms):
        name = draw(st.sampled_from(["edge", "path"]))
        v1 = draw(st.sampled_from(VARS))
        v2 = draw(st.sampled_from([v for v in VARS if v != v1]))
        atoms.append((name, (v1, v2)))
    body_vars = sorted({v for _, vs in atoms for v in vs})
    h1 = draw(st.sampled_from(body_vars))
    rest = [v for v in body_vars if v != h1] or [h1]
    h2 = draw(st.sampled_from(rest))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10
        )
    )
    return atoms, (h1, h2), edges


def solve(atoms, head, edges, backend, optimize):
    u = open_universe(
        backend=backend,
        domains={"Node": 16},
        attributes={"src": "Node", "dst": "Node"},
        physdoms={"N1": 4, "N2": 4, "N3": 4},
    )
    edge = u.relation_of(["src", "dst"], edges, ["N1", "N2"])
    eng = FixpointEngine(u, ExecutionPolicy(optimize=optimize))
    eng.fact("edge", edge)
    eng.relation("path", edge)
    eng.rule("path", head, list(atoms))
    result = eng.solve()["path"]
    return set(result.tuples())


@pytest.mark.parametrize("backend", BACKENDS)
class TestRuleDifferential:
    @given(program=rule_programs())
    @settings(max_examples=25, deadline=None)
    def test_planned_rule_equals_left_to_right(self, backend, program):
        atoms, head, edges = program
        planned = solve(atoms, head, edges, backend, optimize=True)
        baseline = solve(atoms, head, edges, backend, optimize=False)
        assert planned == baseline

