"""Property-based tests for the vectorized arena kernel.

Hypothesis drives the arena kernel (:mod:`repro.bdd.arena`) and the
reference kernel through the same operations and asserts they land on
the same canonical diagrams.  Because reduced ordered BDDs are
canonical and both kernels hash-cons, "same function" is checkable as
*node-table equality* via the serialized wire bytes -- a far stronger
oracle than sampling assignments.

Covered here:

- unique-table semantics: ``mk`` / ``mk_many`` idempotence;
- frontier-batched ``apply`` (both the scalar and vector bucket paths)
  against the reference recursion on random operand forests;
- ``exist`` over random variable sets;
- wire round-trips reference -> arena -> reference;
- the deep-manager regime (``num_vars > _RECURSION_SAFE_VARS``) where
  every operation must take the breadth-first path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDManager
from repro.bdd.arena import _RECURSION_SAFE_VARS, ArenaBDDManager
from repro.bdd.io import dumps_diagram_binary, loads_diagram_binary

N_VARS = 6


# ----------------------------------------------------------------------
# Building the same forest on both kernels
# ----------------------------------------------------------------------

exprs = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=N_VARS - 1).map(lambda v: ("var", v)),
        st.sampled_from([("const", False), ("const", True)]),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["and", "or", "diff", "xor"]), sub, sub),
        st.tuples(st.just("not"), sub),
    ),
    max_leaves=16,
)


def build(m, expr):
    tag = expr[0]
    if tag == "var":
        return m.var(expr[1])
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return m.apply_not(build(m, expr[1]))
    a = build(m, expr[1])
    b = build(m, expr[2])
    return {
        "and": m.apply_and,
        "or": m.apply_or,
        "diff": m.apply_diff,
        "xor": m.apply_xor,
    }[tag](a, b)


def assert_same_diagram(m_ref, n_ref, m_arena, n_arena):
    assert dumps_diagram_binary(m_ref, n_ref) == dumps_diagram_binary(
        m_arena, n_arena
    )


@settings(deadline=None, max_examples=60)
@given(expr=exprs)
def test_apply_matches_reference(expr):
    m_ref = BDDManager(num_vars=N_VARS)
    m_arena = ArenaBDDManager(num_vars=N_VARS)
    assert_same_diagram(m_ref, build(m_ref, expr), m_arena, build(m_arena, expr))


@settings(deadline=None, max_examples=60)
@given(
    exprs_=st.lists(exprs, min_size=1, max_size=8),
    vs=st.sets(st.integers(min_value=0, max_value=N_VARS - 1), min_size=1),
)
def test_exist_matches_reference(exprs_, vs):
    m_ref = BDDManager(num_vars=N_VARS)
    m_arena = ArenaBDDManager(num_vars=N_VARS)
    for expr in exprs_:
        r = m_ref.exist(build(m_ref, expr), vs)
        a = m_arena.exist(build(m_arena, expr), vs)
        assert_same_diagram(m_ref, r, m_arena, a)


@settings(deadline=None, max_examples=40)
@given(
    e1=exprs,
    e2=exprs,
    vs=st.sets(st.integers(min_value=0, max_value=N_VARS - 1), min_size=1),
)
def test_and_exist_matches_reference(e1, e2, vs):
    m_ref = BDDManager(num_vars=N_VARS)
    m_arena = ArenaBDDManager(num_vars=N_VARS)
    r = m_ref.and_exist(build(m_ref, e1), build(m_ref, e2), vs)
    a = m_arena.and_exist(build(m_arena, e1), build(m_arena, e2), vs)
    assert_same_diagram(m_ref, r, m_arena, a)


@settings(deadline=None, max_examples=40)
@given(expr=exprs, data=st.data())
def test_replace_matches_reference(expr, data):
    m_ref = BDDManager(num_vars=N_VARS)
    m_arena = ArenaBDDManager(num_vars=N_VARS)
    n_ref = build(m_ref, expr)
    n_arena = build(m_arena, expr)
    support = sorted(m_ref.support(n_ref))
    if not support:
        return
    # An injective move of the support onto fresh target variables
    # (possibly crossing other support variables: the non-monotone case
    # that exercises the fused variable-insertion path).
    targets = data.draw(
        st.permutations(range(N_VARS)).map(lambda p: p[: len(support)])
    )
    perm = dict(zip(support, targets))
    if sorted(perm.values()) != sorted(set(perm.values())):
        return
    r = m_ref.replace(n_ref, perm)
    a = m_arena.replace(n_arena, perm)
    assert_same_diagram(m_ref, r, m_arena, a)


# ----------------------------------------------------------------------
# Batch entry points (mk_many / _apply_many) against scalar truth
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(
    pairs=st.lists(st.tuples(exprs, exprs), min_size=1, max_size=64),
    op=st.sampled_from(["and", "or", "diff", "xor"]),
)
def test_apply_many_matches_scalar(pairs, op):
    """The wide batch path equals per-pair scalar application."""
    from repro.bdd.manager import _OP_AND, _OP_DIFF, _OP_OR, _OP_XOR

    opc = {"and": _OP_AND, "or": _OP_OR, "diff": _OP_DIFF, "xor": _OP_XOR}[op]
    m = ArenaBDDManager(num_vars=N_VARS, vector_threshold=2)
    A = np.array([build(m, a) for a, _ in pairs], dtype=np.int64)
    B = np.array([build(m, b) for _, b in pairs], dtype=np.int64)
    batch = m._apply_many(opc, A, B)
    fn = {
        "and": m.apply_and, "or": m.apply_or,
        "diff": m.apply_diff, "xor": m.apply_xor,
    }[op]
    for a, b, got in zip(A.tolist(), B.tolist(), batch.tolist()):
        assert got == fn(a, b)


@settings(deadline=None, max_examples=40)
@given(
    triples=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_VARS - 1),
            st.sampled_from([FALSE, TRUE]),
            st.sampled_from([FALSE, TRUE]),
        ),
        min_size=1,
        max_size=32,
    )
)
def test_mk_many_idempotent(triples):
    """mk_many agrees with mk and re-running returns identical ids."""
    m = ArenaBDDManager(num_vars=N_VARS)
    level = min(t[0] for t in triples)
    lo = np.array([t[1] for t in triples], dtype=np.int64)
    hi = np.array([t[2] for t in triples], dtype=np.int64)
    first = m.mk_many(level, lo, hi)
    again = m.mk_many(level, lo, hi)
    assert first.tolist() == again.tolist()
    for l, h, got in zip(lo.tolist(), hi.tolist(), first.tolist()):
        assert got == m.mk(level, l, h)


# ----------------------------------------------------------------------
# Wire round-trips
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(expr=exprs)
def test_wire_roundtrip_reference_arena_reference(expr):
    """reference -> arena -> reference preserves the node table."""
    m_ref = BDDManager(num_vars=N_VARS)
    n_ref = build(m_ref, expr)
    wire = dumps_diagram_binary(m_ref, n_ref)
    m_arena = ArenaBDDManager(num_vars=N_VARS)
    n_arena = loads_diagram_binary(m_arena, wire)
    wire2 = dumps_diagram_binary(m_arena, n_arena)
    m_back = BDDManager(num_vars=N_VARS)
    n_back = loads_diagram_binary(m_back, wire2)
    assert dumps_diagram_binary(m_back, n_back) == wire


# ----------------------------------------------------------------------
# Deep managers: recursion is unsafe, every path must go breadth-first
# ----------------------------------------------------------------------

DEEP_VARS = _RECURSION_SAFE_VARS + 50


@settings(deadline=None, max_examples=15)
@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1),
        min_size=1,
        max_size=3,
    )
)
def test_deep_manager_matches_reference(seeds):
    """num_vars beyond the recursion gate: BFS-only arena vs reference."""
    import random

    m_ref = BDDManager(num_vars=DEEP_VARS)
    m_arena = ArenaBDDManager(num_vars=DEEP_VARS)
    for seed in seeds:
        rng = random.Random(seed)
        chosen = rng.sample(range(DEEP_VARS), 40)
        cube = {v: rng.random() < 0.5 for v in chosen}
        a_ref = m_ref.cube(cube)
        a_arena = m_arena.cube(cube)
        chosen2 = rng.sample(range(DEEP_VARS), 40)
        cube2 = {v: rng.random() < 0.5 for v in chosen2}
        b_ref = m_ref.cube(cube2)
        b_arena = m_arena.cube(cube2)
        o_ref = m_ref.apply_or(a_ref, b_ref)
        o_arena = m_arena.apply_or(a_arena, b_arena)
        assert_same_diagram(m_ref, o_ref, m_arena, o_arena)
        evs = rng.sample(chosen, 10)
        assert_same_diagram(
            m_ref,
            m_ref.exist(o_ref, evs),
            m_arena,
            m_arena.exist(o_arena, evs),
        )
