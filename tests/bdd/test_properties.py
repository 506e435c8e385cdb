"""Property-based tests: BDD operations against explicit set semantics.

Random boolean expressions over a small variable set are evaluated both
through the BDD engine and by brute force over all assignments; the two
must always agree.  This is the deep correctness check for the substrate
everything else in the reproduction stands on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDError, BDDManager

N_VARS = 5


# ----------------------------------------------------------------------
# A tiny expression language interpreted two ways.
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
    max_leaves=12,
)


def build_bdd(m, expr):
    tag = expr[0]
    if tag == "var":
        return m.var(expr[1])
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return m.apply_not(build_bdd(m, expr[1]))
    a = build_bdd(m, expr[1])
    b = build_bdd(m, expr[2])
    op = {
        "and": m.apply_and,
        "or": m.apply_or,
        "diff": m.apply_diff,
        "xor": m.apply_xor,
    }[tag]
    return op(a, b)


def eval_expr(expr, bits):
    tag = expr[0]
    if tag == "var":
        return bool(bits >> expr[1] & 1)
    if tag == "const":
        return expr[1]
    if tag == "not":
        return not eval_expr(expr[1], bits)
    a = eval_expr(expr[1], bits)
    b = eval_expr(expr[2], bits)
    return {
        "and": a and b,
        "or": a or b,
        "diff": a and not b,
        "xor": a != b,
    }[tag]


def truth_set(expr):
    return {bits for bits in range(2**N_VARS) if eval_expr(expr, bits)}


def bdd_truth_set(m, node):
    return {
        bits
        for bits in range(2**N_VARS)
        if m.eval(node, lambda lv: bool(bits >> lv & 1))
    }


@pytest.fixture
def m():
    return BDDManager(N_VARS)


@given(expr=exprs)
@settings(max_examples=150, deadline=None)
def test_expression_semantics(expr):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    assert bdd_truth_set(m, node) == truth_set(expr)


@given(expr=exprs)
@settings(max_examples=100, deadline=None)
def test_sat_count_matches_truth_set(expr):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    assert m.sat_count(node) == len(truth_set(expr))


@given(expr=exprs)
@settings(max_examples=100, deadline=None)
def test_to_keys_matches_truth_set(expr):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    keys = m.to_keys(node, range(N_VARS))
    assert len(keys) == len(set(keys))
    assert set(keys) == truth_set(expr)


@given(
    expr=exprs,
    level_sets=st.lists(
        st.sets(st.integers(0, N_VARS - 1)), min_size=1, max_size=4
    ),
    cache_limit=st.sampled_from([None, 1, 3]),
)
@settings(max_examples=100, deadline=None)
def test_sat_count_matches_to_keys(expr, level_sets, cache_limit):
    """Counts kept across calls over several level sets agree with the
    enumeration over each set; a set that misses part of the support
    makes both raise."""
    m = BDDManager(N_VARS, cache_limit=cache_limit)
    node = build_bdd(m, expr)
    support = m.support(node)
    for levels in level_sets + [set(range(N_VARS))]:
        variables = sorted(levels, reverse=True)
        if support <= levels:
            keys = m.to_keys(node, variables)
            assert m.sat_count(node, variables) == len(keys)
        else:
            with pytest.raises(BDDError):
                m.to_keys(node, variables)
            with pytest.raises(BDDError):
                m.sat_count(node, variables)
    assert m.sat_count(node) == len(truth_set(expr))


@given(expr=exprs, levels=st.sets(st.integers(0, N_VARS - 1)))
@settings(max_examples=100, deadline=None)
def test_exist_semantics(expr, levels):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    quantified = m.exist(node, levels)
    base = truth_set(expr)
    mask = sum(1 << lv for lv in levels)
    # bits satisfies exist(f) iff some variation over `levels` satisfies f.
    expected = set()
    for bits in range(2**N_VARS):
        rest = bits & ~mask
        if any((rest | (sub & mask)) in base for sub in range(2**N_VARS)):
            expected.add(bits)
    assert bdd_truth_set(m, quantified) == expected


@given(expr1=exprs, expr2=exprs, levels=st.sets(st.integers(0, N_VARS - 1)))
@settings(max_examples=100, deadline=None)
def test_and_exist_is_exist_of_and(expr1, expr2, levels):
    m = BDDManager(N_VARS)
    a = build_bdd(m, expr1)
    b = build_bdd(m, expr2)
    assert m.and_exist(a, b, levels) == m.exist(m.apply_and(a, b), levels)


@given(expr=exprs, data=st.data())
@settings(max_examples=100, deadline=None)
def test_replace_permutation_semantics(expr, data):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    perm_targets = data.draw(
        st.permutations(list(range(N_VARS))), label="perm"
    )
    perm = dict(zip(range(N_VARS), perm_targets))
    renamed = build_bdd_renamed(m, expr, perm)
    assert m.replace(node, perm) == renamed


def build_bdd_renamed(m, expr, perm):
    tag = expr[0]
    if tag == "var":
        return m.var(perm[expr[1]])
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return m.apply_not(build_bdd_renamed(m, expr[1], perm))
    a = build_bdd_renamed(m, expr[1], perm)
    b = build_bdd_renamed(m, expr[2], perm)
    op = {
        "and": m.apply_and,
        "or": m.apply_or,
        "diff": m.apply_diff,
        "xor": m.apply_xor,
    }[tag]
    return op(a, b)


@given(expr=exprs)
@settings(max_examples=80, deadline=None)
def test_canonicity_via_double_negation_and_demorgan(expr):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    assert m.apply_not(m.apply_not(node)) == node
    other = build_bdd(m, expr)
    assert other == node  # rebuilding yields the identical node


@given(expr1=exprs, expr2=exprs)
@settings(max_examples=80, deadline=None)
def test_demorgan(expr1, expr2):
    m = BDDManager(N_VARS)
    a = build_bdd(m, expr1)
    b = build_bdd(m, expr2)
    assert m.apply_not(m.apply_and(a, b)) == m.apply_or(
        m.apply_not(a), m.apply_not(b)
    )


@given(expr=exprs, bits=st.integers(min_value=0, max_value=2**N_VARS - 1))
@settings(max_examples=80, deadline=None)
def test_restrict_semantics(expr, bits):
    m = BDDManager(N_VARS)
    node = build_bdd(m, expr)
    assignment = {lv: bool(bits >> lv & 1) for lv in range(N_VARS)}
    restricted = m.restrict(node, assignment)
    expected = TRUE if eval_expr(expr, bits) else FALSE
    assert restricted == expected


@given(expr=exprs)
@settings(max_examples=60, deadline=None)
def test_gc_preserves_referenced_roots(expr):
    m = BDDManager(N_VARS)
    node = m.ref(build_bdd(m, expr))
    before = bdd_truth_set(m, node)
    m.gc()
    assert bdd_truth_set(m, node) == before
    # Rebuilding after GC reproduces the identical canonical node.
    assert build_bdd(m, expr) == node


@given(expr1=exprs, expr2=exprs)
@settings(max_examples=100, deadline=None)
def test_simplify_property(expr1, expr2):
    """simplify(f, care) must agree with f everywhere care holds."""
    m = BDDManager(N_VARS)
    f = build_bdd(m, expr1)
    care = build_bdd(m, expr2)
    g = m.simplify(f, care)
    assert m.apply_and(g, care) == m.apply_and(f, care)
