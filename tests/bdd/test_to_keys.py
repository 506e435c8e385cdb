"""``to_keys`` on every kernel: the inverse of ``from_keys``.

Each kernel enumerates a random diagram as integer keys, with the
requested variables out of level order and some of them wildcards, and
the result must be the brute-force truth set: every assignment of the
requested variables the diagram maps to something other than 0.  The
edge cases (``FALSE``, ``TRUE``, uncovered support) run on every kernel
too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    FALSE,
    TRUE,
    BDDError,
    BDDManager,
    MTBDDManager,
    OocBDDManager,
    ZDDManager,
)
from repro.bdd.zdd import BASE, EMPTY

N_VARS = 8

KERNELS = ["reference", "ooc", "mtbdd", "mtbdd-numeric", "zdd"]


def _manager(kernel):
    return {
        "reference": BDDManager,
        "ooc": OocBDDManager,
        "mtbdd": MTBDDManager,
        "mtbdd-numeric": MTBDDManager,
        "zdd": ZDDManager,
    }[kernel](N_VARS)


def _expand(keys, wild):
    """Every key with each bit of ``wild`` set both ways."""
    out = {k & ~wild for k in keys}
    bit = 1
    while bit <= wild:
        if wild & bit:
            out |= {k | bit for k in out}
        bit <<= 1
    return out


@st.composite
def diagrams(draw):
    """(variables, keys, wildcard mask, leaf value per key)."""
    n = draw(st.integers(1, 6))
    variables = draw(st.permutations(range(N_VARS)))[:n]
    keys = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
    wild = draw(st.integers(0, (1 << n) - 1))
    values = draw(
        st.lists(st.sampled_from([0, 1, 2, 3.5]), min_size=1, max_size=4)
    )
    return variables, keys, wild, values


def _build(m, kernel, variables, keys, values):
    """The diagram of ``keys`` and its truth set: the keys it maps to a
    non-zero value (every key, except on the numeric MTBDD lane)."""
    keys = sorted(keys)
    if kernel != "mtbdd-numeric":
        return m.from_keys(variables, keys), set(keys)
    weights = [values[k % len(values)] for k in keys]
    node = m.from_keys(variables, keys, [m.terminal(w) for w in weights])
    return node, {k for k, w in zip(keys, weights) if w != 0}


def _brute_force(m, kernel, node, variables):
    """Evaluate ``node`` on every assignment of ``variables`` (BDD
    kernels only; the ZDD lane's truth set is its construction)."""
    out = set()
    for key in range(1 << len(variables)):
        assignment = {v: bool(key >> p & 1) for p, v in enumerate(variables)}
        if kernel.startswith("mtbdd"):
            hit = m.evaluate(node, assignment) != 0
        else:
            hit = m.eval(node, lambda v: assignment.get(v, False))
        if hit:
            out.add(key)
    return out


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=diagrams())
@settings(max_examples=60, deadline=None)
def test_to_keys_matches_truth_set(kernel, case):
    variables, keys, wild, values = case
    m = _manager(kernel)
    node, truth = _build(m, kernel, variables, _expand(keys, wild), values)
    got = m.to_keys(node, variables)
    assert len(got) == len(set(got))
    assert set(got) == truth
    if kernel != "zdd":
        assert truth == _brute_force(m, kernel, node, variables)
    # Asking for the variables in another order permutes each key.
    flipped = variables[::-1]
    n = len(variables)
    assert {
        sum(1 << (n - 1 - p) for p in range(n) if k >> p & 1) for k in truth
    } == set(m.to_keys(node, flipped))


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=diagrams(), extra=st.sets(st.integers(0, N_VARS - 1)))
@settings(max_examples=40, deadline=None)
def test_untested_variables_are_wildcards(kernel, case, extra):
    """Requested variables the diagram never tests double the output
    (on the ZDD lane they read 0 instead)."""
    variables, keys, wild, values = case
    m = _manager(kernel)
    node, truth = _build(m, kernel, variables, _expand(keys, wild), values)
    more = [v for v in sorted(extra) if v not in variables]
    got = m.to_keys(node, more + list(variables))
    shift = len(more)
    if kernel == "zdd":
        assert sorted(got) == sorted(k << shift for k in truth)
    else:
        assert sorted(got) == sorted(
            k << shift | w for k in truth for w in range(1 << shift)
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_false_gives_no_keys(kernel):
    m = _manager(kernel)
    zero = EMPTY if kernel == "zdd" else FALSE
    assert m.to_keys(zero, [5, 1, 3]) == []


@pytest.mark.parametrize("kernel", [k for k in KERNELS if k != "zdd"])
def test_true_gives_every_key(kernel):
    m = _manager(kernel)
    assert sorted(m.to_keys(TRUE, [6, 0, 3, 2])) == list(range(16))


def test_zdd_base_gives_the_zero_key():
    m = ZDDManager(N_VARS)
    assert m.to_keys(BASE, [6, 0, 3, 2]) == [0]
    assert sorted(m.to_keys(m.dontcare(BASE, [6, 3]), [6, 0, 3, 2])) == [
        0b0000, 0b0001, 0b0100, 0b0101,
    ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_uncovered_support_raises(kernel):
    m = _manager(kernel)
    # 5 sits only below 3, an uncovered node: every uncovered level is
    # named, not just the first the walk meets.
    node = m.from_keys([0, 3, 5], [0b001, 0b111])
    with pytest.raises(BDDError, match=r"\[3, 5\]"):
        m.to_keys(node, [0, 1])


@pytest.mark.parametrize("kernel", KERNELS)
def test_repeated_variables_rejected(kernel):
    m = _manager(kernel)
    node = m.from_keys([0, 3], [0b01])
    with pytest.raises(BDDError, match="repeated"):
        m.to_keys(node, [0, 3, 0])


@pytest.mark.parametrize("kernel", KERNELS)
def test_to_keys_creates_no_nodes(kernel):
    m = _manager(kernel)
    node = m.from_keys([4, 1, 6], [0b000, 0b011, 0b110])
    created = m.stats.nodes_created
    m.to_keys(node, [1, 6, 4, 2])
    assert m.stats.nodes_created == created
