"""Property tests for ``replace`` on the reference and ooc kernels.

Each kernel rebuilds a node with ``mk`` when the target level lies above
both rebuilt children and falls back to an if-then-else recomposition
otherwise.  Hypothesis draws random diagrams and two kinds of injective
permutation:

- *order-preserving*: sorted sources map to sorted targets, so most
  nodes take the ``mk`` path;
- *order-changing*: any injective map, so nodes must sink below their
  rebuilt children through the fallback.

The oracle is independent of ``replace``: the same expression built
with every variable substituted by its image.  Every kernel must land on
that canonical diagram, byte for byte on the wire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDManager
from repro.bdd.io import dumps_diagram_binary
from repro.bdd.ooc import OocBDDManager

N_VARS = 7

KERNELS = (BDDManager, OocBDDManager)

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


def build(m, expr, perm=None):
    """The diagram of ``expr``, with variable ``v`` read as
    ``perm.get(v, v)`` when a substitution is given."""
    tag = expr[0]
    if tag == "var":
        return m.var(expr[1] if perm is None else perm.get(expr[1], expr[1]))
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return m.apply_not(build(m, expr[1], perm))
    a = build(m, expr[1], perm)
    b = build(m, expr[2], perm)
    return {
        "and": m.apply_and,
        "or": m.apply_or,
        "diff": m.apply_diff,
        "xor": m.apply_xor,
    }[tag](a, b)


@st.composite
def order_preserving(draw):
    """Sorted sources onto sorted targets: ``a < b`` implies
    ``perm[a] < perm[b]``."""
    k = draw(st.integers(min_value=1, max_value=N_VARS))
    variables = st.lists(
        st.integers(min_value=0, max_value=N_VARS - 1),
        min_size=k, max_size=k, unique=True,
    )
    sources = sorted(draw(variables))
    targets = sorted(draw(variables))
    return dict(zip(sources, targets))


@st.composite
def order_changing(draw):
    """Any injective map on a subset of the variables."""
    k = draw(st.integers(min_value=1, max_value=N_VARS))
    image = draw(st.permutations(range(N_VARS)))
    sources = draw(st.permutations(range(N_VARS)))[:k]
    return dict(zip(sources, image[:k]))


def check_replace(expr, perm):
    ref = BDDManager(num_vars=N_VARS)
    want_bytes = dumps_diagram_binary(ref, build(ref, expr, perm))
    for kernel in KERNELS:
        m = kernel(num_vars=N_VARS)
        got = m.replace(build(m, expr), perm)
        assert got == build(m, expr, perm), (kernel.__name__, expr, perm)
        assert dumps_diagram_binary(m, got) == want_bytes, kernel.__name__


@settings(deadline=None, max_examples=60)
@given(expr=exprs, perm=order_preserving())
def test_order_preserving_replace_is_canonical(expr, perm):
    check_replace(expr, perm)


@settings(deadline=None, max_examples=60)
@given(expr=exprs, perm=order_changing())
def test_order_changing_replace_is_canonical(expr, perm):
    check_replace(expr, perm)


def test_shift_down_takes_the_mk_path():
    """Moving every variable of a chain one level down keeps the order;
    the result is the shifted chain, and no ``and``/``or``/``diff`` work
    is spent rebuilding it."""
    for kernel in KERNELS:
        m = kernel(num_vars=N_VARS)
        f = m.apply_and(m.var(0), m.apply_or(m.var(2), m.var(4)))
        before = m.stats.op_totals()[1]
        g = m.replace(f, {0: 1, 2: 3, 4: 5})
        assert m.stats.op_totals()[1] == before, kernel.__name__
        assert g == m.apply_and(m.var(1), m.apply_or(m.var(3), m.var(5)))
