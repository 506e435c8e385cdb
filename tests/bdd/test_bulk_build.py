"""Bulk construction (``from_keys``) against the per-tuple fold.

Every kernel builds the diagram of a set of tuples in one bottom-up
pass.  The oracle is the construction it replaces: one ``cube`` per
tuple, OR-ed (ZDD: unioned) into a growing diagram in the *same*
manager, so hash-consing makes "same function" mean "same handle".
Hypothesis draws the key width, which variables the key bits land on
(in a random bit-to-variable order), and the keys themselves, with
empty inputs, single keys, duplicates, and shuffled or reversed
orders.

Above the kernel, ``Relation.from_tuples`` / ``from_csv`` are checked
against the same fold over
``encode_bits`` cubes, including physical domains wider than their
domains and both of the universe's bit layouts, and the jedit fact
relations are pinned to zero apply work.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import AnalysisUniverse, preset
from repro.bdd import FALSE, BDDError, BDDManager, FDDManager
from repro.bdd.ooc import OocBDDManager
from repro.bdd.zdd import ZDDManager
from repro.relations import Relation, Universe
from repro.relations.backend import ZDDBackend
from repro.relations.relation import CsvFormatError, WeightedRelation

#: Tiny enough that the ooc kernel's unique table flushes to sorted
#: runs and its pages evict while the trie is being built.
TINY_CAP = 1

KERNELS = {
    "reference": BDDManager,
    "ooc": lambda n: OocBDDManager(n, memory_cap_bytes=TINY_CAP),
    "zdd": ZDDManager,
}
MAX_VARS = 9


def fold(m, variables, keys):
    """The per-tuple construction: one cube per key, OR-ed in."""
    union = m.union if isinstance(m, ZDDManager) else m.apply_or
    node = FALSE
    for key in keys:
        cube = m.cube({v: bool(key >> p & 1) for p, v in enumerate(variables)})
        node = union(node, cube)
    return node


@st.composite
def key_sets(draw):
    """``(num_vars, variables, keys)``: the key bits land on a random
    subset of the variables in random order."""
    num_vars = draw(st.integers(min_value=0, max_value=MAX_VARS))
    width = draw(st.integers(min_value=0, max_value=num_vars))
    variables = draw(st.permutations(range(num_vars)))[:width]
    keys = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << width) - 1), max_size=40
    ))
    return num_vars, variables, keys


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(deadline=None, max_examples=60)
@given(case=key_sets())
def test_bulk_build_equals_fold(kernel, case):
    num_vars, variables, keys = case
    m = KERNELS[kernel](num_vars)
    built = m.from_keys(variables, keys)
    assert built == fold(m, variables, keys)
    # Input order and repetition do not matter.
    assert m.from_keys(variables, keys[::-1]) == built
    shuffled = keys + keys
    random.Random(len(keys)).shuffle(shuffled)
    assert m.from_keys(variables, shuffled) == built


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_empty_single_and_duplicate_rows(kernel):
    m = KERNELS[kernel](6)
    variables = [4, 1, 5, 0]
    assert m.from_keys(variables, []) == FALSE
    assert m.from_keys([], []) == FALSE
    assert m.from_keys([], [0, 0]) == fold(m, [], [0])
    assert m.from_keys(variables, [9]) == fold(m, variables, [9])
    assert m.from_keys(variables, [9, 9, 9]) == fold(m, variables, [9])
    # Every assignment of the key bits: the complete-block shortcut.
    assert m.from_keys(variables, range(16)) == fold(m, variables, range(16))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_bad_inputs_are_rejected(kernel):
    m = KERNELS[kernel](4)
    with pytest.raises(BDDError):
        m.from_keys([0, 1], [4])  # wider than two bits
    with pytest.raises(BDDError):
        m.from_keys([0, 1], [-1])
    with pytest.raises(BDDError):
        m.from_keys([0, 0], [1])  # one variable twice
    with pytest.raises(BDDError):
        m.from_keys([0, 7], [1])  # no such variable


@pytest.mark.parametrize("size", [1, 2, 5, 8, 1000, 300_001])
def test_fdd_domain_bdd(size):
    fdd = FDDManager()
    dom, _ = fdd.extdomain([("D", size), ("E", 3)])
    node = fdd.domain_bdd(dom)
    assert fdd.satcount(node, dom) == size
    if size <= 1000:
        m = fdd.manager
        assert node == fold(m, dom.levels, range(size))


def test_zdd_equality_equals_fold():
    u = Universe(backend="zdd")
    d = u.domain("D", 6)
    u.physical_domain("P", d.bits)
    u.physical_domain("Q", d.bits)
    u.finalize()
    a, b = u.get_physdom("P"), u.get_physdom("Q")
    be = ZDDBackend(u.manager)
    values = [0, 3, 5, 3]
    eq = be.equality(a.levels, b.levels, values)
    oracle = FALSE
    for v in values:
        cube = {**u.encode_bits(a, v), **u.encode_bits(b, v)}
        oracle = u.manager.union(oracle, u.manager.cube(cube))
    assert eq == oracle


# ----------------------------------------------------------------------
# The relational layer
# ----------------------------------------------------------------------

UNIVERSES = [
    ("bdd", "reference"),
    ("bdd", "ooc"),
    ("zdd", "reference"),
]


def make_universe(backend, kernel, ordering="interleaved"):
    """Two domains whose physical domains are wider than needed."""
    u = Universe(backend=backend, kernel=kernel, ordering=ordering)
    a = u.domain("A", 5)
    b = u.domain("B", 12)
    u.attribute("x", a)
    u.attribute("y", b)
    u.attribute("n", u.domain("N", 40))
    u.physical_domain("PA", a.bits + 2)
    u.physical_domain("PB", b.bits + 1)
    u.physical_domain("PN", 6)
    u.finalize()
    return u


def relation_fold(u, rel, rows):
    """The per-tuple construction: one ``encode_bits`` cube per row."""
    be = rel.backend
    node = be.empty()
    for row in rows:
        assignment = {}
        for (attr, pd), obj in zip(rel.schema.pairs, row):
            assignment.update(u.encode_bits(pd, attr.domain.index_of(obj)))
        node = be.union(node, be.cube(assignment))
    return node


rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from("abcdefghijkl")),
    max_size=30,
)


@pytest.mark.parametrize("backend,kernel", UNIVERSES)
@settings(deadline=None, max_examples=30)
@given(
    rows=rows_strategy,
    ordering=st.sampled_from(["interleaved", "sequential"]),
)
def test_from_tuples_equals_fold(backend, kernel, rows, ordering):
    u = make_universe(backend, kernel, ordering)
    rel = Relation.from_tuples(u, ["x", "y"], rows, ["PA", "PB"])
    assert rel.node == relation_fold(u, rel, rows)
    assert set(rel.tuples()) == set(rows)
    # Objects are interned in row order, exactly as the fold did.
    seen = list(dict.fromkeys(x for x, _ in rows))
    assert [u.get_domain("A").object_of(i) for i in range(len(seen))] == seen


@pytest.mark.parametrize("backend,kernel", UNIVERSES)
def test_from_csv_keeps_checks_and_interning_order(backend, kernel):
    u = make_universe(backend, kernel)
    text = "0,a\n1,b,extra\n\n2,zz\n3,c\nx,d\n0,a\n"
    convs = {"x": int}
    with pytest.raises(CsvFormatError) as err:
        Relation.from_csv(u, io.StringIO(text), ["x", "y"], ["PA", "PB"],
                          converters=convs)
    assert [line for line, _ in err.value.errors] == [2, 6]
    u = make_universe(backend, kernel)
    rel = Relation.from_csv(u, io.StringIO(text), ["x", "y"], ["PA", "PB"],
                            converters=convs, on_malformed="skip")
    good = [(0, "a"), (2, "zz"), (3, "c"), (0, "a")]
    assert set(rel.tuples()) == set(good)
    assert rel.node == relation_fold(u, rel, good)
    # Line 6 failed in its first field, so "d" was never interned.
    assert "d" not in u.get_domain("B")


@pytest.mark.parametrize("agg", ["sum", "max"])
def test_weighted_relation_and_aggregate_values(agg):
    u = make_universe("bdd", "reference")
    rows = [(0, "a", 3), (1, "b", -2), (0, "a", 4), (2, "c", 0.5),
            (3, "d", 2), (3, "d", -2)]
    wr = WeightedRelation.from_weighted_tuples(u, ["x", "y"], rows,
                                              ["PA", "PB"])
    # Repeated tuples sum; (3, "d") nets 0, so it is dropped before its
    # objects are interned.
    assert wr.as_dict() == {(0, "a"): 7, (1, "b"): -2, (2, "c"): 0.5}
    assert [u.get_domain("B").object_of(i) for i in range(3)] == [
        "a", "b", "c"
    ]
    assert "d" not in u.get_domain("B")
    rel = Relation.from_tuples(
        u, ["x", "n"], [(0, 5), (0, 7), (1, 11)], ["PA", "PN"]
    )
    got = dict(rel.aggregate(agg, "n", group_by=["x"]).items())
    expect = {(0,): 12 if agg == "sum" else 7, (1,): 11}
    assert got == expect


# ----------------------------------------------------------------------
# Kernel counters on the largest Table 2 preset
# ----------------------------------------------------------------------


def reachable(m, roots):
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen or m.is_terminal(node):
            continue
        seen.add(node)
        stack.extend((m.low(node), m.high(node)))
    return len(seen)


@pytest.mark.parametrize("kernel", ["reference", "ooc"])
def test_jedit_fact_encoding_does_no_apply_work(kernel):
    """Building ``alloc``/``assign``/``store``/``load`` misses no apply
    cache and creates only nodes the built diagrams hold."""
    au = AnalysisUniverse(preset("jedit"), kernel=kernel)
    m = au.universe.manager
    stats = m.stats
    misses_before = list(stats.op_misses)
    created_before = stats.nodes_created
    rels = [au.alloc(), au.assign(), au.store(), au.load()]
    misses = {
        name: after - before
        for name, before, after in zip(
            stats.op_names, misses_before, stats.op_misses
        )
    }
    created = stats.nodes_created - created_before
    assert misses["or"] == 0 and misses["and"] == 0, misses
    assert 0 < created <= reachable(m, [r.node for r in rels])
