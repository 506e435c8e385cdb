"""MTBDD/ADD kernel: terminals, apply/abstract operators, wire format.

Every operation is checked against brute-force pointwise evaluation over
all assignments of a small variable set, for random terminal values.
Weights are dyadic rationals (multiples of 0.25) so floating-point
addition is exact in any association order — "close enough" comparisons
would mask real kernel bugs.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, MTBDDManager
from repro.bdd.io import (
    MTBDD_WIRE_VERSION,
    dumps_diagram,
    dumps_diagram_binary,
    loads_diagram,
    loads_diagram_binary,
)
from repro.bdd.manager import BDDError, BDDManager
from repro.bdd.zdd import ZDDManager

NVARS = 3
ASSIGNMENTS = [
    dict(zip(range(NVARS), bits))
    for bits in itertools.product([False, True], repeat=NVARS)
]

weights = st.sampled_from([0, 1, 2, 3, -2, -7, 0.25, 0.5, 2.75, -1.5])
functions = st.lists(weights, min_size=len(ASSIGNMENTS), max_size=len(ASSIGNMENTS))
bool_functions = st.lists(
    st.sampled_from([0, 1]), min_size=len(ASSIGNMENTS), max_size=len(ASSIGNMENTS)
)


def build(m, values):
    """The diagram of the function mapping ``ASSIGNMENTS[i]`` to
    ``values[i]``, built from disjoint weighted cubes."""
    node = m.terminal(0)
    for asg, value in zip(ASSIGNMENTS, values):
        cube = m.terminal(1)
        for var, bit in asg.items():
            cube = m.apply("mul", cube, m.var(var) if bit else m.nvar(var))
        node = m.apply("add", node, m.apply("mul", cube, m.terminal(value)))
    return node


def table(m, node):
    return [m.evaluate(node, asg) for asg in ASSIGNMENTS]


class TestTerminals:
    def test_interned_and_shared(self):
        m = MTBDDManager(NVARS)
        assert m.terminal(0) == FALSE
        assert m.terminal(1) == TRUE
        assert m.terminal(7) == m.terminal(7)
        # numerically equal values share one terminal
        assert m.terminal(2) == m.terminal(2.0)
        assert m.terminal(True) == TRUE

    def test_bad_values_rejected(self):
        m = MTBDDManager(NVARS)
        with pytest.raises(BDDError, match="numbers"):
            m.terminal("seven")
        with pytest.raises(BDDError, match="NaN"):
            m.terminal(float("nan"))

    def test_is_terminal(self):
        m = MTBDDManager(NVARS)
        assert m.is_terminal(m.terminal(5))
        assert not m.is_terminal(m.var(0))


class TestSharedCore:
    """What the subclass inherits from the reference kernel must still
    respect terminals beyond 0/1."""

    def test_gc_keeps_interned_terminals(self):
        m = MTBDDManager(NVARS)
        kept = m.ref(build(m, [0, 1, -5, 2.5, 0.25, 3, 7, -1.5]))
        build(m, [9, 9, 4, 4, 0, 0, 11, 12])  # garbage
        before = table(m, kept)
        t11 = m.terminal(11)
        assert m.gc() > 0
        # Reuse the freed slots: none of them may be a terminal.
        other = build(m, [5, 6, 8, 10, 13, 14, 15, 16])
        m.check_integrity()
        assert table(m, kept) == before
        assert table(m, other) == [5, 6, 8, 10, 13, 14, 15, 16]
        assert m.terminal(11) == t11 and m.value(t11) == 11

    def test_add_vars_moves_terminals_below_new_levels(self):
        m = MTBDDManager(NVARS)
        w = build(m, [0, 1, -5, 2.5, 0.25, 3, 7, -1.5])
        m.add_vars(2)
        new = m.apply("mul", w, m.var(NVARS + 1))
        m.check_integrity()
        full = dict(ASSIGNMENTS[3])
        full.update({NVARS: False, NVARS + 1: True})
        assert m.evaluate(new, full) == 2.5


class TestApplyOperators:
    @given(xs=functions, ys=functions)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_pointwise(self, xs, ys):
        m = MTBDDManager(NVARS)
        a, b = build(m, xs), build(m, ys)
        assert table(m, m.apply("add", a, b)) == [x + y for x, y in zip(xs, ys)]
        assert table(m, m.apply("mul", a, b)) == [x * y for x, y in zip(xs, ys)]
        assert table(m, m.apply("max", a, b)) == [max(x, y) for x, y in zip(xs, ys)]
        assert table(m, m.apply("min", a, b)) == [min(x, y) for x, y in zip(xs, ys)]

    @given(xs=bool_functions, ys=bool_functions)
    @settings(max_examples=60, deadline=None)
    def test_boolean_pointwise(self, xs, ys):
        m = MTBDDManager(NVARS)
        a, b = build(m, xs), build(m, ys)
        assert table(m, m.apply_or(a, b)) == [x | y for x, y in zip(xs, ys)]
        assert table(m, m.apply_and(a, b)) == [x & y for x, y in zip(xs, ys)]
        assert table(m, m.apply_diff(a, b)) == [
            x & (1 - y) for x, y in zip(xs, ys)
        ]
        assert table(m, m.apply_xor(a, b)) == [x ^ y for x, y in zip(xs, ys)]
        assert table(m, m.apply_not(a)) == [1 - x for x in xs]

    @given(fs=bool_functions, xs=functions, ys=functions)
    @settings(max_examples=60, deadline=None)
    def test_ite_pointwise(self, fs, xs, ys):
        m = MTBDDManager(NVARS)
        f, g, h = build(m, fs), build(m, xs), build(m, ys)
        assert table(m, m.ite(f, g, h)) == [
            x if s else y for s, x, y in zip(fs, xs, ys)
        ]

    def test_boolean_ops_reject_weighted_operands(self):
        m = MTBDDManager(NVARS)
        with pytest.raises(BDDError, match="non-boolean"):
            m.apply_or(m.terminal(2), m.terminal(3))

    @given(xs=functions)
    @settings(max_examples=40, deadline=None)
    def test_canonicity(self, xs):
        # Two different construction orders of the same function must
        # hash-cons to the same node handle.
        m = MTBDDManager(NVARS)
        a = build(m, xs)
        b = m.terminal(0)
        for asg, value in reversed(list(zip(ASSIGNMENTS, xs))):
            cube = m.terminal(1)
            for var in sorted(asg, reverse=True):
                cube = m.apply(
                    "mul", cube, m.var(var) if asg[var] else m.nvar(var)
                )
            b = m.apply("add", b, m.apply("mul", cube, m.terminal(value)))
        assert a == b


class TestAbstraction:
    @given(xs=functions, k=st.integers(min_value=0, max_value=NVARS))
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, xs, k):
        m = MTBDDManager(NVARS)
        node = build(m, xs)
        quantified = list(range(k))
        kept = [v for v in range(NVARS) if v not in quantified]
        combine = {
            "add": lambda vals: sum(vals),
            "max": lambda vals: max(vals),
            "min": lambda vals: min(vals),
            "or": None,
        }
        for op, fn in combine.items():
            values = [1 if x else 0 for x in xs] if op == "or" else xs
            src = build(m, values) if op == "or" else node
            got = m.abstract(op, src, quantified)
            for bits in itertools.product([False, True], repeat=len(kept)):
                asg = dict(zip(kept, bits))
                cofactors = []
                for qbits in itertools.product(
                    [False, True], repeat=len(quantified)
                ):
                    full = dict(asg)
                    full.update(zip(quantified, qbits))
                    cofactors.append(
                        values[ASSIGNMENTS.index(
                            {v: full[v] for v in range(NVARS)}
                        )]
                    )
                want = (
                    (1 if any(cofactors) else 0)
                    if op == "or"
                    else fn(cofactors)
                )
                assert m.evaluate(got, asg) == want, (op, asg)

    @given(xs=bool_functions)
    @settings(max_examples=40, deadline=None)
    def test_sat_count_and_weighted_total(self, xs):
        m = MTBDDManager(NVARS)
        node = build(m, xs)
        assert m.sat_count(node, range(NVARS)) == sum(xs)
        weighted = build(m, [x * 3 for x in xs])
        assert m.weighted_total(weighted, range(NVARS)) == 3 * sum(xs)

    @given(xs=functions)
    @settings(max_examples=40, deadline=None)
    def test_replace_permutes_support(self, xs):
        m = MTBDDManager(NVARS)
        node = build(m, xs)
        perm = {0: 2, 2: 0}
        swapped = m.replace(node, perm)
        for asg in ASSIGNMENTS:
            back = {perm.get(v, v): b for v, b in asg.items()}
            assert m.evaluate(swapped, back) == m.evaluate(node, asg)


class TestWireFormat:
    def weighted_diagram(self, m):
        return build(
            m,
            [0, 1, -5, 2.5, 0.25, 3, 10**25, -1.5][: len(ASSIGNMENTS)],
        )

    def test_binary_roundtrip_byte_identical(self):
        m = MTBDDManager(NVARS)
        node = self.weighted_diagram(m)
        data = dumps_diagram_binary(m, node)
        assert data[4] == 0x80 | MTBDD_WIRE_VERSION
        assert data[5] == 2  # kind byte
        m2 = MTBDDManager(NVARS)
        root = loads_diagram_binary(m2, data)
        assert dumps_diagram_binary(m2, root) == data
        assert table(m2, root) == table(m, node)

    def test_text_roundtrip(self):
        m = MTBDDManager(NVARS)
        node = self.weighted_diagram(m)
        text = dumps_diagram(m, node)
        assert text.startswith("mtbdd ")
        m2 = MTBDDManager(NVARS)
        root = loads_diagram(m2, text)
        assert table(m2, root) == table(m, node)

    @pytest.mark.parametrize("value", [0, 1, 7, -3, 2.5, 10**30])
    def test_constant_diagrams(self, value):
        m = MTBDDManager(NVARS)
        t = m.terminal(value)
        for dump, load in (
            (dumps_diagram_binary, loads_diagram_binary),
            (dumps_diagram, loads_diagram),
        ):
            m2 = MTBDDManager(NVARS)
            root = load(m2, dump(m, t))
            assert root == m2.terminal(value)

    def test_kind_mismatch_both_directions(self):
        m = MTBDDManager(NVARS)
        node = self.weighted_diagram(m)
        mb = BDDManager(NVARS)
        bnode = mb.apply_and(mb.var(0), mb.var(2))
        with pytest.raises(BDDError, match="'mtbdd' does not match 'bdd'"):
            loads_diagram_binary(mb, dumps_diagram_binary(m, node))
        with pytest.raises(BDDError, match="'bdd' does not match 'mtbdd'"):
            loads_diagram_binary(m, dumps_diagram_binary(mb, bnode))
        with pytest.raises(BDDError, match="does not match"):
            loads_diagram(mb, dumps_diagram(m, node))
        with pytest.raises(BDDError, match="does not match"):
            loads_diagram(ZDDManager(NVARS), dumps_diagram(m, node))

    def test_kind2_needs_version_2(self):
        m = MTBDDManager(NVARS)
        data = bytearray(dumps_diagram_binary(m, self.weighted_diagram(m)))
        data[4] = 0x80 | 1
        with pytest.raises(BDDError, match="wire version"):
            loads_diagram_binary(MTBDDManager(NVARS), bytes(data))

    def test_unknown_kind_rejected(self):
        m = MTBDDManager(NVARS)
        data = bytearray(dumps_diagram_binary(m, self.weighted_diagram(m)))
        data[5] = 9
        with pytest.raises(BDDError, match="unknown binary diagram kind"):
            loads_diagram_binary(MTBDDManager(NVARS), bytes(data))

    def test_future_version_rejected(self):
        m = MTBDDManager(NVARS)
        data = bytearray(dumps_diagram_binary(m, self.weighted_diagram(m)))
        data[4] = 0x80 | 9
        with pytest.raises(BDDError, match="refusing to guess"):
            loads_diagram_binary(MTBDDManager(NVARS), bytes(data))

    def test_boolean_kinds_keep_version1_bytes(self):
        mb = BDDManager(NVARS)
        data = dumps_diagram_binary(mb, mb.apply_and(mb.var(0), mb.var(2)))
        assert data[4] == 0x80 | 1
        assert data[5] == 0

    @given(xs=functions)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, xs):
        m = MTBDDManager(NVARS)
        node = build(m, xs)
        m2 = MTBDDManager(NVARS)
        root = loads_diagram_binary(m2, dumps_diagram_binary(m, node))
        assert table(m2, root) == table(m, node)
        m3 = MTBDDManager(NVARS)
        root3 = loads_diagram(m3, dumps_diagram(m, node))
        assert table(m3, root3) == table(m, node)
