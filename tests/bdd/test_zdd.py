"""Unit and property tests for the zero-suppressed DD backend."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDError, ZDDManager
from repro.bdd.zdd import BASE, EMPTY

N_VARS = 5

# Families of subsets of levels, as frozensets of frozensets.
families = st.frozensets(
    st.frozensets(st.integers(0, N_VARS - 1), max_size=N_VARS),
    max_size=10,
)


def build(z, family):
    node = EMPTY
    for combo in family:
        node = z.union(node, z.single(combo))
    return node


def extract(z, node):
    return {
        frozenset(lv for lv in range(N_VARS) if k >> lv & 1)
        for k in z.to_keys(node, range(N_VARS))
    }


@pytest.fixture
def z():
    return ZDDManager(N_VARS)


class TestBasics:
    def test_terminals(self, z):
        assert z.count(EMPTY) == 0
        assert z.count(BASE) == 1

    def test_single_is_canonical(self, z):
        assert z.single([0, 2]) == z.single([2, 0])

    def test_single_out_of_range(self, z):
        with pytest.raises(BDDError):
            z.single([N_VARS])

    def test_cube_ignores_false_bits(self, z):
        assert z.cube({0: True, 1: False}) == z.single([0])

    def test_zero_suppression(self, z):
        # mk with EMPTY high child collapses to the low child.
        assert z.mk(2, BASE, EMPTY) == BASE

    def test_union_count(self, z):
        s = z.union(z.single([0]), z.single([1]))
        assert z.count(s) == 2

    def test_intersect(self, z):
        a = z.union(z.single([0]), z.single([1]))
        b = z.union(z.single([1]), z.single([2]))
        assert z.intersect(a, b) == z.single([1])

    def test_diff(self, z):
        a = z.union(z.single([0]), z.single([1]))
        assert z.diff(a, z.single([1])) == z.single([0])

    def test_change_sets_absent_bit(self, z):
        assert z.change(BASE, 3) == z.single([3])

    def test_change_clears_present_bit(self, z):
        assert z.change(z.single([3]), 3) == BASE

    def test_change_involution(self, z):
        s = z.union(z.single([0, 2]), z.single([1]))
        assert z.change(z.change(s, 2), 2) == s

    def test_subset0_subset1(self, z):
        s = z.union(z.single([0, 2]), z.single([1]))
        assert z.subset1(s, 0) == z.single([2])
        assert z.subset0(s, 0) == z.single([1])

    def test_exist_merges(self, z):
        s = z.union(z.single([0, 2]), z.single([0]))
        assert z.exist(s, [2]) == z.single([0])
        assert z.count(z.exist(s, [2])) == 1

    def test_dontcare_doubles(self, z):
        s = z.single([0])
        d = z.dontcare(s, [1])
        assert z.count(d) == 2
        assert extract(z, d) == {frozenset({0}), frozenset({0, 1})}

    def test_replace_moves_bit(self, z):
        assert z.replace(z.single([0]), {0: 4}) == z.single([4])

    def test_replace_swap(self, z):
        s = z.union(z.single([0]), z.single([1, 2]))
        swapped = z.replace(s, {0: 1, 1: 0})
        assert extract(z, swapped) == {frozenset({1}), frozenset({0, 2})}

    def test_replace_collision_rejected(self, z):
        s = z.single([0, 1])
        with pytest.raises(BDDError):
            z.replace(s, {0: 1})

    def test_support(self, z):
        s = z.union(z.single([0, 3]), z.single([1]))
        assert z.support(s) == frozenset({0, 1, 3})

    def test_shape_and_node_count(self, z):
        s = z.union(z.single([0, 3]), z.single([1]))
        assert sum(z.shape(s)) == z.node_count(s)


class TestGC:
    def test_gc_preserves_referenced(self):
        z = ZDDManager(4)
        s = z.ref(z.union(z.single([0]), z.single([1, 2])))
        before = extract_small(z, s)
        z.gc()
        assert extract_small(z, s) == before

    def test_gc_frees_unreferenced(self):
        z = ZDDManager(4)
        z.union(z.single([0]), z.single([1, 2]))
        assert z.gc() > 0


def extract_small(z, node):
    return {
        frozenset(lv for lv in range(z.num_vars) if k >> lv & 1)
        for k in z.to_keys(node, range(z.num_vars))
    }


class TestProperties:
    @given(f1=families, f2=families)
    @settings(max_examples=100, deadline=None)
    def test_set_algebra(self, f1, f2):
        z = ZDDManager(N_VARS)
        a = build(z, f1)
        b = build(z, f2)
        assert extract(z, z.union(a, b)) == set(f1) | set(f2)
        assert extract(z, z.intersect(a, b)) == set(f1) & set(f2)
        assert extract(z, z.diff(a, b)) == set(f1) - set(f2)

    @given(f=families)
    @settings(max_examples=100, deadline=None)
    def test_count_matches(self, f):
        z = ZDDManager(N_VARS)
        assert z.count(build(z, f)) == len(f)

    @given(f=families, level=st.integers(0, N_VARS - 1))
    @settings(max_examples=100, deadline=None)
    def test_change_semantics(self, f, level):
        z = ZDDManager(N_VARS)
        changed = z.change(build(z, f), level)
        expected = {combo ^ frozenset({level}) for combo in f}
        assert extract(z, changed) == expected

    @given(f=families, levels=st.sets(st.integers(0, N_VARS - 1)))
    @settings(max_examples=100, deadline=None)
    def test_exist_semantics(self, f, levels):
        z = ZDDManager(N_VARS)
        projected = z.exist(build(z, f), levels)
        expected = {combo - levels for combo in f}
        assert extract(z, projected) == expected

    @given(f=families)
    @settings(max_examples=80, deadline=None)
    def test_canonicity(self, f):
        z = ZDDManager(N_VARS)
        assert build(z, f) == build(z, sorted(f, key=sorted))

    @given(f=families, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_replace_semantics(self, f, data):
        z = ZDDManager(N_VARS)
        perm_targets = data.draw(st.permutations(list(range(N_VARS))))
        perm = dict(zip(range(N_VARS), perm_targets))
        renamed = z.replace(build(z, f), perm)
        expected = {frozenset(perm[lv] for lv in combo) for combo in f}
        assert extract(z, renamed) == expected


class TestToDot:
    def test_dot_structure(self, z):
        s = z.union(z.single([0, 2]), z.single([1]))
        dot = z.to_dot(s)
        assert dot.startswith("digraph zdd {")
        assert 'label="x0"' in dot
        assert "style=dashed" in dot

    def test_dot_with_names(self, z):
        dot = z.to_dot(z.single([1]), {1: "P[0]"})
        assert 'label="P[0]"' in dot

    def test_dot_terminals(self, z):
        assert "shape=box" in z.to_dot(EMPTY)
