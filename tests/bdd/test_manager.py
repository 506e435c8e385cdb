"""Unit tests for the ROBDD engine."""

import pytest

from repro.bdd import FALSE, TRUE, BDDError, BDDManager


@pytest.fixture
def m():
    return BDDManager(8)


class TestConstruction:
    def test_terminals_are_distinct(self, m):
        assert FALSE != TRUE
        assert m.is_terminal(FALSE)
        assert m.is_terminal(TRUE)

    def test_var_is_canonical(self, m):
        assert m.var(3) == m.var(3)

    def test_var_and_nvar_differ(self, m):
        assert m.var(2) != m.nvar(2)

    def test_mk_collapses_redundant_test(self, m):
        assert m.mk(1, TRUE, TRUE) == TRUE
        assert m.mk(1, FALSE, FALSE) == FALSE

    def test_mk_shares_structure(self, m):
        a = m.mk(0, m.var(4), m.var(5))
        b = m.mk(0, m.var(4), m.var(5))
        assert a == b

    def test_var_out_of_range(self, m):
        with pytest.raises(BDDError):
            m.var(8)
        with pytest.raises(BDDError):
            m.nvar(-1)

    def test_cube_single_bit(self, m):
        assert m.cube({3: True}) == m.var(3)
        assert m.cube({3: False}) == m.nvar(3)

    def test_cube_two_bits(self, m):
        c = m.cube({1: True, 5: False})
        assert m.eval(c, lambda lv: lv == 1)
        assert not m.eval(c, lambda lv: lv in (1, 5))
        assert not m.eval(c, lambda lv: False)

    def test_cube_empty(self, m):
        assert m.cube({}) == TRUE

    def test_negative_num_vars_rejected(self):
        with pytest.raises(BDDError):
            BDDManager(-1)


class TestBooleanOps:
    def test_and_basic(self, m):
        f = m.apply_and(m.var(0), m.var(1))
        assert m.eval(f, lambda lv: True)
        assert not m.eval(f, lambda lv: lv == 0)

    def test_or_basic(self, m):
        f = m.apply_or(m.var(0), m.var(1))
        assert m.eval(f, lambda lv: lv == 1)
        assert not m.eval(f, lambda lv: False)

    def test_diff_basic(self, m):
        f = m.apply_diff(m.var(0), m.var(1))
        assert m.eval(f, lambda lv: lv == 0)
        assert not m.eval(f, lambda lv: True)

    def test_xor_basic(self, m):
        f = m.apply_xor(m.var(0), m.var(1))
        assert m.eval(f, lambda lv: lv == 0)
        assert m.eval(f, lambda lv: lv == 1)
        assert not m.eval(f, lambda lv: True)
        assert not m.eval(f, lambda lv: False)

    def test_and_identities(self, m):
        v = m.var(2)
        assert m.apply_and(v, TRUE) == v
        assert m.apply_and(v, FALSE) == FALSE
        assert m.apply_and(v, v) == v

    def test_or_identities(self, m):
        v = m.var(2)
        assert m.apply_or(v, FALSE) == v
        assert m.apply_or(v, TRUE) == TRUE
        assert m.apply_or(v, v) == v

    def test_diff_identities(self, m):
        v = m.var(2)
        assert m.apply_diff(v, FALSE) == v
        assert m.apply_diff(v, TRUE) == FALSE
        assert m.apply_diff(v, v) == FALSE
        assert m.apply_diff(FALSE, v) == FALSE

    def test_not_involution(self, m):
        f = m.apply_or(m.var(1), m.apply_and(m.var(3), m.nvar(6)))
        assert m.apply_not(m.apply_not(f)) == f

    def test_excluded_middle(self, m):
        v = m.var(4)
        assert m.apply_or(v, m.apply_not(v)) == TRUE
        assert m.apply_and(v, m.apply_not(v)) == FALSE

    def test_ite_select(self, m):
        f = m.ite(m.var(0), m.var(1), m.var(2))
        assert m.eval(f, lambda lv: lv in (0, 1))
        assert not m.eval(f, lambda lv: lv == 0)
        assert m.eval(f, lambda lv: lv == 2)

    def test_canonical_equality_is_structural(self, m):
        # (a & b) | (a & c) == a & (b | c) -- same node after reduction.
        a, b, c = m.var(0), m.var(1), m.var(2)
        lhs = m.apply_or(m.apply_and(a, b), m.apply_and(a, c))
        rhs = m.apply_and(a, m.apply_or(b, c))
        assert lhs == rhs


class TestQuantification:
    def test_exist_removes_level(self, m):
        f = m.apply_and(m.var(0), m.var(3))
        g = m.exist(f, [3])
        assert g == m.var(0)

    def test_exist_of_contradiction(self, m):
        f = m.apply_and(m.var(2), m.nvar(2))
        assert m.exist(f, [2]) == FALSE

    def test_exist_unsat_becomes_true(self, m):
        assert m.exist(m.var(2), [2]) == TRUE

    def test_exist_no_levels_is_identity(self, m):
        f = m.var(1)
        assert m.exist(f, []) == f

    def test_exist_multiple_levels(self, m):
        f = m.apply_and(m.apply_and(m.var(0), m.var(1)), m.var(2))
        assert m.exist(f, [0, 2]) == m.var(1)

    def test_and_exist_equals_exist_of_and(self, m):
        a = m.apply_or(m.var(0), m.var(2))
        b = m.apply_and(m.var(2), m.var(4))
        direct = m.exist(m.apply_and(a, b), [2])
        fused = m.and_exist(a, b, [2])
        assert direct == fused

    def test_and_exist_empty_levels(self, m):
        a, b = m.var(1), m.var(5)
        assert m.and_exist(a, b, []) == m.apply_and(a, b)


class TestReplace:
    def test_replace_moves_level(self, m):
        f = m.var(1)
        assert m.replace(f, {1: 6}) == m.var(6)

    def test_replace_identity(self, m):
        f = m.apply_and(m.var(1), m.var(3))
        assert m.replace(f, {}) == f
        assert m.replace(f, {1: 1}) == f

    def test_replace_swap(self, m):
        # f depends asymmetrically on levels 1 and 3.
        f = m.apply_and(m.var(1), m.nvar(3))
        g = m.replace(f, {1: 3, 3: 1})
        assert g == m.apply_and(m.var(3), m.nvar(1))

    def test_replace_order_changing(self, m):
        # Moving a variable past another changes the relative order.
        f = m.apply_diff(m.var(0), m.var(5))
        g = m.replace(f, {0: 7})
        assert g == m.apply_diff(m.var(7), m.var(5))

    def test_replace_not_injective_rejected(self, m):
        with pytest.raises(BDDError):
            m.replace(m.var(0), {0: 2, 1: 2})

    def test_replace_out_of_range_rejected(self, m):
        with pytest.raises(BDDError):
            m.replace(m.var(0), {0: 99})

    def test_replace_block_move(self, m):
        # Moving a 2-bit block, as when moving a physical domain.
        f = m.apply_and(m.var(0), m.nvar(1))
        g = m.replace(f, {0: 4, 1: 5})
        assert g == m.apply_and(m.var(4), m.nvar(5))


class TestRestrictSupport:
    def test_restrict_fixes_value(self, m):
        f = m.apply_and(m.var(0), m.var(1))
        assert m.restrict(f, {0: True}) == m.var(1)
        assert m.restrict(f, {0: False}) == FALSE

    def test_restrict_empty(self, m):
        f = m.var(3)
        assert m.restrict(f, {}) == f

    def test_support(self, m):
        f = m.apply_or(m.apply_and(m.var(0), m.var(3)), m.var(6))
        assert m.support(f) == frozenset({0, 3, 6})

    def test_support_terminal(self, m):
        assert m.support(TRUE) == frozenset()
        assert m.support(FALSE) == frozenset()


class TestCounting:
    def test_sat_count_full_space(self, m):
        assert m.sat_count(TRUE) == 2**8
        assert m.sat_count(FALSE) == 0

    def test_sat_count_var(self, m):
        assert m.sat_count(m.var(0)) == 2**7

    def test_sat_count_restricted_levels(self, m):
        f = m.apply_and(m.var(0), m.var(3))
        assert m.sat_count(f, [0, 3]) == 1
        assert m.sat_count(f, [0, 3, 5]) == 2

    def test_sat_count_wildcard_between_levels(self, m):
        # f depends only on 0 and 7; level 4 is a wildcard.
        f = m.apply_or(m.var(0), m.var(7))
        assert m.sat_count(f, [0, 4, 7]) == 6

    def test_sat_count_terminal_restricted(self, m):
        assert m.sat_count(TRUE, [1, 2]) == 4
        assert m.sat_count(FALSE, [1, 2]) == 0

    def test_sat_count_uncovered_support_rejected(self, m):
        f = m.apply_and(m.var(0), m.var(3))
        with pytest.raises(BDDError):
            m.sat_count(f, [0])

    @pytest.mark.parametrize("kernel", ["reference", "ooc"])
    def test_sat_count_names_every_uncovered_variable(self, kernel):
        from repro.bdd.ooc import OocBDDManager

        m = {"reference": BDDManager, "ooc": OocBDDManager}[kernel](8)
        # 5 sits only below 3, an uncovered node: the walk that finds
        # the uncovered levels must not stop at the first one.
        f = m.apply_and(m.var(0), m.apply_or(m.nvar(3), m.var(5)))
        with pytest.raises(BDDError, match=r"support variables \[3, 5\]"):
            m.sat_count(f, [0, 1])
        assert m.sat_count(f, [0, 3, 5]) == 3

    def test_any_sat(self, m):
        f = m.apply_and(m.var(2), m.nvar(5))
        a = m.any_sat(f)
        assert a[2] is True and a[5] is False

    def test_any_sat_false(self, m):
        assert m.any_sat(FALSE) is None

    def test_to_keys_enumerates(self, m):
        f = m.apply_or(m.cube({0: True, 1: True}), m.cube({0: False, 1: False}))
        assert sorted(m.to_keys(f, [0, 1])) == [0b00, 0b11]

    def test_to_keys_expands_wildcards(self, m):
        keys = m.to_keys(m.var(0), [0, 1])
        assert len(keys) == 2
        assert all(k & 1 for k in keys)

    def test_to_keys_count_agreement(self, m):
        f = m.apply_xor(m.var(1), m.var(4))
        assert len(m.to_keys(f, [1, 4, 6])) == m.sat_count(f, [1, 4, 6])


class TestCountCache:
    """sat_count keeps per-node counts across calls until the next GC."""

    @staticmethod
    def _brute_count(m, f, variables):
        return sum(
            m.eval(f, lambda v, k=k: bool(k >> variables.index(v) & 1))
            for k in range(1 << len(variables))
        )

    def test_second_count_is_all_hits(self, m):
        f = m.apply_or(m.apply_and(m.var(0), m.var(3)), m.var(6))
        first = m.sat_count(f, [0, 3, 6, 7])
        misses, hits = m.stats.count_misses, m.stats.count_hits
        assert misses > 0
        assert m.sat_count(f, [0, 3, 6, 7]) == first
        assert m.stats.count_misses == misses
        assert m.stats.count_hits > hits

    def test_recount_walks_only_new_nodes(self, m):
        f = m.from_keys([0, 2, 4, 6], [0b0001, 0b0110, 0b1011])
        m.sat_count(f, [0, 2, 4, 6])
        g = m.apply_or(f, m.from_keys([0, 2, 4, 6], [0b1111]))
        misses = m.stats.count_misses
        assert m.sat_count(g, [0, 2, 4, 6]) == 4
        new = set(m.postorder(g)) - set(m.postorder(f))
        assert m.stats.count_misses - misses == len(new)

    def test_level_sets_keep_separate_counts(self, m):
        f = m.apply_xor(m.var(1), m.var(4))
        assert m.sat_count(f, [1, 4]) == 2
        assert m.sat_count(f, [1, 4, 6]) == 4
        assert m.sat_count(f) == 2**7
        assert m.sat_count(f, [1, 4]) == 2

    def test_count_after_gc_on_recycled_ids(self, m):
        variables = [0, 2, 3, 5, 7]
        f = m.ref(m.from_keys(variables, [0b00001, 0b10110, 0b11111]))
        assert m.sat_count(f, variables) == 3
        counted = set(m.postorder(f))
        m.deref(f)
        m.gc()
        assert not m._count_cache
        g = m.from_keys(variables, [0b00000, 0b01010, 0b01011, 0b11000])
        # g reuses freed node ids, so a count kept across the GC would
        # be read for the wrong node.
        assert counted & set(m.postorder(g))
        assert m.sat_count(g, variables) == self._brute_count(m, g, variables)
        assert m.sat_count(g, variables) == 4

    def test_failed_count_stores_nothing(self, m):
        f = m.apply_and(m.var(0), m.apply_or(m.nvar(3), m.var(5)))
        with pytest.raises(BDDError):
            m.sat_count(f, [0, 1])
        assert not m._count_cache
        assert m.sat_count(f, [0, 3, 5]) == 3
        # The cached counts over [0, 3, 5] do not hide the uncovered
        # levels from a later call over another set.
        with pytest.raises(BDDError, match=r"\[3, 5\]"):
            m.sat_count(f, [0, 1])


class TestShape:
    def test_node_count_terminal(self, m):
        assert m.node_count(TRUE) == 0

    def test_node_count_single_tuple_equals_bits(self, m):
        # Paper 3.2.1: a single tuple's BDD has one node per encoded bit.
        c = m.cube({0: True, 1: False, 4: True, 5: True})
        assert m.node_count(c) == 4

    def test_shape_levels(self, m):
        f = m.apply_xor(m.var(0), m.var(3))
        shape = m.shape(f)
        assert shape[0] == 1
        assert shape[3] == 2  # xor needs both branches at the lower level
        assert sum(shape) == m.node_count(f)


class TestGC:
    def test_refs_protect_nodes(self):
        m = BDDManager(4)
        f = m.ref(m.apply_and(m.var(0), m.var(1)))
        g = m.apply_or(m.var(2), m.var(3))  # unreferenced
        count_before = m.num_nodes
        freed = m.gc()
        assert freed > 0
        assert m.num_nodes < count_before
        # f still usable
        assert m.eval(f, lambda lv: True)
        del g

    def test_gc_reclaims_and_reuses_slots(self):
        m = BDDManager(4)
        m.apply_and(m.var(0), m.var(1))
        slots_before = len(m._level)
        m.gc()
        m.apply_and(m.var(0), m.var(1))  # rebuilt into freed slots
        assert len(m._level) == slots_before  # no array growth

    def test_deref_below_zero_rejected(self):
        m = BDDManager(2)
        f = m.ref(m.var(0))
        m.deref(f)
        with pytest.raises(BDDError):
            m.deref(f)

    def test_rebuilt_node_canonical_after_gc(self):
        m = BDDManager(4)
        f = m.ref(m.apply_and(m.var(0), m.var(1)))
        m.gc()
        g = m.apply_and(m.var(0), m.var(1))
        assert f == g

    def test_maybe_gc_threshold(self):
        m = BDDManager(16, gc_threshold=8)
        for i in range(8):
            m.apply_xor(m.var(i), m.var(15 - i))
        assert m.maybe_gc() is True
        assert m.gc_count == 1

    def test_gc_survivors_semantics_preserved(self):
        m = BDDManager(6)
        f = m.ref(m.apply_or(m.apply_and(m.var(0), m.var(3)), m.nvar(5)))
        truth = {
            bits: m.eval(f, lambda lv: bool(bits >> lv & 1))
            for bits in range(64)
        }
        m.gc()
        for bits in range(64):
            assert m.eval(f, lambda lv: bool(bits >> lv & 1)) == truth[bits]


class TestAddVars:
    def test_add_vars_extends_space(self):
        m = BDDManager(2)
        f = m.ref(m.var(1))
        m.add_vars(3)
        assert m.num_vars == 5
        g = m.var(4)
        assert m.sat_count(m.apply_and(f, g)) == 2**3

    def test_add_vars_preserves_existing(self):
        m = BDDManager(2)
        f = m.apply_and(m.var(0), m.var(1))
        m.add_vars(2)
        assert m.eval(f, lambda lv: lv in (0, 1))
        assert not m.eval(f, lambda lv: lv == 0)


class TestSimplify:
    def test_simplify_agrees_on_care_set(self, m):
        f = m.apply_and(m.var(0), m.apply_or(m.var(1), m.var(2)))
        care = m.var(1)
        g = m.simplify(f, care)
        assert m.apply_and(g, care) == m.apply_and(f, care)

    def test_simplify_full_care_is_identity(self, m):
        f = m.apply_xor(m.var(0), m.var(3))
        assert m.simplify(f, TRUE) == f

    def test_simplify_empty_care(self, m):
        f = m.var(0)
        assert m.simplify(f, FALSE) == FALSE

    def test_simplify_can_shrink(self, m):
        # f distinguishes cases the care set rules out.
        f = m.apply_or(
            m.apply_and(m.var(0), m.var(1)),
            m.apply_and(m.nvar(0), m.var(2)),
        )
        care = m.var(0)  # only var0=1 matters
        g = m.simplify(f, care)
        assert m.node_count(g) <= m.node_count(f)
        assert m.apply_and(g, care) == m.apply_and(f, care)


class TestToDot:
    def test_dot_structure(self, m):
        f = m.apply_and(m.var(0), m.nvar(2))
        dot = m.to_dot(f)
        assert dot.startswith("digraph bdd {")
        assert 'label="x0"' in dot and 'label="x2"' in dot
        assert "style=dashed" in dot

    def test_dot_with_names(self, m):
        f = m.var(1)
        dot = m.to_dot(f, {1: "T1[0]"})
        assert 'label="T1[0]"' in dot

    def test_dot_terminal_only(self, m):
        dot = m.to_dot(TRUE)
        assert 'label="1"' in dot


class TestCacheLimit:
    def test_default_is_unbounded(self):
        m = BDDManager(4)
        assert m.cache_limit is None

    def test_bounded_cache_clears_at_limit(self):
        m = BDDManager(8, cache_limit=4)
        for i in range(0, 8, 2):
            m.apply_and(m.var(i), m.var(i + 1))
        assert len(m._apply_cache) <= 4

    def test_bounded_cache_preserves_results(self):
        bounded = BDDManager(8, cache_limit=2)
        free = BDDManager(8)
        for mgr in (bounded, free):
            f = mgr.apply_or(
                mgr.apply_and(mgr.var(0), mgr.var(3)),
                mgr.apply_and(mgr.var(5), mgr.nvar(6)),
            )
            mgr.result = mgr.sat_count(f, range(8))
        assert bounded.result == free.result

    def test_eviction_forces_recomputation(self):
        m = BDDManager(8, cache_limit=1)
        f, g = m.var(0), m.var(1)
        m.apply_and(f, g)
        before = m.stats.op_misses[:]
        m.apply_and(m.var(2), m.var(3))  # evicts the (f, g) entry
        m.apply_and(f, g)
        assert m.stats.op_misses > before

    def test_limit_is_mutable_at_runtime(self):
        m = BDDManager(8)
        m.apply_and(m.var(0), m.var(1))
        m.cache_limit = 1
        m.apply_and(m.var(2), m.var(3))
        assert len(m._apply_cache) <= 1

    # The quantifier, permutation and count caches honour the bound too.

    @staticmethod
    def _quantify_and_rename(mgr):
        """and_exist, exist and replace over a few overlapping functions;
        returns each result's sat-count and truth table over the
        manager's 8 variables."""
        f = mgr.apply_or(
            mgr.apply_and(mgr.var(0), mgr.var(3)),
            mgr.apply_and(mgr.var(5), mgr.nvar(6)),
        )
        g = mgr.apply_or(mgr.apply_and(mgr.var(3), mgr.nvar(1)), mgr.var(7))
        results = [
            mgr.and_exist(f, g, [3, 5]),
            mgr.and_exist(g, f, [0, 3, 7]),
            mgr.exist(f, [3, 6]),
            mgr.exist(mgr.apply_and(f, g), [0, 1, 5]),
            mgr.replace(f, {0: 2, 3: 4, 5: 1}),
            mgr.replace(g, {7: 0, 3: 6, 1: 5}),
        ]
        return [
            (mgr.sat_count(r, range(8)),
             [mgr.eval(r, lambda v, bits=bits: bool(bits >> v & 1))
              for bits in range(1 << 8)])
            for r in results
        ]

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_bounded_quantifier_and_replace_caches_preserve_results(self, limit):
        bounded = BDDManager(8, cache_limit=limit)
        free = BDDManager(8)
        assert self._quantify_and_rename(bounded) == self._quantify_and_rename(free)
        assert bounded.stats.and_exist_misses > free.stats.and_exist_misses

    @pytest.mark.parametrize(
        "cache",
        [
            "_apply_cache",
            "_and_exist_cache",
            "_exist_cache",
            "_replace_cache",
            "_count_cache",
        ],
    )
    def test_limit_set_after_construction_bounds_each_cache(self, cache):
        m = BDDManager(8)
        self._quantify_and_rename(m)
        assert len(getattr(m, cache)) > 1
        m.gc()
        m.cache_limit = 1
        self._quantify_and_rename(m)
        assert len(getattr(m, cache)) <= 1
