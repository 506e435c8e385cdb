"""Dynamic variable reordering: the swap primitive and sifting.

The level swap mutates the shared node table in place under live
external references, so these tests lean on ``check_integrity()``
(which re-derives the unique table, the level index, and the parent
counts from scratch) and on truth-table comparison before/after every
mutation.
"""

import random

import pytest

from repro.bdd import FALSE, TRUE, BDDManager, FDDManager, ZDDManager
from repro.bdd.io import dumps_diagram, loads_diagram
from repro.bdd.manager import BDDError
from repro.profiler import Profiler
from repro.relations import Relation, Universe, UnsupportedByBackend


def truth_table(m, f, n):
    """The function of ``f`` as a tuple over all 2^n variable-id inputs."""
    return tuple(
        m.eval(f, lambda v, bits=bits: bool(bits >> v & 1))
        for bits in range(1 << n)
    )


def random_function(m, rng, n, cubes=8, width=3):
    f = FALSE
    for _ in range(cubes):
        assignment = {
            v: rng.random() < 0.5 for v in rng.sample(range(n), width)
        }
        f = m.apply_or(f, m.cube(assignment))
    return f


def separated_equality(n_bits):
    """x == y with x's bits all above y's bits: the classic bad order."""
    m = BDDManager(2 * n_bits)
    eq = TRUE
    for k in range(n_bits):
        a, b = m.var(k), m.var(n_bits + k)
        eq = m.apply_and(eq, m.apply_not(m.apply_xor(a, b)))
    return m, eq


class TestSwapPrimitive:
    def test_swap_twice_is_identity(self):
        rng = random.Random(42)
        n = 6
        m = BDDManager(n)
        f = m.ref(random_function(m, rng, n))
        m.gc()
        order = m.current_order()
        nodes = m.num_nodes
        table = truth_table(m, f, n)
        for level in range(n - 1):
            m.swap_levels(level)
            m.check_integrity()
            m.swap_levels(level)
            m.check_integrity()
            assert m.current_order() == order
            assert m.num_nodes == nodes
            assert truth_table(m, f, n) == table

    def test_swap_preserves_functions_and_node_identity(self):
        rng = random.Random(7)
        n = 7
        m = BDDManager(n)
        funcs = [m.ref(random_function(m, rng, n)) for _ in range(6)]
        tables = [truth_table(m, f, n) for f in funcs]
        for _ in range(60):
            m.swap_levels(rng.randrange(n - 1))
            m.check_integrity()
        # The *same node indices* still denote the same functions.
        assert [truth_table(m, f, n) for f in funcs] == tables

    def test_swap_updates_var_level_maps(self):
        m = BDDManager(4)
        m.swap_levels(1)
        assert m.current_order() == [0, 2, 1, 3]
        assert m.level_of_var(2) == 1
        assert m.var_at_level(2) == 1
        f = m.var(2)
        assert m.var_of(f) == 2
        assert m.level_of(f) == 1

    def test_swap_node_count_invariant(self):
        # Swapping adjacent independent variables never changes counts.
        m = BDDManager(4)
        f = m.apply_and(m.var(0), m.var(3))
        m.ref(f)
        m.gc()
        before = m.num_nodes
        m.swap_levels(1)  # vars 1 and 2: neither occurs in f
        assert m.num_nodes == before
        m.check_integrity()

    def test_swap_preserves_refcounts(self):
        rng = random.Random(3)
        n = 5
        m = BDDManager(n)
        f = random_function(m, rng, n)
        m.ref(f)
        m.ref(f)
        for level in range(n - 1):
            m.swap_levels(level)
        assert m.ref_count(f) == 2
        m.gc()  # must not free f
        assert truth_table(m, f, n) == truth_table(m, f, n)
        m.deref(f)
        m.deref(f)

    def test_swap_invalidates_op_caches(self):
        m = BDDManager(4)
        a, b = m.var(0), m.var(1)
        m.ref(m.apply_and(a, b))  # populates the apply cache
        assert m._apply_cache
        m.exist(m.apply_and(a, b), [0])
        assert m._exist_cache
        m.swap_levels(0)
        assert not m._apply_cache
        assert not m._not_cache
        assert not m._exist_cache
        assert not m._and_exist_cache
        assert not m._replace_cache

    def test_swap_reclaims_orphans(self):
        # After swapping, nodes only reachable from rewritten interiors
        # must be freed so sifting sees exact sizes.
        m, eq = separated_equality(4)
        m.ref(eq)
        m.gc()
        sizes = [m.num_nodes]
        for level in range(7):
            sizes.append(m.swap_levels(level))
            m.check_integrity()
        # exact live count maintained incrementally == full recount
        recount = m.num_nodes
        m.gc()
        assert m.num_nodes == recount

    def test_swap_rejects_bad_level(self):
        m = BDDManager(3)
        with pytest.raises(BDDError):
            m.swap_levels(2)
        with pytest.raises(BDDError):
            m.swap_levels(-1)


class TestSifting:
    def test_sift_shrinks_bad_order_equality(self):
        n_bits = 6
        m, eq = separated_equality(n_bits)
        m.ref(eq)
        m.gc()
        before = m.num_nodes
        table = truth_table(m, eq, 2 * n_bits)
        event = m.sift()
        m.check_integrity()
        # Separated equality is exponential, interleaved is linear:
        # sifting must strictly shrink it, and by a lot.
        assert event.nodes_before == before
        assert event.nodes_after == m.num_nodes
        assert m.num_nodes < before / 2
        assert truth_table(m, eq, 2 * n_bits) == table
        assert event.method == "sift"
        assert event.trigger == "manual"
        assert sorted(event.order) == list(range(2 * n_bits))
        assert event.swaps > 0
        assert event.seconds >= 0.0

    def test_sift_good_order_does_not_grow(self):
        rng = random.Random(11)
        n = 8
        m = BDDManager(n)
        f = m.ref(random_function(m, rng, n, cubes=12))
        m.gc()
        before = m.num_nodes
        m.sift()
        assert m.num_nodes <= before

    def test_group_sift_keeps_blocks_contiguous(self):
        m, eq = separated_equality(4)
        m.ref(eq)
        groups = [[0, 1], [2, 3], [4, 5], [6, 7]]
        event = m.sift_groups(groups)
        m.check_integrity()
        assert event.method == "group-sift"
        order = m.current_order()
        for group in groups:
            positions = sorted(order.index(v) for v in group)
            assert positions == list(
                range(positions[0], positions[0] + len(group))
            )

    def test_set_order_and_roundtrip(self):
        rng = random.Random(5)
        n = 6
        m = BDDManager(n)
        f = m.ref(random_function(m, rng, n))
        table = truth_table(m, f, n)
        order = list(range(n))
        rng.shuffle(order)
        m.set_order(order)
        m.check_integrity()
        assert m.current_order() == order
        assert truth_table(m, f, n) == table
        m.set_order(list(range(n)))
        assert m.current_order() == list(range(n))
        assert truth_table(m, f, n) == table

    def test_set_order_rejects_non_permutation(self):
        m = BDDManager(3)
        with pytest.raises(BDDError):
            m.set_order([0, 1])
        with pytest.raises(BDDError):
            m.set_order([0, 1, 1])

    def test_public_api_uses_stable_variable_ids(self):
        # After reordering, var/exist/support/all_sat/sat_count all keep
        # speaking the original variable ids.
        m, eq = separated_equality(3)
        m.ref(eq)
        m.sift()
        assert m.support(eq) == frozenset(range(6))
        assert m.sat_count(eq, list(range(6))) == 8
        sols = {
            tuple(sorted(s.items())) for s in m.all_sat(eq, list(range(6)))
        }
        expected = set()
        for v in range(8):
            sol = {}
            for k in range(3):
                sol[k] = bool(v >> k & 1)
                sol[3 + k] = bool(v >> k & 1)
            expected.add(tuple(sorted(sol.items())))
        assert sols == expected
        ex = m.exist(eq, [0, 3])
        assert m.support(ex) == frozenset([1, 2, 4, 5])

    def test_replace_after_reorder(self):
        m, eq = separated_equality(3)
        m.ref(eq)
        m.sift()
        # Swap the two halves: x == y is symmetric, so this is identity.
        perm = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
        assert m.replace(eq, perm) == eq

    def test_io_roundtrip_across_orders(self):
        m, eq = separated_equality(3)
        m.ref(eq)
        text = dumps_diagram(m, eq)
        m.sift()
        # Loading a pre-reorder dump into the reordered manager gives
        # back the identical (hash-consed) function.
        assert loads_diagram(m, text) == eq
        # And a post-reorder dump loads into a fresh identity-order
        # manager as the same function.
        m2 = BDDManager(6)
        root = loads_diagram(m2, dumps_diagram(m, eq))
        assert truth_table(m2, root, 6) == truth_table(m, eq, 6)


class TestAutoReorder:
    def _grow(self, m, rng, n, rounds=30):
        f = FALSE
        for _ in range(rounds):
            f = m.apply_or(f, random_function(m, rng, n, cubes=4))
            m.ref(f)
            m.maybe_gc()  # the operation-boundary hook
            m.deref(f)
        return f

    def test_auto_trigger_fires_and_backs_off(self):
        rng = random.Random(13)
        n = 12
        m = BDDManager(n)
        m.enable_reorder(threshold=64)
        events = []
        m.reorder_listeners.append(events.append)
        self._grow(m, rng, n)
        assert m.reorder_count >= 1
        assert events and all(e.trigger == "auto" for e in events)
        # Back-off: the threshold was raised past the size the table
        # settled at after the last pass.
        assert m.reorder_threshold >= 2 * events[-1].nodes_after
        m.check_integrity()

    def test_disable_reorder_suppresses(self):
        rng = random.Random(13)
        n = 12
        m = BDDManager(n)
        m.enable_reorder(threshold=64)
        with m.disable_reorder():
            self._grow(m, rng, n)
            assert m.reorder_count == 0
            with m.disable_reorder():  # reentrant
                m.maybe_gc()
            assert m.reorder_count == 0
        # After the guard exits, triggering works again.
        self._grow(m, rng, n)
        assert m.reorder_count >= 1

    def test_no_trigger_when_gc_suffices(self):
        # If collecting garbage alone gets under the threshold, the
        # (expensive) sift must not run.
        m = BDDManager(8)
        m.enable_reorder(threshold=32)
        rng = random.Random(1)
        for _ in range(20):
            random_function(m, rng, 8)  # all garbage, nothing referenced
        assert m.num_nodes > 32
        m.maybe_gc()
        assert m.reorder_count == 0

    def test_profiler_records_reorder_events(self):
        rng = random.Random(13)
        m = BDDManager(12)
        m.enable_reorder(threshold=64)
        prof = Profiler()
        prof.install()
        prof.observe_manager(m)
        try:
            self._grow(m, rng, 12)
        finally:
            prof.uninstall()
        assert prof.reorder_events
        ev = prof.reorder_events[0]
        assert ev.trigger == "auto"
        assert ev.nodes_before > 0 and ev.nodes_after > 0
        assert sorted(ev.order) == list(range(12))
        # uninstall disabled the profiler's own session, which
        # detached the one listener it put on the manager
        assert not m.reorder_listeners

    def test_gc_after_reorder_keeps_live_nodes(self):
        rng = random.Random(99)
        n = 10
        m = BDDManager(n)
        funcs = [m.ref(random_function(m, rng, n)) for _ in range(4)]
        tables = [truth_table(m, f, n) for f in funcs]
        m.sift()
        m.deref(funcs[0])
        m.gc()
        m.check_integrity()
        assert [truth_table(m, f, n) for f in funcs[1:]] == tables[1:]
        m.sift()
        m.check_integrity()
        assert [truth_table(m, f, n) for f in funcs[1:]] == tables[1:]


class TestBackendSurface:
    def test_zdd_backend_raises_unsupported(self):
        from repro.relations.backend import _backend_for

        backend = _backend_for(ZDDManager(4))
        assert not backend.supports_reorder()
        with pytest.raises(UnsupportedByBackend):
            backend.reorder()
        with pytest.raises(UnsupportedByBackend):
            backend.enable_reorder(threshold=16)
        # the guard is a portable no-op
        with backend.disable_reorder():
            pass

    def test_universe_reorder_on_zdd_raises(self):
        u = Universe(backend="zdd")
        u.domain("D", 4)
        u.physical_domain("P1", 2)
        u.finalize()
        with pytest.raises(UnsupportedByBackend):
            u.enable_reorder(threshold=16)
        with pytest.raises(UnsupportedByBackend):
            u.reorder()
        with u.disable_reorder():
            pass

    def test_universe_group_reorder_preserves_relations(self):
        u = Universe(backend="bdd", ordering="sequential")
        dom = u.domain("D", 16)
        for name in ("a", "b"):
            u.attribute(name, dom)
        u.physical_domain("P1", 4)
        u.physical_domain("P2", 4)
        u.finalize()
        rows = [(i, (i * 7 + 3) % 16) for i in range(16)]
        rel = Relation.from_tuples(u, ["a", "b"], rows, ["P1", "P2"])
        before = set(rel.tuples())
        event = u.reorder(groups=u.physdom_groups())
        assert event.method == "group-sift"
        assert set(rel.tuples()) == before
        u.manager.check_integrity()
        # physical domain blocks stayed contiguous
        order = u.manager.current_order()
        for pd in u.physical_domains():
            positions = sorted(order.index(v) for v in pd.levels)
            assert positions == list(
                range(positions[0], positions[0] + len(pd.levels))
            )

    def test_fdd_domain_sift(self):
        fm = FDDManager()
        x, y = fm.extdomain([("x", 32), ("y", 32)], interleave=False)
        eq = fm.manager.ref(fm.equals(x, y))
        before_tuples = set(fm.all_tuples(eq, x, y))
        fm.manager.gc()
        before = fm.manager.num_nodes
        event = fm.sift(group_by_domain=False)
        assert event.nodes_after <= before
        assert set(fm.all_tuples(eq, x, y)) == before_tuples
        # grouped variant keeps each domain's bits together
        fm.sift(group_by_domain=True)
        order = fm.manager.current_order()
        for dom in (x, y):
            positions = sorted(order.index(v) for v in dom.levels)
            assert positions == list(
                range(positions[0], positions[0] + len(dom.levels))
            )
        fm.enable_reorder(threshold=8)
        assert fm.manager.reorder_enabled
        with fm.disable_reorder():
            assert fm.manager._reorder_suppressed == 1


@pytest.mark.reorder_stress
class TestReorderStress:
    def test_random_swap_fuzz(self):
        rng = random.Random(2026)
        for round_ in range(15):
            n = rng.randrange(3, 10)
            m = BDDManager(n)
            funcs = [
                m.ref(random_function(m, rng, n, cubes=rng.randrange(2, 10)))
                for _ in range(5)
            ]
            tables = [truth_table(m, f, n) for f in funcs]
            for _ in range(120):
                action = rng.random()
                if action < 0.70:
                    m.swap_levels(rng.randrange(n - 1))
                elif action < 0.80:
                    m.gc()
                elif action < 0.90:
                    m.sift(max_growth=1.0 + rng.random() * 2)
                else:
                    order = list(range(n))
                    rng.shuffle(order)
                    m.set_order(order)
                m.check_integrity()
            assert [truth_table(m, f, n) for f in funcs] == tables

    def test_sift_under_operation_load(self):
        rng = random.Random(4)
        n = 10
        m = BDDManager(n)
        m.enable_reorder(threshold=32)
        acc = FALSE
        for step in range(200):
            f = random_function(m, rng, n, cubes=3)
            acc = m.apply_or(acc, f) if step % 3 else m.apply_diff(acc, f)
            m.ref(acc)
            m.maybe_gc()
            m.deref(acc)
        m.ref(acc)
        m.check_integrity()
        assert m.reorder_count >= 1
