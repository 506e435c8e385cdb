"""Tests for the relation lifetime API: dispose(), `with` blocks,
Universe.scope(), and the open_universe() factory."""

import warnings

import pytest

from repro.relations import (
    JeddError,
    Relation,
    RelationScope,
    Universe,
    open_universe,
)


def make_universe(backend="bdd"):
    return open_universe(
        backend=backend,
        domains={"Node": 16},
        attributes={"src": "Node", "dst": "Node"},
        physdoms={"N1": 4, "N2": 4},
    )


@pytest.fixture(params=["bdd", "zdd"])
def u(request):
    return make_universe(request.param)


class TestDispose:
    def test_dispose_is_idempotent(self, u):
        r = u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        assert not r.disposed
        r.dispose()
        assert r.disposed
        r.dispose()  # second call is a no-op
        assert r.disposed

    def test_with_block_disposes(self, u):
        with u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"]) as r:
            assert r.size() == 1
        assert r.disposed


class TestScope:
    def test_scope_disposes_all_but_kept(self, u):
        with u.scope() as sc:
            temp = u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
            kept = sc.keep(temp | temp)
        assert temp.disposed
        assert not kept.disposed
        assert kept.size() == 1

    def test_scope_returns_relationscope(self, u):
        sc = u.scope()
        assert isinstance(sc, RelationScope)

    def test_nested_scopes_track_innermost(self, u):
        with u.scope() as outer:
            a = u.relation_of(["src"], [(1,)], ["N1"])
            with u.scope() as inner:
                b = u.relation_of(["src"], [(2,)], ["N1"])
                c = inner.keep(a | b)
            assert b.disposed
            # Relations kept from an inner scope registered with that
            # scope only; they survive the outer scope too.
            assert not c.disposed
        assert a.disposed
        assert not c.disposed

    def test_scope_disposes_on_exception(self, u):
        with pytest.raises(RuntimeError):
            with u.scope():
                r = u.relation_of(["src"], [(3,)], ["N1"])
                raise RuntimeError("boom")
        assert r.disposed

    def test_relations_outside_scope_untracked(self, u):
        before = u.relation_of(["src"], [(1,)], ["N1"])
        with u.scope():
            pass
        assert not before.disposed


class TestOpenUniverse:
    def test_factory_finalizes_with_physdoms(self):
        u = make_universe()
        assert u.finalized
        r = u.relation_of(["src", "dst"], [(0, 1)], ["N1", "N2"])
        assert set(r.tuples()) == {(0, 1)}

    def test_factory_backends(self):
        from repro.relations.backend import BDDBackend, ZDDBackend

        ub = make_universe("bdd")
        uz = make_universe("zdd")
        rb = ub.empty(["src"], ["N1"])
        rz = uz.empty(["src"], ["N1"])
        assert isinstance(rb.backend, BDDBackend)
        assert isinstance(rz.backend, ZDDBackend)

    def test_factory_without_physdoms_stays_open(self):
        u = open_universe(domains={"Node": 16})
        assert not u.finalized
        u.attribute("src", u.get_domain("Node"))
        u.physical_domain("N1", 4)
        u.finalize()
        assert u.finalized

    def test_factory_bit_order(self):
        u = open_universe(
            domains={"Node": 16},
            attributes={"src": "Node", "dst": "Node"},
            physdoms={"N1": 4, "N2": 4},
            bit_order=[["N2"], ["N1"]],
        )
        assert u.finalized

    def test_convenience_constructors(self, u):
        assert u.empty(["src"], ["N1"]).is_empty()
        assert u.full(["src"], ["N1"]).size() == 16
        assert list(u.relation({"src": 5}, {"src": "N1"}).tuples()) == [(5,)]
        assert u.relation_of(["src"], [(1,), (2,)], ["N1"]).size() == 2

    def test_internal_paths_emit_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            u = make_universe()
            with u.scope() as sc:
                a = u.relation_of(["src", "dst"], [(0, 1)], ["N1", "N2"])
                b = sc.keep(a | a)
            assert b.size() == 1


class TestEqualityAcrossUniverses:
    def test_same_universe_equality(self, u):
        a = u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        b = u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        c = u.relation_of(["src", "dst"], [(3, 4)], ["N1", "N2"])
        assert a == b
        assert a != c

    def test_cross_universe_compare_is_false_not_an_error(self):
        u1 = make_universe()
        u2 = make_universe()
        a = u1.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        b = u2.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        assert (a == b) is False
        assert (a != b) is True

    def test_cross_backend_compare_is_false_not_an_error(self):
        u1 = make_universe("bdd")
        u2 = make_universe("zdd")
        a = u1.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        b = u2.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        assert (a == b) is False
        assert (a != b) is True

    def test_eq_returns_notimplemented_for_foreign_relation(self):
        u1 = make_universe()
        u2 = make_universe()
        a = u1.relation_of(["src"], [(1,)], ["N1"])
        b = u2.relation_of(["src"], [(1,)], ["N1"])
        assert a.__eq__(b) is NotImplemented
        assert a.__eq__(42) is NotImplemented

    def test_hash_consistent_with_eq(self, u):
        a = u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        b = u.relation_of(["src", "dst"], [(1, 2)], ["N1", "N2"])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hash_distinguishes_universes(self):
        # Not a contract (hash collisions are legal), but the intended
        # behaviour: same-schema relations of different universes
        # hash apart and land in different set slots.
        u1 = make_universe()
        u2 = make_universe()
        a = u1.relation_of(["src"], [(1,)], ["N1"])
        b = u2.relation_of(["src"], [(1,)], ["N1"])
        assert len({a, b}) == 2
