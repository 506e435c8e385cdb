"""Unit tests for the Relation type, on both backends."""

import pytest

from repro.relations import JeddError, Relation, Universe


def make_universe(backend):
    u = Universe(backend=backend)
    ty = u.domain("Type", 8)
    sig = u.domain("Sig", 8)
    u.attribute("type", ty)
    u.attribute("subtype", ty)
    u.attribute("supertype", ty)
    u.attribute("tgttype", ty)
    u.attribute("signature", sig)
    u.physical_domain("T1", ty.bits)
    u.physical_domain("T2", ty.bits)
    u.physical_domain("S1", sig.bits)
    u.finalize()
    return u


@pytest.fixture(params=["bdd", "zdd"])
def u(request):
    return make_universe(request.param)


def rel(u, attrs, rows, pds=None):
    return Relation.from_tuples(u, attrs, rows, pds)


class TestConstruction:
    def test_from_tuples_contents(self, u):
        r = rel(u, ["type", "signature"], [("A", "f"), ("B", "g")], ["T1", "S1"])
        assert set(r.tuples()) == {("A", "f"), ("B", "g")}
        assert r.size() == 2

    def test_from_tuple_literal(self, u):
        r = Relation.from_tuple(
            u, {"type": "A", "signature": "f"}, {"type": "T1", "signature": "S1"}
        )
        assert list(r.tuples()) == [("A", "f")]

    def test_from_tuple_auto_physdoms(self, u):
        r = Relation.from_tuple(u, {"type": "A"})
        assert list(r.tuples()) == [("A",)]

    def test_empty_and_full(self, u):
        e = Relation.empty(u, ["type"], ["T1"])
        assert e.size() == 0 and e.is_empty()
        f = Relation.full(u, ["type"], ["T1"])
        assert f.size() == 2 ** u.get_domain("Type").bits
        assert not f.is_empty()

    def test_bool(self, u):
        assert not Relation.empty(u, ["type"], ["T1"])
        assert Relation.from_tuple(u, {"type": "A"}, {"type": "T1"})

    def test_row_arity_mismatch(self, u):
        with pytest.raises(JeddError):
            rel(u, ["type"], [("A", "extra")], ["T1"])

    def test_schema_conflict_same_physdom(self, u):
        with pytest.raises(JeddError):
            rel(u, ["subtype", "supertype"], [], ["T1", "T1"])

    def test_physdom_too_small(self, u):
        small = u.scratch_physdom(1)
        with pytest.raises(JeddError):
            Relation.empty(u, ["type"], [small])

    def test_missing_physdom_count(self, u):
        with pytest.raises(JeddError):
            Relation.empty(u, ["type", "signature"], ["T1"])


class TestSetOps:
    def test_union(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["type"], [("B",)], ["T1"])
        assert set((a | b).tuples()) == {("A",), ("B",)}

    def test_intersect(self, u):
        a = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        b = rel(u, ["type"], [("B",), ("C",)], ["T1"])
        assert set((a & b).tuples()) == {("B",)}

    def test_difference(self, u):
        a = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        b = rel(u, ["type"], [("B",)], ["T1"])
        assert set((a - b).tuples()) == {("A",)}

    def test_setop_aligns_physdoms(self, u):
        # Same schema, different physical domains: runtime inserts replace.
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["type"], [("B",)], ["T2"])
        un = a | b
        assert set(un.tuples()) == {("A",), ("B",)}
        assert un.schema.physdom("type").name == "T1"

    def test_setop_schema_mismatch(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["signature"], [("f",)], ["S1"])
        with pytest.raises(JeddError):
            a | b

    def test_equality_same_tuples_different_physdoms(self, u):
        a = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        b = rel(u, ["type"], [("B",), ("A",)], ["T2"])
        assert a == b

    def test_inequality(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["type"], [("B",)], ["T1"])
        assert a != b

    def test_equality_different_schema_is_false(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["signature"], [("f",)], ["S1"])
        assert a != b

    def test_union_idempotent(self, u):
        a = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        assert (a | a) == a


class TestOrdered:
    def test_reorders_columns_metadata_only(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        o = r.ordered(["signature", "type"])
        assert list(o.schema.names()) == ["signature", "type"]
        assert set(o.tuples()) == {("f", "A")}
        assert o.node == r.node  # same diagram, different presentation

    def test_identity_order_returns_self(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        assert r.ordered(["type", "signature"]) is r

    def test_rejects_non_permutation(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        with pytest.raises(JeddError, match="permutation"):
            r.ordered(["type", "tgttype"])


class TestAttributeOps:
    def test_project_away(self, u):
        r = rel(u, ["type", "signature"], [("A", "f"), ("A", "g")], ["T1", "S1"])
        p = r.project_away("signature")
        assert set(p.tuples()) == {("A",)}
        assert p.size() == 1  # duplicates merged, as the paper notes

    def test_project_onto(self, u):
        r = rel(u, ["type", "signature"], [("A", "f"), ("B", "g")], ["T1", "S1"])
        p = r.project_onto("signature")
        assert set(p.tuples()) == {("f",), ("g",)}

    def test_project_unknown_attribute(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        with pytest.raises(JeddError):
            r.project_away("nope")

    def test_rename_keeps_physdom_and_tuples(self, u):
        r = rel(u, ["subtype"], [("A",)], ["T1"])
        renamed = r.rename({"subtype": "supertype"})
        assert renamed.schema.names() == ("supertype",)
        assert renamed.schema.physdom("supertype").name == "T1"
        assert set(renamed.tuples()) == {("A",)}

    def test_rename_domain_mismatch(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        with pytest.raises(JeddError):
            r.rename({"type": "signature"})

    def test_rename_unknown_source(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        with pytest.raises(JeddError):
            r.rename({"signature": "type"})

    def test_copy_duplicates_attribute(self, u):
        # Figure 4 line 3: (rectype=>rectype tgttype) receiverTypes.
        r = rel(u, ["subtype"], [("A",), ("B",)], ["T1"])
        copied = r.copy("subtype", ["subtype", "tgttype"], ["T2"])
        assert set(copied.schema.names()) == {"subtype", "tgttype"}
        assert set(copied.tuples()) == {("A", "A"), ("B", "B")}

    def test_copy_auto_physdom(self, u):
        r = rel(u, ["subtype"], [("A",)], ["T1"])
        copied = r.copy("subtype", ["subtype", "tgttype"])
        assert set(copied.tuples()) == {("A", "A")}

    def test_copy_needs_two_targets(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        with pytest.raises(JeddError):
            r.copy("type", ["type"])

    def test_copy_target_clash(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        with pytest.raises(JeddError):
            r.copy("type", ["type", "signature"])

    def test_copy_domain_mismatch(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        with pytest.raises(JeddError):
            r.copy("type", ["type", "signature"])


class TestJoinCompose:
    def test_join_keeps_compared(self, u):
        impl = rel(
            u, ["type", "signature"], [("A", "f"), ("B", "g")], ["T1", "S1"]
        )
        ext = rel(u, ["subtype", "supertype"], [("B", "A")], ["T1", "T2"])
        j = impl.join(ext, ["type"], ["subtype"])
        assert set(j.schema.names()) == {"type", "signature", "supertype"}
        assert set(j.tuples()) == {("B", "g", "A")}

    def test_compose_drops_compared(self, u):
        impl = rel(
            u, ["type", "signature"], [("A", "f"), ("B", "g")], ["T1", "S1"]
        )
        ext = rel(u, ["subtype", "supertype"], [("B", "A")], ["T1", "T2"])
        c = impl.compose(ext, ["type"], ["subtype"])
        assert set(c.schema.names()) == {"signature", "supertype"}
        assert set(c.tuples()) == {("g", "A")}

    def test_compose_equals_join_then_project(self, u):
        left = rel(
            u, ["type", "signature"],
            [("A", "f"), ("B", "f"), ("B", "g")], ["T1", "S1"],
        )
        right = rel(u, ["subtype", "supertype"], [("B", "A"), ("A", "A")],
                    ["T1", "T2"])
        via_join = left.join(right, ["type"], ["subtype"]).project_away("type")
        via_compose = left.compose(right, ["type"], ["subtype"])
        assert set(via_join.tuples()) == set(via_compose.tuples())

    def test_join_multi_attribute(self, u):
        # Figure 4 line 7: match on (tgttype, signature).
        toresolve = rel(
            u, ["tgttype", "signature"], [("B", "f"), ("B", "g")], ["T2", "S1"]
        )
        declares = rel(
            u, ["type", "signature"], [("B", "g"), ("A", "f")], ["T1", "S1"]
        )
        j = toresolve.join(declares, ["tgttype", "signature"],
                           ["type", "signature"])
        assert set(j.tuples()) == {("B", "g")}

    def test_join_attribute_overlap_rejected(self, u):
        a = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        b = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        with pytest.raises(JeddError):
            a.join(b, ["type"], ["type"])  # signature on both sides

    def test_join_length_mismatch(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["subtype", "supertype"], [("A", "B")], ["T1", "T2"])
        with pytest.raises(JeddError):
            a.join(b, ["type"], ["subtype", "supertype"])

    def test_join_unknown_attribute(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["subtype"], [("A",)], ["T2"])
        with pytest.raises(JeddError):
            a.join(b, ["nope"], ["subtype"])

    def test_join_domain_mismatch(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["signature"], [("f",)], ["S1"])
        with pytest.raises(JeddError):
            a.join(b, ["type"], ["signature"])

    def test_join_empty_result(self, u):
        a = rel(u, ["type"], [("A",)], ["T1"])
        b = rel(u, ["subtype", "supertype"], [("B", "C")], ["T1", "T2"])
        assert a.join(b, ["type"], ["subtype"]).is_empty()

    def test_join_moves_colliding_private_attrs(self, u):
        # The right relation's private attribute sits in a physical domain
        # the left uses: runtime must move it before intersecting.
        a = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        b = rel(u, ["subtype", "tgttype"], [("A", "B")], ["T2", "T1"])
        j = a.join(b, ["type"], ["subtype"])
        assert set(j.tuples()) == {("A", "f", "B")}

    def test_selection_via_join(self, u):
        # Section 2.2.4: selection = join with a singleton relation.
        r = rel(u, ["type", "signature"], [("A", "f"), ("B", "g")], ["T1", "S1"])
        sel = Relation.from_tuple(u, {"type": "A"}, {"type": "T1"})
        out = sel.join(r, ["type"], ["type"])
        assert set(out.tuples()) == {("A", "f")}


class TestExtraction:
    def test_single_attribute_iterator(self, u):
        r = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        assert sorted(r) == ["A", "B"]

    def test_tuple_iterator(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        assert list(iter(r)) == [("A", "f")]

    def test_tuples_follow_schema_order(self, u):
        rows = {("A", "f"), ("B", "g"), ("C", "f"), ("D", "h")}
        r = rel(u, ["signature", "type"], [(s, t) for t, s in rows],
                ["S1", "T2"])
        assert sorted(r.tuples()) == sorted((s, t) for t, s in rows)
        assert len(list(r.tuples())) == r.size()

    def test_uninterned_index_raises(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        # Type index 5 was never interned.
        stray = r.backend.from_keys(r.schema.levels(), [5])
        bad = Relation(u, r.schema, r.backend.union(r.node, stray))
        with pytest.raises(JeddError, match="not interned"):
            list(bad.tuples())

    def test_len_matches_size(self, u):
        r = rel(u, ["type"], [("A",), ("B",), ("C",)], ["T1"])
        assert len(r) == r.size() == 3

    def test_str_contains_rows(self, u):
        r = rel(u, ["type", "signature"], [("A", "foo()")], ["T1", "S1"])
        text = str(r)
        assert "type" in text and "signature" in text
        assert "A" in text and "foo()" in text

    def test_node_count_and_shape(self, u):
        # "B" interns to index 1, so the encoding has a set bit on both
        # backends (an all-zeros tuple is the ZDD BASE terminal: 0 nodes).
        r = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        sub = rel(u, ["type"], [("B",)], ["T1"])
        assert sub.node_count() > 0
        assert sum(r.shape()) == r.node_count()

    def test_explicit_replace(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        moved = r.replace({"type": "T2"})
        assert moved.schema.physdom("type").name == "T2"
        assert set(moved.tuples()) == {("A",)}
        assert moved == r  # same tuples, so still equal


class TestSelect:
    def test_select_single_attribute(self, u):
        r = rel(u, ["type", "signature"], [("A", "f"), ("B", "g")], ["T1", "S1"])
        out = r.select({"type": "A"})
        assert set(out.tuples()) == {("A", "f")}

    def test_select_keeps_schema(self, u):
        r = rel(u, ["type", "signature"], [("A", "f")], ["T1", "S1"])
        out = r.select({"type": "A"})
        assert out.schema.names() == r.schema.names()

    def test_select_multiple_attributes(self, u):
        r = rel(
            u, ["type", "signature"],
            [("A", "f"), ("A", "g"), ("B", "f")], ["T1", "S1"],
        )
        out = r.select({"type": "A", "signature": "g"})
        assert set(out.tuples()) == {("A", "g")}

    def test_select_no_match(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        assert r.select({"type": "B"}).is_empty()

    def test_select_empty_criteria_is_identity(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        assert r.select({}) == r

    def test_select_unknown_attribute(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        with pytest.raises(JeddError):
            r.select({"nosuch": "A"})


class TestEdgeCases:
    def test_eq_with_non_relation(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        assert (r == 42) is False
        assert (r != "hello") is True

    def test_join_allocates_scratch_when_no_free_physdom(self, u):
        # Both Type physdoms occupied on the left; the right relation's
        # private attribute collides and no declared domain is free with
        # the right width, so the runtime allocates a scratch domain.
        left = rel(
            u, ["subtype", "supertype"], [("A", "B")], ["T1", "T2"]
        )
        right = rel(
            u, ["type", "tgttype"], [("A", "C")], ["T1", "T2"]
        )
        before = len(u.physical_domains())
        j = left.join(right, ["subtype"], ["type"])
        assert set(j.tuples()) == {("A", "B", "C")}
        assert len(u.physical_domains()) >= before  # scratch may appear

    def test_repr_contains_counts(self, u):
        r = rel(u, ["type"], [("A",), ("B",)], ["T1"])
        text = repr(r)
        assert "2 tuples" in text

    def test_dispose_makes_later_gc_safe(self, u):
        r = rel(u, ["type"], [("A",)], ["T1"])
        node = r.node
        r.dispose()
        u.manager.gc()
        # building the same relation again works fine
        again = rel(u, ["type"], [("A",)], ["T1"])
        assert set(again.tuples()) == {("A",)}
        del node


class TestFreePhysdomPreference:
    """Auto-alignment moves an attribute within its own bit-order group
    before it takes an equally wide domain of another family."""

    @staticmethod
    def grouped_universe():
        u = Universe()
        obj = u.domain("Obj", 16)
        meth = u.domain("Method", 16)
        for name in ("obj", "baseobj", "srcobj"):
            u.attribute(name, obj)
        u.attribute("method", meth)
        # M1 is declared before H2/H3 and has the same width.
        for name in ("H1", "M1", "H2", "H3"):
            u.physical_domain(name, obj.bits)
        u.set_bit_order([["H1", "H2", "H3"], ["M1"]])
        u.finalize()
        return u

    def test_group_before_declaration_order(self):
        from repro.relations.relation import _free_physdom

        u = self.grouped_universe()
        h1, m1, h2, h3 = (u.get_physdom(n) for n in ("H1", "M1", "H2", "H3"))
        assert _free_physdom(u, h1.bits, [h1], near=h1) is h2
        assert _free_physdom(u, h1.bits, [h1, h2], near=h1) is h3
        assert _free_physdom(u, h1.bits, [h1, h2, h3], near=h1) is m1
        # Without a domain to stay near, declaration order decides.
        assert _free_physdom(u, h1.bits, [h1]) is m1

    def test_join_moves_colliding_attribute_within_its_family(self):
        u = self.grouped_universe()
        left = rel(u, ["obj"], [("a",)], ["H1"])
        right = rel(u, ["baseobj", "srcobj"], [("a", "b")], ["H2", "H1"])
        j = left.join(right, ["obj"], ["baseobj"])
        assert set(j.tuples()) == {("a", "b")}
        assert j.schema.physdom("srcobj").name in ("H2", "H3")

    def test_copy_takes_a_domain_of_the_same_family(self):
        u = self.grouped_universe()
        r = rel(u, ["obj"], [("a",)], ["H1"])
        c = r.copy("obj", ["obj", "baseobj"])
        assert c.schema.physdom("baseobj").name == "H2"
        assert set(c.tuples()) == {("a", "a")}

    def test_literal_without_physdoms_uses_declared_domains(self):
        u = self.grouped_universe()
        before = u.manager.num_vars
        r = Relation.from_tuple(u, {"obj": "a", "baseobj": "b"})
        assert [pd.name for _, pd in r.schema.pairs] == ["H1", "H2"]
        assert u.manager.num_vars == before
