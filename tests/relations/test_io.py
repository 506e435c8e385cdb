"""Tests for relation and diagram persistence."""

import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDError, BDDManager, ZDDManager
from repro.bdd.io import (
    dumps_diagram,
    dumps_diagram_binary,
    load_diagram,
    load_diagram_binary,
    loads_diagram,
    loads_diagram_binary,
    save_diagram,
    save_diagram_binary,
)
from repro.relations import JeddError, Relation, Universe
from repro.relations.io import (
    load_checkpoint,
    load_checkpoint_binary,
    load_tsv,
    save_checkpoint,
    save_checkpoint_binary,
    save_tsv,
)


def make_universe(ordering="interleaved"):
    u = Universe(ordering=ordering)
    d = u.domain("D", 16)
    u.attribute("a", d)
    u.attribute("b", d)
    u.physical_domain("P1", d.bits)
    u.physical_domain("P2", d.bits)
    u.finalize()
    return u


ROWS = [("x1", "y1"), ("x2", "y2"), ("x1", "y2")]


class TestDiagramIO:
    def test_roundtrip_same_manager(self):
        m = BDDManager(6)
        f = m.apply_or(m.apply_and(m.var(0), m.var(3)), m.nvar(5))
        again = loads_diagram(m, dumps_diagram(m, f))
        assert again == f  # canonical: identical node

    def test_roundtrip_fresh_manager(self):
        m1 = BDDManager(6)
        f = m1.apply_xor(m1.var(1), m1.var(4))
        text = dumps_diagram(m1, f)
        m2 = BDDManager(6)
        g = loads_diagram(m2, text)
        for bits in range(64):
            assign = lambda lv: bool(bits >> lv & 1)
            assert m1.eval(f, assign) == m2.eval(g, assign)

    def test_terminals(self):
        m = BDDManager(2)
        assert loads_diagram(m, dumps_diagram(m, 0)) == 0
        assert loads_diagram(m, dumps_diagram(m, 1)) == 1

    def test_zdd_roundtrip(self):
        z = ZDDManager(5)
        s = z.union(z.single([0, 2]), z.single([1, 4]))
        again = loads_diagram(z, dumps_diagram(z, s))
        assert again == s

    def test_kind_mismatch(self):
        m = BDDManager(4)
        z = ZDDManager(4)
        text = dumps_diagram(m, m.var(1))
        with pytest.raises(BDDError):
            loads_diagram(z, text)

    def test_too_few_variables(self):
        m1 = BDDManager(8)
        text = dumps_diagram(m1, m1.var(7))
        with pytest.raises(BDDError):
            loads_diagram(BDDManager(4), text)

    def test_file_api(self, tmp_path):
        m = BDDManager(4)
        f = m.apply_and(m.var(0), m.var(2))
        path = tmp_path / "diagram.bdd"
        with open(path, "w") as fp:
            save_diagram(m, f, fp)
        with open(path) as fp:
            assert load_diagram(m, fp) == f

    def test_corrupt_inputs(self):
        m = BDDManager(4)
        for text in ("", "bdd 4\n", "bdd 4 1 2\nnot numbers\n"):
            with pytest.raises((BDDError, ValueError)):
                loads_diagram(m, text)


class TestDeepDiagrams:
    """Serializers must use an explicit stack: a cube over thousands of
    variables is a single chain far deeper than the default recursion
    limit, and the old recursive ``visit`` overflowed on it."""

    DEPTH = 3000

    def test_bdd_chain_beyond_recursion_limit(self):
        assert self.DEPTH > sys.getrecursionlimit()
        m = BDDManager(self.DEPTH)
        cube = m.cube({v: v % 2 == 0 for v in range(self.DEPTH)})
        text = dumps_diagram(m, cube)
        data = dumps_diagram_binary(m, cube)
        assert loads_diagram(m, text) == cube
        assert loads_diagram_binary(m, data) == cube
        fresh = BDDManager(self.DEPTH)
        assert loads_diagram(fresh, text) == loads_diagram_binary(
            BDDManager(self.DEPTH), data
        )

    def test_zdd_chain_beyond_recursion_limit(self):
        z = ZDDManager(self.DEPTH)
        s = z.single(list(range(0, self.DEPTH, 2)))
        text = dumps_diagram(z, s)
        data = dumps_diagram_binary(z, s)
        assert loads_diagram(z, text) == s
        assert loads_diagram_binary(z, data) == s

    def test_postorder_children_first(self):
        m = BDDManager(8)
        f = m.apply_or(m.apply_and(m.var(0), m.var(3)), m.nvar(6))
        order = m.postorder(f)
        assert order[-1] == f
        seen = {0, 1}
        for node in order:
            assert m._low[node] in seen and m._high[node] in seen
            seen.add(node)


class TestBinaryDiagramIO:
    def test_roundtrip_same_manager(self):
        m = BDDManager(6)
        f = m.apply_or(m.apply_and(m.var(0), m.var(3)), m.nvar(5))
        assert loads_diagram_binary(m, dumps_diagram_binary(m, f)) == f

    def test_roundtrip_fresh_manager(self):
        m1 = BDDManager(6)
        f = m1.apply_xor(m1.var(1), m1.var(4))
        data = dumps_diagram_binary(m1, f)
        m2 = BDDManager(6)
        g = loads_diagram_binary(m2, data)
        for bits in range(64):
            assign = lambda lv: bool(bits >> lv & 1)
            assert m1.eval(f, assign) == m2.eval(g, assign)

    def test_terminals(self):
        m = BDDManager(2)
        z = ZDDManager(2)
        for mgr in (m, z):
            for term in (0, 1):
                data = dumps_diagram_binary(mgr, term)
                assert loads_diagram_binary(mgr, data) == term

    def test_zdd_roundtrip(self):
        z = ZDDManager(5)
        s = z.union(z.single([0, 2]), z.single([1, 4]))
        assert loads_diagram_binary(z, dumps_diagram_binary(z, s)) == s

    def test_kind_mismatch(self):
        m = BDDManager(4)
        z = ZDDManager(4)
        data = dumps_diagram_binary(m, m.var(1))
        with pytest.raises(BDDError):
            loads_diagram_binary(z, data)

    def test_minimal_num_vars_header(self):
        # A manager that grew scratch variables writes only the support
        # it uses, so the diagram loads into a smaller manager.
        big = BDDManager(8)
        big.add_vars(8)
        f = big.apply_and(big.var(0), big.var(7))
        data = dumps_diagram_binary(big, f)
        small = BDDManager(8)
        g = loads_diagram_binary(small, data)
        for bits in range(256):
            assign = lambda lv: bool(bits >> lv & 1)
            assert big.eval(f, assign) == small.eval(g, assign)

    def test_too_few_variables(self):
        m1 = BDDManager(8)
        data = dumps_diagram_binary(m1, m1.var(7))
        with pytest.raises(BDDError):
            loads_diagram_binary(BDDManager(4), data)

    def test_corrupt_inputs(self):
        m = BDDManager(4)
        good = dumps_diagram_binary(m, m.apply_and(m.var(0), m.var(2)))
        for data in (
            b"",
            b"JDD",
            b"XXXX\x00\x04\x01\x02",
            good[:-1],          # truncated node table
            good[:5],           # header only
            b"JDDB\x07" + good[5:],  # unknown kind byte
        ):
            with pytest.raises(BDDError):
                loads_diagram_binary(m, data)

    def test_file_api(self, tmp_path):
        m = BDDManager(4)
        f = m.apply_and(m.var(0), m.var(2))
        path = tmp_path / "diagram.bddb"
        with open(path, "wb") as fp:
            assert save_diagram_binary(m, f, fp) > 0
        with open(path, "rb") as fp:
            assert load_diagram_binary(m, fp) == f

    def test_cross_format_equivalence(self):
        """text and binary load to the same canonical root."""
        m1 = BDDManager(8)
        f = m1.apply_or(
            m1.apply_and(m1.var(0), m1.nvar(4)),
            m1.apply_xor(m1.var(2), m1.var(7)),
        )
        text = dumps_diagram(m1, f)
        data = dumps_diagram_binary(m1, f)
        m2 = BDDManager(8)
        assert loads_diagram(m2, text) == loads_diagram_binary(m2, data)

    def test_binary_smaller_than_text(self):
        m = BDDManager(24)
        rng = random.Random(7)
        f = 0
        for _ in range(40):
            f = m.apply_or(
                f, m.cube({v: rng.random() < 0.5 for v in
                           rng.sample(range(24), 6)})
            )
        text = dumps_diagram(m, f)
        data = dumps_diagram_binary(m, f)
        assert len(data) * 3 <= len(text)


class TestTSV:
    def test_roundtrip(self):
        u = make_universe()
        r = Relation.from_tuples(u, ["a", "b"], ROWS, ["P1", "P2"])
        buf = io.StringIO()
        assert save_tsv(r, buf) == 3
        buf.seek(0)
        again = load_tsv(u, buf, ["P1", "P2"])
        assert set(again.tuples()) == set(ROWS)
        assert again == r

    def test_roundtrip_across_universes(self):
        u1 = make_universe()
        r = Relation.from_tuples(u1, ["a", "b"], ROWS, ["P1", "P2"])
        buf = io.StringIO()
        save_tsv(r, buf)
        buf.seek(0)
        u2 = make_universe()
        again = load_tsv(u2, buf, ["P1", "P2"])
        assert set(again.tuples()) == set(ROWS)

    def test_empty_file_rejected(self):
        u = make_universe()
        with pytest.raises(JeddError):
            load_tsv(u, io.StringIO(""))

    def test_arity_mismatch_rejected(self):
        u = make_universe()
        bad = io.StringIO("a\tb\nonly_one\n")
        with pytest.raises(JeddError):
            load_tsv(u, bad)

    def test_empty_relation(self):
        u = make_universe()
        r = Relation.empty(u, ["a"], ["P1"])
        buf = io.StringIO()
        assert save_tsv(r, buf) == 0
        buf.seek(0)
        assert load_tsv(u, buf, ["P1"]).is_empty()


class TestBinaryCheckpoint:
    def test_roundtrip_same_universe(self):
        u = make_universe()
        r = Relation.from_tuples(u, ["a", "b"], ROWS, ["P1", "P2"])
        buf = io.BytesIO()
        assert save_checkpoint_binary(r, buf) > 0
        buf.seek(0)
        again = load_checkpoint_binary(u, buf)
        assert again == r
        assert again.schema.names() == r.schema.names()

    def test_smaller_than_text_checkpoint(self):
        u = make_universe()
        r = Relation.from_tuples(u, ["a", "b"], ROWS, ["P1", "P2"])
        tbuf, bbuf = io.StringIO(), io.BytesIO()
        save_checkpoint(r, tbuf)
        save_checkpoint_binary(r, bbuf)
        assert len(bbuf.getvalue()) < len(tbuf.getvalue().encode())

    def test_binary_wire_format_at_least_3x_smaller(self):
        """On a solved points-to relation (javac-s), the binary
        checkpoint is at least 3x smaller than the text one."""
        from repro.analyses import AnalysisUniverse, PointsTo
        from repro.analyses.facts import preset

        pt = PointsTo(AnalysisUniverse(preset("javac-s"))).solve()
        tbuf, bbuf = io.StringIO(), io.BytesIO()
        save_checkpoint(pt, tbuf)
        size = save_checkpoint_binary(pt, bbuf)
        text = len(tbuf.getvalue().encode())
        assert size == len(bbuf.getvalue())
        assert size * 3 <= text, (
            f"binary {size} B vs text {text} B: "
            f"only {text / size:.2f}x smaller, expected >= 3x"
        )

    def test_bad_header(self):
        u = make_universe()
        with pytest.raises(JeddError):
            load_checkpoint_binary(u, io.BytesIO(b"not a checkpoint\n"))


class TestCheckpointLayout:
    """A checkpoint names the variables each physical domain sat at, so
    loading it under a different bit order fails instead of decoding
    the diagram into a different relation."""

    FORMATS = [
        (save_checkpoint, load_checkpoint, io.StringIO),
        (save_checkpoint_binary, load_checkpoint_binary, io.BytesIO),
    ]

    def _saved(self, save, buffer):
        u = make_universe("interleaved")
        r = Relation.from_tuples(u, ["a", "b"], [(1, 2), (3, 4)], ["P1", "P2"])
        buf = buffer()
        save(r, buf)
        return buf.getvalue()

    def _target(self, ordering):
        u = make_universe(ordering)
        for v in (1, 2, 3, 4):
            u.get_domain("D").intern(v)
        return u

    @pytest.mark.parametrize("save,load,buffer", FORMATS, ids=["text", "binary"])
    def test_different_bit_order_is_rejected(self, save, load, buffer):
        saved = self._saved(save, buffer)
        with pytest.raises(JeddError, match="bit order"):
            load(self._target("sequential"), buffer(saved))

    @pytest.mark.parametrize("save,load,buffer", FORMATS, ids=["text", "binary"])
    def test_header_without_variable_ids_still_loads(self, save, load, buffer):
        saved = self._saved(save, buffer)
        old_header, newline = "schema a:P1 b:P2", "\n"
        if buffer is io.BytesIO:
            old_header, newline = old_header.encode(), newline.encode()
        rest = saved.partition(newline)[2]
        again = load(
            self._target("interleaved"), buffer(old_header + newline + rest)
        )
        assert set(again.tuples()) == {(1, 2), (3, 4)}


class TestCheckpoint:
    def test_roundtrip_same_universe(self):
        u = make_universe()
        r = Relation.from_tuples(u, ["a", "b"], ROWS, ["P1", "P2"])
        buf = io.StringIO()
        save_checkpoint(r, buf)
        buf.seek(0)
        again = load_checkpoint(u, buf)
        assert again == r
        assert again.schema.names() == r.schema.names()

    def test_roundtrip_identically_declared_universe(self):
        u1 = make_universe()
        r = Relation.from_tuples(u1, ["a", "b"], ROWS, ["P1", "P2"])
        # Interned objects must match for decoding; replay the interning.
        u2 = make_universe()
        for row in ROWS:
            u2.get_domain("D").intern(row[0])
            u2.get_domain("D").intern(row[1])
        # Both universes interned in the same order, so bit patterns align.
        u1_order = u1.get_domain("D")._to_obj
        u2_order = u2.get_domain("D")._to_obj
        if u1_order == u2_order:
            buf = io.StringIO()
            save_checkpoint(r, buf)
            buf.seek(0)
            again = load_checkpoint(u2, buf)
            assert set(again.tuples()) == set(ROWS)

    def test_bad_header(self):
        u = make_universe()
        with pytest.raises(JeddError):
            load_checkpoint(u, io.StringIO("not a checkpoint\n"))


@given(
    rows=st.sets(
        st.tuples(
            st.sampled_from(["x0", "x1", "x2", "x3"]),
            st.sampled_from(["y0", "y1", "y2"]),
        ),
        max_size=10,
    )
)
@settings(max_examples=40, deadline=None)
def test_tsv_roundtrip_property(rows):
    u = make_universe()
    r = Relation.from_tuples(u, ["a", "b"], rows, ["P1", "P2"])
    buf = io.StringIO()
    save_tsv(r, buf)
    buf.seek(0)
    assert set(load_tsv(u, buf, ["P1", "P2"]).tuples()) == rows


# ----------------------------------------------------------------------
# Property-style diagram round-trips: random relation chains on both
# backends must satisfy load(dump(r)) == r with canonical roots, in
# both formats, and the two formats must agree.
# ----------------------------------------------------------------------


def make_backend_universe(backend):
    u = Universe(backend=backend)
    d = u.domain("D", 16)
    u.attribute("a", d)
    u.attribute("b", d)
    u.physical_domain("P1", d.bits)
    u.physical_domain("P2", d.bits)
    u.finalize()
    return u


def _chain_relation(u, seed, steps):
    """A pseudo-random relation built by a chain of set operations —
    exercises shared subgraphs, not just from_tuples cubes."""
    rng = random.Random(seed)
    objs = [f"o{i}" for i in range(12)]
    rel = Relation.from_tuples(
        u, ["a", "b"],
        [(rng.choice(objs), rng.choice(objs)) for _ in range(6)],
        ["P1", "P2"],
    )
    for _ in range(steps):
        other = Relation.from_tuples(
            u, ["a", "b"],
            [(rng.choice(objs), rng.choice(objs)) for _ in range(4)],
            ["P1", "P2"],
        )
        rel = rng.choice([rel.__or__, rel.__sub__, rel.__and__])(other) | rel
    return rel


@pytest.mark.parametrize("backend", ["bdd", "zdd"])
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_diagram_roundtrip_property(backend, seed, steps):
    u = make_backend_universe(backend)
    rel = _chain_relation(u, seed, steps)
    m = u.manager
    text = dumps_diagram(m, rel.node)
    data = dumps_diagram_binary(m, rel.node)
    # Same manager: canonical root, so the exact same node comes back.
    assert loads_diagram(m, text) == rel.node
    assert loads_diagram_binary(m, data) == rel.node
    # Fresh identically-declared universe: both formats agree and the
    # relation holds the same tuples.
    u2 = make_backend_universe(backend)
    for obj in u.get_domain("D")._to_obj:
        u2.get_domain("D").intern(obj)
    m2 = u2.manager
    root_t = loads_diagram(m2, text)
    root_b = loads_diagram_binary(m2, data)
    assert root_t == root_b
    again = Relation(
        u2,
        rel.schema.__class__(
            [(u2.get_attribute(a), u2.get_physdom(p))
             for a, p in (("a", "P1"), ("b", "P2"))]
        ),
        root_b,
    )
    assert set(again.tuples()) == set(rel.tuples())
