"""Universe checkpoints (the ``JDDU`` container) and wire versioning.

``Universe.save`` / ``Universe.load`` must make a file that restores
with *no* prior declarations, and both container layers (the ``JDDU``
header and the per-relation ``JDDB`` diagrams inside it) must fail
loudly on versions newer than the reader instead of guessing at the
layout.
"""

import io
import json

import pytest

from repro.bdd.io import (
    BINARY_MAGIC,
    WIRE_VERSION,
    dumps_diagram_binary,
    loads_diagram_binary,
)
from repro.bdd.manager import BDDError, BDDManager
from repro.relations import (
    JeddError,
    Relation,
    Universe,
    load_universe,
    open_universe,
    save_universe,
)
from repro.relations.io import (
    UNIVERSE_MAGIC,
    UNIVERSE_VERSION,
    _read_uvarint,
    _write_uvarint,
)

EDGES = [("a", "b"), ("b", "c"), ("c", "d")]


def build(backend="bdd"):
    u = open_universe(
        backend,
        "interleaved",
        domains={"N": 16},
        attributes={"src": "N", "dst": "N"},
        physdoms={"N1": 4, "N2": 4},
    )
    edge = Relation.from_tuples(u, ["src", "dst"], EDGES, ["N1", "N2"])
    return u, edge


class TestUniverseRoundtrip:
    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_roundtrip_restores_relations(self, tmp_path, backend):
        u, edge = build(backend)
        path = tmp_path / "u.jddu"
        written = u.save(path, {"edge": edge})
        assert written > 0
        u2, rels = Universe.load(path)
        assert u2.backend_name == backend
        assert set(rels) == {"edge"}
        assert set(rels["edge"].tuples()) == set(EDGES)
        # Same declarations, same interning -> same canonical diagram.
        assert dumps_diagram_binary(
            u2.manager, rels["edge"].node
        ) == dumps_diagram_binary(u.manager, edge.node)

    def test_roundtrip_declarations_only(self, tmp_path):
        u, _ = build()
        path = tmp_path / "decl.jddu"
        u.save(path)
        u2, rels = Universe.load(path)
        assert rels == {}
        assert u2.finalized
        assert [pd.name for pd in u2.physical_domains()] == ["N1", "N2"]

    def test_roundtrip_preserves_interning(self, tmp_path):
        u, edge = build()
        u.get_domain("N").intern("z")  # interned but not used in a tuple
        path = tmp_path / "u.jddu"
        u.save(path, {"edge": edge})
        u2, _ = Universe.load(path)
        dom = u2.get_domain("N")
        assert dom.index_of("z") == u.get_domain("N").index_of("z")

    def test_roundtrip_bit_order(self, tmp_path):
        u = Universe()
        n = u.domain("N", 16)
        u.attribute("src", n)
        u.attribute("dst", n)
        u.physical_domain("N1", 4)
        u.physical_domain("N2", 4)
        u.set_bit_order([["N2"], ["N1"]])
        u.finalize()
        edge = Relation.from_tuples(u, ["src", "dst"], EDGES, ["N1", "N2"])
        path = tmp_path / "ordered.jddu"
        u.save(path, {"edge": edge})
        u2, rels = Universe.load(path)
        assert u2.get_physdom("N2").levels == u.get_physdom("N2").levels
        assert set(rels["edge"].tuples()) == set(EDGES)

    def test_roundtrip_scratch_domains(self, tmp_path):
        u, edge = build()
        u.scratch_physdom(3)
        path = tmp_path / "scratch.jddu"
        u.save(path, {"edge": edge})
        u2, _ = Universe.load(path)
        names = [pd.name for pd in u2.physical_domains()]
        assert names == ["N1", "N2", "__scratch1"]
        assert (
            u2.get_physdom("__scratch1").levels
            == u.get_physdom("__scratch1").levels
        )

    def test_unfinalized_universe_rejected(self, tmp_path):
        u = Universe()
        with pytest.raises(JeddError, match="finalize"):
            u.save(tmp_path / "x.jddu")

    def test_foreign_relation_rejected(self, tmp_path):
        u, edge = build()
        _, other_edge = build()
        with pytest.raises(JeddError, match="different universe"):
            u.save(tmp_path / "x.jddu", {"edge": other_edge})

    def test_non_json_domain_objects_rejected(self, tmp_path):
        u, edge = build()
        u.get_domain("N").intern(("a", "tuple"))
        with pytest.raises(JeddError, match="JSON-scalar"):
            u.save(tmp_path / "x.jddu", {"edge": edge})


class TestUniverseVersioning:
    def saved_bytes(self):
        u, edge = build()
        buf = io.BytesIO()
        save_universe(u, {"edge": edge}, buf)
        return buf.getvalue()

    def test_header_layout(self):
        data = self.saved_bytes()
        assert data[: len(UNIVERSE_MAGIC)] == UNIVERSE_MAGIC
        assert data[len(UNIVERSE_MAGIC)] == 0x80 | UNIVERSE_VERSION

    def test_bad_magic_rejected(self):
        data = b"XXXX" + self.saved_bytes()[4:]
        with pytest.raises(JeddError, match="magic"):
            load_universe(io.BytesIO(data))

    def test_future_version_rejected_loudly(self):
        data = bytearray(self.saved_bytes())
        data[len(UNIVERSE_MAGIC)] = 0x80 | (UNIVERSE_VERSION + 7)
        with pytest.raises(JeddError, match="refusing to guess"):
            load_universe(io.BytesIO(bytearray(data)))

    def test_truncated_file_rejected(self):
        data = self.saved_bytes()
        with pytest.raises(JeddError, match="truncated"):
            load_universe(io.BytesIO(data[: len(data) // 2]))

    def test_removed_kernel_rejected_loudly(self):
        # A checkpoint whose header names a kernel this reader does not
        # have (the deleted "arena") must fail, not load on another.
        data = self.saved_bytes()
        start = len(UNIVERSE_MAGIC) + 1
        header_len, pos = _read_uvarint(data, start)
        header = json.loads(data[pos : pos + header_len])
        # The saved kernel follows JEDD_KERNEL; only its presence matters.
        assert "kernel" in header
        header["kernel"] = "arena"
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        forged = bytearray(data[:start])
        _write_uvarint(forged, len(header_bytes))
        forged += header_bytes + data[pos + header_len :]
        loaded = None
        with pytest.raises(JeddError, match="unknown kernel 'arena'"):
            loaded = load_universe(io.BytesIO(bytes(forged)))
        assert loaded is None


def forge_header(data, header):
    """``data``, a saved JDDU, with its header replaced by ``header``
    (any JSON value) and its relation blobs kept."""
    start = len(UNIVERSE_MAGIC) + 1
    header_len, pos = _read_uvarint(data, start)
    raw = json.dumps(header).encode("utf-8")
    out = bytearray(data[:start])
    _write_uvarint(out, len(raw))
    return bytes(out + raw + data[pos + header_len:])


class TestMalformedHeader:
    """A JDDU header that is not a JSON object, or lacks or mistypes a
    field, fails with a :class:`JeddError` naming the field, not with
    whatever indexing it raises."""

    def saved(self):
        u, edge = build()
        buf = io.BytesIO()
        save_universe(u, {"edge": edge}, buf)
        data = buf.getvalue()
        header_len, pos = _read_uvarint(data, len(UNIVERSE_MAGIC) + 1)
        return data, json.loads(data[pos:pos + header_len])

    def load(self, header):
        data, _ = self.saved()
        return load_universe(io.BytesIO(forge_header(data, header)))

    def test_saved_header_loads(self):
        data, header = self.saved()
        _, rels = self.load(header)
        assert set(rels["edge"].tuples()) == set(EDGES)

    @pytest.mark.parametrize(
        "header", [[], ["backend", "bdd"], "bdd", 7, None],
        ids=["empty-array", "array", "string", "number", "null"],
    )
    def test_non_object_header(self, header):
        with pytest.raises(JeddError, match="not a JSON object"):
            self.load(header)

    def test_header_with_only_an_ordering(self):
        with pytest.raises(JeddError, match="lacks field 'backend'"):
            self.load({"ordering": "interleaved"})

    @pytest.mark.parametrize("field", [
        "backend", "ordering", "kernel", "domains", "attributes",
        "physdoms", "relations",
    ])
    def test_missing_field(self, field):
        _, header = self.saved()
        del header[field]
        with pytest.raises(JeddError, match=f"lacks field '{field}'"):
            self.load(header)

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}-{i}")
        for i, (field, value) in enumerate([
            ("backend", 1),
            ("ordering", ["interleaved"]),
            ("kernel", None),
            ("terminals", 0),
            ("domains", {"N": 16}),
            ("domains", [["N", "16", []]]),
            ("domains", [["N", True, []]]),
            ("domains", [["N", 16]]),
            ("domains", [["N", 16, [["a"]]]]),
            ("attributes", [["src"]]),
            ("attributes", [["src", 3]]),
            ("physdoms", [["N1", 4.0]]),
            ("physdoms", "N1"),
            ("scratch", [["__scratch0"]]),
            ("bit_order", "N1"),
            ("bit_order", [["N1", 2]]),
            ("relations", "edge"),
            ("relations", [["edge"]]),
        ])
    ])
    def test_mistyped_field(self, field, value):
        _, header = self.saved()
        header[field] = value
        with pytest.raises(JeddError, match=f"field '{field}' is not"):
            self.load(header)


class TestDiagramWireVersioning:
    def diagram(self):
        m = BDDManager(4)
        node = m.apply_and(m.var(0), m.var(2))
        return m, node

    def test_version_byte_present(self):
        m, node = self.diagram()
        data = dumps_diagram_binary(m, node)
        assert data[: len(BINARY_MAGIC)] == BINARY_MAGIC
        assert data[len(BINARY_MAGIC)] == 0x80 | WIRE_VERSION

    def test_legacy_unversioned_files_still_load(self):
        # Files written before versioning go magic -> kind byte directly
        # (kind's high bit clear); the reader treats them as version 0.
        m, node = self.diagram()
        data = dumps_diagram_binary(m, node)
        legacy = (
            data[: len(BINARY_MAGIC)] + data[len(BINARY_MAGIC) + 1:]
        )
        m2 = BDDManager(4)
        root = loads_diagram_binary(m2, legacy)
        assert root == m2.apply_and(m2.var(0), m2.var(2))

    def test_future_wire_version_rejected_loudly(self):
        m, node = self.diagram()
        data = bytearray(dumps_diagram_binary(m, node))
        data[len(BINARY_MAGIC)] = 0x80 | (WIRE_VERSION + 5)
        m2 = BDDManager(4)
        with pytest.raises(BDDError, match="refusing to guess"):
            loads_diagram_binary(m2, bytes(data))

    def test_roundtrip_via_current_version(self):
        m, node = self.diagram()
        m2 = BDDManager(4)
        root = loads_diagram_binary(m2, dumps_diagram_binary(m, node))
        assert root == m2.apply_and(m2.var(0), m2.var(2))
