"""Files of the removed multi-terminal (mtbdd) backend fail loudly.

The fixture ``golden/mtbdd_wire.json`` holds the bytes (hex) that the
multi-terminal backend wrote: kind-2 ``JDDB`` diagram blobs and one
version-2 ``JDDU`` universe checkpoint whose header says ``"terminals":
"numeric"``.  Every remaining loader -- diagrams on each kernel, relation
checkpoints on each backend, whole universes -- must refuse each of
them, and the text dumps tagged ``mtbdd``, with an error naming the
removed backend, never decode them as something else.
"""

import io
import json
from pathlib import Path

import pytest

from repro.bdd import BDDError, BDDManager, OocBDDManager, ZDDManager
from repro.bdd.io import (
    load_diagram,
    load_diagram_binary,
    loads_diagram,
    loads_diagram_binary,
)
from repro.relations import (
    JeddError,
    Universe,
    load_checkpoint,
    load_checkpoint_binary,
    load_universe,
)
from repro.relations.io import UNIVERSE_MAGIC, _read_uvarint, _write_uvarint

FIXTURE = Path(__file__).parent / "golden" / "mtbdd_wire.json"
GOLDEN = json.loads(FIXTURE.read_text())
BLOBS = {name: bytes.fromhex(b) for name, b in GOLDEN["jddb"].items()}
JDDU = bytes.fromhex(GOLDEN["jddu"])

#: Text dumps in the removed layout: ``mtbdd <vars> <terminals> <nodes>
#: <root>``, the terminal table, then the nodes.
TEXT_DUMPS = {
    "constant": "mtbdd 6 1 0 0\nt 0 float 2.5\n",
    "one-node": "mtbdd 6 2 1 2\nt 0 int 0\nt 1 int 3\n2 0 0 1\n",
}

REMOVED = "mtbdd backend was removed"

MANAGERS = {
    "reference": BDDManager,
    "ooc": OocBDDManager,
    "zdd": ZDDManager,
}


def tiny_universe(backend):
    u = Universe(backend=backend)
    d = u.domain("N", 16)
    u.attribute("src", d)
    u.physical_domain("N1", 4)
    u.finalize()
    return u


@pytest.mark.parametrize("kernel", sorted(MANAGERS))
@pytest.mark.parametrize("name", sorted(BLOBS))
def test_jddb_kind2_blob_refused(kernel, name):
    m = MANAGERS[kernel](8)
    with pytest.raises(BDDError, match=REMOVED):
        loads_diagram_binary(m, BLOBS[name])
    with pytest.raises(BDDError, match=REMOVED):
        load_diagram_binary(m, io.BytesIO(BLOBS[name]))


@pytest.mark.parametrize("kernel", sorted(MANAGERS))
@pytest.mark.parametrize("name", sorted(TEXT_DUMPS))
def test_mtbdd_text_dump_refused(kernel, name):
    m = MANAGERS[kernel](8)
    with pytest.raises(BDDError, match=REMOVED):
        loads_diagram(m, TEXT_DUMPS[name])
    with pytest.raises(BDDError, match=REMOVED):
        load_diagram(m, io.StringIO(TEXT_DUMPS[name]))


@pytest.mark.parametrize("backend", ["bdd", "zdd"])
def test_relation_checkpoints_refused(backend):
    u = tiny_universe(backend)
    header = "schema src:N1\n"
    for blob in BLOBS.values():
        with pytest.raises(BDDError, match=REMOVED):
            load_checkpoint_binary(u, io.BytesIO(header.encode() + blob))
    for text in TEXT_DUMPS.values():
        with pytest.raises(BDDError, match=REMOVED):
            load_checkpoint(u, io.StringIO(header + text))


def with_header(data, version, **changes):
    """The golden JDDU with its version byte and header keys replaced."""
    length, pos = _read_uvarint(data, len(UNIVERSE_MAGIC) + 1)
    header = json.loads(data[pos : pos + length])
    header.update(changes)
    raw = json.dumps(header, sort_keys=True).encode()
    out = bytearray(UNIVERSE_MAGIC)
    out.append(0x80 | version)
    _write_uvarint(out, len(raw))
    return bytes(out + raw + data[pos + length :])


JDDU_VARIANTS = {
    "golden-v2": JDDU,
    "numeric-v1": with_header(JDDU, 1),
    "numeric-bdd-v1": with_header(JDDU, 1, backend="bdd"),
    "mtbdd-boolean-v1": with_header(JDDU, 1, terminals="boolean"),
}


@pytest.mark.parametrize("variant", sorted(JDDU_VARIANTS))
def test_weighted_universe_refused(variant, tmp_path):
    data = JDDU_VARIANTS[variant]
    with pytest.raises(JeddError, match=REMOVED):
        load_universe(io.BytesIO(data))
    path = tmp_path / "u.jddu"
    path.write_bytes(data)
    with pytest.raises(JeddError, match=REMOVED):
        Universe.load(path)


def test_golden_universe_header_is_the_weighted_one():
    # The fixture really is what the removed backend wrote, so the
    # refusals above are tested on genuine files.
    assert JDDU[len(UNIVERSE_MAGIC)] == 0x82
    assert b'"terminals": "numeric"' in JDDU
    assert b'"backend": "mtbdd"' in JDDU


def test_removed_backend_name_rejected():
    with pytest.raises(JeddError, match="unknown backend 'mtbdd'"):
        Universe(backend="mtbdd")
