"""Relation persistence: TSV tuples and raw diagram checkpoints.

Three granularities, matching how analyses persist state:

- :func:`save_tsv` / :func:`load_tsv` -- portable, human-readable tuple
  dumps (works across universes and backends; objects are strings);
- :func:`save_checkpoint` / :func:`load_checkpoint` -- the raw decision
  diagram plus its schema, restored into the *same* universe layout
  (the BuDDy ``bdd_save`` workflow for expensive intermediate results);
- :func:`save_universe` / :func:`load_universe` -- a whole universe
  (declarations, interned objects, bit order) together with any number
  of named relations, restorable with nothing but the file.  This is
  the checkpoint format of the analysis service
  (:mod:`repro.service`); the friendly entry points are
  :meth:`Universe.save` and :meth:`Universe.load`.

The universe container is the ``JDDU`` format: magic, a version byte
(``0x80 | UNIVERSE_VERSION`` — readers refuse versions they do not
understand instead of guessing at the layout), a JSON header with the
declarations, then one length-prefixed binary relation checkpoint per
named relation (each itself carrying the versioned ``JDDB`` diagram
encoding).  Container version 2 and the header tag ``"terminals":
"numeric"`` belonged to the removed multi-terminal backend; the loader
refuses them by name.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple

from repro.bdd.io import (
    MULTI_TERMINAL_REMOVED,
    dumps_diagram,
    dumps_diagram_binary,
    loads_diagram,
    loads_diagram_binary,
)
from repro.relations.domain import JeddError, Universe
from repro.relations.relation import Relation, Schema, WeightedRelation

__all__ = [
    "save_tsv",
    "load_tsv",
    "save_checkpoint",
    "load_checkpoint",
    "save_checkpoint_binary",
    "load_checkpoint_binary",
    "save_universe",
    "load_universe",
    "UNIVERSE_MAGIC",
    "UNIVERSE_VERSION",
]

#: Magic prefix of the universe container format.
UNIVERSE_MAGIC = b"JDDU"

#: Version of the universe container layout this build writes and the
#: highest it reads.  The layout is unchanged since version 1, so
#: checkpoints stay byte-identical across builds.
UNIVERSE_VERSION = 1


def save_tsv(relation: Relation, fp: TextIO) -> int:
    """Write ``relation`` as a header line plus one tuple per line."""
    names = relation.schema.names()
    fp.write("\t".join(names) + "\n")
    count = 0
    for row in relation.tuples():
        fp.write("\t".join(str(value) for value in row) + "\n")
        count += 1
    return count


def load_tsv(
    universe: Universe,
    fp: TextIO,
    physdoms: Optional[Sequence[str]] = None,
) -> Relation:
    """Read a TSV written by :func:`save_tsv` into ``universe``.

    The header names the attributes; objects load as strings.
    """
    lines = [line.rstrip("\n") for line in fp if line.strip()]
    if not lines:
        raise JeddError("empty TSV relation file")
    attrs = lines[0].split("\t")
    rows: List[tuple] = []
    for line in lines[1:]:
        row = tuple(line.split("\t"))
        if len(row) != len(attrs):
            raise JeddError(f"TSV row arity mismatch: {line!r}")
        rows.append(row)
    return Relation.from_tuples(universe, attrs, rows, physdoms)


def _schema_line(relation: Relation, variables: bool = True) -> str:
    """The checkpoint header: ``attr:PD:v.v.v`` per column, naming the
    variable ids of each physical domain's bits (least significant
    first), so a loader can tell when its bit order differs.

    The JDDU container passes ``variables=False`` and writes the plain
    ``attr:PD`` form: it rebuilds the universe, bit order included,
    from its own header, so its relations cannot meet another layout.
    """
    specs = " ".join(
        f"{attr.name}:{pd.name}:{'.'.join(map(str, pd.levels))}"
        if variables
        else f"{attr.name}:{pd.name}"
        for attr, pd in relation.schema.pairs
    )
    return f"schema {specs}\n"


def _parse_schema(universe: Universe, line: str) -> Schema:
    """The schema of a checkpoint header line, checked against the
    variable ids ``universe`` gives each physical domain.  Headers
    written before the ids were recorded (``attr:PD``) are trusted."""
    if not line.startswith("schema "):
        raise JeddError("missing checkpoint schema header")
    pairs = []
    for spec in line[len("schema "):].split():
        attr_name, _, rest = spec.partition(":")
        pd_name, _, saved = rest.partition(":")
        pd = universe.get_physdom(pd_name)
        here = ".".join(map(str, pd.levels))
        if saved and saved != here:
            raise JeddError(
                f"checkpoint stored {pd_name} at variables {saved}, but "
                f"this universe puts it at {here}: the bit order differs"
            )
        pairs.append((universe.get_attribute(attr_name), pd))
    return Schema(pairs)


def save_checkpoint(relation: Relation, fp: TextIO) -> None:
    """Persist the schema and the raw diagram of ``relation``."""
    fp.write(_schema_line(relation))
    fp.write(dumps_diagram(relation.universe.manager, relation.node))


def load_checkpoint(universe: Universe, fp: TextIO) -> Relation:
    """Restore a checkpoint into a universe with the same declarations.

    Attribute and physical-domain names must exist in ``universe`` and
    the physical domains must occupy the same variables as when saved
    (the universe was built by the same declarations and bit order);
    a layout mismatch raises :class:`JeddError`.
    """
    first, _, rest = fp.read().partition("\n")
    schema = _parse_schema(universe, first)
    return Relation(universe, schema, loads_diagram(universe.manager, rest))


def save_checkpoint_binary(relation: Relation, fp: BinaryIO) -> int:
    """:func:`save_checkpoint` in the compact binary wire format.

    A UTF-8 schema header line, then the binary diagram from
    :func:`repro.bdd.io.dumps_diagram_binary`.  Returns the number of
    bytes written.
    """
    data = _checkpoint_binary(relation)
    fp.write(data)
    return len(data)


def _checkpoint_binary(relation: Relation, variables: bool = True) -> bytes:
    header = _schema_line(relation, variables).encode("utf-8")
    return header + dumps_diagram_binary(relation.universe.manager, relation.node)


def load_checkpoint_binary(universe: Universe, fp: BinaryIO) -> Relation:
    """Restore a binary checkpoint (see :func:`load_checkpoint` for the
    universe-compatibility requirements)."""
    first, sep, rest = fp.read().partition(b"\n")
    if not sep:
        raise JeddError("missing checkpoint schema header")
    schema = _parse_schema(universe, first.decode("utf-8", "replace"))
    return Relation(
        universe, schema, loads_diagram_binary(universe.manager, rest)
    )


# ----------------------------------------------------------------------
# Universe container (JDDU)
# ----------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise JeddError("truncated universe checkpoint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise JeddError("oversized varint in universe checkpoint")


def _check_json_objects(name: str, objects: List[object]) -> None:
    for obj in objects:
        if not isinstance(obj, (str, int, float, bool, type(None))):
            raise JeddError(
                f"domain {name!r} interns {type(obj).__name__} objects; "
                "universe checkpoints only support JSON-scalar domain "
                "objects (str, int, float, bool, None)"
            )


def save_universe(
    universe: Universe,
    relations: Mapping[str, Relation],
    fp: BinaryIO,
) -> int:
    """Write a self-contained checkpoint of ``universe`` plus the named
    ``relations`` to an open binary file; returns the bytes written.

    Unlike the per-relation checkpoints, loading needs no pre-built
    universe: declarations, interned domain objects, and the bit order
    all travel in the file.  Domain objects must be JSON scalars.
    """
    if not universe.finalized:
        raise JeddError("save_universe: finalize() the universe first")
    for name, rel in relations.items():
        if isinstance(rel, WeightedRelation):
            # Aggregate results are derived artifacts with no diagram
            # to checkpoint; recompute them after load instead.
            raise JeddError(
                f"save_universe: {name!r} is a weighted aggregate "
                "result and cannot be checkpointed; drop it or "
                "recompute it after load"
            )
        if rel.universe is not universe:
            raise JeddError(
                f"save_universe: relation {name!r} belongs to a "
                "different universe"
            )
    domains = []
    for dom_name, dom in universe._domains.items():
        objects = list(dom._to_obj)
        _check_json_objects(dom_name, objects)
        domains.append([dom_name, dom.max_size, objects])
    # Scratch physical domains are appended after finalize() with their
    # own level layout, so they replay through scratch_physdom() on load
    # instead of being declared up front.
    physdoms = []
    scratch = []
    for pd in universe._physdom_order:
        if pd.name.startswith("__scratch"):
            scratch.append([pd.name, pd.bits])
        else:
            physdoms.append([pd.name, pd.bits])
    header = {
        "backend": universe.backend_name,
        "ordering": universe.ordering,
        "kernel": universe.kernel_name,
        "domains": domains,
        "attributes": [
            [a.name, a.domain.name]
            for a in universe._attributes.values()
        ],
        "physdoms": physdoms,
        "scratch": scratch,
        "bit_order": universe._bit_order_groups,
        "relations": list(relations),
    }
    out = bytearray(UNIVERSE_MAGIC)
    out.append(0x80 | UNIVERSE_VERSION)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    _write_uvarint(out, len(header_bytes))
    out += header_bytes
    for name, rel in relations.items():
        blob = _checkpoint_binary(rel, variables=False)
        _write_uvarint(out, len(blob))
        out += blob
    fp.write(bytes(out))
    return len(out)


def load_universe(fp: BinaryIO) -> Tuple[Universe, Dict[str, Relation]]:
    """Rebuild a universe (and its named relations) from a checkpoint
    written by :func:`save_universe`.

    Fails loudly on unknown magic and on container versions newer than
    this reader (see ``UNIVERSE_VERSION``).
    """
    data = fp.read()
    if len(data) < len(UNIVERSE_MAGIC) + 1:
        raise JeddError("truncated universe checkpoint")
    if data[: len(UNIVERSE_MAGIC)] != UNIVERSE_MAGIC:
        raise JeddError("bad universe checkpoint magic")
    version_byte = data[len(UNIVERSE_MAGIC)]
    if not version_byte & 0x80:
        raise JeddError("bad universe checkpoint version byte")
    version = version_byte & 0x7F
    if version == 2:  # only multi-terminal universes were written at 2
        raise JeddError(MULTI_TERMINAL_REMOVED)
    if version > UNIVERSE_VERSION:
        raise JeddError(
            f"universe checkpoint has version {version}, this reader "
            f"understands up to {UNIVERSE_VERSION} "
            "(refusing to guess at the layout)"
        )
    pos = len(UNIVERSE_MAGIC) + 1
    header_len, pos = _read_uvarint(data, pos)
    if pos + header_len > len(data):
        raise JeddError("truncated universe checkpoint header")
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    except ValueError as err:
        raise JeddError(f"bad universe checkpoint header: {err}") from None
    pos += header_len
    terminals = header.get("terminals", "boolean")
    if terminals == "numeric" or header["backend"] == "mtbdd":
        raise JeddError(MULTI_TERMINAL_REMOVED)
    if terminals != "boolean":
        raise JeddError(
            f"universe checkpoint has unknown terminal-domain tag "
            f"{terminals!r} (refusing to guess at the semantics)"
        )
    universe = Universe(
        backend=header["backend"],
        ordering=header["ordering"],
        kernel=header["kernel"],
    )
    for dom_name, max_size, objects in header["domains"]:
        dom = universe.domain(dom_name, max_size)
        for obj in objects:
            dom.intern(obj)
    for attr_name, dom_name in header["attributes"]:
        universe.attribute(attr_name, universe.get_domain(dom_name))
    for pd_name, bits in header["physdoms"]:
        universe.physical_domain(pd_name, bits)
    if header.get("bit_order"):
        universe.set_bit_order(header["bit_order"])
    universe.finalize()
    for pd_name, bits in header.get("scratch", []):
        pd = universe.scratch_physdom(bits)
        if pd.name != pd_name:
            raise JeddError(
                f"universe checkpoint scratch domain {pd_name!r} "
                f"replayed as {pd.name!r}"
            )
    import io as _io

    relations: Dict[str, Relation] = {}
    for name in header["relations"]:
        blob_len, pos = _read_uvarint(data, pos)
        if pos + blob_len > len(data):
            raise JeddError(
                f"truncated universe checkpoint relation {name!r}"
            )
        relations[name] = load_checkpoint_binary(
            universe, _io.BytesIO(data[pos : pos + blob_len])
        )
        pos += blob_len
    return universe, relations
