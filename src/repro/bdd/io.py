"""Saving and loading decision diagrams (BuDDy's ``bdd_save/bdd_load``).

The C libraries the paper builds on can persist BDDs to disk; analyses
use this to checkpoint expensive results (e.g. a points-to relation)
between runs.  Two formats share one set of semantics:

- a small **text** format, one node per line::

      bdd <num_vars> <num_nodes> <root>
      <id> <var> <low> <high>
      ...

- a compact **binary** wire format (``dumps_diagram_binary``): a 6-byte
  header (magic ``JDDB`` + version byte + kind byte, see
  ``WIRE_VERSION``) followed by varint-packed fields.
  Each node record is ``<var> <low> <high>`` with the child references
  delta-encoded against the node's own id (children precede parents, so
  most references are small); binary relation checkpoints
  (``save_checkpoint_binary``) and universe checkpoints (JDDU) use it.

Node ids are file-local (0/1 are the terminals, real nodes start at 2,
children before parents); loading rebuilds the diagram through the
target manager's hash-consing, so the loaded root is canonical in that
manager.  Both serializers walk the diagram with an explicit stack
(:meth:`BDDManager.postorder`), so arbitrarily deep chains cannot hit
``RecursionError``.  The same functions serve the ZDD backend (tag
``zdd`` / kind byte 1) and the multi-terminal backend (tag ``mtbdd`` /
kind byte 2), whose layout adds a **terminal table** — the diagram's
reachable terminal values, each tagged ``int`` or ``float`` — ahead of
the node records, since its terminals are arbitrary numbers rather than
the implicit 0/1.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, List, TextIO, Tuple

from repro.bdd.manager import BDDError, BDDManager
from repro.bdd.mtbdd import MTBDDManager
from repro.bdd.zdd import ZDDManager

__all__ = [
    "save_diagram",
    "load_diagram",
    "dumps_diagram",
    "loads_diagram",
    "save_diagram_binary",
    "load_diagram_binary",
    "dumps_diagram_binary",
    "loads_diagram_binary",
]

#: Magic prefix of the binary wire format.
BINARY_MAGIC = b"JDDB"

#: Version of the binary wire format this build writes for the boolean
#: kinds (bdd/zdd).  The version byte is carried as ``0x80 | version``
#: between the magic and the kind byte: the high bit keeps it disjoint
#: from the legacy kind bytes (0/1), so pre-versioning readers reject a
#: versioned file loudly ("unknown binary diagram kind") instead of
#: misparsing it, and this reader still accepts legacy files as
#: version 0.  The version is per-kind-layout: the boolean layouts are
#: unchanged since version 1, so boolean files keep their version-1
#: bytes (the cross-kernel differential suites compare wire bytes).
#: Bump on any incompatible layout change.
WIRE_VERSION = 1

#: Wire version of the mtbdd layout (kind 2).  Multi-terminal diagrams
#: carry a terminal table, a layout version-1 readers never defined, so
#: kind 2 is only written — and only accepted — at version 2+.
MTBDD_WIRE_VERSION = 2

#: Highest wire version this reader understands.
MAX_WIRE_VERSION = 2


def _is_zdd(manager) -> bool:
    return isinstance(manager, ZDDManager)


def _is_mtbdd(manager) -> bool:
    return isinstance(manager, MTBDDManager)


def _node_var(manager, node: int) -> int:
    # Nodes are written by variable id, which on every kernel is the
    # node's level: the bit order is fixed when the universe is
    # finalized.
    return manager._level[node]


def _local_table(
    manager, root: int
) -> Tuple[List[int], Dict[int, int]]:
    """Topological node listing plus the manager-id -> file-id map."""
    order = manager.postorder(root)
    local: Dict[int, int] = {0: 0, 1: 1}
    for i, node in enumerate(order, start=2):
        local[node] = i
    return order, local


def _rebuild_node(manager, is_zdd: bool, var: int, low: int, high: int) -> int:
    if is_zdd:
        return manager.mk(var, low, high)
    # Rebuild through ITE on the *variable*: correct whatever level
    # that variable currently occupies in the manager.
    return manager.ite(manager.var(var), high, low)


def _mtbdd_table(
    manager, root: int
) -> Tuple[List[int], List[object], Dict[int, int]]:
    """Node listing, reachable terminal values (ascending), and the
    manager-id -> file-id map for a multi-terminal diagram.

    Terminals are real interned nodes here, not the implicit 0/1, so
    the file-local id space starts with the terminal table (terminal
    ``k`` is file-id ``k``) and internal nodes follow from
    ``len(values)``.
    """
    order = manager.postorder(root)
    values = manager.terminals_of(root)
    local: Dict[int, int] = {
        manager.terminal(v): k for k, v in enumerate(values)
    }
    for i, node in enumerate(order, start=len(values)):
        local[node] = i
    return order, values, local


def _terminal_literal(value: object) -> Tuple[str, str]:
    """(tag, literal) pair for one terminal value; ``repr`` round-trips
    ints at arbitrary precision and floats bit-exactly."""
    if isinstance(value, float):
        return "float", repr(value)
    return "int", repr(int(value))


def _parse_terminal_literal(tag: str, literal: str) -> object:
    try:
        if tag == "int":
            return int(literal)
        if tag == "float":
            return float(literal)
    except ValueError:
        raise BDDError(
            f"bad terminal literal {literal!r} in diagram file"
        ) from None
    raise BDDError(f"unknown terminal value tag {tag!r} in diagram file")


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def dumps_diagram(manager, root: int) -> str:
    """Serialize the diagram rooted at ``root`` to a string."""
    if _is_mtbdd(manager):
        return _dumps_mtbdd_text(manager, root)
    is_zdd = _is_zdd(manager)
    tag = "zdd" if is_zdd else "bdd"
    order, local = _local_table(manager, root)
    lines = [f"{tag} {manager.num_vars} {len(order)} "]
    for node in order:
        lines.append(
            f"{local[node]} {_node_var(manager, node)} "
            f"{local[manager._low[node]]} {local[manager._high[node]]}"
        )
    lines[0] += str(local.get(root, root))
    return "\n".join(lines) + "\n"


def _dumps_mtbdd_text(manager, root: int) -> str:
    # mtbdd <num_vars> <num_terminals> <num_nodes> <root>, then the
    # terminal table ("t <id> <int|float> <literal>"), then the nodes.
    order, values, local = _mtbdd_table(manager, root)
    lines = [
        f"mtbdd {manager.num_vars} {len(values)} {len(order)} "
        f"{local[root]}"
    ]
    for k, value in enumerate(values):
        tag, literal = _terminal_literal(value)
        lines.append(f"t {k} {tag} {literal}")
    for node in order:
        lines.append(
            f"{local[node]} {manager.var_of(node)} "
            f"{local[manager._low[node]]} {local[manager._high[node]]}"
        )
    return "\n".join(lines) + "\n"


def loads_diagram(manager, text: str) -> int:
    """Rebuild a serialized diagram in ``manager``; returns the root.

    The manager must have at least as many variables as the file
    declares and be of the matching kind (bdd/zdd).
    """
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BDDError("empty diagram file")
    header = lines[0].split()
    if not header:
        raise BDDError(f"bad diagram header: {lines[0]!r}")
    is_mtbdd = _is_mtbdd(manager)
    is_zdd = _is_zdd(manager)
    expected = "mtbdd" if is_mtbdd else ("zdd" if is_zdd else "bdd")
    tag = header[0]
    if tag in ("bdd", "zdd", "mtbdd") and tag != expected:
        raise BDDError(f"diagram kind {tag!r} does not match {expected!r}")
    if is_mtbdd:
        return _loads_mtbdd_text(manager, lines)
    if len(header) != 4:
        raise BDDError(f"bad diagram header: {lines[0]!r}")
    tag, num_vars, num_nodes, root_id = (
        header[0],
        int(header[1]),
        int(header[2]),
        int(header[3]),
    )
    if tag != expected:
        raise BDDError(f"diagram kind {tag!r} does not match {expected!r}")
    if num_vars > manager.num_vars:
        raise BDDError(
            f"diagram needs {num_vars} variables, manager has "
            f"{manager.num_vars}"
        )
    local: Dict[int, int] = {0: 0, 1: 1}
    for line in lines[1 : num_nodes + 1]:
        parts = line.split()
        if len(parts) != 4:
            raise BDDError(f"bad diagram line: {line!r}")
        node_id, var, low, high = (int(p) for p in parts)
        if low not in local or high not in local:
            raise BDDError(f"diagram line references unknown node: {line!r}")
        local[node_id] = _rebuild_node(
            manager, is_zdd, var, local[low], local[high]
        )
    if root_id not in local:
        raise BDDError(f"unknown diagram root {root_id}")
    return local[root_id]


def _loads_mtbdd_text(manager, lines: List[str]) -> int:
    header = lines[0].split()
    if len(header) != 5:
        raise BDDError(f"bad diagram header: {lines[0]!r}")
    num_vars, num_terminals, num_nodes, root_id = (
        int(header[1]),
        int(header[2]),
        int(header[3]),
        int(header[4]),
    )
    if num_vars > manager.num_vars:
        raise BDDError(
            f"diagram needs {num_vars} variables, manager has "
            f"{manager.num_vars}"
        )
    if len(lines) < 1 + num_terminals + num_nodes:
        raise BDDError("truncated mtbdd diagram file")
    local: Dict[int, int] = {}
    for line in lines[1 : num_terminals + 1]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "t":
            raise BDDError(f"bad terminal table line: {line!r}")
        local[int(parts[1])] = manager.terminal(
            _parse_terminal_literal(parts[2], parts[3])
        )
    for line in lines[num_terminals + 1 : num_terminals + num_nodes + 1]:
        parts = line.split()
        if len(parts) != 4:
            raise BDDError(f"bad diagram line: {line!r}")
        node_id, var, low, high = (int(p) for p in parts)
        if low not in local or high not in local:
            raise BDDError(f"diagram line references unknown node: {line!r}")
        local[node_id] = manager.ite(
            manager.var(var), local[high], local[low]
        )
    if root_id not in local:
        raise BDDError(f"unknown diagram root {root_id}")
    return local[root_id]


def save_diagram(manager, root: int, fp: TextIO) -> None:
    """Write the diagram to an open text file."""
    fp.write(dumps_diagram(manager, root))


def load_diagram(manager, fp: TextIO) -> int:
    """Read a diagram from an open text file; returns the root node."""
    return loads_diagram(manager, fp.read())


# ----------------------------------------------------------------------
# Binary wire format
# ----------------------------------------------------------------------
#
# Layout (all integers LEB128 unsigned varints):
#
#     "JDDB"  version(1 byte: 0x80|WIRE_VERSION)  kind(1 byte: 0=bdd 1=zdd)
#     num_vars  num_nodes  root
#     num_nodes x ( var  low_code  high_code )
#
# Files written before versioning lack the version byte; they are
# recognised by the kind byte's clear high bit and read as version 0.
#
# ``num_vars`` is the *minimal* variable count (1 + highest variable id
# referenced), so a diagram produced in a manager that grew scratch
# variables still loads anywhere its support fits.  Child codes: 0 and 1
# name the terminals; code c >= 2 references the earlier node with local
# id ``self_id - (c - 1)`` — a backward delta, which keeps references to
# recently emitted nodes (the common case in ordered diagrams) in one
# byte where absolute ids would need two or three.
#
# Multi-terminal diagrams (kind 2, version MTBDD_WIRE_VERSION+) extend
# the layout with a terminal table between the header and the nodes:
#
#     "JDDB"  version(0x80|MTBDD_WIRE_VERSION)  kind(1 byte: 2)
#     num_vars  num_terminals  num_nodes  root
#     num_terminals x ( tag(1 byte: 0=int 1=float)  len  utf8-literal )
#     num_nodes x ( var  low_code  high_code )
#
# Terminal ``k`` of the table is file-id ``k`` (ascending numeric value
# order); internal nodes follow from ``num_terminals``.  Child codes
# generalise the boolean scheme: c < num_terminals names a terminal,
# otherwise c references ``self_id - (c - num_terminals + 1)``.
# Values travel as ``repr`` literals — bit-exact for floats, arbitrary
# precision for ints — rather than fixed-width fields.


def _encode_terminal(out: bytearray, value: object) -> None:
    tag, literal = _terminal_literal(value)
    out.append(1 if tag == "float" else 0)
    raw = literal.encode("utf-8")
    _write_uvarint(out, len(raw))
    out += raw


def _decode_terminal(data: bytes, pos: int) -> Tuple[object, int]:
    if pos >= len(data):
        raise BDDError("truncated binary diagram")
    tag = data[pos]
    pos += 1
    if tag not in (0, 1):
        raise BDDError(f"unknown terminal value tag {tag} in binary diagram")
    length, pos = _read_uvarint(data, pos)
    if pos + length > len(data):
        raise BDDError("truncated binary diagram")
    literal = data[pos : pos + length].decode("utf-8")
    return (
        _parse_terminal_literal("float" if tag else "int", literal),
        pos + length,
    )


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
            raise BDDError("truncated varint in binary diagram")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise BDDError("oversized varint in binary diagram")


def _child_code(self_id: int, child_local: int) -> int:
    if child_local <= 1:
        return child_local
    return self_id - child_local + 1


def dumps_diagram_binary(manager, root: int) -> bytes:
    """Serialize the diagram rooted at ``root`` to compact bytes.

    Same canonical-rebuild-on-load semantics as the text format, at a
    fraction of the size.
    """
    if _is_mtbdd(manager):
        return _dumps_mtbdd_binary(manager, root)
    is_zdd = _is_zdd(manager)
    order, local = _local_table(manager, root)
    max_var = -1
    for node in order:
        var = _node_var(manager, node)
        if var > max_var:
            max_var = var
    out = bytearray(BINARY_MAGIC)
    out.append(0x80 | WIRE_VERSION)
    out.append(1 if is_zdd else 0)
    _write_uvarint(out, max_var + 1)
    _write_uvarint(out, len(order))
    _write_uvarint(out, local.get(root, root))
    for node in order:
        i = local[node]
        _write_uvarint(out, _node_var(manager, node))
        _write_uvarint(out, _child_code(i, local[manager._low[node]]))
        _write_uvarint(out, _child_code(i, local[manager._high[node]]))
    return bytes(out)


def _mt_child_code(self_id: int, child_local: int, num_terminals: int) -> int:
    if child_local < num_terminals:
        return child_local
    return self_id - child_local + num_terminals - 1


def _dumps_mtbdd_binary(manager, root: int) -> bytes:
    order, values, local = _mtbdd_table(manager, root)
    num_terminals = len(values)
    max_var = -1
    for node in order:
        var = manager.var_of(node)
        if var > max_var:
            max_var = var
    out = bytearray(BINARY_MAGIC)
    out.append(0x80 | MTBDD_WIRE_VERSION)
    out.append(2)
    _write_uvarint(out, max_var + 1)
    _write_uvarint(out, num_terminals)
    _write_uvarint(out, len(order))
    _write_uvarint(out, local[root])
    for value in values:
        _encode_terminal(out, value)
    for node in order:
        i = local[node]
        _write_uvarint(out, manager.var_of(node))
        _write_uvarint(
            out, _mt_child_code(i, local[manager._low[node]], num_terminals)
        )
        _write_uvarint(
            out, _mt_child_code(i, local[manager._high[node]], num_terminals)
        )
    return bytes(out)


def _loads_mtbdd_binary(manager, data: bytes, pos: int) -> int:
    num_vars, pos = _read_uvarint(data, pos)
    num_terminals, pos = _read_uvarint(data, pos)
    num_nodes, pos = _read_uvarint(data, pos)
    root_id, pos = _read_uvarint(data, pos)
    if num_vars > manager.num_vars:
        raise BDDError(
            f"diagram needs {num_vars} variables, manager has "
            f"{manager.num_vars}"
        )
    local: Dict[int, int] = {}
    for k in range(num_terminals):
        value, pos = _decode_terminal(data, pos)
        local[k] = manager.terminal(value)
    for i in range(num_terminals, num_terminals + num_nodes):
        var, pos = _read_uvarint(data, pos)
        low_code, pos = _read_uvarint(data, pos)
        high_code, pos = _read_uvarint(data, pos)
        if var >= num_vars:
            raise BDDError(f"binary diagram references variable {var}")
        children = []
        for code in (low_code, high_code):
            if code < num_terminals:
                children.append(local[code])
                continue
            ref = i - (code - num_terminals + 1)
            if ref < num_terminals or ref >= i:
                raise BDDError(
                    f"binary diagram node {i} references unknown node"
                )
            children.append(local[ref])
        local[i] = manager.ite(
            manager.var(var), children[1], children[0]
        )
    if root_id not in local:
        raise BDDError(f"unknown diagram root {root_id}")
    return local[root_id]


def loads_diagram_binary(manager, data: bytes) -> int:
    """Rebuild a binary-serialized diagram in ``manager``; returns the
    (canonical) root node."""
    if len(data) < len(BINARY_MAGIC) + 1:
        raise BDDError("truncated binary diagram")
    if data[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise BDDError("bad binary diagram magic")
    pos = len(BINARY_MAGIC)
    version = 0
    if data[pos] & 0x80:
        version = data[pos] & 0x7F
        pos += 1
        if version > MAX_WIRE_VERSION:
            raise BDDError(
                f"binary diagram has wire version {version}, this "
                f"reader understands up to {MAX_WIRE_VERSION} "
                "(refusing to guess at the layout)"
            )
        if pos >= len(data):
            raise BDDError("truncated binary diagram")
    kind = data[pos]
    if kind not in (0, 1, 2):
        raise BDDError(f"unknown binary diagram kind {kind}")
    is_mtbdd = _is_mtbdd(manager)
    is_zdd = _is_zdd(manager)
    expected = 2 if is_mtbdd else (1 if is_zdd else 0)
    if kind != expected:
        names = {0: "bdd", 1: "zdd", 2: "mtbdd"}
        raise BDDError(
            f"diagram kind {names[kind]!r} does not match "
            f"{names[expected]!r}"
        )
    pos += 1
    if kind == 2:
        if version < MTBDD_WIRE_VERSION:
            raise BDDError(
                f"mtbdd diagrams need wire version "
                f">= {MTBDD_WIRE_VERSION}, file has {version}"
            )
        return _loads_mtbdd_binary(manager, data, pos)
    num_vars, pos = _read_uvarint(data, pos)
    num_nodes, pos = _read_uvarint(data, pos)
    root_id, pos = _read_uvarint(data, pos)
    if num_vars > manager.num_vars:
        raise BDDError(
            f"diagram needs {num_vars} variables, manager has "
            f"{manager.num_vars}"
        )
    local: Dict[int, int] = {0: 0, 1: 1}
    for i in range(2, num_nodes + 2):
        var, pos = _read_uvarint(data, pos)
        low_code, pos = _read_uvarint(data, pos)
        high_code, pos = _read_uvarint(data, pos)
        if var >= num_vars:
            raise BDDError(f"binary diagram references variable {var}")
        children = []
        for code in (low_code, high_code):
            if code <= 1:
                children.append(code)
                continue
            ref = i - (code - 1)
            if ref < 2 or ref >= i:
                raise BDDError(
                    f"binary diagram node {i} references unknown node"
                )
            children.append(local[ref])
        local[i] = _rebuild_node(
            manager, is_zdd, var, children[0], children[1]
        )
    if root_id not in local:
        raise BDDError(f"unknown diagram root {root_id}")
    return local[root_id]


def save_diagram_binary(manager, root: int, fp: BinaryIO) -> int:
    """Write the binary form to an open binary file; returns the byte
    count written."""
    data = dumps_diagram_binary(manager, root)
    fp.write(data)
    return len(data)


def load_diagram_binary(manager, fp: BinaryIO) -> int:
    """Read a binary diagram from an open binary file; returns the root."""
    return loads_diagram_binary(manager, fp.read())
