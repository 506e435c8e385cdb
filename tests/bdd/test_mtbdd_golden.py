"""Golden bytes for the multi-terminal wire formats.

The fixture ``golden/mtbdd_wire.json`` holds the bytes (hex) that a
fixed sequence of weighted operations serialises to: kind-2 ``JDDB``
diagram blobs (:func:`repro.bdd.io.dumps_diagram_binary` on an
:class:`~repro.bdd.MTBDDManager`) and one version-2 ``JDDU`` weighted
universe checkpoint (:func:`repro.relations.save_universe` on an
``mtbdd`` universe).  The kernel must keep writing exactly these bytes,
and loading the fixture must rebuild the same functions.

Regenerate (only for a deliberate wire-format change, together with a
wire version bump) with ``PYTHONPATH=src python -m
tests.bdd.test_mtbdd_golden``.
"""

import io
import itertools
import json
from pathlib import Path

import pytest

from repro.bdd import MTBDDManager
from repro.bdd.io import dumps_diagram_binary, loads_diagram_binary
from repro.relations import Relation, load_universe, open_universe, save_universe

FIXTURE = Path(__file__).parent / "golden" / "mtbdd_wire.json"

NVARS = 6
ASSIGNMENTS = [
    dict(zip(range(NVARS), bits))
    for bits in itertools.product([False, True], repeat=NVARS)
]
EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]


def weighted_roots(m):
    """Named roots of a fixed sequence of weighted kernel operations."""
    x = [m.var(i) for i in range(NVARS)]
    w = m.terminal(0)
    for i, value in enumerate([3, -2, 0.5, 7, 10**20, -1.25]):
        w = m.apply("add", w, m.apply("mul", x[i], m.terminal(value)))
    f = m.apply_and(m.apply_or(x[0], x[3]), m.apply_diff(x[1], x[5]))
    g = m.ite(f, w, m.terminal(4))
    return {
        "sum": w,
        "guarded": g,
        "max": m.apply("max", w, g),
        "min": m.apply("min", w, m.terminal(1)),
        "sum_abstract": m.abstract("add", g, [1, 2]),
        "max_abstract": m.abstract("max", w, [0, 5]),
        "min_abstract": m.abstract("min", g, [3]),
        "or_abstract": m.abstract("or", f, [0]),
        "boolean": f,
        "replaced": m.replace(g, {0: 4, 4: 0, 2: 5, 5: 2}),
        "constant": m.terminal(2.5),
    }


def build_universe():
    """An mtbdd universe and the relations its checkpoint holds."""
    u = open_universe(
        "mtbdd",
        "interleaved",
        domains={"N": 16},
        attributes={"src": "N", "dst": "N", "mid": "N"},
        physdoms={"N1": 4, "N2": 4, "N3": 4},
    )
    edge = Relation.from_tuples(u, ["src", "dst"], EDGES, ["N1", "N2"])
    hop = edge.rename({"src": "mid"}).replace({"mid": "N3"})
    two = edge.rename({"dst": "mid"}).compose(hop, ["mid"], ["mid"])
    return u, {
        "edge": edge,
        "two": two,
        "reach": edge.union(two),
        "sources": edge.project_away("dst"),
    }


def checkpoint_bytes(u, rels):
    buf = io.BytesIO()
    save_universe(u, rels, buf)
    return buf.getvalue()


def generate():
    m = MTBDDManager(NVARS)
    blobs = {
        name: dumps_diagram_binary(m, root).hex()
        for name, root in weighted_roots(m).items()
    }
    u, rels = build_universe()
    return {"jddb": blobs, "jddu": checkpoint_bytes(u, rels).hex()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def table(m, node):
    return [m.evaluate(node, asg) for asg in ASSIGNMENTS]


def test_jddb_kind2_bytes_unchanged(golden):
    m = MTBDDManager(NVARS)
    roots = weighted_roots(m)
    assert set(roots) == set(golden["jddb"])
    for name, root in roots.items():
        assert dumps_diagram_binary(m, root).hex() == golden["jddb"][name], name


def test_jddb_kind2_fixture_loads_same_function(golden):
    m = MTBDDManager(NVARS)
    roots = weighted_roots(m)
    for name, blob in golden["jddb"].items():
        m2 = MTBDDManager(NVARS)
        loaded = loads_diagram_binary(m2, bytes.fromhex(blob))
        assert table(m2, loaded) == table(m, roots[name]), name
        m2.check_integrity()


def test_jddu_weighted_checkpoint_bytes_unchanged(golden):
    u, rels = build_universe()
    assert checkpoint_bytes(u, rels).hex() == golden["jddu"]


def test_jddu_weighted_checkpoint_fixture_loads(golden):
    u, rels = build_universe()
    u2, loaded = load_universe(io.BytesIO(bytes.fromhex(golden["jddu"])))
    assert u2.backend_name == "mtbdd"
    assert set(loaded) == set(rels)
    for name, rel in rels.items():
        assert set(loaded[name].tuples()) == set(rel.tuples()), name
    assert checkpoint_bytes(u2, loaded).hex() == golden["jddu"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
