"""Exact kernel work of fixed workloads: hits and misses per op, nodes built.

The reference kernel's hot recursions may be rewritten for speed, but
never so that they do different work: the same cache probes must hit
and miss, and the same nodes must be created, as the plain recursions
they replaced.  These pins hold the figures of those recursions.

The seeded chains also run on the MTBDD kernel, which replaces the
stats object after construction, and on the reference kernel with a
``cache_limit`` set after construction: a kernel that bound its state
when the manager was built would count into the wrong object or never
evict, and miss these figures.
"""

from __future__ import annotations

import random

import pytest

from repro.analyses import AnalysisUniverse, LowLevelPointsTo, PointsTo, preset
from repro.bdd import BDDManager
from repro.bdd.mtbdd import MTBDDManager
from repro.bdd.ooc import OocBDDManager


def counters(m) -> dict:
    """Hits/misses of the pinned ops and the node count, from ``m.stats``."""
    s = m.stats
    out = {
        name: (s.op_hits[i], s.op_misses[i])
        for i, name in enumerate(s.op_names[:3])  # and, or, diff
    }
    out["and_exist"] = (s.and_exist_hits, s.and_exist_misses)
    out["exist"] = (s.exist_hits, s.exist_misses)
    out["replace"] = (s.replace_hits, s.replace_misses)
    out["nodes"] = s.nodes_created
    return out


@pytest.fixture(scope="module")
def javac_s():
    return preset("javac-s")


def test_jedd_points_to_javac_s(javac_s):
    au = AnalysisUniverse(javac_s)
    PointsTo(au).solve()
    got = counters(au.universe.manager)
    print("jedd PointsTo javac-s:", got)
    assert got == {
        "and": (62, 562),
        "or": (33, 976),
        "diff": (30, 709),
        "and_exist": (132, 6223),
        "exist": (0, 0),
        "replace": (637, 1685),
        "nodes": 4708,
    }


def test_low_level_points_to_javac_s(javac_s):
    low = LowLevelPointsTo(javac_s)
    low.solve()
    got = counters(low.m)
    print("LowLevelPointsTo javac-s:", got)
    assert got == {
        "and": (97, 562),
        "or": (388, 1536),
        "diff": (0, 0),
        "and_exist": (943, 6036),
        "exist": (0, 0),
        "replace": (772, 1544),
        "nodes": 4645,
    }


NUM_VARS = 12


def run_chain(m, seed: int = 2718, steps: int = 120) -> None:
    """A seeded mix of and/or/diff/and_exist/exist/replace on ``m``."""
    rng = random.Random(seed)
    variables = list(range(NUM_VARS))
    pool = []
    for _ in range(6):
        vs = rng.sample(variables, rng.randint(3, NUM_VARS))
        keys = [rng.getrandbits(len(vs)) for _ in range(rng.randint(1, 40))]
        pool.append(m.from_keys(vs, keys))
    for _ in range(steps):
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("and", "or", "diff", "and_exist", "exist", "replace"))
        if op == "and":
            r = m.apply_and(a, b)
        elif op == "or":
            r = m.apply_or(a, b)
        elif op == "diff":
            r = m.apply_diff(a, b)
        elif op == "and_exist":
            r = m.and_exist(a, b, rng.sample(variables, rng.randint(1, 6)))
        elif op == "exist":
            r = m.exist(a, rng.sample(variables, rng.randint(1, 6)))
        else:
            moved = rng.sample(variables, rng.randint(2, 6))
            targets = moved[:]
            rng.shuffle(targets)
            r = m.replace(a, dict(zip(moved, targets)))
        pool[rng.randrange(len(pool))] = r


def _reference_limited():
    m = BDDManager(NUM_VARS)
    m.cache_limit = 16  # set after construction: must bound every cache
    return m


CHAINS = {
    "reference": (
        lambda: BDDManager(NUM_VARS),
        {
            "and": (14, 50),
            "or": (5, 51),
            "diff": (18, 111),
            "and_exist": (15, 114),
            "exist": (30, 104),
            "replace": (42, 165),
            "nodes": 618,
        },
    ),
    "reference-limited": (
        _reference_limited,
        {
            "and": (7, 61),
            "or": (1, 55),
            "diff": (7, 135),
            "and_exist": (3, 152),
            "exist": (21, 139),
            "replace": (13, 165),
            "nodes": 618,
        },
    ),
    "mtbdd": (
        lambda: MTBDDManager(NUM_VARS),
        {
            "and": (9, 64),
            "or": (2, 19),
            "diff": (7, 56),
            "and_exist": (0, 0),
            "exist": (44, 199),
            "replace": (42, 165),
            "nodes": 607,
        },
    ),
    "ooc": (
        lambda: OocBDDManager(NUM_VARS),
        {
            "and": (10, 50),
            "or": (5, 51),
            "diff": (9, 111),
            "and_exist": (0, 115),
            "exist": (0, 104),
            "replace": (0, 165),
            "nodes": 618,
        },
    ),
}


@pytest.mark.parametrize("kernel", sorted(CHAINS))
def test_seeded_chain_counters(kernel):
    make, expected = CHAINS[kernel]
    m = make()
    try:
        run_chain(m)
        got = counters(m)
    finally:
        if isinstance(m, OocBDDManager):
            m.close()
    print(f"{kernel} chain:", got)
    assert got == expected
