"""Property-based tests for the out-of-core streaming kernel.

Hypothesis drives the ooc kernel (:mod:`repro.bdd.ooc`) and the
reference kernel through the same operations and asserts they land on
the same canonical diagrams.  On top of the cross-kernel oracle this
file checks the machinery that is unique to the out-of-core design:

- sorted-run storage: :class:`SortedRun` point probes and the
  newest-wins / tombstone-dropping :func:`merge_runs` compaction
  against a model dict built by replaying the runs oldest-first;
- :class:`SpillableUniqueTable` under a tiny byte budget (so real
  flushes and merges happen mid-fuzz) against a model dict;
- the time-forward-processing invariant, observed through the
  manager's sweep trace: every binary-apply sweep visits levels
  strictly ascending on the way down and strictly descending on the
  way back up, and reduces exactly the levels it requested;
- JDDB wire round-trips of *spilled* diagrams (tiny
  ``memory_cap_bytes`` so the node table lives partly in sorted runs
  and evicted pages while being serialized).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDManager
from repro.bdd.io import dumps_diagram_binary, loads_diagram_binary
from repro.bdd.ooc import (
    _TOMB,
    OocBDDManager,
    SortedRun,
    SpillableUniqueTable,
    merge_runs,
)

N_VARS = 6

#: Small enough that every per-structure budget bottoms out at its
#: floor: the unique-table delta flushes after a few dozen inserts, the
#: op caches clamp to 256 entries, and the page cache holds only the
#: 4-page minimum -- maximum spill traffic from tiny diagrams.
TINY_CAP = 1


# ----------------------------------------------------------------------
# Building the same forest on both kernels
# ----------------------------------------------------------------------

exprs = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=N_VARS - 1).map(lambda v: ("var", v)),
        st.sampled_from([("const", False), ("const", True)]),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["and", "or", "diff", "xor"]), sub, sub),
        st.tuples(st.just("not"), sub),
    ),
    max_leaves=16,
)


def build(m, expr):
    tag = expr[0]
    if tag == "var":
        return m.var(expr[1])
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return m.apply_not(build(m, expr[1]))
    a = build(m, expr[1])
    b = build(m, expr[2])
    return {
        "and": m.apply_and,
        "or": m.apply_or,
        "diff": m.apply_diff,
        "xor": m.apply_xor,
    }[tag](a, b)


def assert_same_diagram(m_ref, n_ref, m_ooc, n_ooc):
    assert dumps_diagram_binary(m_ref, n_ref) == dumps_diagram_binary(
        m_ooc, n_ooc
    )


@settings(deadline=None, max_examples=60)
@given(expr=exprs)
def test_apply_matches_reference(expr):
    m_ref = BDDManager(num_vars=N_VARS)
    m_ooc = OocBDDManager(num_vars=N_VARS)
    assert_same_diagram(m_ref, build(m_ref, expr), m_ooc, build(m_ooc, expr))


@settings(deadline=None, max_examples=40)
@given(expr=exprs)
def test_apply_matches_reference_capped(expr):
    """Same forests with every byte budget floored: correctness must
    survive unique-table flushes, page eviction, and queue spills."""
    m_ref = BDDManager(num_vars=N_VARS)
    m_ooc = OocBDDManager(num_vars=N_VARS, memory_cap_bytes=TINY_CAP)
    assert_same_diagram(m_ref, build(m_ref, expr), m_ooc, build(m_ooc, expr))


@settings(deadline=None, max_examples=40)
@given(
    exprs_=st.lists(exprs, min_size=1, max_size=8),
    vs=st.sets(st.integers(min_value=0, max_value=N_VARS - 1), min_size=1),
)
def test_exist_matches_reference(exprs_, vs):
    m_ref = BDDManager(num_vars=N_VARS)
    m_ooc = OocBDDManager(num_vars=N_VARS)
    for expr in exprs_:
        r = m_ref.exist(build(m_ref, expr), vs)
        o = m_ooc.exist(build(m_ooc, expr), vs)
        assert_same_diagram(m_ref, r, m_ooc, o)


@settings(deadline=None, max_examples=40)
@given(
    e1=exprs,
    e2=exprs,
    vs=st.sets(st.integers(min_value=0, max_value=N_VARS - 1), min_size=1),
)
def test_and_exist_matches_reference(e1, e2, vs):
    m_ref = BDDManager(num_vars=N_VARS)
    m_ooc = OocBDDManager(num_vars=N_VARS)
    r = m_ref.and_exist(build(m_ref, e1), build(m_ref, e2), vs)
    o = m_ooc.and_exist(build(m_ooc, e1), build(m_ooc, e2), vs)
    assert_same_diagram(m_ref, r, m_ooc, o)


@settings(deadline=None, max_examples=40)
@given(expr=exprs, data=st.data())
def test_replace_matches_reference(expr, data):
    m_ref = BDDManager(num_vars=N_VARS)
    m_ooc = OocBDDManager(num_vars=N_VARS)
    n_ref = build(m_ref, expr)
    n_ooc = build(m_ooc, expr)
    support = sorted(m_ref.support(n_ref))
    if not support:
        return
    targets = data.draw(
        st.permutations(range(N_VARS)).map(lambda p: p[: len(support)])
    )
    perm = dict(zip(support, targets))
    if sorted(perm.values()) != sorted(set(perm.values())):
        return
    r = m_ref.replace(n_ref, perm)
    o = m_ooc.replace(n_ooc, perm)
    assert_same_diagram(m_ref, r, m_ooc, o)


# ----------------------------------------------------------------------
# Sorted runs and merge compaction against a model dict
# ----------------------------------------------------------------------

run_keys = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)

#: One spilled generation: key -> node, where node may be the
#: tombstone (a deletion that must shadow older generations).
run_batches = st.lists(
    st.dictionaries(
        run_keys,
        st.one_of(
            st.integers(min_value=2, max_value=1 << 40),
            st.just(_TOMB),
        ),
        min_size=0,
        max_size=30,
    ),
    min_size=1,
    max_size=6,
)


@settings(deadline=None, max_examples=60)
@given(batches=run_batches)
def test_sorted_run_probe_matches_model(batches, tmp_path_factory):
    """Point probes on each run return exactly what was written."""
    tmp = tmp_path_factory.mktemp("runs")
    for i, batch in enumerate(batches):
        items = sorted(batch.items())
        run = SortedRun(str(tmp / f"r{i}.run"), items)
        assert run.count == len(items)
        assert list(run) == items
        for key, node in items:
            assert run.get(key) == node
        # Misses: keys just off every stored key must not false-hit.
        for key in batch:
            probe = (key[0], key[1], key[2] + 1)
            if probe not in batch:
                assert run.get(probe) is None
        run.unlink()


@settings(deadline=None, max_examples=60)
@given(batches=run_batches)
def test_merge_runs_newest_wins(batches, tmp_path_factory):
    """K-way compaction == replaying the generations oldest-first."""
    tmp = tmp_path_factory.mktemp("merge")
    runs = [
        SortedRun(str(tmp / f"r{i}.run"), sorted(batch.items()))
        for i, batch in enumerate(batches)
    ]
    model = {}
    for batch in batches:  # oldest first, newer entries overwrite
        model.update(batch)
    expected = sorted(
        (k, v) for k, v in model.items() if v != _TOMB
    )
    merged = merge_runs(runs, str(tmp / "merged.run"))
    assert list(merged) == expected
    for key, node in expected:
        assert merged.get(key) == node
    for run in runs:
        run.unlink()
    merged.unlink()


table_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "del", "flush", "merge"]),
        run_keys,
        st.integers(min_value=2, max_value=1 << 40),
    ),
    min_size=1,
    max_size=120,
)


@settings(deadline=None, max_examples=60)
@given(ops=table_ops)
def test_spillable_unique_table_matches_dict(ops):
    """Set/delete/probe fuzz with forced flushes and merges.

    The table belongs to a tiny-cap manager, so its delta budget is at
    the 64-entry floor and *organic* flushes interleave with the forced
    ones -- probes constantly cross the memory/disk boundary.
    """
    mgr = OocBDDManager(num_vars=N_VARS, memory_cap_bytes=TINY_CAP)
    table = SpillableUniqueTable(mgr)
    model = {}
    for op, key, value in ops:
        if op == "set":
            table[key] = value
            model[key] = value
        elif op == "del":
            if key in model:
                del table[key]
                del model[key]
        elif op == "flush":
            table.flush()
        else:
            table.merge()
        assert len(table) == len(model)
    for key, value in model.items():
        assert table.get(key) == value
        assert key in table
    for op, key, value in ops:
        if key not in model:
            assert table.get(key) is None
            assert key not in table
    table.close()
    mgr.close()


# ----------------------------------------------------------------------
# Time-forward-processing sweep order
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(e1=exprs, e2=exprs, cap=st.sampled_from([None, TINY_CAP]))
def test_sweep_levels_ascend_then_descend(e1, e2, cap):
    """A binary-apply sweep is one downward pass over strictly
    ascending levels followed by one upward pass over the same levels
    strictly descending -- the invariant that makes the request queue
    streamable (a request never targets a level already passed)."""
    m = OocBDDManager(num_vars=N_VARS, memory_cap_bytes=cap)
    a = build(m, e1)
    b = build(m, e2)
    with m._trace() as trace:
        m.apply_and(a, b)
    if not trace:  # terminal shortcut or operation-cache hit
        return
    down = [lv for phase, lv in trace if phase == "down"]
    up = [lv for phase, lv in trace if phase == "up"]
    # One contiguous down segment, then one contiguous up segment.
    assert [p for p, _ in trace] == ["down"] * len(down) + ["up"] * len(up)
    assert down == sorted(down) and len(set(down)) == len(down)
    assert up == sorted(up, reverse=True) and len(set(up)) == len(up)
    # The reduce pass resolves exactly the levels the request pass
    # visited.
    assert set(down) == set(up)


# ----------------------------------------------------------------------
# JDDB wire round-trips of spilled diagrams
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(expr=exprs)
def test_wire_roundtrip_of_spilled_diagram(expr):
    """reference -> capped ooc -> reference preserves the node table
    even while the ooc table is partly on disk."""
    m_ref = BDDManager(num_vars=N_VARS)
    n_ref = build(m_ref, expr)
    wire = dumps_diagram_binary(m_ref, n_ref)
    m_ooc = OocBDDManager(num_vars=N_VARS, memory_cap_bytes=TINY_CAP)
    n_ooc = loads_diagram_binary(m_ooc, wire)
    wire2 = dumps_diagram_binary(m_ooc, n_ooc)
    assert wire2 == wire
    m_back = BDDManager(num_vars=N_VARS)
    n_back = loads_diagram_binary(m_back, wire2)
    assert dumps_diagram_binary(m_back, n_back) == wire


# ----------------------------------------------------------------------
# gc parity under random root sets
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(
    exprs_=st.lists(exprs, min_size=2, max_size=6),
    keep=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
)
def test_gc_parity_with_reference(exprs_, keep):
    """Dereference a random subset of roots, gc both kernels, and
    compare the survivors' wire bytes (the ooc gc walks spilled state:
    mark map + level buckets instead of in-memory sets)."""
    m_ref = BDDManager(num_vars=N_VARS)
    m_ooc = OocBDDManager(num_vars=N_VARS, memory_cap_bytes=TINY_CAP)
    roots = []
    for expr in exprs_:
        n_ref = build(m_ref, expr)
        n_ooc = build(m_ooc, expr)
        m_ref.ref(n_ref)
        m_ooc.ref(n_ooc)
        roots.append((n_ref, n_ooc))
    kept = []
    for i, (n_ref, n_ooc) in enumerate(roots):
        if i in keep:
            kept.append((n_ref, n_ooc))
        else:
            m_ref.deref(n_ref)
            m_ooc.deref(n_ooc)
    m_ref.gc()
    m_ooc.gc()
    for n_ref, n_ooc in kept:
        assert_same_diagram(m_ref, n_ref, m_ooc, n_ooc)
    m_ooc.check_integrity()


# ----------------------------------------------------------------------
# Deep managers: recursion-free streaming must carry every operation
# ----------------------------------------------------------------------

DEEP_VARS = 1200


@settings(deadline=None, max_examples=10)
@given(seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                      min_size=1, max_size=2))
def test_deep_manager_matches_reference(seeds):
    """Variable counts far past Python's recursion limit: the ooc
    sweeps are iterative, so deep cubes must still match the reference
    kernel (whose own deep path is its breadth-first fallback)."""
    m_ref = BDDManager(num_vars=DEEP_VARS)
    m_ooc = OocBDDManager(num_vars=DEEP_VARS)
    for seed in seeds:
        rng = random.Random(seed)
        chosen = rng.sample(range(DEEP_VARS), 40)
        cube = {v: rng.random() < 0.5 for v in chosen}
        a_ref, a_ooc = m_ref.cube(cube), m_ooc.cube(cube)
        chosen2 = rng.sample(range(DEEP_VARS), 40)
        cube2 = {v: rng.random() < 0.5 for v in chosen2}
        b_ref, b_ooc = m_ref.cube(cube2), m_ooc.cube(cube2)
        o_ref = m_ref.apply_or(a_ref, b_ref)
        o_ooc = m_ooc.apply_or(a_ooc, b_ooc)
        assert_same_diagram(m_ref, o_ref, m_ooc, o_ooc)
        evs = rng.sample(chosen, 10)
        assert_same_diagram(
            m_ref, m_ref.exist(o_ref, evs), m_ooc, m_ooc.exist(o_ooc, evs)
        )
