"""Randomized differential testing across every kernel and backend.

Each *chain* builds the same random relational program five ways -- on
the reference BDD kernel, on the out-of-core streaming kernel
(:mod:`repro.bdd.ooc`), on the ZDD backend, on the multi-terminal
(mtbdd) backend, and against a plain-Python oracle that stores
relations as sets of ``{attribute: value}`` rows -- and asserts they
all agree on the exact tuple set after every operation.  Between the
two BDD kernels the check is stronger than tuple-set equality:
hash-consing makes reduced ordered BDDs canonical, so under the same
variable order both must build *node-for-node identical* diagrams.  The
harness asserts that by comparing serialized wire bytes
(:func:`repro.bdd.io.dumps_diagram_binary`) after every operation.  The
mtbdd lane's relations are {0, 1}-terminal MTBDDs, which must match,
node for node, the reference kernel's diagrams: the same
``node_count`` and the same ``(var, low, high)`` table up to
renumbering.  At the end of every chain the reference, ooc and mtbdd
managers run ``check_integrity()``.

Chains are seeded by index: on the first divergence the harness prints
a one-line replay recipe (seed + chain index + which pair of
implementations disagreed; see :mod:`tests.bdd._repro`), and
``JEDD_DIFF_SEED=<seed> pytest ... -k replay`` reruns exactly the
failing chain.
"""

import os
import random

import pytest

from repro.bdd.io import dumps_diagram_binary
from repro.relations import Relation, Universe

from tests.bdd._repro import REPLAY_ENV, repro_line

ATTRS = ["a", "b", "c", "d", "e", "f"]
PHYSDOMS = ["P1", "P2", "P3", "P4", "P5", "P6"]
DOMAIN_SIZE = 8

#: The tier-1 run's chain seeds: 1000 distinct randomized chains in two
#: banks of 500, each run by its own test below.  The kernel stress job
#: adds longer ones.
PLAIN_SEEDS = range(500)
MTBDD_SEEDS = range(90_000, 90_500)
N_CHAINS_STRESS = 250
OPS_PER_CHAIN = 6
OPS_PER_CHAIN_STRESS = 14

THIS_FILE = "tests/bdd/test_differential.py"

#: Context for repro lines, set by run_chain for the duration of a
#: chain so assertion sites can emit a replayable recipe.
_CTX = {"seed": 0, "chain_index": 0}


def _repro(pair: str) -> str:
    return repro_line(THIS_FILE, _CTX["seed"], _CTX["chain_index"], pair)


def build_universe(backend, kernel="reference"):
    u = Universe(backend=backend, ordering="sequential", kernel=kernel)
    dom = u.domain("D", DOMAIN_SIZE)
    for name in ATTRS:
        u.attribute(name, dom)
    for name in PHYSDOMS:
        u.physical_domain(name, dom.bits)
    u.finalize()
    for v in range(DOMAIN_SIZE):
        dom.intern(v)
    return u


class Oracle:
    """A relation as a set of attribute->value rows."""

    def __init__(self, attrs, rows):
        self.attrs = frozenset(attrs)
        self.rows = {frozenset(r.items()) for r in rows}

    @classmethod
    def from_tuples(cls, attrs, tuples_):
        return cls(
            attrs, [dict(zip(attrs, row)) for row in tuples_]
        )

    def _binop(self, other, fn):
        assert self.attrs == other.attrs
        return Oracle(self.attrs, [dict(r) for r in fn(self.rows, other.rows)])

    def union(self, other):
        return self._binop(other, lambda a, b: a | b)

    def intersect(self, other):
        return self._binop(other, lambda a, b: a & b)

    def difference(self, other):
        return self._binop(other, lambda a, b: a - b)

    def project_away(self, *names):
        keep = self.attrs - set(names)
        return Oracle(
            keep,
            [{k: v for k, v in dict(r).items() if k in keep}
             for r in self.rows],
        )

    def rename(self, mapping):
        return Oracle(
            frozenset(mapping.get(a, a) for a in self.attrs),
            [
                {mapping.get(k, k): v for k, v in dict(r).items()}
                for r in self.rows
            ],
        )

    def join(self, other, self_attr, other_attr):
        out = []
        for r1 in self.rows:
            d1 = dict(r1)
            for r2 in other.rows:
                d2 = dict(r2)
                if d1[self_attr] == d2[other_attr]:
                    merged = dict(d1)
                    merged.update(
                        {k: v for k, v in d2.items() if k != other_attr}
                    )
                    out.append(merged)
        attrs = self.attrs | (other.attrs - {other_attr})
        return Oracle(attrs, out)

    def compose(self, other, self_attr, other_attr):
        out = []
        for r1 in self.rows:
            d1 = dict(r1)
            for r2 in other.rows:
                d2 = dict(r2)
                if d1[self_attr] == d2[other_attr]:
                    merged = {
                        k: v for k, v in d1.items() if k != self_attr
                    }
                    merged.update(
                        {k: v for k, v in d2.items() if k != other_attr}
                    )
                    out.append(merged)
        attrs = (self.attrs - {self_attr}) | (other.attrs - {other_attr})
        return Oracle(attrs, out)

    def select(self, values):
        return Oracle(
            self.attrs,
            [
                dict(r)
                for r in self.rows
                if all(dict(r).get(k) == v for k, v in values.items())
            ],
        )

    def tuple_set(self, names):
        return {
            tuple(dict(r)[n] for n in names) for r in self.rows
        }


#: Lane name -> label used in divergence messages and repro lines.
LANE_LABELS = {
    "ref": "reference-bdd",
    "ooc": "ooc-bdd",
    "zdd": "zdd",
    "mtbdd": "mtbdd",
}


def structure(manager, root):
    """The diagram's ``(var, low, high)`` node table up to renumbering.

    Nodes are numbered in postorder (low subtree first) and the
    terminals keep their handles 0/1, so two kernels holding the same
    reduced diagram produce equal tables whatever their node ids.
    """
    order = manager.postorder(root)
    local = {0: 0, 1: 1}
    for i, node in enumerate(order, start=2):
        local[node] = i
    return local[root], [
        (manager.var_of(n), local[manager.low(n)], local[manager.high(n)])
        for n in order
    ]


class Quint:
    """The same relation on every lane -- the two BDD kernels, the
    ZDD engine and the multi-terminal backend -- plus the oracle."""

    def __init__(self, rels, oracle):
        self.rels = rels
        self.oracle = oracle

    def each(self, fn, oracle):
        return Quint({k: fn(r) for k, r in self.rels.items()}, oracle)

    def pair(self, other, fn, oracle):
        return Quint(
            {k: fn(r, other.rels[k]) for k, r in self.rels.items()}, oracle
        )

    def check(self):
        ref = self.rels["ref"]
        names = ref.schema.names()
        expected = self.oracle.tuple_set(names)
        for lane, rel in self.rels.items():
            cols = [rel.schema.names().index(n) for n in names]
            got = {tuple(row[c] for c in cols) for row in rel.tuples()}
            label = LANE_LABELS[lane]
            assert got == expected, (
                f"{label} diverged from oracle over {names}: "
                f"extra={got - expected}, missing={expected - got}\n"
                + _repro(f"{label} vs oracle")
            )
            assert rel.size() == len(expected)
        # Canonicity: under the same variable order, both BDD kernels
        # must hold node-for-node identical diagrams, not merely the
        # same tuple set.
        m_ref = ref.universe.manager
        ooc = self.rels["ooc"]
        m_ooc = ooc.universe.manager
        wire_ref = dumps_diagram_binary(m_ref, ref.node)
        wire_ooc = dumps_diagram_binary(m_ooc, ooc.node)
        assert wire_ref == wire_ooc, (
            f"BDD kernels (reference vs ooc) diverged on "
            f"canonical node table over {names} "
            f"({len(wire_ref)} vs {len(wire_ooc)} wire bytes)\n"
            + _repro("reference-bdd vs ooc-bdd")
        )
        # A 0/1 MTBDD is the reduced BDD of the same function.  Its wire
        # kind differs (kind 2 carries a terminal table), so compare the
        # node tables directly.
        mt = self.rels["mtbdd"]
        m_mt = mt.universe.manager
        assert m_mt.node_count(mt.node) == m_ref.node_count(ref.node)
        assert structure(m_mt, mt.node) == structure(m_ref, ref.node), (
            f"mtbdd diverged from the reference kernel's node table "
            f"over {names}\n" + _repro("reference-bdd vs mtbdd")
        )


def random_base(rng, universes):
    n_attrs = rng.randrange(1, 3)
    attrs = rng.sample(ATTRS, n_attrs)
    pds = rng.sample(PHYSDOMS, n_attrs)
    n_rows = rng.randrange(0, 10)
    rows = [
        tuple(rng.randrange(DOMAIN_SIZE) for _ in attrs)
        for _ in range(n_rows)
    ]
    return Quint(
        {
            lane: Relation.from_tuples(u, attrs, rows, pds)
            for lane, u in universes.items()
        },
        Oracle.from_tuples(attrs, rows),
    )


def apply_random_op(rng, pool, universes):
    """Apply one random operation; returns a new Quint or None."""
    ops = ["base", "union", "intersect", "difference", "project",
           "rename", "join", "compose", "select", "replace"]
    op = rng.choice(ops)
    if op == "base" or not pool:
        return random_base(rng, universes)
    t1 = rng.choice(pool)
    if op in ("union", "intersect", "difference"):
        same = [t for t in pool if t.oracle.attrs == t1.oracle.attrs]
        t2 = rng.choice(same)
        return t1.pair(
            t2,
            lambda a, b: getattr(a, op)(b),
            getattr(t1.oracle, op)(t2.oracle),
        )
    if op == "project":
        if len(t1.oracle.attrs) < 2:
            return None
        name = rng.choice(sorted(t1.oracle.attrs))
        return t1.each(
            lambda r: r.project_away(name), t1.oracle.project_away(name)
        )
    if op == "rename":
        unused = sorted(set(ATTRS) - t1.oracle.attrs)
        if not unused:
            return None
        old = rng.choice(sorted(t1.oracle.attrs))
        new = rng.choice(unused)
        return t1.each(
            lambda r: r.rename({old: new}), t1.oracle.rename({old: new})
        )
    if op in ("join", "compose"):
        t2 = rng.choice(pool)
        a1, a2 = t1.oracle.attrs, t2.oracle.attrs
        if op == "compose" and (len(a1) < 2 or len(a2) < 2):
            return None
        x = rng.choice(sorted(a1))
        y = rng.choice(sorted(a2))
        if op == "join":
            if a1 & (a2 - {y}):
                return None
        else:
            if (a1 - {x}) & (a2 - {y}):
                return None
        result_size = (
            len(a1 | (a2 - {y}))
            if op == "join"
            else len((a1 - {x}) | (a2 - {y}))
        )
        if result_size > 3 or result_size == 0:
            return None
        return t1.pair(
            t2,
            lambda a, b: getattr(a, op)(b, [x], [y]),
            getattr(t1.oracle, op)(t2.oracle, x, y),
        )
    if op == "select":
        name = rng.choice(sorted(t1.oracle.attrs))
        values = {name: rng.randrange(DOMAIN_SIZE)}
        return t1.each(lambda r: r.select(values), t1.oracle.select(values))
    if op == "replace":
        # Semantically the identity: move one attribute to a free pd.
        name = rng.choice(sorted(t1.oracle.attrs))
        used = {pd.name for _, pd in t1.rels["ref"].schema.pairs}
        free = sorted(set(PHYSDOMS) - used)
        if not free:
            return None
        target = rng.choice(free)
        return t1.each(lambda r: r.replace({name: target}), t1.oracle)
    raise AssertionError(op)


def run_chain(seed, n_ops, chain_index=0):
    """Run one seeded chain of ``n_ops`` random operations."""
    _CTX.update(seed=seed, chain_index=chain_index)
    rng = random.Random(seed)
    universes = {
        "ref": build_universe("bdd", kernel="reference"),
        "ooc": build_universe("bdd", kernel="ooc"),
        "zdd": build_universe("zdd"),
        "mtbdd": build_universe("mtbdd"),
    }
    pool = [random_base(rng, universes)]
    pool[0].check()
    for _ in range(n_ops):
        result = apply_random_op(rng, pool, universes)
        if result is None:
            continue
        result.check()
        pool.append(result)
        if len(pool) > 6:
            pool.pop(0)
    for lane in ("ref", "ooc", "mtbdd"):
        universes[lane].manager.check_integrity()


# Ten batches per seed bank keep single-test runtimes small.
BATCHES = 10


def _run_batch(seeds, batch):
    per_batch = len(seeds) // BATCHES
    base = batch * per_batch
    for i in range(per_batch):
        run_chain(seeds[base + i], OPS_PER_CHAIN, chain_index=base + i)


@pytest.mark.parametrize("batch", range(BATCHES), ids=lambda b: f"{b}-plain")
def test_differential_chains(batch):
    """Seeds 0-499, every lane (the ``<batch>-plain`` ids are the ones
    these seeds have always run under)."""
    _run_batch(PLAIN_SEEDS, batch)


@pytest.mark.parametrize("batch", range(BATCHES))
def test_differential_chains_mtbdd(batch):
    """Seeds 90,000-90,499, every lane; the CI mtbdd job selects these
    with ``-k mtbdd``."""
    _run_batch(MTBDD_SEEDS, batch)


@pytest.mark.kernel_stress
def test_kernel_stress_chains():
    """Longer chains aimed at the ooc kernel's machinery.

    Same harness, but with enough operations per chain that the ooc
    kernel's streaming sweeps process deep request queues.
    """
    for i in range(N_CHAINS_STRESS):
        for seed in (400_000 + i, 600_000 + i):
            run_chain(seed, OPS_PER_CHAIN_STRESS, chain_index=i)


def test_replay_chain():
    """Replay hook for the repro lines printed on divergence.

    ``JEDD_DIFF_SEED=<seed> pytest tests/bdd/test_differential.py -k
    replay`` reruns exactly the chain that failed (long enough to cover
    stress-length chains).
    """
    seed = os.environ.get(REPLAY_ENV)
    if seed is None:
        pytest.skip(f"set {REPLAY_ENV}=<seed> to replay a chain")
    run_chain(int(seed), OPS_PER_CHAIN_STRESS)
