"""Kernel-work benchmark: semi-naive vs whole-relation fixpoint evaluation.

The whole-program-analysis demo (``examples/whole_program_analysis.py``)
runs points-to over the javac preset.  This benchmark runs the same
analysis, on the same program shape plus one long copy chain
(``c0 = new T(); c1 = c0; ... c79 = c78`` -- deep def-use chains like
this are what drives iteration counts in real points-to runs), and
compares two evaluations on the always-on :class:`KernelStats`
counters: total operation-cache misses and nodes created.

- The paper's own Jedd program (``jedd_sources.pointsto_source``), run
  by the interpreter under ``BIT_ORDER``: a do/while loop that re-joins
  the full ``pt`` and ``hpt`` relations every round.
- ``PointsTo`` on the semi-naive ``FixpointEngine``, which joins only
  each round's delta.

Two regimes matter, and the benchmark shows both:

* **Unbounded caches** (this kernel's default): the persistent apply
  cache makes the whole-relation loop incremental for free -- re-joining
  the full ``pt`` each iteration mostly re-hits memoised subproblems, so
  the two evaluations do comparable kernel work.
* **Bounded caches** (``cache_limit``, the regime of BuDDy and CUDD,
  whose operation caches are fixed-size): memoised results from
  earlier iterations are evicted, so the whole-relation loop genuinely
  re-pays for the full relations every round, while the semi-naive
  engine's delta joins stay within the cache.  Here the semi-naive
  engine does **>= 2x** less work (misses + nodes created).
"""

import pytest

from repro.analyses import AnalysisUniverse, PointsTo
from repro.analyses.jedd_sources import PointsToProgram
from repro.analyses.universe import BIT_ORDER

from benchmarks.chain import chained_facts

#: Entries per operation cache in the bounded (BuDDy/CUDD-like) regime.
CACHE_LIMIT = 4096
#: Length of the copy chain appended to the javac preset.
CHAIN_DEPTH = 80


def _cost(manager, pt):
    """(cache misses, nodes created, pt tuples) since the stats reset."""
    s = manager.stats
    misses = (
        sum(s.op_misses)
        + s.and_exist_misses
        + s.exist_misses
        + s.replace_misses
    )
    return misses, s.nodes_created, pt.size()


def seminaive_cost(facts, cache_limit=None):
    """Kernel cost of one ``PointsTo`` solve."""
    au = AnalysisUniverse(facts)
    manager = au.universe.manager
    manager.cache_limit = cache_limit
    manager.stats.reset()
    solver = PointsTo(au)
    solver.solve()
    return _cost(manager, solver.pt)


def paper_cost(facts, cache_limit=None):
    """Kernel cost of one run of the paper's program (compiled first)."""
    program = PointsToProgram(facts, bit_order=BIT_ORDER)
    it = program.interpreter()
    manager = it.universe.manager
    manager.cache_limit = cache_limit
    manager.stats.reset()
    program.solve(it)
    return _cost(manager, it.global_relation("pt"))


@pytest.fixture(scope="module")
def facts():
    return chained_facts("javac", CHAIN_DEPTH)


def _report(label, paper, semi):
    mp, np_, _ = paper
    ms, ns, _ = semi
    ratio = (mp + np_) / max(ms + ns, 1)
    print(f"\n{label}")
    print(f"  {'program':>10s} {'misses':>10s} {'nodes':>8s} {'total':>10s}")
    print(f"  {'paper':>10s} {mp:10d} {np_:8d} {mp + np_:10d}")
    print(f"  {'seminaive':>10s} {ms:10d} {ns:8d} {ms + ns:10d}")
    print(f"  reduction: {ratio:.2f}x")
    return ratio


def test_bounded_cache_seminaive_at_least_2x(facts):
    """Under fixed-size operation caches the semi-naive engine does at
    least 2x less kernel work (apply-cache misses + nodes created) than
    the paper's whole-relation program."""
    paper = paper_cost(facts, cache_limit=CACHE_LIMIT)
    semi = seminaive_cost(facts, cache_limit=CACHE_LIMIT)
    assert paper[2] == semi[2]  # identical solutions
    ratio = _report(f"bounded caches ({CACHE_LIMIT} entries/op)", paper, semi)
    assert ratio >= 2.0, (
        f"expected >= 2x kernel-work reduction, measured {ratio:.2f}x"
    )


def test_unbounded_cache_parity_documented(facts):
    """With unbounded caches the whole-relation loop is incremental for
    free (cross-iteration memoisation), so the two are within 2x of each
    other either way.  This pins down *why* the bounded regime above is
    the one where semi-naive evaluation pays off."""
    paper = paper_cost(facts)
    semi = seminaive_cost(facts)
    assert paper[2] == semi[2]
    ratio = _report("unbounded caches (kernel default)", paper, semi)
    assert 0.5 <= ratio <= 2.0


def test_engines_agree_tuple_for_tuple():
    """Correctness guard for the workload itself (cache eviction must
    never change results, only costs)."""
    facts = chained_facts("javac", 12)
    au = AnalysisUniverse(facts)
    au.universe.manager.cache_limit = 256
    sn = PointsTo(au)
    sn.solve()
    program = PointsToProgram(facts, bit_order=BIT_ORDER)
    it = program.interpreter()
    it.universe.manager.cache_limit = 256
    program.solve(it)

    def tuples(rel, *names):
        order = [rel.schema.names().index(n) for n in names]
        return {tuple(t[i] for i in order) for t in rel.tuples()}

    assert tuples(sn.pt, "var", "obj") == tuples(
        it.global_relation("pt"), "var", "obj"
    )
    assert tuples(sn.hpt, "baseobj", "field", "srcobj") == tuples(
        it.global_relation("hpt"), "baseobj", "field", "srcobj"
    )
