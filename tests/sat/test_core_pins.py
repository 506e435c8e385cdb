"""Pinned unsatisfiable cores.

A level-0 literal's origin closure (the input clauses that force it) is
taken on demand, when a learned clause's derivation or a core needs it,
and kept.  The cores must be those of the solver that built every
closure as the literal was assigned: the same sets, found by the same
search.  The pins below were recorded with that solver; a change to the
search or to core extraction shows here.
"""

import hashlib
import random
from functools import lru_cache

from repro.jedd.assignment import DomainAssigner
from repro.jedd.constraints import build_constraints
from repro.jedd.liveness import insert_frees
from repro.jedd.parser import parse_program
from repro.jedd.typecheck import check
from repro.sat import CNF, solve
from repro.sat.solver import Solver

from tests.jedd.helpers import UNSAT_333
from tests.sat.test_solver import TrailCheckingSolver

#: Unsatisfiable instances pinned, the seeds scanned to find them, and
#: the SHA-256 of their cores as ``"<seed> <clause ids>\n"`` lines.
CORES = 200
SEEDS_SCANNED = 281
CORES_SHA256 = (
    "921781ae95edfade118825b2a8f7d0b6a2d6b5b1618ec724de75a581b3dbaf5a"
)


def random_cnf(seed):
    """Odd seeds: random 3-SAT of 25-50 variables just above the
    threshold, where conflicts are many and learned units common.  Even
    seeds: 8-40 variables with a few units and binary clauses among 3-
    and 4-literal ones, so that long chains of literals are implied at
    level 0 before the first decision."""
    rng = random.Random(seed)

    def lit(v):
        return v * rng.choice((1, -1))

    if seed % 2:
        n = rng.randrange(25, 51)
        cnf = CNF(n)
        for _ in range(round(n * rng.uniform(4.3, 5.0))):
            cnf.add_clause([lit(v) for v in rng.sample(range(1, n + 1), 3)])
        return cnf
    n = rng.randrange(8, 41)
    cnf = CNF(n)
    for _ in range(rng.randrange(0, 3)):
        cnf.add_clause([lit(rng.randrange(1, n + 1))])
    for _ in range(rng.choice((0, n // 2, n))):
        cnf.add_clause([lit(v) for v in rng.sample(range(1, n + 1), 2)])
    for _ in range(round(n * rng.uniform(3.5, 6.0))):
        width = rng.choice((3, 3, 3, 4))
        cnf.add_clause([lit(v) for v in rng.sample(range(1, n + 1), width)])
    return cnf


@lru_cache(maxsize=None)
def unsat_instances():
    """The first ``CORES`` unsatisfiable ``random_cnf`` instances, as
    ``(seed, cnf, result)``, and the number of seeds scanned."""
    found = []
    seed = 0
    while len(found) < CORES:
        cnf = random_cnf(seed)
        result = Solver(cnf).solve()
        if not result.satisfiable:
            found.append((seed, cnf, result))
        seed += 1
    return tuple(found), seed


def test_random_cores_are_pinned():
    found, scanned = unsat_instances()
    text = "".join(
        f"{seed} {' '.join(map(str, result.core))}\n"
        for seed, _, result in found
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (scanned, digest) == (SEEDS_SCANNED, CORES_SHA256)
    # The sample reaches both kinds of core: from a conflict among
    # input clauses before any decision, and from one after learning.
    conflicts = [result.conflicts for _, _, result in found]
    assert min(conflicts) == 0 and max(conflicts) >= 50


def test_random_cores_are_unsatisfiable_and_sorted():
    found, _ = unsat_instances()
    for seed, cnf, result in found:
        core = result.core
        assert core == sorted(set(core)), seed
        sub = CNF(cnf.num_vars)
        sub.clauses = [cnf.clauses[i] for i in core]
        assert not solve(sub).satisfiable, seed


def test_closures_survive_trail_checks():
    """The trail checker takes a closure of every level-0 literal after
    every propagation; taking them early changes no core."""
    found, _ = unsat_instances()
    for seed, cnf, result in found[:40]:
        assert TrailCheckingSolver(cnf).solve().core == result.core, seed


def test_section_333_core_is_pinned():
    """The core of the section 3.3.3 program, whose conflict clause
    (87) names the attributes of the error message."""
    tp = check(parse_program(UNSAT_333))
    insert_frees(tp)
    graph = build_constraints(tp)
    bits = {d: tp.domain_bits(d) for d in tp.domains}
    cnf, _, conflicts = DomainAssigner(graph, tp.physdoms, bits).encode()
    result = solve(cnf)
    assert not result.satisfiable
    assert result.core == [87, 103, 105, 111, 113]
    assert [i for i in result.core if i in conflicts] == [87]
