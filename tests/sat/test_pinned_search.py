"""Pinned CDCL search on the Table 1 combined domain-assignment CNF.

The counters and the model below were measured at commit ``0f0a5a9``
(the solver before its literal-indexed rewrite), which passes this test
by construction.  The rewrite must make exactly the same search: the
same decisions in the same order, hence the same counters and model.
A deliberate heuristic change (branching, restarts, phase, clause
deletion) updates these pins in the same commit and says so.

The CNF itself is pinned too, by the SHA-256 of its DIMACS text, as
measured at commit ``ffeb0f8`` (the encoder before it built clause
families in bulk).  The encoder must hand the solver the same clauses
in the same order: the search pins above depend on it, and so does
Table 1.

Both sources yield the same CNF today (``examples/jedd/combined.jedd``
is the combined Table 1 program at the default bit widths); each is
pinned on its own so that a change to either one shows.
"""

import hashlib
import os

import pytest

from repro.analyses.jedd_sources import ANALYSIS_SOURCES
from repro.jedd.assignment import DomainAssigner
from repro.jedd.constraints import build_constraints
from repro.jedd.parser import parse_program
from repro.jedd.typecheck import check
from repro.sat import solve

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _table1_combined():
    return ANALYSIS_SOURCES["All 5 combined"]()


def _example_combined():
    path = os.path.join(ROOT, "examples", "jedd", "combined.jedd")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


#: (vars, clauses, literals, conflicts, decisions, propagations,
#: SHA-256 of the model as space-separated signed literals in variable
#: order).
COMBINED_PIN = (
    12378, 80945, 169656, 150, 26258, 214768,
    "434eacf753c4d5edbcfd10b2bb72145398e401a2326548c9227fcb3ef9d81578",
)

#: SHA-256 of ``cnf.to_dimacs()`` for the combined program.
COMBINED_DIMACS_SHA256 = (
    "e821d933bbf319762c26946bf9825abd3969cfefc4ef189a87596fb1ce99ba46"
)


def _model_digest(model):
    text = " ".join(str(v if model[v] else -v) for v in sorted(model))
    return hashlib.sha256(text.encode()).hexdigest()


def _combined_cnf(source):
    tp = check(parse_program(source()))
    graph = build_constraints(tp)
    bits = {d: tp.domain_bits(d) for d in tp.domains}
    cnf, _, _ = DomainAssigner(graph, tp.physdoms, bits).encode()
    return cnf


SOURCES = pytest.mark.parametrize(
    "source", [_table1_combined, _example_combined],
    ids=["table1-all-5-combined", "example-combined"],
)


@SOURCES
def test_combined_cnf_is_pinned(source):
    dimacs = _combined_cnf(source).to_dimacs()
    assert hashlib.sha256(dimacs.encode()).hexdigest() == COMBINED_DIMACS_SHA256


@SOURCES
def test_combined_search_is_pinned(source):
    cnf = _combined_cnf(source)
    result = solve(cnf)
    assert result.satisfiable
    measured = (
        cnf.num_vars, len(cnf), cnf.num_literals,
        result.conflicts, result.decisions, result.propagations,
        _model_digest(result.model),
    )
    assert measured == COMBINED_PIN
