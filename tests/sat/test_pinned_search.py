"""Pinned CDCL search on the Table 1 combined domain-assignment CNF.

The CNF is the equality quotient's (``repro.jedd.assignment``): one
``e_c:p`` per equality component and candidate domain, no type-5
clauses.  Its counters, its model and the SHA-256 of its DIMACS text
were measured at the commit that introduced that encoding.  Any change
to the solver's search (branching, restarts, phase, clause deletion) or
to the clauses the encoder hands it, or their order, shows here; such a
change updates these pins in the same commit and says so.

The pins before the quotient, on the per-attribute CNF of section
3.3.2 (measured at ``0f0a5a9`` and ``ffeb0f8``), were 12,378 variables,
80,945 clauses, 169,656 literals, 150 conflicts, 26,258 decisions and
214,768 propagations.

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
    4470, 23463, 49572, 151, 24678, 102244,
    "8f47585dbfc6526baf82ad0188a81002d0bb492e90bc95623ce4123ace2d9c26",
)

#: SHA-256 of ``cnf.to_dimacs()`` for the combined program.
COMBINED_DIMACS_SHA256 = (
    "2da3b7a53f8940407c595f91dd106cc6e9afa0768e5aa62559888b7d1ae1cc2a"
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
