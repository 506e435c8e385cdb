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

Chronological backtracking (the solver undoes only the conflict level,
where it used to jump back to the learned clause's level, and every
clause this CNF learns is a unit, asserted at level 0) moved the
decisions from 24,678 to 1,170 and the propagations from 102,244 to
7,653.  Everything else stayed: the CNF, its 151 conflicts and its
model.

``test_assignment_is_pinned`` pins the domain assignment of each of
the six Table 1 programs at the bit widths the jeddc benchmark sizes
for the jedit facts, so a search change that finds another model for
any of them shows too.

Both sources yield the same CNF today (``examples/jedd/combined.jedd``
is the combined Table 1 program at the default bit widths); each is
pinned on its own so that a change to either one shows.
"""

import hashlib
import os

import pytest

from repro.analyses.jedd_sources import ANALYSIS_SOURCES
from repro.jedd.assignment import DomainAssigner
from repro.jedd.compiler import compile_source
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
    4470, 23463, 49572, 151, 1170, 7653,
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


#: Bit widths of the jeddc benchmark's Table 1 programs: ``jedd_bits``
#: of ``bench/workloads.py`` on the jedit preset's facts.
JEDIT_BITS = dict(
    type_bits=8, sig_bits=5, method_bits=10, var_bits=12, obj_bits=10,
    field_bits=4, site_bits=10,
)

#: Table 1 program -> (node count, SHA-256 of its ``node_domains`` as
#: ``"<node id> <physical domain>\n"`` lines in node order).
ASSIGNMENT_PINS = {
    "Virtual Call Resolution": (
        125,
        "24c5cf2c4ed1b050e9c42b764a33ab114d02c10a47dccf77a517a04b52d3c611",
    ),
    "Hierarchy": (
        123,
        "0fa425bf103d45f9f8932563988a17bc92e4f1294790012b0f50d7dfa5941ac3",
    ),
    "Points-to Analysis": (
        375,
        "b8dcf641367492cfe2c23b6bf554bbcc46f2998763064f9f553670a497320ccb",
    ),
    "Side-effect Analysis": (
        312,
        "a1c8338bda8d42b42b3451845df1e681badebc3979a3aa354ab141cd48b2939d",
    ),
    "Call Graph": (
        441,
        "8bd88433cda6e5d8af01cf2b12d4edbb87fb59abf1808e86eb3c3177c6c55594",
    ),
    "All 5 combined": (
        1114,
        "1d767dc30e285cb3765f8082ad2f788bdb9160202a14f9bfc9d033042e4293e3",
    ),
}


def test_assignment_pins_cover_table1():
    assert set(ASSIGNMENT_PINS) == set(ANALYSIS_SOURCES)


@pytest.mark.parametrize("name", list(ASSIGNMENT_PINS))
def test_assignment_is_pinned(name):
    compiled = compile_source(ANALYSIS_SOURCES[name](**JEDIT_BITS))
    node_domains = compiled.assignment.node_domains
    text = "".join(f"{n} {pd}\n" for n, pd in sorted(node_domains.items()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(node_domains), digest) == ASSIGNMENT_PINS[name]
