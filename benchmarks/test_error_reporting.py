"""Section 3.3.3: unsat-core-based error reporting.

The paper's example declares::

    <rectype:T1, signature:S1, tgttype:T2> toResolve;
    <supertype:T1, subtype:T2> extend;
    <rectype, signature, supertype> result =
        toResolve {tgttype} <> extend {subtype};

and jeddc reports::

    Conflict between Compose_expression:rectype at Test.jedd:4,25
    and Compose_expression:supertype at Test.jedd:4,25
    over physical domain T1

This benchmark regenerates that behaviour: the same program yields a
conflict message naming the compose expression, the two attributes and
the single available physical domain; applying the paper's fix
(``supertype:T3``) makes it compile.
"""

import pytest

from repro.jedd import AssignmentError, compile_source

BROKEN = """
domain Type 16;
domain Signature 16;
attribute rectype : Type;
attribute signature : Signature;
attribute tgttype : Type;
attribute subtype : Type;
attribute supertype : Type;
physdom T1 4;
physdom T2 4;
physdom S1 4;

<rectype:T1, signature:S1, tgttype:T2> toResolve;
<supertype:T1, subtype:T2> extend;
<rectype, signature, supertype> result;

def go() {
  result = toResolve{tgttype} <> extend{subtype};
}
"""

FIXED = BROKEN.replace(
    "physdom T2 4;", "physdom T2 4;\nphysdom T3 4;"
).replace(
    "<rectype, signature, supertype> result;",
    "<rectype, signature, supertype:T3> result;",
)


def test_error_message_shape():
    with pytest.raises(AssignmentError) as err:
        compile_source(BROKEN)
    message = str(err.value)
    print(f"\njeddc error: {message}")
    assert message.startswith("Conflict between")
    assert "Compose_expression:rectype" in message
    assert "Compose_expression:supertype" in message
    assert message.endswith("over physical domain T1")


def test_error_message_is_pinned():
    """The message byte for byte: the unsat core (and with it the
    attributes the message names) depends on the solver's search."""
    with pytest.raises(AssignmentError) as err:
        compile_source(BROKEN)
    assert str(err.value) == (
        "Conflict between Compose_expression:rectype at 18,21 and "
        "Compose_expression:supertype at 18,21 over physical domain T1"
    )


def test_fix_compiles_and_assigns_t3():
    compiled = compile_source(FIXED)
    result_var = compiled.tp.lookup_var(None, "result")
    pds = compiled.assignment.owner_domains[("var", result_var.var_id)]
    print(f"\nfixed program: result stored as {pds}")
    assert pds["supertype"] == "T3"
    assert pds["rectype"] == "T1"


def test_error_reporting_benchmark(benchmark):
    """Time the full detect-conflict path (encode + UNSAT + core)."""
    def run():
        try:
            compile_source(BROKEN)
        except AssignmentError as err:
            return str(err)
        raise AssertionError("expected a conflict")

    message = benchmark(run)
    assert "over physical domain" in message
