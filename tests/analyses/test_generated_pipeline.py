"""Execute the combined five-analysis program as *generated code*.

The strongest end-to-end check of the translator: the combined Jedd
program is compiled by jeddc, emitted as Python, executed, and every
analysis result is compared against the naive oracles.  This exercises
the code generator's handling of globals, loops, calls between
generated functions, literals, replaces, and eager frees at once.
"""

import pytest

from repro.analyses import (
    naive_call_graph,
    naive_points_to,
    naive_side_effects,
    naive_subtypes,
    synthesize,
)
from repro.analyses.jedd_sources import combined_source, source_widths
from repro.jedd.codegen import generate
from repro.jedd.compiler import compile_source
from repro.relations import Relation


@pytest.fixture(scope="module")
def pipeline():
    facts = synthesize("gen", n_classes=7, n_signatures=4, seed=21)
    cp = compile_source(combined_source(**source_widths(facts)))
    code = generate(cp.tp, cp.assignment)
    namespace = {}
    exec(compile(code, "<jeddc-combined>", "exec"), namespace)
    prog = namespace["Program"]()
    u = prog.universe

    def rel(attrs, rows):
        return Relation.from_tuples(u, attrs, rows)

    # Feed every input relation through the generated containers; the
    # container's set() aligns nothing, so build inputs in the variable's
    # assigned physical domains via replace-on-read semantics: simplest
    # is to construct with scratch domains and align via a set-op no-op.
    def feed(name, attrs, rows):
        var = cp.tp.lookup_var(None, name)
        pds = cp.assignment.owner_domains[("var", var.var_id)]
        value = Relation.from_tuples(
            u, attrs, rows, [pds[a] for a in attrs]
        )
        getattr(prog, name).set(value)

    feed("extend", ["subtype", "supertype"], facts.extends)
    feed(
        "selfPairs", ["subtype", "supertype"],
        [(c, c) for c in facts.classes],
    )
    feed("declaresMethod", ["type", "signature", "method"], facts.declares)
    feed("alloc", ["var", "obj"], facts.allocs)
    feed("allocType", ["obj", "type"], facts.alloc_types)
    feed("assignEdge", ["dstvar", "srcvar"], facts.assigns)
    feed("storeEdge", ["basevar", "field", "srcvar"], facts.stores)
    feed("loadEdge", ["dstvar", "basevar", "field"], facts.loads)
    feed("virtualCalls", ["site", "var", "signature"], facts.virtual_calls)
    feed("siteMethod", ["site", "caller"], facts.site_methods)
    feed("methodVar", ["method", "var"], facts.method_vars)

    prog.computeHierarchy()
    prog.solvePointsTo()
    prog.buildCallGraph()
    prog.solveSideEffects()
    return facts, prog


def by_names(relation, *names):
    order = [relation.schema.names().index(n) for n in names]
    return {tuple(t[i] for i in order) for t in relation.tuples()}


def test_generated_hierarchy(pipeline):
    facts, prog = pipeline
    assert by_names(
        prog.subtypeRel.get(), "subtype", "supertype"
    ) == naive_subtypes(facts)


def test_generated_points_to(pipeline):
    facts, prog = pipeline
    npt, nhpt = naive_points_to(facts)
    assert by_names(prog.pt.get(), "var", "obj") == npt
    assert by_names(prog.hpt.get(), "baseobj", "field", "srcobj") == nhpt


def test_generated_call_graph(pipeline):
    facts, prog = pipeline
    assert by_names(
        prog.callEdges.get(), "caller", "callee"
    ) == naive_call_graph(facts)


def test_generated_side_effects(pipeline):
    facts, prog = pipeline
    nreads, nwrites = naive_side_effects(facts)
    assert by_names(
        prog.readSet.get(), "method", "baseobj", "field"
    ) == nreads
    assert by_names(
        prog.writeSet.get(), "method", "baseobj", "field"
    ) == nwrites
