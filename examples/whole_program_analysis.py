#!/usr/bin/env python3
"""The five interrelated whole-program analyses of section 5 (Figure 2).

Generates a synthetic Java-like program (the Soot substitute), then
runs the full analysis pipeline over BDD relations:

    Hierarchy -> Points-to -> Virtual Call Resolution -> Call Graph
              -> Side-effect Analysis

and cross-checks every result against a naive set-based oracle.

Run:  python examples/whole_program_analysis.py [preset]
      (preset one of: javac-s compress javac sablecc jedit)

The analyses run on the semi-naive fixpoint engine by default; pass
``--engine naive`` to use the original whole-relation loops instead
(both engines produce identical relations -- the differential suite
asserts it).  In a traced run every fixpoint round appears as a
``fixpoint.iteration`` span carrying the per-relation delta sizes.

With ``--trace FILE`` the run executes under the telemetry layer: every
phase becomes a span, kernel metrics (apply-cache hit rates, GC pauses,
SAT statistics from the Jedd domain assignment) are printed at the end,
and a Chrome trace-event JSON file is written (open in chrome://tracing
or https://ui.perfetto.dev).  The traced run additionally executes the
points-to analysis a second time *as Jedd source* through the
interpreter, so the trace shows the full nesting: interpreter statement
-> relational operation -> BDD kernel call.
"""

# Self-locating bootstrap: let `python examples/<name>.py` work from a
# plain checkout, without installing the package or setting PYTHONPATH.
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - only taken outside the test env
    import os as _os
    import sys as _sys

    _sys.path.insert(
        0,
        _os.path.join(_os.path.dirname(_os.path.abspath(__file__)), "..", "src"),
    )

import sys
import time

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    Hierarchy,
    PointsTo,
    SideEffects,
    naive_call_graph,
    naive_points_to,
    naive_side_effects,
    naive_subtypes,
    preset,
)


def _phase(session, name):
    """A span when tracing, a do-nothing context manager otherwise."""
    if session is not None:
        return session.span(name, cat="host")

    class _Null:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return False

    return _Null()


def _jedd_pointsto_segment(session, facts):
    """Re-run the points-to analysis as Jedd source via the interpreter,
    under telemetry: the resulting trace nests interpreter statements
    over relational operations over BDD kernel calls, and the SAT solve
    of the physical-domain assignment appears as its own span.  The
    source uses the ``fix { ... }`` form, so each semi-naive round shows
    up as a ``fix.iteration`` span with per-relation delta sizes."""
    from repro.analyses import naive_points_to
    from repro.analyses.jedd_sources import pointsto_fix_source
    from repro.jedd.compiler import compile_source

    c = facts.counts()
    bits = dict(
        type_bits=max(2, c["classes"].bit_length()),
        sig_bits=max(2, c["signatures"].bit_length()),
        method_bits=max(2, len(facts.methods).bit_length()),
        var_bits=max(2, c["variables"].bit_length()),
        obj_bits=max(2, c["alloc_sites"].bit_length()),
        field_bits=max(2, c["fields"].bit_length()),
        site_bits=max(2, c["virtual_calls"].bit_length()),
    )
    with session.span("jedd.compile", cat="host"):
        cp = compile_source(pointsto_fix_source(**bits))
    it = cp.interpreter()
    session.instrument_universe(it.universe)
    it.set_global("alloc", it.relation_of(["var", "obj"], facts.allocs))
    it.set_global(
        "assignEdge", it.relation_of(["dstvar", "srcvar"], facts.assigns)
    )
    it.set_global(
        "storeEdge",
        it.relation_of(["basevar", "field", "srcvar"], facts.stores),
    )
    it.set_global(
        "loadEdge",
        it.relation_of(["dstvar", "basevar", "field"], facts.loads),
    )
    it.call("solvePointsTo")
    pt = it.global_relation("pt")
    npt, _ = naive_points_to(facts)
    assert set(pt.tuples()) == npt
    print(f"[5] points-to via Jedd interpreter: {pt.count()} pairs "
          "(matches the relational API result)")
    it.universe.manager.gc()


def main() -> None:
    from repro import telemetry

    argv = sys.argv[1:]
    trace_path = None
    if "--trace" in argv:
        i = argv.index("--trace")
        if i + 1 >= len(argv):
            print("usage: whole_program_analysis.py [preset] "
                  "[--engine seminaive|naive] --trace FILE",
                  file=sys.stderr)
            raise SystemExit(2)
        trace_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    engine = "seminaive"
    if "--engine" in argv:
        i = argv.index("--engine")
        if i + 1 >= len(argv) or argv[i + 1] not in ("seminaive", "naive"):
            print("--engine takes 'seminaive' or 'naive'", file=sys.stderr)
            raise SystemExit(2)
        engine = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    # The command-line flags collapse into one ExecutionPolicy shared
    # by every analysis below.
    from repro.relations import ExecutionPolicy

    policy = ExecutionPolicy(engine=engine)
    name = argv[0] if argv else "compress"
    facts = preset(name)
    print(f"benchmark {name}: {facts.counts()} [{policy} engine]")

    session = telemetry.enable() if trace_path else None

    au = AnalysisUniverse(facts)
    print(f"universe: {au.universe.manager.num_vars} BDD variables, "
          f"{len(au.universe.physical_domains())} physical domains")
    if session is not None:
        session.instrument_universe(au.universe)

    t0 = time.perf_counter()
    with _phase(session, "hierarchy"):
        hierarchy = Hierarchy(au)
    print(f"\n[1] hierarchy: {hierarchy.subtype.count()} subtype pairs "
          f"({time.perf_counter() - t0:.3f}s)")
    assert set(hierarchy.subtype.tuples()) == naive_subtypes(facts)
    if session is not None:
        # Explicit collection at the phase boundary: the GC pause and
        # reclaimed-node metrics in the report come from these.
        au.universe.manager.gc()

    t0 = time.perf_counter()
    with _phase(session, "points-to"):
        pta = PointsTo(au, policy=policy)
        pt = pta.solve()
    print(f"[2] points-to ({engine}): {pt.count()} (var, obj) pairs in "
          f"{pta.iterations} iterations ({time.perf_counter() - t0:.3f}s); "
          f"pt BDD has {pt.node_count()} nodes")
    npt, _ = naive_points_to(facts)
    assert set(pt.tuples()) == npt

    t0 = time.perf_counter()
    with _phase(session, "call-graph"):
        cg = CallGraph(au, pt, policy)
        edges = cg.build()
    print(f"[3] call graph: {edges.count()} caller/callee edges "
          f"({time.perf_counter() - t0:.3f}s)")
    order = [edges.schema.names().index(n) for n in ("caller", "callee")]
    got = {tuple(t[i] for i in order) for t in edges.tuples()}
    assert got == naive_call_graph(facts)

    roots = au.rel(["method"], [(facts.methods[0],)], ["M1"])
    reached = cg.reachable_from(roots)
    print(f"    methods reachable from {facts.methods[0]}: "
          f"{reached.count()} of {len(facts.methods)}")

    t0 = time.perf_counter()
    with _phase(session, "side-effects"):
        se = SideEffects(au, pt, edges, policy)
        reads, writes = se.solve()
    print(f"[4] side effects: {reads.count()} reads, {writes.count()} writes "
          f"({time.perf_counter() - t0:.3f}s)")
    nreads, nwrites = naive_side_effects(facts)

    def as_set(rel):
        idx = [rel.schema.names().index(n)
               for n in ("method", "baseobj", "field")]
        return {tuple(t[i] for i in idx) for t in rel.tuples()}

    assert as_set(reads) == nreads and as_set(writes) == nwrites

    print("\nall four BDD analyses verified against the naive oracles.")
    # A taste of the output: the most write-heavy methods.
    per_method = {}
    for method, _obj, _field in as_set(writes):
        per_method[method] = per_method.get(method, 0) + 1
    top = sorted(per_method.items(), key=lambda kv: -kv[1])[:5]
    print("methods with the largest write sets:")
    for method, count in top:
        print(f"  {method:16s} {count} (object, field) pairs")

    if session is not None:
        au.universe.manager.gc()
        _jedd_pointsto_segment(session, facts)
        count = session.write_chrome_trace(
            trace_path, process_name="whole-program-analysis"
        )
        print(f"\nwrote {count} trace events to {trace_path}")
        print(session.text_report())
        telemetry.disable()


if __name__ == "__main__":
    main()
