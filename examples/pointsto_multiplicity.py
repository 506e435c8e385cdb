#!/usr/bin/env python3
"""Points-to multiplicity: quantitative analysis on the bdd backend.

The boolean analyses of whole_program_analysis.py answer *whether* a
variable may point to an object; this example answers *how many*.  The
whole pipeline runs on the default bdd backend (the zdd backend gives
the same numbers), and every multiplicity is computed by
:meth:`Relation.aggregate`, then cross-checked against counts of the
relation's tuples made here.

Three layers exercise the same aggregates end to end:

  1. the relational API (``rel.aggregate("count", group_by=["var"])``)
     over all four analyses' result relations,
  2. the mini-language (examples/jedd/multiplicity.jedd, whose
     ``reportMultiplicity`` uses ``count ... group by`` expressions),
  3. the interactive shell (``load-facts`` + ``agg``).

Run:  python examples/pointsto_multiplicity.py [preset]
      (preset one of: javac-s compress javac sablecc jedit)
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

import io
import os
import sys
import tempfile
from collections import Counter

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    Hierarchy,
    PointsTo,
    SideEffects,
    preset,
)
from repro.shell import run_script


def check_aggregates(name, rel):
    """Every grouping of `count` against a Counter over the relation's
    tuples (an empty group is absent in both)."""
    names = list(rel.schema.names())
    rows = list(rel.tuples())
    checked = 0
    for group_by in [[]] + [[n] for n in names]:
        got = rel.aggregate("count", group_by=group_by)
        cols = [names.index(n) for n in group_by]
        oracle = Counter(tuple(row[c] for c in cols) for row in rows)
        assert got.as_dict() == dict(oracle), (name, group_by)
        checked += 1
    print(f"    {name}: {checked} groupings bit-exact against the oracle")


def jedd_language_segment(facts):
    """Run examples/jedd/multiplicity.jedd through the interpreter and
    verify its per-variable counts against a naive
    assign-only closure computed with plain Python sets."""
    from repro.jedd.compiler import compile_source

    src = open(
        os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "jedd",
            "multiplicity.jedd",
        )
    ).read()
    it = compile_source(src).interpreter()
    it.set_global("alloc", it.relation_of(["var", "obj"], facts.allocs))
    it.set_global(
        "assignEdge", it.relation_of(["dstvar", "srcvar"], facts.assigns)
    )
    it.call("solvePointsTo")
    pt = it.global_relation("pt")

    # the assign-only closure, naively
    sets = {}
    for var, obj in facts.allocs:
        sets.setdefault(var, set()).add(obj)
    changed = True
    while changed:
        changed = False
        for dst, src_ in facts.assigns:
            add = sets.get(src_, set()) - sets.get(dst, set())
            if add:
                sets.setdefault(dst, set()).update(add)
                changed = True
    want = {(v,): len(objs) for v, objs in sets.items() if objs}
    assert pt.aggregate("count", group_by=["var"]).as_dict() == want
    print(f"    multiplicity.jedd (interpreter): "
          f"{pt.count()} pt pairs, per-variable counts match the closure")
    return pt


def shell_segment(pt):
    """The same counts through the REPL: bulk-load the pt pairs from CSV
    with load-facts, then aggregate with `agg`."""
    rows = sorted(pt.tuples())
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "pt.csv")
        with open(csv_path, "w") as fh:
            fh.write("var,obj\n")
            for var, obj in rows:
                fh.write(f"{var},{obj}\n")
        out = io.StringIO()
        shell = run_script(
            [
                "domain Var 4096",
                "domain Obj 1024",
                "attribute var : Var",
                "attribute obj : Obj",
                "physdom V1 12",
                "physdom H1 10",
                "finalize",
                f"load-facts {csv_path} pt var:V1 obj:H1 --header",
                "count pt",
                "agg count pt group by var",
            ],
            stdout=out,
        )
    a1 = shell.relations["a1"]
    assert a1.as_dict() == pt.aggregate("count", group_by=["var"]).as_dict()
    assert f"loaded {len(rows)} tuple(s)" in out.getvalue()
    print(f"    shell (load-facts + agg): {a1.size()} variable groups, "
          "identical weights")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "javac-s"
    facts = preset(name)
    au = AnalysisUniverse(facts)
    print(f"benchmark {name} on the bdd backend: {facts.counts()}")

    hierarchy = Hierarchy(au)
    pt = PointsTo(au).solve()
    cg = CallGraph(au, pt)
    edges = cg.build()
    reads, writes = SideEffects(au, pt, edges).solve()

    print("\n[1] aggregates on all four analyses' relations:")
    for rel_name, rel in [
        ("subtype", hierarchy.subtype),
        ("points-to", pt),
        ("call-graph", edges),
        ("reads", reads),
        ("writes", writes),
    ]:
        check_aggregates(rel_name, rel)

    # the headline numbers: points-to set multiplicities
    per_var = pt.aggregate("count", group_by=["var"])
    sizes = sorted(per_var.items(), key=lambda kv: -kv[1])
    mean = per_var.total() / per_var.size()
    print(f"\n[2] points-to multiplicity: {pt.count()} pairs over "
          f"{per_var.size()} variables "
          f"(max {sizes[0][1]}, mean {mean:.2f})")
    print("    largest points-to sets:")
    for (var,), weight in sizes[:5]:
        print(f"      {var:16s} {weight} objects")

    print("\n[3] the same counts through the mini-language and the shell:")
    jedd_pt = jedd_language_segment(facts)
    shell_segment(jedd_pt)

    print("\nall aggregates verified against the tuple oracle.")


if __name__ == "__main__":
    main()
