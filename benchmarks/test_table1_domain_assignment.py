"""Table 1: size of the physical domain assignment problem.

For each of the five analyses (and all five combined), reports the
number of relational expressions, attributes and physical domains, the
conflict/equality/assignment constraint counts, the SAT problem size
(equality components, variables, clauses, literals), the solver's
conflicts and decisions, and the solving time.  The SAT columns describe the equality quotient's CNF: one set of
``e_c:p`` variables per equality component (Comps), where the paper's
encoding has one per attribute.

Paper values (1833 MHz Athlon, zchaff): the combined program has 613
subexpressions with 1586 attributes and solves in 4.6 seconds; each
individual module is substantially smaller and faster, and solve time
is negligible next to a full build.  The reproduction checks the same
shape: combined is the largest row, each row is satisfiable, and every
solve is fast relative to any realistic build step.
"""

from repro.analyses.jedd_sources import ANALYSIS_SOURCES
from repro.jedd.assignment import DomainAssigner, validate_assignment
from repro.jedd.compiler import compile_source
from repro.jedd.constraints import build_constraints
from repro.jedd.parser import parse_program
from repro.jedd.typecheck import check

HEADER = (
    f"{'Analysis':26s} {'Exprs':>6s} {'Attrs':>6s} {'Doms':>5s} "
    f"{'Confl':>6s} {'Equal':>6s} {'Assig':>6s} {'Comps':>6s} "
    f"{'Vars':>7s} {'Clauses':>8s} {'Lits':>8s} {'Conflicts':>9s} "
    f"{'Decisions':>9s} {'Time(s)':>8s}"
)


def _row(name, stats):
    return (
        f"{name:26s} {stats['relation_exprs']:6d} {stats['attributes']:6d} "
        f"{stats['physdoms']:5d} {stats['conflict']:6d} "
        f"{stats['equality']:6d} {stats['assignment']:6d} "
        f"{stats['sat_components']:6d} {stats['sat_vars']:7d} "
        f"{stats['sat_clauses']:8d} {stats['sat_literals']:8d} "
        f"{stats['conflicts']:9d} {stats['decisions']:9d} "
        f"{stats['solve_seconds']:8.3f}"
    )


def test_table1_all_rows():
    """Regenerate every row of Table 1 and check its shape."""
    rows = {}
    print()
    print("Table 1: Size of physical domain assignment problem")
    print(HEADER)
    for name, builder in ANALYSIS_SOURCES.items():
        compiled = compile_source(builder())
        stats = compiled.stats
        rows[name] = stats
        print(_row(name, stats))
        # every row must be a *valid* assignment, widths included
        tp = compiled.tp
        assert validate_assignment(
            compiled.graph, compiled.assignment.node_domains,
            tp.physdoms, {d: tp.domain_bits(d) for d in tp.domains},
        ) == []
    combined = rows["All 5 combined"]
    for name, stats in rows.items():
        if name == "All 5 combined":
            continue
        assert combined["relation_exprs"] >= stats["relation_exprs"]
        assert combined["attributes"] >= stats["attributes"]
        assert combined["sat_clauses"] >= stats["sat_clauses"]
        assert combined["sat_components"] >= stats["sat_components"]
    # the paper's point: solving is fast enough to run on every compile
    assert combined["solve_seconds"] < 60.0


def test_table1_combined_solve_benchmark(benchmark):
    """Benchmark the combined row's SAT encode + solve (the 4.6s cell)."""
    source = ANALYSIS_SOURCES["All 5 combined"]()
    tp = check(parse_program(source))
    graph = build_constraints(tp)
    bits = {d: tp.domain_bits(d) for d in tp.domains}

    def solve():
        return DomainAssigner(graph, tp.physdoms, bits).solve()

    result = benchmark(solve)
    assert validate_assignment(
        graph, result.node_domains, tp.physdoms, bits
    ) == []


def test_table1_vcall_solve_benchmark(benchmark):
    """Benchmark the smallest row for scale comparison."""
    source = ANALYSIS_SOURCES["Virtual Call Resolution"]()
    tp = check(parse_program(source))
    graph = build_constraints(tp)
    bits = {d: tp.domain_bits(d) for d in tp.domains}
    result = benchmark(
        lambda: DomainAssigner(graph, tp.physdoms, bits).solve()
    )
    assert validate_assignment(
        graph, result.node_domains, tp.physdoms, bits
    ) == []
