"""The four benchmark workloads.

Each workload is a closed loop in one process (the service workload adds
one server process and one connection).  A workload's inputs come only
from its seed: the seed renumbers a fixed paper program (see
:func:`relabel`), so every seed poses a problem of the same size and
``--seed 0`` is the paper's own program.

=================  ====================================================
``table2``         Table 2: Jedd ``PointsTo`` against the hand-coded
                   ``LowLevelPointsTo`` on the five presets.  Small
                   diagrams and many relational calls per kernel op:
                   relational-layer and semi-naive overhead.
``figure2``        The Figure 2 pipeline (hierarchy, points-to, call
                   graph through virtual-call resolution, side effects)
                   on one ~150-class program.  Large diagrams: the
                   kernel, its caches and its garbage collector.
``jeddc``          The jeddc front and back end on the six Table 1
                   sources and the seven ``examples/jedd`` programs.
                   The SAT domain assignment does the work; no kernel.
``standing-query`` A points-to standing query in ``python -m
                   repro.service`` under a mix of lookups, reads and
                   single-fact updates: DRed maintenance, the shell's
                   planner path and the wire.
=================  ====================================================
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import glob
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import telemetry
from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    Hierarchy,
    LowLevelPointsTo,
    PointsTo,
    ProgramFacts,
    SideEffects,
    naive_call_graph,
    naive_points_to,
    naive_side_effects,
    naive_subtypes,
    preset,
    synthesize,
)
from repro.analyses.jedd_sources import ANALYSIS_SOURCES
from repro.bdd.io import dumps_diagram_binary
from repro.jedd.assignment import DomainAssigner, validate_assignment
from repro.jedd.codegen import generate
from repro.jedd.constraints import build_constraints
from repro.jedd.liveness import insert_frees
from repro.jedd.parser import parse_program
from repro.jedd.typecheck import check
from repro.service import ServiceClient, ServiceError

from bench.harness import OUT_DIR, ROOT, Ctx, geomean, metric, p90
from bench.trace import (
    MAX_SPANS,
    Tracer,
    chrome_spans,
    check_chrome_trace,
    kernel_counters,
    service_kernel_counters,
    sum_counters,
)


def relabel(facts: ProgramFacts, seed: int) -> ProgramFacts:
    """The same program with its elements numbered in a seeded order.

    Methods, classes, signatures and fields are shuffled; each method's
    variables, allocation sites and call sites stay contiguous, as a
    front end numbering method by method would leave them.  The facts
    (and so every analysis result) are unchanged, but the diagrams
    encode them over different bit patterns.  Seed 0 keeps the
    generator's numbering.

    Reseeding the generator instead draws a different program each
    time, whose solve cost varies by about 15% (kernel work, ten seeds
    of the Table 2 presets); renumbering keeps it within about 1%.
    """
    if seed == 0:
        return facts
    rng = random.Random(seed)
    methods = list(facts.methods)
    rng.shuffle(methods)
    rank = {m: i for i, m in enumerate(methods)}
    var_rank = {v: rank[m] for m, v in facts.method_vars}
    position = {v: i for i, v in enumerate(facts.variables)}
    site_rank = {s: rank[m] for s, m in facts.site_methods}
    shuffled = {}
    for attr in ("classes", "signatures", "fields"):
        items = list(getattr(facts, attr))
        rng.shuffle(items)
        shuffled[attr] = items
    return dataclasses.replace(
        facts,
        methods=methods,
        variables=sorted(facts.variables,
                         key=lambda v: (var_rank[v], position[v])),
        allocs=sorted(facts.allocs,
                      key=lambda a: (var_rank[a[0]], position[a[0]])),
        virtual_calls=sorted(facts.virtual_calls,
                             key=lambda c: site_rank[c[0]]),
        **shuffled,
    )


def _span(name: str, cat: str):
    """A bench span in the active telemetry session (no-op untraced)."""
    return telemetry.span(name, cat=cat)


def _as_set(rel, names) -> Set[tuple]:
    """A relation's tuples with attributes in the order ``names``."""
    order = [rel.schema.names().index(n) for n in names]
    return {tuple(t[i] for i in order) for t in rel.tuples()}


def _digest(manager, node: int, schema: str = "") -> str:
    """Canonical identity of a diagram (and the schema laid over it)."""
    h = hashlib.sha256(schema.encode())
    h.update(dumps_diagram_binary(manager, node))
    return h.hexdigest()


def _rel_digest(rel) -> str:
    return _digest(rel.universe.manager, rel.node, repr(rel.schema))


class _Verified:
    """Each result is checked against the oracle the first time it is
    computed; later computations of it must give the same canonical
    diagram, which checks them without decoding every tuple again."""

    def __init__(self) -> None:
        self.digests: Dict[object, Optional[str]] = {}

    def check(self, ctx: Ctx, key, digest: str, tuples, oracle,
              what: str) -> None:
        if key not in self.digests:
            ok = tuples() == oracle()
            self.digests[key] = digest if ok else None
        else:
            ok = self.digests[key] == digest  # None: it failed the oracle
        ctx.check(ok, what)


class Workload:
    """One workload: inputs from ``seed``, rounds of timed operations."""

    name = ""
    #: set-ups per run; ``setup_s`` is their median
    SETUPS = 9
    #: every round repeats the same operations on the same inputs
    REPEATS = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: seconds of each synthesize + relabel call made by ``setup``
        self.synthesize_s: List[float] = []

    def _synthesize(self, build) -> ProgramFacts:
        start = perf_counter()
        facts = relabel(build(), self.seed)
        self.synthesize_s.append(perf_counter() - start)
        return facts

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` acquired (called before each set-up
        and at the end of the run)."""

    def pid(self):
        """The process that does the work, as named under ``/proc``."""
        return "self"

    def stat(self, seconds: List[float]) -> float:
        """The typical one of a run's timings of one operation (or of the
        reference loop).

        Where the operation is repeated unchanged, the mean of the faster
        half of its timings: interference only ever adds time, and it
        comes in bursts of seconds that a repetition cannot outlast,
        while the single fastest timing is as much luck as the slowest.
        Where the samples are differing requests of one kind, the median.
        """
        if not self.REPEATS:
            return statistics.median(seconds)
        return statistics.fmean(sorted(seconds)[:(len(seconds) + 1) // 2])

    def round(self, ctx: Ctx) -> Optional[Dict[str, float]]:
        """Run one round; returns its deterministic counters."""
        raise NotImplementedError

    def finish(self, ctx: Ctx) -> None:
        """Checks that need the whole run (after the last round)."""

    def detail(self, ctx: Ctx) -> Dict[str, dict]:
        """Workload-specific metrics beyond the shared end-to-end set."""
        return {}

    def layer_extras(self, plain: Ctx, traced: Ctx) -> Dict[str, float]:
        """Workload-specific per-layer metrics."""
        return {}

    def tracer(self) -> Tracer:
        return Tracer(os.path.join(OUT_DIR, f"{self.name}.trace.json"))


# ----------------------------------------------------------------------
# table2
# ----------------------------------------------------------------------

TABLE2_PRESETS = ("javac-s", "compress", "javac", "sablecc", "jedit")


class Table2(Workload):
    """Each round solves every preset with Jedd and by hand, from facts to
    result, alternating which of the two runs first."""

    name = "table2"

    def __init__(self, seed: int, presets=TABLE2_PRESETS) -> None:
        super().__init__(seed)
        self.presets = tuple(presets)
        self.facts: Dict[str, ProgramFacts] = {}
        self.verified = _Verified()
        self.rounds = 0

    def setup(self) -> None:
        self.facts = {
            name: self._synthesize(lambda name=name: preset(name))
            for name in self.presets
        }
        self.verified = _Verified()

    def teardown(self) -> None:
        self.facts = {}

    def round(self, ctx: Ctx) -> Dict[str, float]:
        sides = ("jedd", "low") if self.rounds % 2 == 0 else ("low", "jedd")
        self.rounds += 1
        counters = []
        for name, facts in self.facts.items():
            for side in sides:
                if side == "jedd":
                    counters.append(self._jedd(ctx, name, facts))
                else:
                    self._low(ctx, name, facts)
                gc.collect()
        return sum_counters(counters)

    # Each side is a method of its own, and the round collects garbage
    # after each, so that the diagrams of a solve are freed before the
    # next one starts and the peak RSS is that of one solve at a time.

    def _jedd(self, ctx: Ctx, name: str, facts: ProgramFacts) -> Dict[str, float]:
        with ctx.op(name):
            with _span("analyses.universe", "analyses"):
                au = AnalysisUniverse(facts)
            with _span("analyses.pointsto", "analyses"):
                solver = PointsTo(au)
                solver.solve()
        self._check(ctx, name, "jedd", facts, _rel_digest(solver.pt),
                    lambda: set(solver.pt.tuples()))
        return kernel_counters(au.universe.manager)

    def _low(self, ctx: Ctx, name: str, facts: ProgramFacts) -> None:
        with ctx.base(name):
            with _span("lowlevel.solve", "lowlevel"):
                low = LowLevelPointsTo(facts)
                low.solve()
        self._check(ctx, name, "low", facts, _digest(low.m, low.pt),
                    low.pt_tuples)

    def _check(self, ctx: Ctx, name: str, side: str, facts: ProgramFacts,
               digest: str, tuples) -> None:
        self.verified.check(
            ctx, (name, side), digest, tuples,
            lambda: naive_points_to(facts)[0],
            f"{side} points-to differs from the oracle on {name}")

    def _overhead(self, ctx: Ctx) -> float:
        """Jedd / hand-coded, geometric mean over presets."""
        return geomean([
            self.stat(ctx.samples[name]) / self.stat(ctx.baseline[name])
            for name in self.presets
        ])

    def detail(self, ctx: Ctx) -> Dict[str, dict]:
        out = {
            "solve_s": metric(ctx.p50(), "s", ctx.n()),
            "overhead_pct": metric((self._overhead(ctx) - 1) * 100, "%",
                                    ctx.n()),
        }
        for name in self.presets:
            out[f"solve_s.{name}"] = metric(
                statistics.median(ctx.samples[name]), "s",
                len(ctx.samples[name]))
            out[f"lowlevel_s.{name}"] = metric(
                statistics.median(ctx.baseline[name]), "s",
                len(ctx.baseline[name]))
        return out

    def layer_extras(self, plain: Ctx, traced: Ctx) -> Dict[str, float]:
        return {"relations.overhead_ratio": self._overhead(plain)}


# ----------------------------------------------------------------------
# figure2
# ----------------------------------------------------------------------

#: The generator settings of ``benchmarks/test_arena.py`` at a size where
#: one pipeline takes about 3 s on a 2-core container, so a run times
#: about nine of them.
FIGURE2_PROGRAM = dict(
    n_classes=150, n_signatures=20, methods_per_class=4.0,
    vars_per_method=5.0, assigns_per_method=4.0, field_ops_per_method=1.5,
    calls_per_method=2.0, n_fields=16, seed=7,
)

#: result -> attribute order of its oracle tuples
FIGURE2_RESULTS = {
    "subtype": ("subtype", "supertype"),
    "pt": ("var", "obj"),
    "calls": ("caller", "callee"),
    "reads": ("method", "baseobj", "field"),
    "writes": ("method", "baseobj", "field"),
}


class Figure2(Workload):
    """Each round runs the whole Figure 2 pipeline from facts to results."""

    name = "figure2"

    def __init__(self, seed: int,
                 n_classes: int = FIGURE2_PROGRAM["n_classes"]) -> None:
        super().__init__(seed)
        self.n_classes = n_classes
        self.facts: Optional[ProgramFacts] = None
        self.verified = _Verified()
        self._oracle: Dict[str, Set[tuple]] = {}

    def setup(self) -> None:
        self.facts = self._synthesize(lambda: synthesize(
            "figure2", **dict(FIGURE2_PROGRAM, n_classes=self.n_classes)))
        self.verified = _Verified()
        self._oracle = {}

    def teardown(self) -> None:
        self.facts = None

    def oracle(self, key: str) -> Set[tuple]:
        if not self._oracle:
            facts = self.facts
            reads, writes = naive_side_effects(facts)
            self._oracle = {
                "subtype": naive_subtypes(facts),
                "pt": naive_points_to(facts)[0],
                "calls": naive_call_graph(facts),
                "reads": reads,
                "writes": writes,
            }
        return self._oracle[key]

    def round(self, ctx: Ctx) -> Dict[str, float]:
        facts = self.facts
        with ctx.op("pipeline"):
            with _span("analyses.universe", "analyses"):
                au = AnalysisUniverse(facts)
            with _span("analyses.hierarchy", "analyses"):
                subtype = Hierarchy(au).subtype
            with _span("analyses.pointsto", "analyses"):
                pt = PointsTo(au).solve()
            with _span("analyses.callgraph", "analyses"):
                calls = CallGraph(au, pt).build()
            with _span("analyses.sideeffects", "analyses"):
                reads, writes = SideEffects(au, pt, calls).solve()
        results = {"subtype": subtype, "pt": pt, "calls": calls,
                   "reads": reads, "writes": writes}
        for key, rel in results.items():
            self.verified.check(
                ctx, key, _rel_digest(rel),
                lambda: _as_set(rel, FIGURE2_RESULTS[key]),
                lambda: self.oracle(key),
                f"figure2 {key} differs from the oracle")
        self._oracle = {}  # every result is verified now
        return kernel_counters(au.universe.manager)

    def detail(self, ctx: Ctx) -> Dict[str, dict]:
        return {"solve_s": metric(ctx.p50(), "s", ctx.n())}


# ----------------------------------------------------------------------
# jeddc
# ----------------------------------------------------------------------


def _slug(name: str) -> str:
    """``name`` as a metric-name component: lower case, words joined by
    ``-``."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def jedd_bits(facts: ProgramFacts) -> Dict[str, int]:
    """Table 1 source bit widths sized for ``facts``."""
    c = facts.counts()
    return dict(
        type_bits=max(2, c["classes"].bit_length()),
        sig_bits=max(2, c["signatures"].bit_length()),
        method_bits=max(2, len(facts.methods).bit_length()),
        var_bits=max(2, c["variables"].bit_length()),
        obj_bits=max(2, c["alloc_sites"].bit_length()),
        field_bits=max(2, c["fields"].bit_length()),
        site_bits=max(2, c["virtual_calls"].bit_length()),
    )


class Jeddc(Workload):
    """Each round compiles the six Table 1 sources (bit widths from the
    jedit facts) and the seven ``examples/jedd`` programs, pass by pass,
    in a seeded order.  Each program is a kind of op of its own: timed
    one by one, a program's compiles fall between bursts of
    interference far more often than compiles of all thirteen."""

    name = "jeddc"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.programs: List[Tuple[str, str]] = []
        self.code: Dict[str, str] = {}

    def setup(self) -> None:
        bits = jedd_bits(self._synthesize(lambda: preset("jedit")))
        programs = [(_slug("table1-" + name), build(**bits))
                    for name, build in ANALYSIS_SOURCES.items()]
        for path in sorted(glob.glob(os.path.join(ROOT, "examples", "jedd",
                                                  "*.jedd"))):
            with open(path, "r", encoding="utf-8") as fh:
                name = os.path.splitext(os.path.basename(path))[0]
                programs.append((_slug("example-" + name), fh.read()))
        random.Random(self.seed).shuffle(programs)
        self.programs = programs
        self.code = {}

    def teardown(self) -> None:
        self.programs = []

    def round(self, ctx: Ctx) -> Dict[str, float]:
        compiled = []
        for name, source in self.programs:
            with ctx.op(name):
                with _span("jedd.parse", "jedd"):
                    program = parse_program(source)
                with _span("jedd.typecheck", "jedd"):
                    tp = check(program)
                with _span("jedd.liveness", "jedd"):
                    insert_frees(tp)
                with _span("jedd.constraints", "jedd"):
                    graph = build_constraints(tp)
                with _span("jedd.assign", "jedd"):
                    result = DomainAssigner(
                        graph, tp.physdoms,
                        {d: tp.domain_bits(d) for d in tp.domains},
                    ).solve()
                with _span("jedd.codegen", "jedd"):
                    code = generate(tp, result)
            compiled.append((name, graph, result, code))
        counters: Counter = Counter()
        for name, graph, result, code in compiled:
            ctx.check(validate_assignment(graph, result.node_domains) == [],
                      f"jeddc: invalid domain assignment for {name}")
            ctx.check(self.code.setdefault(name, code) == code,
                      f"jeddc: generated code for {name} changed")
            g = graph.stats()
            counters["jedd.relation_exprs"] += g["relation_exprs"]
            counters["jedd.constraint_count"] += (
                g["conflict"] + g["equality"] + g["assignment"])
            s = result.stats
            for key in ("vars", "clauses"):
                counters[f"sat.{key}"] += s[f"sat_{key}"]
            for key in ("conflicts", "decisions", "propagations"):
                counters[f"sat.{key}"] += s[key]
        return dict(counters)

    def detail(self, ctx: Ctx) -> Dict[str, dict]:
        """``compile_s``: the time to compile all the programs, as the sum
        of each one's median."""
        return {"compile_s": metric(
            sum(statistics.median(v) for v in ctx.samples.values()), "s",
            ctx.n())}


# ----------------------------------------------------------------------
# standing-query
# ----------------------------------------------------------------------

#: The points-to rules of ``repro.analyses.pointsto`` as a standing
#: query; ``pt`` is seeded empty and filled by the base rule, so updates
#: to any fact flow through the rules (as in ``examples/service_smoke.py``).
POINTSTO_RULES = [
    {"head": "pt", "vars": ["var", "obj"], "body": [["alloc", ["var", "obj"]]]},
    {"head": "pt", "vars": ["dstvar", "obj"], "body": [
        ["assign", ["dstvar", "srcvar"]],
        ["pt", {"var": "srcvar", "obj": "obj"}]]},
    {"head": "hpt", "vars": ["baseobj", "field", "srcobj"], "body": [
        ["store", ["basevar", "field", "srcvar"]],
        ["pt", {"var": "basevar", "obj": "baseobj"}],
        ["pt", {"var": "srcvar", "obj": "srcobj"}]]},
    {"head": "pt", "vars": ["dstvar", "srcobj"], "body": [
        ["load", ["dstvar", "basevar", "field"]],
        ["pt", {"var": "basevar", "obj": "baseobj"}],
        ["hpt", ["baseobj", "field", "srcobj"]]]},
]

#: fact relation -> (ProgramFacts field, shell attribute:physdom list)
SERVICE_FACTS = {
    "alloc": ("allocs", "var:V1 obj:H1"),
    "assign": ("assigns", "dstvar:V1 srcvar:V2"),
    "store": ("stores", "basevar:V1 field:F1 srcvar:V2"),
    "load": ("loads", "dstvar:V1 basevar:V2 field:F1"),
}

UPDATABLE = ("assign", "store", "load")


def _bits(n: int) -> int:
    return max(1, (max(n, 2) - 1).bit_length())


class _CountingFile:
    """The client's socket file, counting the bytes each way."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.sent = 0
        self.received = 0

    def write(self, data: bytes) -> int:
        self.sent += len(data)
        return self.fh.write(data)

    def flush(self) -> None:
        self.fh.flush()

    def readline(self) -> bytes:
        line = self.fh.readline()
        self.received += len(line)
        return line

    def close(self) -> None:
        self.fh.close()


class StandingQuery(Workload):
    """One client drives a seeded stream of ops against a points-to
    standing query over the ``compress`` facts: 70% lookups (one
    variable's points-to set), 10% reads of the whole ``pt`` relation,
    20% single-fact retracts or re-inserts (``query.update``), with at
    most ``MAX_RETRACTED`` facts retracted at once.  Every answer is
    checked against the set-based oracle for the facts in force.

    Lookups and reads evaluate through the shell's ``print`` (the
    planner/IR path of ``eval``) rather than ``eval`` / ``query.get``:
    those two answer from the service's wire cache, which is keyed on
    diagram root ids that garbage collection recycles, so on this mix
    about one answer in 300 came back with another relation's tuples.
    """

    name = "standing-query"
    SETUPS = 5
    REPEATS = False
    OPS_PER_ROUND = 50
    MAX_RETRACTED = 8
    UNIVERSE = "bench"

    def __init__(self, seed: int, program: str = "compress") -> None:
        super().__init__(seed)
        self.program = program
        self.server: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self.wire: Optional[_CountingFile] = None
        self.dir = os.path.join(OUT_DIR, f"{self.name}-{os.getpid()}")
        self.facts: Optional[ProgramFacts] = None
        self.rng = random.Random(seed)
        self.retracted: List[Tuple[str, tuple]] = []
        self._oracle_key: Optional[tuple] = None
        self._oracle: Tuple[Set[tuple], Dict[str, Set[str]]] = (set(), {})
        #: update-response stats and wire counters of the traced phase
        self.stats: Counter = Counter()

    # -- set-up --------------------------------------------------------

    def setup(self) -> None:
        facts = self._synthesize(lambda: preset(self.program))
        self.facts = facts
        os.makedirs(self.dir, exist_ok=True)
        lines = self._declarations(facts)
        for rel, (attr, spec) in SERVICE_FACTS.items():
            path = os.path.join(self.dir, f"{rel}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(getattr(facts, attr))
            lines.append(f"load-facts {path} {rel} {spec}")
        lines += ["rel pt var:V1 obj:H1", "rel hpt baseobj:H1 field:F1 srcobj:H2"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        ready = self.server.stdout.readline().strip()
        if not ready.startswith("SERVICE READY "):
            raise RuntimeError(f"service did not start: {ready!r}")
        host, _, port = ready.split()[-1].rpartition(":")
        self.client = ServiceClient(host, int(port), timeout=60.0)
        self.wire = self.client._file = _CountingFile(self.client._file)
        self.client.open(self.UNIVERSE)
        output = self.client.script(self.UNIVERSE, lines)
        if "error:" in output:
            raise RuntimeError(f"service set-up failed: {output}")
        self.client.request(
            "query.create", universe=self.UNIVERSE, query="q",
            facts=list(SERVICE_FACTS), relations={"pt": "pt", "hpt": "hpt"},
            rules=POINTSTO_RULES,
        )
        self.rng = random.Random(self.seed)
        self.retracted = []
        self._oracle_key = None

    @staticmethod
    def _declarations(facts: ProgramFacts) -> List[str]:
        nv, no, nf = len(facts.variables), len(facts.allocs), len(facts.fields)
        return [
            f"domain Var {nv}", f"domain Obj {no}", f"domain Field {nf}",
            *(f"attribute {a} : Var" for a in ("var", "srcvar", "dstvar", "basevar")),
            *(f"attribute {a} : Obj" for a in ("obj", "baseobj", "srcobj")),
            "attribute field : Field",
            f"physdom V1 {_bits(nv)}", f"physdom V2 {_bits(nv)}",
            f"physdom H1 {_bits(no)}", f"physdom H2 {_bits(no)}",
            f"physdom F1 {_bits(nf)}",
            "finalize",
        ]

    def teardown(self) -> None:
        if self.client is not None:
            try:
                self.client.request("shutdown")
            except (OSError, ServiceError):
                pass
            self.client.close()
            self.client = None
        if self.server is not None:
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        shutil.rmtree(self.dir, ignore_errors=True)

    def pid(self):
        return self.server.pid

    # -- the oracle ----------------------------------------------------

    def oracle(self) -> Tuple[Set[tuple], Dict[str, Set[str]]]:
        """(pt tuples, var -> objects) for the facts now in force."""
        key = tuple(sorted(self.retracted))
        if key != self._oracle_key:
            gone: Dict[str, Set[tuple]] = {rel: set() for rel in UPDATABLE}
            for rel, fact in self.retracted:
                gone[rel].add(fact)
            facts = dataclasses.replace(self.facts, **{
                SERVICE_FACTS[rel][0]: [
                    f for f in getattr(self.facts, SERVICE_FACTS[rel][0])
                    if f not in gone[rel]
                ]
                for rel in UPDATABLE
            })
            pt = naive_points_to(facts)[0]
            by_var: Dict[str, Set[str]] = {}
            for var, obj in pt:
                by_var.setdefault(var, set()).add(obj)
            self._oracle_key, self._oracle = key, (pt, by_var)
        return self._oracle

    # -- the op stream -------------------------------------------------

    def _next_op(self) -> Tuple[str, object]:
        rng = self.rng
        x = rng.random()
        if x < 0.7:
            return "lookup", rng.choice(self.facts.variables)
        if x < 0.8:
            return "read", None
        retracted = self.retracted
        if retracted and (len(retracted) >= self.MAX_RETRACTED
                          or rng.random() < 0.5):
            return "insert", retracted.pop(rng.randrange(len(retracted)))
        while True:
            rel = rng.choice(UPDATABLE)
            rows = getattr(self.facts, SERVICE_FACTS[rel][0])
            fact = (rel, tuple(rng.choice(rows)))
            if fact not in retracted:
                retracted.append(fact)
                return "retract", fact

    def _request(self, ctx: Ctx, kind: str, op: str, **params):
        """One timed request; a refused request counts as failed."""
        try:
            with ctx.op(kind), _span(f"service.{kind}", "service"):
                return self.client.request(op, universe=self.UNIVERSE,
                                           **params)
        except ServiceError as err:
            ctx.check(False, f"{op} failed: {err}")
            return None

    @staticmethod
    def _rows(ctx: Ctx, output: str, expr: str) -> Optional[Set[tuple]]:
        """The (var, obj) tuples of a shell ``print`` table, or None (a
        failed check) when the shell reported an error."""
        lines = output.splitlines()
        if not lines or lines[0].startswith("error:"):
            ctx.check(False, f"print {expr} failed: {output.strip()}")
            return None
        header = lines[0].split()
        order = [header.index("var"), header.index("obj")]
        return {tuple(row.split()[i] for i in order)
                for row in lines[2:] if row.strip()}

    def _print(self, ctx: Ctx, kind: str, expr: str) -> Optional[Set[tuple]]:
        """One timed evaluation of ``expr`` through the shell's ``print``."""
        res = self._request(ctx, kind, "shell", line=f"print {expr}")
        return None if res is None else self._rows(ctx, res["output"], expr)

    def round(self, ctx: Ctx) -> None:
        for _ in range(self.OPS_PER_ROUND):
            kind, arg = self._next_op()
            if kind == "lookup":
                got = self._print(
                    ctx, "lookup",
                    f'q_pt{{var}} >< new {{ "{arg}" => var }}{{var}}')
                if got is not None:
                    want = {(arg, o) for o in self.oracle()[1].get(arg, ())}
                    ctx.check(got == want, f"lookup of {arg} differs")
            elif kind == "read":
                got = self._print(ctx, "read", "q_pt")
                if got is not None:
                    ctx.check(got == self.oracle()[0], "read of pt differs")
            else:
                rel, fact = arg
                res = self._request(ctx, "update", "query.update", query="q",
                                    **{kind: {rel: [list(fact)]}})
                if res is not None:
                    ctx.check(res["sizes"]["pt"] == len(self.oracle()[0]),
                              f"{kind} {rel}{fact} left a wrong pt")
                    self.stats["updates"] += 1
                    for key in ("kernel_work", "deleted", "rederived"):
                        self.stats[key] += res["stats"].get(key, 0)
        return None

    def finish(self, ctx: Ctx) -> None:
        """Re-insert every retracted fact; ``pt`` must be the original."""
        inserts: Dict[str, List[list]] = {}
        for rel, fact in self.retracted:
            inserts.setdefault(rel, []).append(list(fact))
        self.retracted = []
        try:
            if inserts:
                self.client.request("query.update", universe=self.UNIVERSE,
                                    query="q", insert=inserts)
            output = self.client.shell(self.UNIVERSE, "print q_pt")
        except ServiceError as err:
            ctx.check(False, f"final read failed: {err}")
            return
        got = self._rows(ctx, output, "q_pt")
        if got is not None:
            ctx.check(got == self.oracle()[0],
                      "pt after re-inserting every fact differs from the "
                      "oracle")

    # -- metrics -------------------------------------------------------

    def detail(self, ctx: Ctx) -> Dict[str, dict]:
        out = {}
        for kind in ("lookup", "read", "update"):
            values = ctx.samples.get(kind, [])
            if not values:
                continue
            out[f"{kind}_p50_ms"] = metric(
                statistics.median(values) * 1e3, "ms", len(values))
            tail = p90(values)
            if tail is not None:
                out[f"{kind}_p90_ms"] = metric(tail * 1e3, "ms", len(values))
        return out

    def layer_extras(self, plain: Ctx, traced: Ctx) -> Dict[str, float]:
        s = self.stats
        updates = max(1, s["updates"])
        ops = max(1, traced.n())
        return {
            "incremental.kernel_work": s["kernel_work"] / updates,
            "incremental.deleted": s["deleted"] / updates,
            "incremental.rederived": s["rederived"] / updates,
            "service.request_bytes": s["sent"] / ops,
            "service.response_bytes": s["received"] / ops,
        }

    def tracer(self) -> Tracer:
        return _ServiceTracer(
            self, os.path.join(OUT_DIR, f"{self.name}.trace.json"))


class _ServiceTracer(Tracer):
    """Traced phase of the service workload.

    The client records its own ``bench.round`` and per-request
    ``service.*`` spans; the server's spans come from its telemetry
    session, switched on with the ``telemetry`` op and exported with
    ``trace``.  The server only works while a request is outstanding, so
    its span time is subtracted from the client's request time, leaving
    ``service`` with the wire, JSON and dispatch cost.
    """

    def __init__(self, workload: StandingQuery, server_trace: str) -> None:
        super().__init__(None)
        self.workload = workload
        self.server_trace = server_trace

    @contextmanager
    def phase(self) -> Iterator[None]:
        w = self.workload
        client = w.client
        client.request("telemetry", mode="on")
        before = client.request("metrics")["metrics"]
        w.stats.clear()
        sent, received = w.wire.sent, w.wire.received
        telemetry.enable(max_spans=MAX_SPANS, span_deltas=False)
        try:
            yield
        finally:
            telemetry.disable()
        w.stats["sent"] = w.wire.sent - sent
        w.stats["received"] = w.wire.received - received
        os.makedirs(OUT_DIR, exist_ok=True)
        client.request("trace", path=self.server_trace)
        after = client.request("metrics")["metrics"]
        client.request("telemetry", mode="off")
        self.trace_problems = check_chrome_trace(self.server_trace)
        with open(self.server_trace, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # spans the server dropped would silently count as ``service``
        self.dropped += doc["otherData"]["droppedSpans"]
        spans = chrome_spans(doc)
        served = sum(self.layers.values())
        self.add_spans(spans)
        self.layers["service"] -= sum(self.layers.values()) - served
        rounds = max(1, self.rounds)
        b, a = service_kernel_counters(before), service_kernel_counters(after)
        self.counters = {
            k: a[k] if k == "bdd.peak_live_nodes" else (a[k] - b.get(k, 0)) / rounds
            for k in a
        }


WORKLOADS = {w.name: w for w in (Table2, Figure2, Jeddc, StandingQuery)}
