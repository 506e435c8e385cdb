"""Synthetic whole-program fact bases (the Soot substitute).

The paper's five analyses run inside the Soot framework over real Java
benchmarks (javac, compress, sablecc, jedit).  Those inputs are not
reproducible here, so this module synthesises Soot-style program facts
with the same *shape*: a single-inheritance class hierarchy, methods
with overriding, virtual call sites with receiver variables, allocation
sites, variable assignments, and field loads/stores.  The generator is
deterministic for a given seed, and the named presets are sized roughly
like the paper's benchmarks (small to large).

The facts are plain Python data; ``repro.analyses.relations_of`` turns
them into input relations for the BDD analyses, and the naive reference
implementations in each analysis module consume them directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

__all__ = ["ProgramFacts", "synthesize", "PRESETS", "preset"]


@dataclass
class ProgramFacts:
    """A whole program as relational facts.

    Naming: classes ``C0..``, signatures ``m0()..``, methods
    ``C3.m1()``, variables ``v12``, allocation sites ``o7``, fields
    ``f2``, call sites ``s5``.
    """

    name: str
    classes: List[str] = field(default_factory=list)
    #: immediate superclass pairs (sub, sup)
    extends: List[Tuple[str, str]] = field(default_factory=list)
    #: (class, signature, method) -- class declares method with signature
    declares: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (variable, declared class of the variable's containing method)
    variables: List[str] = field(default_factory=list)
    #: (variable, declared type) -- for type-filtered points-to
    var_types: List[Tuple[str, str]] = field(default_factory=list)
    #: (variable, allocation site)
    allocs: List[Tuple[str, str]] = field(default_factory=list)
    #: (allocation site, runtime type)
    alloc_types: List[Tuple[str, str]] = field(default_factory=list)
    #: (destination variable, source variable): dst = src
    assigns: List[Tuple[str, str]] = field(default_factory=list)
    #: (base variable, field, source variable): base.f = src
    stores: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (destination variable, base variable, field): dst = base.f
    loads: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (call site, receiver variable, signature)
    virtual_calls: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (call site, enclosing method)
    site_methods: List[Tuple[str, str]] = field(default_factory=list)
    #: (method, variable): variable belongs to method (for side effects)
    method_vars: List[Tuple[str, str]] = field(default_factory=list)
    fields: List[str] = field(default_factory=list)
    signatures: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)

    # -- derived helpers --------------------------------------------------

    def superclass(self) -> Dict[str, str]:
        """Immediate-superclass map (root C0 absent)."""
        return {sub: sup for sub, sup in self.extends}

    def ancestors(self, cls: str) -> List[str]:
        """cls itself followed by its proper ancestors, root last."""
        chain = [cls]
        sup = self.superclass()
        while chain[-1] in sup:
            chain.append(sup[chain[-1]])
        return chain

    def declares_map(self) -> Dict[Tuple[str, str], str]:
        """(class, signature) -> declared method lookup table."""
        return {(c, s): m for c, s, m in self.declares}

    def resolve(self, cls: str, signature: str) -> str | None:
        """Walk up the hierarchy (the Figure 4 algorithm, reference)."""
        table = self.declares_map()
        for anc in self.ancestors(cls):
            method = table.get((anc, signature))
            if method is not None:
                return method
        return None

    def counts(self) -> Dict[str, int]:
        """Size summary of the fact base (used to size universes)."""
        return {
            "classes": len(self.classes),
            "signatures": len(self.signatures),
            "methods": len(self.methods),
            "variables": len(self.variables),
            "alloc_sites": len(self.allocs),
            "assigns": len(self.assigns),
            "stores": len(self.stores),
            "loads": len(self.loads),
            "virtual_calls": len(self.virtual_calls),
            "fields": len(self.fields),
        }


def synthesize(
    name: str,
    n_classes: int = 20,
    n_signatures: int = 12,
    methods_per_class: float = 3.0,
    vars_per_method: float = 3.0,
    allocs_per_method: float = 1.2,
    assigns_per_method: float = 2.5,
    field_ops_per_method: float = 1.0,
    calls_per_method: float = 1.5,
    n_fields: int = 8,
    seed: int = 0,
) -> ProgramFacts:
    """Generate a deterministic synthetic program.

    The hierarchy is a random tree rooted at ``C0`` (the Object stand-in).
    Every class declares a random subset of signatures (overriding
    whatever its ancestors declare).  Method bodies allocate objects of
    random concrete classes, copy variables, read/write fields, and make
    virtual calls through receiver variables.
    """
    rng = random.Random(seed)
    facts = ProgramFacts(name=name)
    facts.classes = [f"C{i}" for i in range(n_classes)]
    facts.signatures = [f"m{i}()" for i in range(n_signatures)]
    facts.fields = [f"f{i}" for i in range(n_fields)]
    # Single-inheritance tree rooted at C0.
    for i in range(1, n_classes):
        parent = rng.randrange(i)
        facts.extends.append((f"C{i}", f"C{parent}"))
    # Method declarations; C0 declares a base set so resolution mostly
    # succeeds.
    base = rng.sample(
        facts.signatures, max(1, min(n_signatures, int(methods_per_class)))
    )
    for sig in base:
        method = f"C0.{sig}"
        facts.declares.append(("C0", sig, method))
        facts.methods.append(method)
    for cls in facts.classes[1:]:
        k = max(0, min(n_signatures, int(rng.gauss(methods_per_class, 1))))
        for sig in rng.sample(facts.signatures, k):
            method = f"{cls}.{sig}"
            facts.declares.append((cls, sig, method))
            facts.methods.append(method)
    # Descendant table (class -> all classes at or below it), used to
    # keep allocations compatible with declared variable types.
    descendants: Dict[str, List[str]] = {c: [c] for c in facts.classes}
    for cls in facts.classes:
        for anc in facts.ancestors(cls)[1:]:
            descendants[anc].append(cls)
    # Per-method bodies.
    var_counter = 0
    site_counter = 0
    obj_counter = 0
    for method in facts.methods:
        local_vars: List[str] = []
        n_vars = max(1, int(rng.gauss(vars_per_method, 1)))
        for _ in range(n_vars):
            v = f"v{var_counter}"
            var_counter += 1
            local_vars.append(v)
            facts.variables.append(v)
            facts.method_vars.append((method, v))
            facts.var_types.append((v, rng.choice(facts.classes)))
        declared = dict(facts.var_types)
        for _ in range(_poissonish(rng, allocs_per_method)):
            v = rng.choice(local_vars)
            site = f"o{obj_counter}"
            obj_counter += 1
            # A Java assignment v = new T() requires T <: declared(v).
            cls = rng.choice(descendants[declared[v]])
            facts.allocs.append((v, site))
            facts.alloc_types.append((site, cls))
        for _ in range(_poissonish(rng, assigns_per_method)):
            dst, src = rng.choice(local_vars), rng.choice(local_vars)
            if dst != src:
                facts.assigns.append((dst, src))
        for _ in range(_poissonish(rng, field_ops_per_method)):
            f = rng.choice(facts.fields)
            base_v = rng.choice(local_vars)
            other = rng.choice(local_vars)
            if rng.random() < 0.5:
                facts.stores.append((base_v, f, other))
            else:
                facts.loads.append((other, base_v, f))
        for _ in range(_poissonish(rng, calls_per_method)):
            site = f"s{site_counter}"
            site_counter += 1
            recv = rng.choice(local_vars)
            sig = rng.choice(facts.signatures)
            facts.virtual_calls.append((site, recv, sig))
            facts.site_methods.append((site, method))
    # Cross-method assignments (parameter/return value flow stand-ins).
    if var_counter > 4:
        for _ in range(var_counter // 3):
            a = f"v{rng.randrange(var_counter)}"
            b = f"v{rng.randrange(var_counter)}"
            if a != b:
                facts.assigns.append((a, b))
    facts.assigns = sorted(set(facts.assigns))
    return facts


def _poissonish(rng: random.Random, mean: float) -> int:
    """Cheap non-negative integer draw with the given mean."""
    return max(0, int(rng.gauss(mean, max(0.5, mean / 2))))


#: Benchmark presets sized (small to large) like the paper's Table 2
#: suite: javac with the standard library stripped (javac-s), compress,
#: javac, sablecc, and jedit.
PRESETS: Dict[str, Dict[str, int | float]] = {
    "javac-s": dict(n_classes=40, n_signatures=10, methods_per_class=2.5,
                    vars_per_method=2.5, assigns_per_method=2.5, seed=101),
    "compress": dict(n_classes=80, n_signatures=12, methods_per_class=3.0,
                     vars_per_method=3.0, assigns_per_method=3.0, seed=102),
    "javac": dict(n_classes=120, n_signatures=14, methods_per_class=3.0,
                  vars_per_method=3.5, assigns_per_method=3.0, seed=103),
    "sablecc": dict(n_classes=160, n_signatures=14, methods_per_class=3.5,
                    vars_per_method=3.5, assigns_per_method=3.0, seed=104),
    "jedit": dict(n_classes=220, n_signatures=16, methods_per_class=4.0,
                  vars_per_method=4.0, assigns_per_method=3.0, seed=105),
    # Scaled past the paper's Table 2 suite: the out-of-core kernel's
    # cap-enforcement workload (``benchmarks/test_ooc.py``).  Its
    # uncapped points-to solve holds ~26 MB of kernel state resident,
    # so a 4 MiB ``memory_cap_bytes`` genuinely forces spilling.
    "javac-xl": dict(n_classes=240, n_signatures=16, methods_per_class=4.0,
                     vars_per_method=4.0, assigns_per_method=3.5, seed=106),
}


def preset(name: str) -> ProgramFacts:
    """One of the named benchmark-like programs."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return synthesize(name, **PRESETS[name])
