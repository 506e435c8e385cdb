"""The shared relational universe for the whole-program analyses.

All five analyses of Figure 2 operate over the same domains (types,
signatures, methods, variables, allocation sites, fields, call sites)
and communicate through relations, so they share one universe.  The
physical domains declared here match the ones the Jedd sources in
``repro.analyses.jedd_sources`` specify.
"""

from __future__ import annotations

from typing import Dict

from repro.analyses.facts import ProgramFacts
from repro.relations import Relation, Universe

__all__ = ["AnalysisUniverse", "BIT_ORDER", "ORDERINGS"]

#: The user-specified relative bit ordering (section 3.2.1): interleave
#: within each domain family, so e.g. the two sides of an assignment
#: edge share subtrees -- the layout a tuned hand-coded solver uses.
#: The call-site domain C1 is interleaved with the method domains it is
#: joined against: ``CallGraph.build`` joins site_targets(site:C1,
#: callee:M1) with site_method(site:C1, caller:M2) on ``site``, and with
#: C1 as a block of its own below M1/M2 the kernel paired every callee
#: subtree with every caller subtree before it could compare sites.  On
#: the 150-class figure2 program (2-vCPU VM) that join's ``and`` misses
#: went 357,223 -> 37,292 and the pipeline's wall clock about
#: 1.9 s -> 1.3 s; a separate C1 block above M, or C1 on top, measured
#: about the same (EXPERIMENTS.md, "Figure 2 pipeline: call-site order").
BIT_ORDER = [
    ["V1", "V2", "V3"],
    ["H1", "H2", "H3"],
    ["F1"],
    ["T1", "T2", "T3"],
    ["S1", "S2"],
    ["M1", "M2", "C1"],
]

#: ``"tuned"`` lays the physical domains out as :data:`BIT_ORDER`;
#: ``"interleaved"`` and ``"sequential"`` are :class:`Universe`'s own
#: layouts over the declaration order below.
ORDERINGS = ("tuned", "interleaved", "sequential")


def _bits_for(count: int) -> int:
    return max(1, (max(count, 2) - 1).bit_length())


class AnalysisUniverse:
    """Universe + input relations for one program's facts.

    ``ordering`` is one of :data:`ORDERINGS`; the default ``"tuned"``
    lays the physical domains out as :data:`BIT_ORDER`.
    """

    def __init__(
        self,
        facts: ProgramFacts,
        backend: str = "bdd",
        ordering: str = "tuned",
        kernel: str | None = None,
    ) -> None:
        self.facts = facts
        u = Universe(
            backend=backend,
            ordering="interleaved" if ordering == "tuned" else ordering,
            kernel=kernel,
        )
        self.universe = u
        counts = facts.counts()
        type_bits = _bits_for(counts["classes"])
        sig_bits = _bits_for(counts["signatures"])
        # methods: one per declaration plus a "no target" margin
        method_bits = _bits_for(len(facts.methods) + 1)
        var_bits = _bits_for(counts["variables"] + 1)
        obj_bits = _bits_for(counts["alloc_sites"] + 1)
        field_bits = _bits_for(counts["fields"] + 1)
        site_bits = _bits_for(counts["virtual_calls"] + 1)

        self.types = u.domain("Type", 1 << type_bits)
        self.sigs = u.domain("Signature", 1 << sig_bits)
        self.methods = u.domain("Method", 1 << method_bits)
        self.vars = u.domain("Var", 1 << var_bits)
        self.objs = u.domain("Obj", 1 << obj_bits)
        self.fields = u.domain("Field", 1 << field_bits)
        self.sites = u.domain("Site", 1 << site_bits)

        # Attributes (one namespace across the analyses, as in Jedd).
        for name, dom in [
            ("type", self.types), ("subtype", self.types),
            ("supertype", self.types), ("rectype", self.types),
            ("tgttype", self.types),
            ("signature", self.sigs),
            ("method", self.methods), ("caller", self.methods),
            ("callee", self.methods), ("tgtmethod", self.methods),
            ("var", self.vars), ("srcvar", self.vars),
            ("dstvar", self.vars), ("basevar", self.vars),
            ("obj", self.objs), ("baseobj", self.objs),
            ("srcobj", self.objs),
            ("field", self.fields),
            ("site", self.sites),
        ]:
            u.attribute(name, dom)

        # Physical domains: a few per bit-width, as a Jedd user would
        # declare.  Two or three per domain family suffice for every
        # operation in the five analyses.
        for name, bits in [
            ("T1", type_bits), ("T2", type_bits), ("T3", type_bits),
            ("S1", sig_bits), ("S2", sig_bits),
            ("M1", method_bits), ("M2", method_bits),
            ("V1", var_bits), ("V2", var_bits), ("V3", var_bits),
            ("H1", obj_bits), ("H2", obj_bits), ("H3", obj_bits),
            ("F1", field_bits),
            ("C1", site_bits),
        ]:
            u.physical_domain(name, bits)
        if ordering == "tuned":
            u.set_bit_order(BIT_ORDER)
        u.finalize()

        # Pre-intern all objects so attribute copying (which needs the
        # interned value list) covers the full program.
        for cls in facts.classes:
            self.types.intern(cls)
        for sig in facts.signatures:
            self.sigs.intern(sig)
        for m in facts.methods:
            self.methods.intern(m)
        for v in facts.variables:
            self.vars.intern(v)
        for _, site in facts.allocs:
            self.objs.intern(site)
        for f in facts.fields:
            self.fields.intern(f)
        for site, _, _ in facts.virtual_calls:
            self.sites.intern(site)

    # -- input relations ---------------------------------------------------

    def rel(self, attrs, rows, pds=None) -> Relation:
        """Build a relation over this universe (thin wrapper)."""
        return Relation.from_tuples(self.universe, attrs, rows, pds)

    def extend(self) -> Relation:
        """(subtype, supertype): the immediate-superclass relation."""
        return self.rel(
            ["subtype", "supertype"], self.facts.extends, ["T1", "T2"]
        )

    def declares_method(self) -> Relation:
        """(type, signature, method): Figure 3's declaresMethod."""
        return self.rel(
            ["type", "signature", "method"],
            self.facts.declares,
            ["T1", "S1", "M1"],
        )

    def alloc(self) -> Relation:
        """(var, obj): allocation sites."""
        return self.rel(["var", "obj"], self.facts.allocs, ["V1", "H1"])

    def alloc_type(self) -> Relation:
        """(obj, type): runtime type of each allocation site."""
        return self.rel(
            ["obj", "type"], self.facts.alloc_types, ["H1", "T1"]
        )

    def assign(self) -> Relation:
        """(dstvar, srcvar): simple assignments dst = src."""
        return self.rel(
            ["dstvar", "srcvar"], self.facts.assigns, ["V1", "V2"]
        )

    def store(self) -> Relation:
        """(basevar, field, srcvar): base.f = src."""
        return self.rel(
            ["basevar", "field", "srcvar"], self.facts.stores,
            ["V1", "F1", "V2"],
        )

    def load(self) -> Relation:
        """(dstvar, basevar, field): dst = base.f."""
        return self.rel(
            ["dstvar", "basevar", "field"], self.facts.loads,
            ["V1", "V2", "F1"],
        )

    def virtual_calls(self) -> Relation:
        """(site, var, signature): virtual call sites and receivers."""
        return self.rel(
            ["site", "var", "signature"],
            self.facts.virtual_calls,
            ["C1", "V1", "S1"],
        )

    def site_method(self) -> Relation:
        """(site, caller): enclosing method of each call site."""
        return self.rel(
            ["site", "caller"], self.facts.site_methods, ["C1", "M1"]
        )

    def method_var(self) -> Relation:
        """(method, var): variables owned by each method."""
        return self.rel(
            ["method", "var"], self.facts.method_vars, ["M1", "V1"]
        )
