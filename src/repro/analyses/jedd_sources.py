"""The five whole-program analyses as Jedd source text (section 5).

These are the programs fed to the jeddc pipeline for Table 1: for each
module the constraint-generation and SAT statistics are measured, and
for the combination of all five.  The sources mirror the algorithms of
``repro.analyses`` -- the points-to program is also executed (via the
interpreter and via generated code) in tests and in the Table 2
benchmark, so these are real, runnable analyses, not mock inputs.

Domain sizes are parameters: Table 1 only depends on the *structure*
(expressions, attributes, constraints), while execution needs sizes
matching the fact base.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.jedd.compiler import compile_source

__all__ = [
    "PointsToProgram",
    "declarations",
    "hierarchy_source",
    "vcall_source",
    "pointsto_source",
    "callgraph_source",
    "sideeffects_source",
    "combined_source",
    "ANALYSIS_SOURCES",
    "source_widths",
]


def declarations(
    type_bits: int = 6,
    sig_bits: int = 5,
    method_bits: int = 8,
    var_bits: int = 9,
    obj_bits: int = 7,
    field_bits: int = 4,
    site_bits: int = 8,
) -> str:
    """Shared domain/attribute/physical-domain declarations."""
    return f"""
domain Type {1 << type_bits};
domain Signature {1 << sig_bits};
domain Method {1 << method_bits};
domain Var {1 << var_bits};
domain Obj {1 << obj_bits};
domain Field {1 << field_bits};
domain Site {1 << site_bits};

attribute type : Type;
attribute subtype : Type;
attribute supertype : Type;
attribute rectype : Type;
attribute tgttype : Type;
attribute signature : Signature;
attribute method : Method;
attribute caller : Method;
attribute callee : Method;
attribute var : Var;
attribute srcvar : Var;
attribute dstvar : Var;
attribute basevar : Var;
attribute obj : Obj;
attribute baseobj : Obj;
attribute srcobj : Obj;
attribute field : Field;
attribute site : Site;

physdom T1 {type_bits};
physdom T2 {type_bits};
physdom T3 {type_bits};
physdom S1 {sig_bits};
physdom S2 {sig_bits};
physdom M1 {method_bits};
physdom M2 {method_bits};
physdom V1 {var_bits};
physdom V2 {var_bits};
physdom V3 {var_bits};
physdom H1 {obj_bits};
physdom H2 {obj_bits};
physdom H3 {obj_bits};
physdom F1 {field_bits};
physdom C1 {site_bits};
"""


# ----------------------------------------------------------------------
# Hierarchy: subtype closure of the extends relation.
# ----------------------------------------------------------------------

HIERARCHY_BODY = """
<subtype:T1, supertype:T2> extend;
<subtype:T1, supertype:T2> selfPairs;
<subtype:T1, supertype:T2> subtypeRel;

def computeHierarchy() {
  <subtype:T1, supertype:T2> old = 0B;
  subtypeRel = extend | selfPairs;
  while (subtypeRel != old) {
    old = subtypeRel;
    <subtype:T1, tgttype:T3> step =
        subtypeRel{supertype} <> (supertype=>tgttype) extend{subtype};
    subtypeRel |= (tgttype=>supertype) step;
  }
}

def isAncestorQuery(<subtype:T1, supertype:T2> query) {
  <subtype:T1, supertype:T2> hits = query & subtypeRel;
  if (hits == query) {
    print(hits);
  }
}

def descendantsOf(<supertype:T2> roots) {
  <subtype:T1> below =
      (supertype=>) (subtypeRel{supertype} >< roots{supertype});
  print(below);
}

def leafClasses() {
  <supertype:T2> withSubs = (subtype=>) extend;
  <subtype:T1> allClasses = (supertype=>) subtypeRel;
  <subtype:T1> leaves = allClasses - (supertype=>subtype) withSubs;
  print(leaves);
}
"""


# ----------------------------------------------------------------------
# Virtual call resolution: Figure 4, verbatim modulo host syntax.
# ----------------------------------------------------------------------

VCALL_BODY = """
<type:T1, signature:S1, method:M1> declaresMethod;
<rectype, signature, tgttype, method> answer = 0B;

def resolve(<rectype:T1, signature:S1> receiverTypes,
            <subtype:T2, supertype:T3> extendRel) {
  <rectype, signature, tgttype> toResolve =
      (rectype => rectype tgttype) receiverTypes;
  do {
    <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =
      toResolve{tgttype, signature} >< declaresMethod{type, signature};
    answer |= resolved;
    toResolve -= (method=>) resolved;
    toResolve = (supertype=>tgttype)
        (toResolve{tgttype} <> extendRel{subtype});
  } while (toResolve != 0B);
}

<rectype:T1, signature:S1> unresolved;

def findUnresolved(<rectype:T1, signature:S1> receiverTypes) {
  unresolved = receiverTypes - (tgttype=>) (method=>) answer;
}
"""


# ----------------------------------------------------------------------
# Points-to analysis (Berndl et al. [5]).
# ----------------------------------------------------------------------

POINTSTO_BODY = """
<var:V1, obj:H1> alloc;
<dstvar:V1, srcvar:V2> assignEdge;
<basevar:V1, field:F1, srcvar:V2> storeEdge;
<dstvar:V1, basevar:V2, field:F1> loadEdge;
<var:V1, obj:H1> pt;
<baseobj:H1, field:F1, srcobj:H2> hpt;

def solvePointsTo() {
  pt = alloc;
  hpt = 0B;
  <var:V1, obj:H1> oldpt = 0B;
  do {
    oldpt = pt;
    pt |= (dstvar=>var)
        (assignEdge{srcvar} <> (var=>srcvar) pt{srcvar});
    <field:F1, srcvar:V2, baseobj:H1> s1 =
        storeEdge{basevar} <> (var=>basevar, obj=>baseobj) pt{basevar};
    <field:F1, baseobj:H1, srcobj:H2> s2 =
        s1{srcvar} <> (var=>srcvar, obj=>srcobj) pt{srcvar};
    hpt |= s2;
    <dstvar:V1, field:F1, baseobj:H1> l1 =
        loadEdge{basevar} <> (var=>basevar, obj=>baseobj) pt{basevar};
    <dstvar:V1, srcobj:H2> l2 =
        l1{baseobj, field} <> hpt{baseobj, field};
    pt |= (dstvar=>var, srcobj=>obj) l2;
  } while (pt != oldpt);
}

def mayAlias() {
  <var:V1, srcvar:V2> aliasPairs =
      pt{obj} <> ((var=>srcvar) pt){obj};
  print(aliasPairs);
}
"""

# The same algorithm with the explicit do/while loop replaced by a
# ``fix`` block: the three rules run to a simultaneous fixed point with
# semi-naive evaluation (each round joins only the previous round's
# delta), and the intermediate relations s1/s2/l1/l2 disappear into
# inlined compose chains.
POINTSTO_FIX_BODY = """
<var:V1, obj:H1> alloc;
<dstvar:V1, srcvar:V2> assignEdge;
<basevar:V1, field:F1, srcvar:V2> storeEdge;
<dstvar:V1, basevar:V2, field:F1> loadEdge;
<var:V1, obj:H1> pt;
<baseobj:H1, field:F1, srcobj:H2> hpt;

def solvePointsTo() {
  pt = alloc;
  hpt = 0B;
  fix {
    pt |= (dstvar=>var)
        (assignEdge{srcvar} <> (var=>srcvar) pt{srcvar});
    hpt |= (storeEdge{basevar} <> (var=>basevar, obj=>baseobj) pt{basevar})
        {srcvar} <> (var=>srcvar, obj=>srcobj) pt{srcvar};
    pt |= (dstvar=>var, srcobj=>obj)
        ((loadEdge{basevar} <> (var=>basevar, obj=>baseobj) pt{basevar})
        {baseobj, field} <> hpt{baseobj, field});
  }
}
"""

# Declared-type filtering (the full Berndl et al. [5] algorithm): a
# variable may only point to objects whose runtime type is a subtype of
# the variable's declared type.  Imports subtypeRel from the hierarchy
# module, so this variant appears only in programs that include it.
POINTSTO_FILTER_BODY = """
<var:V1, supertype:T2> varType;
<obj:H1, type:T1> objType;
<var:V1, obj:H1> compat;

def computeCompat() {
  <obj:H1, supertype:T2> objSuper =
      ((type=>subtype) objType){subtype} <> subtypeRel{subtype};
  compat = objSuper{supertype} <> varType{supertype};
}

def solvePointsToFiltered() {
  computeCompat();
  pt = alloc & compat;
  hpt = 0B;
  <var:V1, obj:H1> oldpt = 0B;
  do {
    oldpt = pt;
    pt |= (dstvar=>var)
        (assignEdge{srcvar} <> (var=>srcvar) pt{srcvar}) & compat;
    <field:F1, srcvar:V2, baseobj:H1> fs1 =
        storeEdge{basevar} <> (var=>basevar, obj=>baseobj) pt{basevar};
    <field:F1, baseobj:H1, srcobj:H2> fs2 =
        fs1{srcvar} <> (var=>srcvar, obj=>srcobj) pt{srcvar};
    hpt |= fs2;
    <dstvar:V1, field:F1, baseobj:H1> fl1 =
        loadEdge{basevar} <> (var=>basevar, obj=>baseobj) pt{basevar};
    <dstvar:V1, srcobj:H2> fl2 =
        fl1{baseobj, field} <> hpt{baseobj, field};
    pt |= ((dstvar=>var, srcobj=>obj) fl2) & compat;
  } while (pt != oldpt);
}
"""


# ----------------------------------------------------------------------
# Call graph construction from points-to + hierarchy.
# ----------------------------------------------------------------------

CALLGRAPH_BODY = """
<site:C1, var:V1, signature:S1> virtualCalls;
<obj:H1, type:T1> allocType;
<site:C1, caller:M1> siteMethod;
<site:C1, callee:M1> siteTargets;
<caller:M1, callee:M2> callEdges;

def buildCallGraph() {
  <site:C1, signature:S1, obj:H1> recvObjs =
      virtualCalls{var} <> pt{var};
  <site:C1, signature:S1, rectype:T1> recvTypes =
      (type=>rectype) (recvObjs{obj} <> allocType{obj});
  <rectype:T1, signature:S1> receiverTypes = (site=>) recvTypes;
  answer = 0B;
  resolve(receiverTypes, extend);
  <site:C1, signature:S1, rectype:T1, method:M1> siteAnswers =
      recvTypes{rectype, signature} ><
      ((tgttype=>) answer){rectype, signature};
  siteTargets = (method=>callee) (rectype=>) (signature=>) siteAnswers;
  callEdges = (site=>) (siteTargets{site} >< siteMethod{site});
}

def callersOf(<callee:M2> targets) {
  <caller:M1> callers =
      (callee=>) (callEdges{callee} >< targets{callee});
  print(callers);
}

def reachableMethods(<method:M1> roots) {
  <method:M1> reached = roots;
  <method:M1> oldReached = 0B;
  while (reached != oldReached) {
    oldReached = reached;
    <callee:M2> next =
        ((caller=>method) callEdges){method} <> reached{method};
    reached |= (callee=>method) next;
  }
  print(reached);
}
"""


# ----------------------------------------------------------------------
# Side-effect analysis.
# ----------------------------------------------------------------------

SIDEEFFECTS_BODY = """
<method:M1, var:V1> methodVar;
<method:M1, baseobj:H1, field:F1> writeSet;
<method:M1, baseobj:H1, field:F1> readSet;

def solveSideEffects() {
  <method:M1, basevar:V1> mvBase = (var=>basevar) methodVar;
  <basevar:V1, field:F1> storeBF = (srcvar=>) storeEdge;
  <basevar:V2, field:F1> loadBF = (dstvar=>) loadEdge;
  <basevar:V1, baseobj:H1> ptBase = (var=>basevar, obj=>baseobj) pt;
  <basevar:V1, field:F1, method:M1> wOwn =
      storeBF{basevar} >< mvBase{basevar};
  writeSet = (basevar=>) (wOwn{basevar} >< ptBase{basevar});
  <basevar:V1, field:F1, method:M1> rOwn =
      ((basevar=>basevar) loadBF){basevar} >< mvBase{basevar};
  readSet = (basevar=>) (rOwn{basevar} >< ptBase{basevar});
  <method:M1, baseobj:H1, field:F1> oldW = 0B;
  while (writeSet != oldW) {
    oldW = writeSet;
    <caller:M1, baseobj:H1, field:F1> inheritedW =
        callEdges{callee} <> ((method=>callee) writeSet){callee};
    writeSet |= (caller=>method) inheritedW;
  }
  <method:M1, baseobj:H1, field:F1> oldR = 0B;
  while (readSet != oldR) {
    oldR = readSet;
    <caller:M1, baseobj:H1, field:F1> inheritedR =
        callEdges{callee} <> ((method=>callee) readSet){callee};
    readSet |= (caller=>method) inheritedR;
  }
}

<caller:M1, callee:M2> interfere;

def computeInterference() {
  <caller:M1, baseobj:H1, field:F1> w = (method=>caller) writeSet;
  <callee:M2, baseobj:H1, field:F1> r = (method=>callee) readSet;
  interfere = w{baseobj, field} <> r{baseobj, field};
}
"""


# Stub input declarations for standalone per-module measurement: each
# module is compiled on its own (as a separate .jedd file would be),
# with the relations it imports from other modules declared as globals.
_CALLGRAPH_INPUTS = """
<var:V1, obj:H1> pt;
"""

_POINTSTO_INPUTS = """
<subtype:T1, supertype:T2> subtypeRel;
"""

_SIDEEFFECTS_INPUTS = """
<var:V1, obj:H1> pt;
<basevar:V1, field:F1, srcvar:V2> storeEdge;
<dstvar:V1, basevar:V2, field:F1> loadEdge;
<caller:M1, callee:M2> callEdges;
"""


def hierarchy_source(**bits) -> str:
    """The hierarchy module as standalone Jedd source."""
    return declarations(**bits) + HIERARCHY_BODY


def vcall_source(**bits) -> str:
    """Virtual call resolution (Figure 4) as standalone Jedd source."""
    return declarations(**bits) + VCALL_BODY


def pointsto_source(**bits) -> str:
    # subtypeRel is imported from the hierarchy module (declared as an
    # input stub when measured standalone); the filtered variant is the
    # full algorithm of [5].
    return (
        declarations(**bits)
        + _POINTSTO_INPUTS
        + POINTSTO_BODY
        + POINTSTO_FILTER_BODY
    )


def pointsto_fix_source(**bits) -> str:
    """Points-to with the iteration written as a ``fix`` block."""
    return declarations(**bits) + POINTSTO_FIX_BODY


def callgraph_source(**bits) -> str:
    # The call graph module calls into virtual call resolution (resolve)
    # and imports pt from the points-to module and extend from the
    # hierarchy module.
    return (
        declarations(**bits)
        + HIERARCHY_BODY
        + VCALL_BODY
        + _CALLGRAPH_INPUTS
        + CALLGRAPH_BODY
    )


def sideeffects_source(**bits) -> str:
    """The side-effect module with its imported-input stubs."""
    return declarations(**bits) + _SIDEEFFECTS_INPUTS + SIDEEFFECTS_BODY


def combined_source(**bits) -> str:
    """All five modules in one program (the Table 1 "All 5 combined")."""
    return (
        declarations(**bits)
        + HIERARCHY_BODY
        + VCALL_BODY
        + POINTSTO_BODY
        + POINTSTO_FILTER_BODY
        + CALLGRAPH_BODY
        + SIDEEFFECTS_BODY
    )


#: module name -> source builder, in the paper's Table 1 order
ANALYSIS_SOURCES = {
    "Virtual Call Resolution": vcall_source,
    "Hierarchy": hierarchy_source,
    "Points-to Analysis": pointsto_source,
    "Side-effect Analysis": sideeffects_source,
    "Call Graph": callgraph_source,
    "All 5 combined": combined_source,
}


def source_widths(facts) -> Dict[str, int]:
    """Domain widths (the ``**bits`` of every builder above) that hold
    every entity of ``facts``, a :class:`~repro.analyses.facts.
    ProgramFacts`."""
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


class PointsToProgram:
    """A points-to program compiled by jeddc's front end for ``facts``
    and run by the interpreter.

    ``source`` is a builder taking the widths of :func:`source_widths`
    (by default :func:`pointsto_source`, the paper's do/while loop);
    ``bit_order`` is passed to every interpreter, as
    ``CompiledProgram.interpreter(bit_order=...)``.  Compiling happens
    once, here; :meth:`solve` runs the program.
    """

    def __init__(
        self,
        facts,
        source: Callable[..., str] = pointsto_source,
        bit_order: Optional[List[List[str]]] = None,
    ) -> None:
        self.facts = facts
        self.bit_order = bit_order
        self.compiled = compile_source(source(**source_widths(facts)))

    def interpreter(self):
        """A fresh interpreter (its own universe) for the program."""
        return self.compiled.interpreter(bit_order=self.bit_order)

    def solve(self, it=None):
        """Load the facts as ``alloc``/``assignEdge``/``storeEdge``/
        ``loadEdge`` into ``it`` (a fresh :meth:`interpreter` when
        None), run ``solvePointsTo`` and return the interpreter; its
        ``pt`` and ``hpt`` globals hold the answer."""
        if it is None:
            it = self.interpreter()
        facts = self.facts
        for name, attrs, tuples in (
            ("alloc", ["var", "obj"], facts.allocs),
            ("assignEdge", ["dstvar", "srcvar"], facts.assigns),
            ("storeEdge", ["basevar", "field", "srcvar"], facts.stores),
            ("loadEdge", ["dstvar", "basevar", "field"], facts.loads),
        ):
            it.set_global(name, it.relation_of(attrs, tuples))
        it.call("solvePointsTo")
        return it
