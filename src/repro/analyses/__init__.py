"""The five interrelated whole-program analyses of section 5 (Figure 2).

``facts`` synthesises Soot-like program fact bases; ``universe`` builds
the shared relational universe; ``hierarchy``, ``vcall``, ``pointsto``,
``callgraph`` and ``sideeffects`` implement the analyses against the
public relational API (as jeddc-generated code would), each paired with
a naive set-based reference used as the test oracle; ``jedd_sources``
holds the same analyses as Jedd source text for the Table 1 benchmark,
and runs the paper's points-to program for Table 2
(``PointsToProgram``); ``lowlevel`` is the hand-coded direct-BDD
baseline for Table 2.
"""

from repro.analyses.callgraph import CallGraph, naive_call_graph
from repro.analyses.facts import PRESETS, ProgramFacts, preset, synthesize
from repro.analyses.hierarchy import Hierarchy, naive_subtypes
from repro.analyses.lowlevel import LowLevelPointsTo
from repro.analyses.pointsto import PointsTo, naive_points_to
from repro.analyses.sideeffects import SideEffects, naive_side_effects
from repro.analyses.universe import AnalysisUniverse
from repro.analyses.vcall import VirtualCallResolver, naive_resolve

__all__ = [
    "AnalysisUniverse",
    "CallGraph",
    "Hierarchy",
    "LowLevelPointsTo",
    "PRESETS",
    "PointsTo",
    "ProgramFacts",
    "SideEffects",
    "VirtualCallResolver",
    "naive_call_graph",
    "naive_points_to",
    "naive_resolve",
    "naive_side_effects",
    "naive_subtypes",
    "preset",
    "synthesize",
]
