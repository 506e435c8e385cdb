"""The jeddc driver: parse -> type check -> assign domains -> execute.

This mirrors Figure 1 of the paper: the front end (parser + semantic
analysis), the back end (physical domain assignment via the SAT solver
+ code generation), and hooks into the runtime.  :func:`compile_source`
performs the whole translation; the result can be executed directly
(:meth:`CompiledProgram.interpreter`) or turned into Python source
(:func:`repro.jedd.codegen.generate`), the reproduction's analogue of
the generated ``.java`` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.jedd.assignment import (
    AssignmentError,
    AssignmentResult,
    DomainAssigner,
)
from repro.jedd.constraints import ConstraintGraph, build_constraints
from repro.jedd.interp import Interpreter
from repro.jedd.liveness import insert_frees
from repro.jedd.parser import parse_program
from repro.jedd.typecheck import TypedProgram, check

__all__ = ["CompiledProgram", "compile_source", "AssignmentError"]


@dataclass
class CompiledProgram:
    """All front-end and back-end artifacts for one Jedd program."""

    source: str
    tp: TypedProgram
    graph: ConstraintGraph
    assignment: AssignmentResult

    def interpreter(
        self,
        host_env: Optional[Dict[str, Hashable]] = None,
        backend: str = "bdd",
        ordering: str = "interleaved",
        bit_order=None,
    ) -> Interpreter:
        """A fresh execution engine for this program.

        ``bit_order`` optionally fixes the relative bit ordering of the
        physical domains (groups of names, interleaved within a group).
        """
        return Interpreter(
            self.tp,
            self.graph,
            self.assignment,
            host_env=host_env,
            backend=backend,
            ordering=ordering,
            bit_order=bit_order,
        )

    @property
    def stats(self) -> Dict[str, float]:
        """Constraint and SAT statistics (the rows of Table 1)."""
        merged = dict(self.graph.stats())
        merged.update(self.assignment.stats)
        merged["physdoms"] = len(self.tp.physdoms)
        return merged


def compile_source(source: str, liveness: bool = True) -> CompiledProgram:
    """Run the full jeddc pipeline on Jedd source text.

    Raises :class:`~repro.jedd.parser.ParseError`,
    :class:`~repro.jedd.typecheck.TypeError_`, or
    :class:`~repro.jedd.assignment.AssignmentError` with the paper-style
    messages on invalid input.
    """
    program = parse_program(source)
    tp = check(program)
    if liveness:
        insert_frees(tp)
    graph = build_constraints(tp)
    assigner = DomainAssigner(
        graph,
        tp.physdoms,
        {d: tp.domain_bits(d) for d in tp.domains},
    )
    assignment = assigner.solve()
    return CompiledProgram(source, tp, graph, assignment)
