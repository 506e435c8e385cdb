"""CNF formulas and DIMACS serialization.

The Jedd translator encodes the physical domain assignment problem in
conjunctive normal form (section 3.3.2) and ships it to a SAT solver;
this module is the formula container.  Literals use the DIMACS
convention: variables are positive integers, a negated literal is the
negated integer.  Clause indices (their position in :attr:`CNF.clauses`)
are the currency of unsat cores.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = ["CNF", "CNFError"]


class CNFError(Exception):
    """Raised for malformed clauses or DIMACS input."""


class CNF:
    """A formula in conjunctive normal form.

    Clauses are stored as tuples of non-zero integers.  Tautological
    clauses (containing both ``v`` and ``-v``) are kept as written --
    the solver treats them as trivially satisfied -- so that clause
    indices reported in unsat cores always match what the encoder added.

    :meth:`add_clause` deduplicates and range-checks each clause, for
    DIMACS input and hand-built formulas.  An encoder that builds clause
    families in bulk may instead append to :attr:`clauses` directly,
    provided each clause is a tuple of distinct non-zero literals over
    variables ``1..num_vars``.
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise CNFError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []

    def add_clause(self, literals: Iterable[int]) -> int:
        """Add a clause; returns its index (for unsat-core reporting)."""
        clause = tuple(dict.fromkeys(literals))  # dedupe, keep order
        for lit in clause:
            if lit == 0:
                raise CNFError("literal 0 is not allowed")
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(clause)
        return len(self.clauses) - 1

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.clauses)

    @property
    def num_literals(self) -> int:
        """Total literal occurrences (the "Literals" column of Table 1)."""
        return sum(map(len, self.clauses))

    def evaluate(self, model: Sequence[bool]) -> bool:
        """Check a model given as ``model[var - 1]`` truth values."""
        for clause in self.clauses:
            if not any(
                (lit > 0) == model[abs(lit) - 1] for lit in clause
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # DIMACS
    # ------------------------------------------------------------------

    def to_dimacs(self) -> str:
        """Serialize in DIMACS ``cnf`` format."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse a DIMACS ``cnf`` file body."""
        cnf = cls()
        declared_vars = None
        pending: List[int] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise CNFError(f"bad problem line: {line!r}")
                declared_vars = int(parts[2])
                continue
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            raise CNFError("clause not terminated by 0")
        if declared_vars is not None:
            cnf.num_vars = max(cnf.num_vars, declared_vars)
        return cnf
