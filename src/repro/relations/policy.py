"""ExecutionPolicy: one value describing *how* a solve should run.

:class:`~repro.relations.fixpoint.FixpointEngine` and all four
analyses take the engine, parallelism and planning options as this one
frozen dataclass::

    from repro.relations import ExecutionPolicy, FixpointEngine

    policy = ExecutionPolicy(engine="parallel", workers=4)
    eng = FixpointEngine(universe, policy)
    pta = PointsTo(au, policy=policy)

Every accepting call site also takes a plain engine name as shorthand
(``policy="naive"`` means ``ExecutionPolicy(engine="naive")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

__all__ = ["ExecutionPolicy", "POLICY_ENGINES"]

#: Engine names an :class:`ExecutionPolicy` accepts.  ``"naive"`` is
#: only meaningful to the analyses (their original whole-relation
#: loops, kept for differential testing); the fixpoint engine itself
#: rejects it.
POLICY_ENGINES = ("seminaive", "parallel", "naive")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How rule bodies are evaluated: engine, parallelism, planning.

    Fields:

    - ``engine`` — ``"seminaive"`` (default), ``"parallel"``, or (for
      the analyses only) ``"naive"``;
    - ``workers`` — worker-process count for the parallel engine;
    - ``task_timeout`` — seconds without progress before the parallel
      coordinator declares a worker hung;
    - ``fault_injection`` — test hook shipped to parallel workers;
    - ``optimize`` — let the query planner reorder conjuncts (pass
      False for the source-order baseline);
    - ``collect_plans`` — record one ``PlanReport`` per executed rule
      body.

    Instances are frozen (hashable, safely shared across engines and
    sessions); derive variants with :meth:`with_options`.
    """

    engine: str = "seminaive"
    workers: Optional[int] = None
    task_timeout: Optional[float] = None
    fault_injection: Optional[Mapping] = field(default=None, hash=False)
    optimize: bool = True
    collect_plans: bool = False

    def __post_init__(self) -> None:
        from repro.relations.domain import JeddError

        if self.engine not in POLICY_ENGINES:
            raise JeddError(
                f"unknown engine {self.engine!r} "
                f"(expected one of {', '.join(POLICY_ENGINES)})"
            )
        if self.workers is not None and self.workers < 1:
            raise JeddError("workers must be a positive integer")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def of(
        cls, value: Union["ExecutionPolicy", str, None]
    ) -> "ExecutionPolicy":
        """Coerce ``value`` to a policy: an existing policy passes
        through, a string is an engine-name shorthand, None is the
        default policy."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(engine=value)
        from repro.relations.domain import JeddError

        raise JeddError(
            f"cannot interpret {value!r} as an ExecutionPolicy "
            "(expected a policy, an engine name, or None)"
        )

    def with_options(self, **changes: object) -> "ExecutionPolicy":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def __str__(self) -> str:
        parts = [self.engine]
        if self.workers is not None:
            parts.append(f"x{self.workers}")
        if not self.optimize:
            parts.append("unoptimized")
        return " ".join(parts)
