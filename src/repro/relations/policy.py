"""ExecutionPolicy: one value describing *how* a solve should run.

:class:`~repro.relations.fixpoint.FixpointEngine` and all four
analyses take the engine and planning options as this one frozen
dataclass::

    from repro.relations import ExecutionPolicy, FixpointEngine

    policy = ExecutionPolicy(collect_plans=True)
    eng = FixpointEngine(universe, policy)
    pta = PointsTo(au, policy=policy)

Every accepting call site also takes a plain engine name as shorthand
(``policy="naive"`` means ``ExecutionPolicy(engine="naive")``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

__all__ = ["ExecutionPolicy", "POLICY_ENGINES"]

#: Engine names an :class:`ExecutionPolicy` accepts.  ``"naive"`` is
#: only meaningful to the analyses (their original whole-relation
#: loops, kept for differential testing); the fixpoint engine itself
#: rejects it.
POLICY_ENGINES = ("seminaive", "naive")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How rule bodies are evaluated: engine and planning.

    Fields:

    - ``engine`` — ``"seminaive"`` (default) or (for the analyses
      only) ``"naive"``;
    - ``optimize`` — let the query planner reorder conjuncts (pass
      False for the source-order baseline);
    - ``collect_plans`` — record one ``PlanReport`` per executed rule
      body.

    Instances are frozen (hashable, safely shared across engines and
    sessions); derive variants with :meth:`with_options`.
    """

    engine: str = "seminaive"
    optimize: bool = True
    collect_plans: bool = False

    def __post_init__(self) -> None:
        from repro.relations.domain import JeddError

        if self.engine not in POLICY_ENGINES:
            raise JeddError(
                f"unknown engine {self.engine!r} "
                f"(expected one of {', '.join(POLICY_ENGINES)})"
            )

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
        if not self.optimize:
            parts.append("unoptimized")
        return " ".join(parts)
