"""ExecutionPolicy: one value describing *how* a solve should run.

:class:`~repro.relations.fixpoint.FixpointEngine` and all four
analyses take the planning options as this one frozen dataclass::

    from repro.relations import ExecutionPolicy, FixpointEngine

    policy = ExecutionPolicy(collect_plans=True)
    eng = FixpointEngine(universe, policy)
    pta = PointsTo(au, policy=policy)

Every accepting call site also takes the string ``"seminaive"`` (the
name of the one fixpoint engine, and the service's wire value) as
shorthand for the default policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How rule bodies are evaluated by the semi-naive engine.

    Fields:

    - ``optimize`` — let the query planner reorder conjuncts (pass
      False for the source-order baseline);
    - ``collect_plans`` — record one ``PlanReport`` per executed rule
      body.

    Instances are frozen (hashable, safely shared across engines and
    sessions); derive variants with :meth:`with_options`.
    """

    optimize: bool = True
    collect_plans: bool = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def of(
        cls, value: Union["ExecutionPolicy", str, None]
    ) -> "ExecutionPolicy":
        """Coerce ``value`` to a policy: an existing policy passes
        through, None and ``"seminaive"`` are the default policy."""
        from repro.relations.domain import JeddError

        if value is None or value == "seminaive":
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            raise JeddError(
                f"unknown engine {value!r} (expected 'seminaive')"
            )
        raise JeddError(
            f"cannot interpret {value!r} as an ExecutionPolicy "
            "(expected a policy, 'seminaive', or None)"
        )

    def with_options(self, **changes: object) -> "ExecutionPolicy":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def __str__(self) -> str:
        return "seminaive" if self.optimize else "seminaive unoptimized"
