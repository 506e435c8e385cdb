"""Evaluation of IR nodes against bound relations.

The evaluator resolves leaf slots from an environment, asks the
:class:`~repro.relations.ir.planner.Planner` for a schedule of every
product it meets, and executes the schedule through
:meth:`Relation.compose_pipeline` — so on the BDD backend each planned
step is still one fused ``and_exist`` kernel call, and both backends and
the telemetry span tree keep working unchanged.

Two observability hooks ride along:

- when a telemetry session is active (or a ``collect`` list is passed
  for EXPLAIN), products run step by step instead of as one fused
  pipeline call, and each executed plan emits a ``plan.explain`` span
  (category ``"planner"``) carrying the estimated vs. actual
  cardinality and node count of every step;
- an optional ``memo`` dict gives common-subexpression elimination:
  results are keyed by (structural node key, the bound leaf relations'
  diagram nodes and physical-domain placements), so any two
  evaluations in the same memo scope that compute the same thing over
  the same inputs share one result.  The fixpoint engine passes a
  per-round memo so identical (sub)expressions across rule bodies are
  evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro import telemetry as _telemetry
from repro.relations.domain import JeddError, Universe
from repro.relations.ir.nodes import (
    Aggregate,
    Copy,
    Diff,
    Filter,
    Intersect,
    Leaf,
    Match,
    Node,
    Product,
    Project,
    Rename,
    Replace,
    Union,
)
from repro.relations.ir.planner import (
    Estimate,
    Planner,
    ProductPlan,
    estimate_aggregate,
    estimate_plan,
)
from repro.relations.relation import Relation

__all__ = [
    "EvalContext",
    "PlanReport",
    "default_weight",
    "evaluate",
    "reporting",
    "run_product_plan",
]


def default_weight(
    universe: Universe, static: bool = False
) -> Callable[[str], float]:
    """Distinct-value estimate per attribute: the number of objects
    interned in its domain (``static=True`` uses the declared maximum
    instead — for EXPLAIN before any data exists)."""

    def weight(attr_name: str) -> float:
        try:
            dom = universe.get_attribute(attr_name).domain
        except JeddError:
            return 2.0
        if static:
            return float(max(dom.max_size, 2))
        return float(max(len(dom), 1))

    return weight


@dataclass
class PlanReport:
    """One executed (or statically explained) product plan, for EXPLAIN
    output and the profiler.  ``steps`` rows carry ``part``, ``on``,
    ``drop``, ``est_card``/``est_nodes`` and — after execution —
    ``actual_card``/``actual_nodes``."""

    label: str
    optimized: bool
    order: Sequence[int]
    part_labels: Sequence[str]
    est_card: float
    est_nodes: float
    steps: List[dict] = field(default_factory=list)
    actual_nodes: Optional[float] = None
    seconds: float = 0.0

    def estimate_error(self) -> Optional[float]:
        """max(actual/est, est/actual) over the total node estimate;
        None before execution.  1.0 means the model was exact."""
        if self.actual_nodes is None:
            return None
        est = max(self.est_nodes, 1.0)
        act = max(self.actual_nodes, 1.0)
        return max(est / act, act / est)

    def format(self) -> str:
        mode = "optimized" if self.optimized else "unoptimized"
        lines = [f"plan {self.label or '<product>'} [{mode}]"]
        base = self.order[0] if self.order else 0
        base_label = (
            self.part_labels[base]
            if base < len(self.part_labels)
            else f"part {base}"
        )
        lines.append(f"  base: {base_label}")
        for row in self.steps:
            part = row["part"]
            label = (
                self.part_labels[part]
                if part < len(self.part_labels)
                else f"part {part}"
            )
            on = ",".join(row["on"]) or "-"
            drop = ",".join(row["drop"]) or "-"
            text = (
                f"  join {label} on [{on}] exists [{drop}]"
                f"  est {row['est_card']:.0f} tuples"
                f" / {row['est_nodes']:.0f} nodes"
            )
            if "actual_nodes" in row:
                text += (
                    f"  actual {row['actual_card']:.0f}"
                    f" / {row['actual_nodes']:.0f}"
                )
            lines.append(text)
        total = f"  total: est {self.est_nodes:.0f} nodes"
        if self.actual_nodes is not None:
            total += (
                f", actual {self.actual_nodes:.0f}"
                f" (error x{self.estimate_error():.1f})"
            )
        lines.append(total)
        return "\n".join(lines)


class EvalContext:
    """Everything one evaluation needs: the universe, the slot
    environment (values are relations or zero-argument callables), the
    planner whose cache to use, and the optional hooks described in the
    module docs."""

    def __init__(
        self,
        universe: Universe,
        env: Dict[str, object],
        planner: Optional[Planner] = None,
        weight: Optional[Callable[[str], float]] = None,
        on_replace: Optional[Callable[[object, Dict[str, str]], None]] = None,
        memo: Optional[dict] = None,
        collect: Optional[List[PlanReport]] = None,
        label: str = "",
    ) -> None:
        self.universe = universe
        self.env = env
        self.planner = planner if planner is not None else Planner()
        self.weight = weight or default_weight(universe)
        self.on_replace = on_replace
        self.memo = memo
        self.collect = collect
        self.label = label
        self._resolved: Dict[str, Relation] = {}

    def resolve(self, slot: str) -> Relation:
        rel = self._resolved.get(slot)
        if rel is None:
            try:
                value = self.env[slot]
            except KeyError:
                raise JeddError(f"no binding for IR slot {slot!r}") from None
            rel = value() if callable(value) else value
            if not isinstance(rel, Relation):
                raise JeddError(
                    f"IR slot {slot!r} bound to {type(rel).__name__}, "
                    "not a relation"
                )
            self._resolved[slot] = rel
        return rel


def _schema_sig(rel: Relation) -> tuple:
    return tuple(
        (attr.name, pd.name) for attr, pd in rel.schema.pairs
    )


def _part_label(part: Node) -> str:
    if isinstance(part, Leaf):
        return part.slot
    return f"<{type(part).__name__.lower()}>"


def reporting(collect: Optional[List[PlanReport]] = None) -> bool:
    """Whether :func:`run_product_plan` reports the plan it runs:
    telemetry is on, or an EXPLAIN collector is given.  Planners give
    such plans estimates even when they have no choice."""
    return collect is not None or _telemetry._active.enabled


def run_product_plan(
    parts: Sequence[Relation],
    plan: ProductPlan,
    label: str = "",
    part_labels: Optional[Sequence[str]] = None,
    collect: Optional[List[PlanReport]] = None,
    place: Optional[Dict[str, object]] = None,
) -> Relation:
    """Execute a :class:`ProductPlan` against its part relations.

    With telemetry off and no EXPLAIN collector this is a single
    :meth:`Relation.compose_pipeline` call (``place`` steers its last
    step); otherwise the steps run one at a time so the actual per-step
    node counts can be recorded, and a ``plan.explain`` span (category
    ``"planner"``) is emitted with the estimates next to the actuals.
    A plan built without estimates (no choice, planned for an
    unreported run) gets them here, from the parts under the planner's
    own cost model and :func:`default_weight`.
    """
    base = parts[plan.order[0]]
    if plan.base_drop:
        base = base.project_away(*plan.base_drop)
    steps = [
        (parts[s.part], list(s.on), list(s.drop)) for s in plan.steps
    ]
    if not reporting(collect):
        return base.compose_pipeline(steps, place) if steps else base
    tel = _telemetry._active
    if plan.est_nodes is None:
        plan = estimate_plan(
            plan,
            [r.schema.name_set() for r in parts],
            [Estimate(float(r.size()), float(r.node_count())) for r in parts],
            default_weight(base.universe),
        )
    start = perf_counter()
    cur = base
    rows: List[dict] = []
    for i, (s, triple) in enumerate(zip(plan.steps, steps)):
        cur = cur.compose_pipeline(
            [triple], place if i == len(steps) - 1 else None
        )
        rows.append(
            {
                "part": s.part,
                "on": list(s.on),
                "drop": list(s.drop),
                "est_card": s.est_card,
                "est_nodes": s.est_nodes,
                "actual_card": float(cur.size()),
                "actual_nodes": float(cur.node_count()),
            }
        )
    seconds = perf_counter() - start
    labels = list(part_labels or [f"part {i}" for i in range(len(parts))])
    report = PlanReport(
        label=label,
        optimized=plan.optimized,
        order=list(plan.order),
        part_labels=labels,
        est_card=plan.est_card,
        est_nodes=plan.est_nodes,
        steps=rows,
        actual_nodes=float(cur.node_count()),
        seconds=seconds,
    )
    if collect is not None:
        collect.append(report)
    if tel.enabled:
        tel.add_complete(
            "plan.explain",
            seconds,
            cat="planner",
            label=label,
            optimized=plan.optimized,
            order=list(plan.order),
            parts=labels,
            est_card=plan.est_card,
            est_nodes=plan.est_nodes,
            actual_nodes=report.actual_nodes,
            estimate_error=report.estimate_error(),
            steps=rows,
        )
    return cur


def evaluate(node: Node, ctx: EvalContext) -> Relation:
    """Evaluate ``node`` in ``ctx``; see the module docs."""
    memo = ctx.memo
    if memo is not None:
        mkey = (
            node.key,
            tuple(
                (ctx.resolve(slot).node, _schema_sig(ctx.resolve(slot)))
                for slot in node.slots
            ),
        )
        hit = memo.get(mkey)
        if hit is not None:
            return hit
    rel = _eval(node, ctx)
    if memo is not None:
        memo[mkey] = rel
    return rel


def _eval(node: Node, ctx: EvalContext) -> Relation:
    if isinstance(node, Leaf):
        rel = ctx.resolve(node.slot)
        if rel.schema.name_set() != node.attrs:
            raise JeddError(
                f"IR slot {node.slot!r}: bound relation has attributes "
                f"{sorted(rel.schema.name_set())}, the IR expects "
                f"{sorted(node.attrs)}"
            )
        return rel
    if isinstance(node, Product):
        parts = [evaluate(p, ctx) for p in node.parts]
        plan = ctx.planner.product_plan(
            node.key,
            ctx.universe.plan_generation,
            [p.attrs for p in node.parts],
            node.quantify,
            lambda: [
                Estimate(float(r.size()), float(r.node_count()))
                for r in parts
            ],
            ctx.weight,
            report=reporting(ctx.collect),
        )
        return run_product_plan(
            parts,
            plan,
            label=ctx.label,
            part_labels=[_part_label(p) for p in node.parts],
            collect=ctx.collect,
        )
    if isinstance(node, Project):
        rel = evaluate(node.child, ctx)
        return rel.project_away(*sorted(node.drop)) if node.drop else rel
    if isinstance(node, Rename):
        return evaluate(node.child, ctx).rename(dict(node.mapping))
    if isinstance(node, Replace):
        child = evaluate(node.child, ctx)
        # Targets may pin attributes that are already in place (the Jedd
        # lowering passes a wrapper's complete domain map so placements
        # stay exact whatever order the planner picked); report only the
        # moves this relation actually needed.
        moved = {
            a: pd
            for a, pd in node.targets
            if child.schema.physdom(a).name != pd
        }
        rel = child.replace(dict(node.targets))
        if moved and ctx.on_replace is not None:
            ctx.on_replace(node.tag, moved)
        return rel
    if isinstance(node, Copy):
        return evaluate(node.child, ctx).copy(
            node.source,
            list(node.targets),
            list(node.physdoms) if node.physdoms is not None else None,
        )
    if isinstance(node, Match):
        left = evaluate(node.left, ctx)
        right = evaluate(node.right, ctx)
        la, ra = list(node.left_attrs), list(node.right_attrs)
        if node.keep:
            return left.join(right, la, ra)
        return left.compose(right, la, ra)
    if isinstance(node, Union):
        return evaluate(node.left, ctx) | evaluate(node.right, ctx)
    if isinstance(node, Intersect):
        return evaluate(node.left, ctx) & evaluate(node.right, ctx)
    if isinstance(node, Diff):
        return evaluate(node.left, ctx) - evaluate(node.right, ctx)
    if isinstance(node, Filter):
        return evaluate(node.child, ctx).select(dict(node.values))
    if isinstance(node, Aggregate):
        child = evaluate(node.child, ctx)
        est = estimate_aggregate(
            Estimate(float(child.size()), float(child.node_count())),
            node.group_by,
            ctx.weight,
        )
        start = perf_counter()
        result = child.aggregate(
            node.agg, node.attr, list(node.group_by)
        )
        tel = _telemetry._active
        if tel.enabled:
            tel.add_complete(
                "plan.aggregate",
                perf_counter() - start,
                cat="planner",
                label=ctx.label,
                agg=node.agg,
                group_by=list(node.group_by),
                est_card=est.card,
                actual_card=float(result.size()),
            )
        return result
    raise JeddError(f"cannot evaluate {type(node).__name__}")
