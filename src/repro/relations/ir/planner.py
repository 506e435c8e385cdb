"""Cost-based scheduling of IR products.

The paper's profiler (section 5) exists because the *order* in which
relational operations touch the diagrams dominates running time, and
Jedd left choosing that order to the programmer.  This module automates
the choice for the one place it matters most — the n-ary products that
join/compose chains and rule bodies lower to — with the cheap estimates
the runtime already has on hand:

- ``satcount`` (``Relation.size``) for input cardinalities,
- diagram node counts for input sizes,
- live attribute widths (distinct-value estimates per attribute, i.e.
  interned domain sizes) for join selectivity.

The model is the textbook one: the cardinality of a natural join is the
product of the input cardinalities divided by the domain size of every
shared attribute, capped by the product of the surviving attributes'
domain sizes; a step's kernel work is approximated by
``min(nodes_a * nodes_b, card * bits)``.  Orders are chosen greedily —
start from the smallest part (or the *anchor*: semi-naive evaluation
anchors the delta atom first so every step is bounded by the delta),
then repeatedly absorb the connected part with the smallest estimated
result.  After ordering, every quantified attribute is scheduled at the
first step where no later part mentions it (early existential
quantification / projection pushdown).

Plans are frozen dataclasses of primitives.  :class:`Planner` caches
them by (structural shape, universe generation, anchor): re-planning
happens only when the shape is new or the universe's plan generation
moved (an explicit invalidation).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from math import log2
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Estimate",
    "PlanStep",
    "ProductPlan",
    "RulePlan",
    "Planner",
    "estimate_aggregate",
    "estimate_plan",
    "has_choice",
    "plan_product",
    "plan_rule",
]

#: Estimates are capped here so chained multiplications stay finite.
_CAP = 1e18


@dataclass(frozen=True)
class Estimate:
    """What the planner knows about one input: tuple count and diagram
    node count (both may be estimates, e.g. domain maxima for static
    EXPLAIN before any data exists)."""

    card: float
    nodes: float


@dataclass(frozen=True)
class PlanStep:
    """One pipeline step: match the running result with part ``part``
    on the attributes ``on``, then quantify ``drop`` out.  The
    estimates are None on a plan without a choice (:func:`has_choice`)."""

    part: int
    on: Tuple[str, ...]
    drop: Tuple[str, ...]
    est_card: Optional[float] = None
    est_nodes: Optional[float] = None


@dataclass(frozen=True)
class ProductPlan:
    """A scheduled n-ary product.  ``order[0]`` is the base relation;
    ``steps`` has one entry per remaining part, in execution order.
    The estimates are None on a plan without a choice."""

    order: Tuple[int, ...]
    base_drop: Tuple[str, ...]
    steps: Tuple[PlanStep, ...]
    est_card: Optional[float] = None
    est_nodes: Optional[float] = None
    optimized: bool = True

    def pipeline(self) -> Tuple[Tuple[int, Tuple[str, ...], Tuple[str, ...]], ...]:
        """The ``(part, on, drop)`` triples, for callers that execute
        the plan against their own relation list."""
        return tuple((s.part, s.on, s.drop) for s in self.steps)


@dataclass(frozen=True)
class RulePlan:
    """A planned fixpoint rule body: the positive-atom product plus the
    cleanup the engine applies afterwards (negation joins read
    ``neg_drop`` attributes, which are projected away before the final
    rename onto the head relation's declared attribute names)."""

    delta_idx: Optional[int]
    product: ProductPlan
    neg_drop: Tuple[str, ...]
    rename: Tuple[Tuple[str, str], ...]


def _bits(weight: float) -> float:
    return max(1.0, log2(max(weight, 2.0)))


def _cap_card(card: float, attrs, weight: Callable[[str], float]) -> float:
    limit = 1.0
    for a in attrs:
        limit = min(limit * max(weight(a), 1.0), _CAP)
    return min(card, limit, _CAP)


def _join_est(
    card_a: float,
    nodes_a: float,
    attrs_a: frozenset,
    card_b: float,
    nodes_b: float,
    attrs_b: frozenset,
    drop: frozenset,
    weight: Callable[[str], float],
) -> Tuple[float, float, frozenset]:
    shared = attrs_a & attrs_b
    card = min(card_a * card_b, _CAP)
    for s in shared:
        card /= max(weight(s), 1.0)
    out_attrs = (attrs_a | attrs_b) - drop
    card = _cap_card(card, out_attrs, weight)
    bits = sum(_bits(weight(a)) for a in (attrs_a | attrs_b))
    nodes = min(nodes_a * nodes_b, max(card, 1.0) * max(bits, 1.0), _CAP)
    return card, nodes, out_attrs


def estimate_aggregate(
    input_est: Estimate,
    group_by: Sequence[str],
    weight: Callable[[str], float],
) -> Estimate:
    """Cost an aggregate over a planned input.

    The result has one row per distinct group tuple, so its cardinality
    is the input cardinality capped by the product of the group
    attributes' distinct-value weights (an empty ``group_by`` means one
    global row).  The dominant kernel cost is the abstraction sweep over
    the input diagram, so the node estimate carries the input's node
    count through: an aggregate never enlarges its operand.  The
    aggregate itself is placed by construction — after projection
    pushdown — so only this result estimate matters to enclosing plans.
    """
    card = _cap_card(max(input_est.card, 1.0), group_by, weight)
    bits = sum(_bits(weight(a)) for a in group_by)
    nodes = min(input_est.nodes, max(card, 1.0) * max(bits, 1.0), _CAP)
    return Estimate(card, nodes)


def has_choice(
    n_parts: int, anchor: Optional[int] = None, optimize: bool = True
) -> bool:
    """Whether estimates can change a product's plan: only an optimizing
    planner with at least two parts to order (besides the anchor, when
    one is forced first).  Every other plan is fixed by its shape."""
    return optimize and n_parts - (anchor is not None) >= 2


def plan_product(
    part_attrs: Sequence[frozenset],
    quantify: frozenset,
    estimates: Optional[Sequence[Estimate]],
    weight: Callable[[str], float],
    anchor: Optional[int] = None,
    optimize: bool = True,
) -> ProductPlan:
    """Schedule an n-ary product.

    ``part_attrs`` gives each part's attribute names, ``quantify`` the
    attributes to existentially quantify out of the result, and
    ``estimates`` one :class:`Estimate` per part.  ``anchor`` forces a
    part to evaluate first (the semi-naive delta).  With
    ``optimize=False`` the identity order is kept and all
    quantification happens at the very last step — the unoptimized
    left-to-right baseline the differential suite compares against.

    A plan without a choice (see :func:`has_choice`) may be built with
    ``estimates=None``; its estimate fields are then None until
    :func:`estimate_plan` fills them in.
    """
    n = len(part_attrs)
    part_attrs = [frozenset(a) for a in part_attrs]
    quantify = frozenset(quantify)
    if estimates is None:
        if has_choice(n, anchor, optimize):
            raise ValueError("plan_product: this plan needs estimates")
        # Nothing to rank: plan on stand-in estimates and drop them.
        plan = plan_product(
            part_attrs, quantify, [Estimate(0.0, 0.0)] * n, weight,
            anchor=anchor, optimize=optimize,
        )
        return ProductPlan(
            plan.order, plan.base_drop,
            tuple(PlanStep(s.part, s.on, s.drop) for s in plan.steps),
            optimized=plan.optimized,
        )

    if not optimize:
        steps: List[PlanStep] = []
        cur_attrs = part_attrs[0]
        for i in range(1, n):
            drop = quantify if i == n - 1 else frozenset()
            on = tuple(sorted(cur_attrs & part_attrs[i]))
            steps.append(PlanStep(i, on, tuple(sorted(drop))))
            cur_attrs = (cur_attrs | part_attrs[i]) - drop
        base_drop = tuple(sorted(quantify)) if n == 1 else ()
        plan = ProductPlan(
            tuple(range(n)), base_drop, tuple(steps), optimized=False
        )
        return estimate_plan(plan, part_attrs, estimates, weight)

    # How many not-yet-absorbed parts still mention each quantified
    # attribute; when the count hits zero the attribute is dead and can
    # be quantified out of the running result immediately.
    uses: Dict[str, int] = {a: 0 for a in quantify}
    for attrs in part_attrs:
        for a in attrs & quantify:
            uses[a] += 1

    if anchor is not None:
        base = anchor
    else:
        base = min(
            range(n), key=lambda i: (estimates[i].card, estimates[i].nodes, i)
        )
    remaining = [i for i in range(n) if i != base]
    for a in part_attrs[base] & quantify:
        uses[a] -= 1
    dead = frozenset(
        a for a in part_attrs[base] & quantify if uses[a] == 0
    )
    cur_attrs = part_attrs[base] - dead
    card = _cap_card(estimates[base].card, cur_attrs, weight)
    nodes = estimates[base].nodes
    order = [base]
    steps = []
    total_nodes = 0.0
    while remaining:
        connected = [i for i in remaining if cur_attrs & part_attrs[i]]
        candidates = connected or remaining
        best = None
        for i in candidates:
            drop = frozenset(
                a
                for a in (cur_attrs | part_attrs[i]) & quantify
                if uses[a] <= (1 if a in part_attrs[i] else 0)
            )
            est_card, est_nodes, out_attrs = _join_est(
                card, nodes, cur_attrs,
                estimates[i].card, estimates[i].nodes, part_attrs[i],
                drop, weight,
            )
            score = (est_card, est_nodes, i)
            if best is None or score < best[0]:
                best = (score, i, drop, est_card, est_nodes, out_attrs)
        _, i, drop, card, nodes, out_attrs = best
        on = tuple(sorted(cur_attrs & part_attrs[i]))
        cur_attrs = out_attrs
        remaining.remove(i)
        for a in part_attrs[i] & quantify:
            uses[a] -= 1
        order.append(i)
        total_nodes = min(total_nodes + nodes, _CAP)
        steps.append(PlanStep(i, on, tuple(sorted(drop)), card, nodes))
    return ProductPlan(
        tuple(order), tuple(sorted(dead)), tuple(steps), card,
        total_nodes, True,
    )


def estimate_plan(
    plan: ProductPlan,
    part_attrs: Sequence[frozenset],
    estimates: Sequence[Estimate],
    weight: Callable[[str], float],
) -> ProductPlan:
    """``plan`` with every estimate computed from ``estimates`` by the
    same cost model the planner ranks with: the base part capped to its
    surviving attributes, then :func:`_join_est` once per step."""
    part_attrs = [frozenset(a) for a in part_attrs]
    base = plan.order[0]
    cur_attrs = part_attrs[base] - frozenset(plan.base_drop)
    card = _cap_card(estimates[base].card, cur_attrs, weight)
    nodes = estimates[base].nodes
    total_nodes = 0.0
    steps = []
    for s in plan.steps:
        card, nodes, cur_attrs = _join_est(
            card, nodes, cur_attrs,
            estimates[s.part].card, estimates[s.part].nodes,
            part_attrs[s.part], frozenset(s.drop), weight,
        )
        total_nodes = min(total_nodes + nodes, _CAP)
        steps.append(PlanStep(s.part, s.on, s.drop, card, nodes))
    return ProductPlan(
        plan.order, plan.base_drop, tuple(steps), card, total_nodes,
        plan.optimized,
    )


def plan_rule(
    atom_vars: Sequence[Sequence[str]],
    head_vars: Sequence[str],
    neg_vars: Sequence[str],
    head_names: Sequence[str],
    estimates: Optional[Sequence[Estimate]],
    weight: Callable[[str], float],
    delta_idx: Optional[int],
    optimize: bool = True,
) -> RulePlan:
    """Plan one fixpoint rule body (see :class:`RulePlan`).

    ``atom_vars`` lists the positive atoms' variable tuples in source
    order; variables needed by the head or by a negated atom survive
    the product, everything else is quantified.  ``delta_idx`` anchors
    the delta atom first (only when optimizing — the unoptimized
    baseline evaluates strictly left to right).
    """
    keep = frozenset(head_vars) | frozenset(neg_vars)
    all_vars: frozenset = frozenset()
    for vars in atom_vars:
        all_vars |= frozenset(vars)
    quantify = all_vars - keep
    product = plan_product(
        [frozenset(v) for v in atom_vars],
        quantify,
        estimates,
        weight,
        anchor=delta_idx if optimize else None,
        optimize=optimize,
    )
    neg_drop = tuple(sorted((keep & all_vars) - frozenset(head_vars)))
    ren = tuple(
        (v, n) for v, n in zip(head_vars, head_names) if v != n
    )
    return RulePlan(delta_idx, product, neg_drop, ren)


class Planner:
    """A bounded plan cache.

    Keys are ``(shape, generation, anchor, optimize, report)``: the
    structural key of the product (or any caller-chosen hashable shape),
    the universe's plan generation (bumped by
    :meth:`Universe.invalidate_plans`), the anchored
    part, and whether the caller reports the plan (EXPLAIN or
    telemetry).  The estimate thunk is only invoked on a miss, and only
    for a plan with a choice (:func:`has_choice`) or one to be
    reported, so cached evaluation — and every unreported plan fixed by
    its shape — pays no ``satcount`` cost.
    """

    def __init__(self, optimize: bool = True, max_entries: int = 512) -> None:
        self.optimize = optimize
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()

    def _estimates(self, n_parts, anchor, estimate_fn, report):
        # The satcount/node-count walks only pay off when they can
        # change the plan, or when the plan will be reported.
        if report or has_choice(n_parts, anchor, self.optimize):
            return estimate_fn()
        return None

    def _get(self, key: tuple, build: Callable[[], object]):
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached
        self.misses += 1
        plan = build()
        self._cache[key] = plan
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return plan

    def product_plan(
        self,
        shape: tuple,
        generation: int,
        part_attrs: Sequence[frozenset],
        quantify: frozenset,
        estimate_fn: Callable[[], Sequence[Estimate]],
        weight: Callable[[str], float],
        anchor: Optional[int] = None,
        report: bool = False,
    ) -> ProductPlan:
        key = ("product", shape, generation, anchor, self.optimize, report)
        return self._get(
            key,
            lambda: plan_product(
                part_attrs, quantify,
                self._estimates(len(part_attrs), anchor, estimate_fn, report),
                weight, anchor=anchor, optimize=self.optimize,
            ),
        )

    def rule_plan(
        self,
        shape: tuple,
        generation: int,
        atom_vars: Sequence[Sequence[str]],
        head_vars: Sequence[str],
        neg_vars: Sequence[str],
        head_names: Sequence[str],
        estimate_fn: Callable[[], Sequence[Estimate]],
        weight: Callable[[str], float],
        delta_idx: Optional[int],
        report: bool = False,
    ) -> RulePlan:
        key = ("rule", shape, generation, delta_idx, self.optimize, report)
        return self._get(
            key,
            lambda: plan_rule(
                atom_vars, head_vars, neg_vars, head_names,
                self._estimates(len(atom_vars), delta_idx, estimate_fn,
                                report),
                weight, delta_idx, optimize=self.optimize,
            ),
        )

    def cache_info(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
        }
