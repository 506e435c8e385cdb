"""repro.relations.ir: the relational-algebra IR and query planner.

Every lowering layer — the mini-language interpreter and code
generator (:mod:`repro.jedd`), the fixpoint engine's rule bodies
(:mod:`repro.relations.fixpoint`) and the shell — expresses
relational computation as these IR nodes and executes them through one
cost-based planner, instead of hard-coding whatever operation order the
source happened to write.  See ``docs/PLANNER.md`` for the IR grammar,
the rewrite rules, the cost model, and the EXPLAIN output format.

Quick use::

    from repro.relations import ir

    expr = ir.product(
        (ir.leaf("assign", ("v", "w")), ir.leaf("pt", ("w", "o"))),
        quantify=("w",),
    )
    result = expr.evaluate({"assign": assign, "pt": pt}, universe)
"""

from repro.relations.ir.execute import (
    EvalContext,
    PlanReport,
    default_weight,
    evaluate,
    reporting,
    run_product_plan,
)
from repro.relations.ir.explain import format_reports, static_reports
from repro.relations.ir.nodes import (
    AGGREGATES,
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
    aggregate,
    copy,
    diff,
    filter,
    intersect,
    leaf,
    match,
    positional_join,
    product,
    project,
    rename,
    replace,
    to_source,
    union,
)
from repro.relations.ir.planner import (
    Estimate,
    Planner,
    PlanStep,
    ProductPlan,
    RulePlan,
    estimate_aggregate,
    estimate_plan,
    has_choice,
    plan_product,
    plan_rule,
)

__all__ = [
    "AGGREGATES",
    "Aggregate",
    "Copy",
    "Diff",
    "Estimate",
    "EvalContext",
    "Filter",
    "Intersect",
    "Leaf",
    "Match",
    "Node",
    "PlanReport",
    "PlanStep",
    "Planner",
    "Product",
    "ProductPlan",
    "Project",
    "Rename",
    "Replace",
    "RulePlan",
    "Union",
    "aggregate",
    "copy",
    "default_weight",
    "diff",
    "estimate_aggregate",
    "estimate_plan",
    "evaluate",
    "filter",
    "format_reports",
    "has_choice",
    "intersect",
    "leaf",
    "match",
    "plan_product",
    "plan_rule",
    "positional_join",
    "product",
    "project",
    "rename",
    "reporting",
    "replace",
    "run_product_plan",
    "static_reports",
    "to_source",
    "union",
]
