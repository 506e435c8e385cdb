"""Semi-naive fixed-point evaluation of relational rules (section 5).

The paper's proof-of-concept analyses are mutually recursive relational
equations solved to a fixed point.  Instead of the naive ``while
changed`` loops that re-join the *entire* relation every iteration,
this module provides a small saturation engine: an analysis declares
rules over relations, e.g. ::

    eng = FixpointEngine(universe)
    eng.fact("new", new_rel)
    eng.fact("assign", assign_rel)       # assign(dst, src)
    eng.relation("pt", new_rel)          # seeded with the base case
    eng.rule("pt", ("v", "o"), [("assign", ("v", "w")),
                                ("pt", ("w", "o"))])
    pt = eng.solve()["pt"]

and the engine runs them with *semi-naive* (delta) evaluation: each
iteration re-evaluates a rule once per recursive body atom, with that
occurrence bound to the tuples discovered in the previous round (the
delta) and the remaining occurrences bound to the current full
relation.  Anything new is unioned in and becomes the next delta; the
engine terminates when every delta is empty.  Because every combination
of tuples with at least one delta tuple is covered by some occurrence
binding, this derives exactly the tuples the naive loop would — the
differential test suite checks that tuple-for-tuple on both backends.

Rule bodies are lowered to the query planner
(:mod:`repro.relations.ir`): each rule becomes one planned n-ary
product — conjuncts reordered by estimated cost, the delta atom
anchored first, dead variables quantified out at the earliest step —
executed through :meth:`Relation.compose_pipeline`, so on the BDD
backend each planned step is still one fused ``and_exist`` kernel call
over the (small) delta instead of a join + projection over the full
relation.  Plans are cached per (rule shape, delta binding, universe
plan generation); pass ``optimize=False`` to keep the source's
left-to-right conjunct order (the baseline the differential suite
compares against).

Rule syntax
-----------

A rule is ``head ← body``: the head names a recursive relation with a
variable for each attribute, the body is a list of atoms.  Atom
variables are given positionally (``("pt", ("w", "o"))``) or by
attribute name (``("pt", {"var": "w", "obj": "o"})`` — useful when a
relation's attribute order is not fixed).  Repeating a variable across
atoms expresses a join.  A ``"!"`` prefix negates an atom
(``("!declared", ("t", "s"))``): negation is stratified and only
allowed against static facts, and every variable of a negated atom must
be bound by a positive atom.  Monotonicity is structural — rules can
only add tuples — so termination follows from the finite domains.

Per-relation *filters* (:meth:`FixpointEngine.filter`) intersect every
round of derived tuples with a fixed relation, e.g. the declared-type
filter of the points-to analysis.

Telemetry: when a telemetry session is active, the engine emits
``fixpoint.solve`` / ``fixpoint.iteration`` / ``fixpoint.rule`` spans
(category ``"fixpoint"``) carrying the iteration number, per-relation
delta sizes, and — through the tracer's kernel-counter delta source —
the apply-cache and node-creation costs of each rule body.

Incremental maintenance
-----------------------

After an initial :meth:`FixpointEngine.solve`, the engine is a
*standing query*: :meth:`~FixpointEngine.insert` and
:meth:`~FixpointEngine.retract` update the base facts (or seeds) and
maintain every derived relation by DRed-style delete/rederive:

1. **over-delete** — rule bodies are re-evaluated with one occurrence
   bound to the retracted tuples (for facts appearing negated, to the
   *inserted* tuples that newly block a derivation); anything a rule
   could have derived through a lost tuple becomes a deletion
   candidate, propagated per-rule-delta through the recursive relations
   against the pre-update solution;
2. **rederive** — each candidate that still has a derivation from the
   surviving tuples (found by planning the rule body with the deleted
   set as an extra, delta-anchored conjunct over the head variables) is
   put back;
3. **grow** — insertions (and rederivations, and derivations newly
   unblocked by retractions from negated facts) seed the ordinary
   semi-naive loop, which runs to the new fixed point.

The result is bit-identical to a from-scratch :meth:`solve` over the
updated facts, at a cost proportional to the changed tuples rather
than the whole universe — the differential suite asserts the equality,
``benchmarks/test_incremental.py`` the >=10x kernel-work reduction.
Update phases emit ``incremental.update`` / ``incremental.overdelete``
/ ``incremental.rederive`` / ``incremental.grow`` spans (category
``"incremental"``), and the per-update counters land in the telemetry
gauges as ``incremental.*``.

The ``fix { ... }`` block
-------------------------

The Jedd mini-language's ``fix`` block is saturated by
:func:`saturate`, the same delta loop over opaque rule evaluations: the
interpreter, jeddc's generated code and the shell each pass it one
closure per occurrence of a fixed variable and let it run the rounds.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import telemetry as _telemetry
from repro.relations.domain import JeddError, Universe
from repro.relations.policy import ExecutionPolicy
from repro.relations.ir.execute import (
    PlanReport,
    _schema_sig,
    default_weight,
    reporting,
    run_product_plan,
)
from repro.relations.ir.planner import (
    Estimate,
    Planner,
    RulePlan,
)
from repro.relations.relation import Relation

__all__ = [
    "Atom",
    "ExecutionPolicy",
    "Rule",
    "FixpointEngine",
    "execute_rule_plan",
    "rule_shape",
    "saturate",
]

#: One evaluation of a ``fix`` block: ``(target, bound, evaluate)``.
#: ``bound`` names the fixed variable whose occurrence ``evaluate``
#: binds to the delta it is passed, or is None for a static rule
#: (evaluated once, with ``None``).
FixUnit = Tuple[str, Optional[str], Callable[[Optional[Relation]], Relation]]


class Atom:
    """One body or head literal: a relation name with rule variables."""

    __slots__ = ("name", "vars", "negated")

    def __init__(
        self, name: str, vars: Sequence[str], negated: bool = False
    ) -> None:
        self.name = name
        self.vars = tuple(vars)
        self.negated = negated
        if len(set(self.vars)) != len(self.vars):
            raise JeddError(
                f"atom {self!r}: repeated variable (use copy() to "
                "express diagonals)"
            )

    def __repr__(self) -> str:
        bang = "!" if self.negated else ""
        return f"{bang}{self.name}({', '.join(self.vars)})"


class Rule:
    """``head ← positive atoms ∧ negated atoms``."""

    __slots__ = ("head", "positive", "negated", "recursive_positions",
                 "label")

    def __init__(
        self,
        head: Atom,
        positive: Sequence[Atom],
        negated: Sequence[Atom],
        recursive_positions: Sequence[int],
    ) -> None:
        self.head = head
        self.positive = tuple(positive)
        self.negated = tuple(negated)
        #: Indices into ``positive`` of atoms over recursive relations;
        #: the semi-naive loop evaluates the rule once per entry.
        self.recursive_positions = tuple(recursive_positions)
        body = ", ".join(repr(a) for a in self.positive + self.negated)
        #: ``head :- body`` text, for spans, reports and errors.
        self.label = f"{self.head!r} :- {body}"

    def __repr__(self) -> str:
        return f"Rule({self.label})"


def rule_shape(rule: Rule, head_names: Sequence[str]) -> tuple:
    """The structural key a rule body plans under: everything the plan
    depends on except the estimates — positive atoms (relation name and
    variables, in source order), head variables and declared names, and
    the negated atoms' variables."""
    return (
        tuple((a.name, a.vars) for a in rule.positive),
        rule.head.vars,
        tuple(head_names),
        _neg_vars(rule),
    )


def _neg_vars(rule: Rule) -> Tuple[str, ...]:
    seen = set()
    for atom in rule.negated:
        seen.update(atom.vars)
    return tuple(sorted(seen))


def _run_rule_plan(
    rule: Rule,
    plan: RulePlan,
    rels: Sequence[Relation],
    neg_value: Callable[[Atom], Relation],
    label: str = "",
    collect: Optional[List[PlanReport]] = None,
    memo: Optional[dict] = None,
    place: Optional[Mapping[str, object]] = None,
) -> Relation:
    """Execute a planned rule body against its bound atom relations.

    ``place`` (rule variable -> the head relation's declared physical
    domain, as a domain or its name) steers the product's last
    alignment so the body lands in the head's domains.  ``memo`` (when
    given) is a common-subexpression cache shared across rule bodies:
    the planned product is keyed by (plan, placement, the input
    relations' diagram nodes and physical-domain placements), so two
    rules — or two delta bindings — computing the same product over the
    same inputs evaluate it once.
    """
    mkey = None
    cur = None
    if memo is not None:
        mkey = (
            plan.product,
            tuple(place.items()) if place else (),
            tuple((r.node, _schema_sig(r)) for r in rels),
        )
        cur = memo.get(mkey)
    if cur is None:
        cur = run_product_plan(
            rels,
            plan.product,
            label=label,
            part_labels=[repr(a) for a in rule.positive],
            collect=collect,
            place=place,
        )
        if memo is not None:
            memo[mkey] = cur
    for atom in rule.negated:
        neg = neg_value(atom)
        cur = cur - cur.join(neg, list(atom.vars), list(atom.vars))
    if plan.neg_drop:
        cur = cur.project_away(*plan.neg_drop)
    mapping = dict(plan.rename)
    return cur.rename(mapping) if mapping else cur


def execute_rule_plan(
    rule: Rule,
    plan: RulePlan,
    atom_value: Callable[[Atom, bool], Relation],
    neg_value: Callable[[Atom], Relation],
    label: str = "",
    collect: Optional[List[PlanReport]] = None,
    memo: Optional[dict] = None,
    place: Optional[Mapping[str, object]] = None,
) -> Relation:
    """Evaluate one rule body under a precomputed :class:`RulePlan`; the
    shared core of :meth:`FixpointEngine.solve` and its DRed updates.

    ``atom_value(atom, use_delta)`` supplies each positive atom's
    relation renamed to the atom's rule variables (the atom at
    ``plan.delta_idx`` bound to its delta), ``neg_value(atom)`` likewise
    for negated atoms; ``place`` is the head placement (see
    :func:`_run_rule_plan`).
    """
    rels = [
        atom_value(atom, plan.delta_idx == i)
        for i, atom in enumerate(rule.positive)
    ]
    return _run_rule_plan(
        rule, plan, rels, neg_value,
        label=label, collect=collect, memo=memo, place=place,
    )


def saturate(
    values: Mapping[str, Relation],
    units: Sequence[FixUnit],
    store: Callable[[str, Relation], None],
) -> int:
    """Saturate a ``fix`` block's ``|=`` rules semi-naively; the one loop
    behind the interpreter, jeddc's generated code and the shell.

    ``values`` maps each fixed variable to its current value, in
    declaration order; all of it is the first round's delta.  Each
    iteration calls every unit whose bound variable has a non-empty
    delta with that delta (static units only in iteration 1), unions
    the results per target in unit order, keeps what is new as the next
    delta and passes each grown relation to ``store``; it stops after
    a round that finds nothing new.  Returns the number of iterations;
    each opens one ``fix.iteration`` span carrying the delta sizes it
    started from.
    """
    tel = _telemetry.active()
    order = list(values)
    full = dict(values)
    delta = dict(full)  # iteration 1: everything is fresh
    iteration = 0
    # Iteration 1 always runs, so static rules fire even when every
    # target starts empty.
    while iteration == 0 or any(not delta[t].is_empty() for t in order):
        iteration += 1
        span_args: Dict[str, object] = {"iteration": iteration}
        if tel.enabled:
            for t in order:
                span_args[f"delta_{t}"] = delta[t].size()
        with tel.span("fix.iteration", cat="fixpoint", **span_args):
            acc: Dict[str, Relation] = {}
            for target, bound, evaluate in units:
                if bound is None:
                    if iteration > 1:
                        continue
                    out = evaluate(None)
                elif delta[bound].is_empty():
                    continue
                else:
                    out = evaluate(delta[bound])
                prev = acc.get(target)
                acc[target] = out if prev is None else prev | out
            for t in order:
                contrib = acc.get(t)
                if contrib is None:
                    delta[t] = full[t] - full[t]
                    continue
                delta[t] = contrib - full[t]
                if not delta[t].is_empty():
                    full[t] = full[t] | delta[t]
                    store(t, full[t])
    return iteration


class FixpointEngine:
    """Declare rules over relations; solve them semi-naively.

    ``policy`` (an :class:`~repro.relations.policy.ExecutionPolicy`, or
    its ``"seminaive"`` shorthand) selects how each semi-naive round
    evaluates its rule bodies, which run one after another.

    ``policy.optimize=False`` turns the query planner's conjunct
    reordering and early quantification off — rule bodies evaluate
    strictly left to right with all projection at the end, the baseline
    the differential suite compares the planner against.
    ``policy.collect_plans=True`` records one :class:`PlanReport` per
    executed rule body on :attr:`plan_reports` (estimated and actual
    per-step costs — the shell's ``explain`` output).
    """

    def __init__(
        self,
        universe: Universe,
        policy: Optional["ExecutionPolicy | str"] = None,
    ) -> None:
        policy = ExecutionPolicy.of(policy)
        self.universe = universe
        #: The resolved execution policy this engine runs under.
        self.policy = policy
        self.optimize = policy.optimize
        self._planner = Planner(optimize=policy.optimize)
        self._weight = default_weight(universe)
        self._memo: Optional[dict] = None
        #: Executed-plan reports of the last :meth:`solve` (only
        #: recorded when ``collect_plans`` is set).
        self.collect_plans = policy.collect_plans
        self.plan_reports: List[PlanReport] = []
        self._facts: Dict[str, Relation] = {}
        self._seeds: Dict[str, Relation] = {}
        self._filters: Dict[str, Relation] = {}
        self._rules: List[Rule] = []
        self._order: List[str] = []  # recursive relations, declaration order
        self._full: Dict[str, Relation] = {}
        self._delta: Dict[str, Relation] = {}
        self._solved = False
        #: Number of semi-naive iterations of the last :meth:`solve`.
        self.iterations = 0
        #: Number of rule-body evaluations of the last :meth:`solve`.
        self.rule_evaluations = 0
        #: Counter snapshot of the last :meth:`update` (deleted /
        #: rederived / inserted tuple counts, phase iterations, kernel
        #: work), else None.
        self.last_update_stats: Optional[dict] = None

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _check_rel(self, name: str, rel: Relation) -> Relation:
        if not isinstance(rel, Relation):
            raise TypeError(f"{name!r}: not a relation: {rel!r}")
        if rel.universe is not self.universe:
            raise JeddError(
                f"{name!r}: relation belongs to a different universe"
            )
        return rel

    def fact(self, name: str, rel: Relation) -> None:
        """Register a static relation the rules may read."""
        if name in self._facts or name in self._seeds:
            raise JeddError(f"relation {name!r} already registered")
        self._facts[name] = self._check_rel(name, rel)

    def relation(self, name: str, seed: Relation) -> None:
        """Register a recursive relation, seeded with ``seed``.

        The seed is the base case; rules may grow the relation from
        there.  The seed also fixes the relation's schema (attribute
        order and physical domains) for the solution.
        """
        if name in self._facts or name in self._seeds:
            raise JeddError(f"relation {name!r} already registered")
        self._seeds[name] = self._check_rel(name, seed)
        self._order.append(name)

    def filter(self, name: str, rel: Relation) -> None:
        """Intersect every round of tuples derived for ``name`` with
        ``rel`` (e.g. the paper's declared-type filter)."""
        if name not in self._seeds:
            raise JeddError(f"filter: no recursive relation {name!r}")
        self._filters[name] = self._check_rel(name, rel)

    def _schema_of(self, name: str) -> "Relation":
        # Explicit None checks: an *empty* seed relation is falsy.
        rel = self._seeds.get(name)
        if rel is None:
            rel = self._facts.get(name)
        if rel is None:
            raise JeddError(
                f"unknown relation {name!r} (register relations and "
                "facts before the rules that use them)"
            )
        return rel

    def _parse_atom(self, spec) -> Atom:
        if isinstance(spec, Atom):
            return spec
        name, vars = spec
        negated = name.startswith("!")
        if negated:
            name = name[1:]
        rel = self._schema_of(name)
        if isinstance(vars, Mapping):
            names = rel.schema.names()
            missing = set(names) ^ set(vars)
            if missing:
                raise JeddError(
                    f"atom {name!r}: variable mapping must cover exactly "
                    f"the attributes {list(names)} (mismatch: "
                    f"{sorted(missing)})"
                )
            vars = tuple(vars[n] for n in names)
        vars = tuple(vars)
        if len(vars) != len(rel.schema):
            raise JeddError(
                f"atom {name!r}: {len(vars)} variables for "
                f"{len(rel.schema)} attributes"
            )
        # Auto-declare each rule variable as an attribute over the
        # matching domain; a clash means the variable is used at two
        # incompatible positions.
        for var, (attr, _) in zip(vars, rel.schema.pairs):
            self.universe.attribute(var, attr.domain)
        return Atom(name, vars, negated)

    def rule(self, head_name: str, head_vars, body: Iterable) -> Rule:
        """Add ``head_name(head_vars) ← body`` (see the module docs)."""
        if head_name not in self._seeds:
            raise JeddError(
                f"rule head {head_name!r} is not a recursive relation"
            )
        head = self._parse_atom((head_name, head_vars))
        positive: List[Atom] = []
        negated: List[Atom] = []
        for spec in body:
            atom = self._parse_atom(spec)
            (negated if atom.negated else positive).append(atom)
        if not positive:
            raise JeddError(f"rule for {head_name!r} has no positive atom")
        bound = set()
        for atom in positive:
            bound.update(atom.vars)
        unbound = set(head.vars) - bound
        if unbound:
            raise JeddError(
                f"head variables {sorted(unbound)} not bound by any "
                "positive atom"
            )
        for atom in negated:
            if atom.name not in self._facts:
                raise JeddError(
                    f"negated atom {atom!r} must reference a static fact "
                    "(stratified negation)"
                )
            loose = set(atom.vars) - bound
            if loose:
                raise JeddError(
                    f"negated atom {atom!r}: variables {sorted(loose)} "
                    "not bound by any positive atom"
                )
        recursive_positions = [
            i for i, atom in enumerate(positive) if atom.name in self._seeds
        ]
        rule = Rule(head, positive, negated, recursive_positions)
        self._rules.append(rule)
        return rule

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _rename_to_vars(self, rel: Relation, atom: Atom) -> Relation:
        # Positional correspondence uses the *declared* schema order
        # (the seed/fact registered for the name): derived deltas can
        # carry the same attributes in a different order.
        names = self._schema_of(atom.name).schema.names()
        mapping = {
            n: v for n, v in zip(names, atom.vars) if n != v
        }
        return rel.rename(mapping) if mapping else rel

    def _atom_value(self, atom: Atom, use_delta: bool) -> Relation:
        if atom.name in self._full:
            rel = self._delta[atom.name] if use_delta else \
                self._full[atom.name]
        else:
            rel = self._facts[atom.name]
        return self._rename_to_vars(rel, atom)

    def _neg_value(self, atom: Atom) -> Relation:
        return self._rename_to_vars(self._facts[atom.name], atom)

    def _rule_plan(
        self,
        rule: Rule,
        delta_idx: Optional[int],
        atom_value: Optional[Callable[[Atom, bool], Relation]] = None,
    ) -> RulePlan:
        """The (cached) plan for one rule body with the given delta
        binding; estimates are taken from the current delta/full/fact
        values (or the supplied ``atom_value`` binding), but only when
        the plan cache misses and the plan has a choice or will be
        reported."""
        head_names = self._schema_of(rule.head.name).schema.names()
        value = atom_value if atom_value is not None else self._atom_value

        def estimates() -> List[Estimate]:
            return [
                Estimate(float(r.size()), float(r.node_count()))
                for r in (
                    value(atom, delta_idx == i)
                    for i, atom in enumerate(rule.positive)
                )
            ]

        return self._planner.rule_plan(
            rule_shape(rule, head_names),
            self.universe.plan_generation,
            [a.vars for a in rule.positive],
            rule.head.vars,
            _neg_vars(rule),
            head_names,
            estimates,
            self._weight,
            delta_idx,
            report=self.collect_plans or reporting(),
        )

    def _eval_rule(
        self, rule: Rule, delta_idx: Optional[int]
    ) -> Relation:
        """One rule body, with positive atom ``delta_idx`` (if any)
        bound to its delta and the others to the current full values."""
        return execute_rule_plan(
            rule,
            self._rule_plan(rule, delta_idx),
            self._atom_value,
            self._neg_value,
            label=rule.label,
            collect=self.plan_reports if self.collect_plans else None,
            memo=self._memo,
            place=self._head_place(rule),
        )

    def _head_place(self, rule: Rule) -> Dict[str, object]:
        head = self._schema_of(rule.head.name).schema.pairs
        return {v: pd for v, (_, pd) in zip(rule.head.vars, head)}

    def _apply_filter(self, name: str, rel: Relation) -> Relation:
        flt = self._filters.get(name)
        return rel & flt if flt is not None else rel

    def _empty_like(self, name: str) -> Relation:
        full = self._full[name]
        names = list(full.schema.names())
        return Relation.empty(
            self.universe,
            [full.schema.attribute(n) for n in names],
            [full.schema.physdom(n) for n in names],
        )

    def solve(self) -> Dict[str, Relation]:
        """Run the rules to the least fixed point; returns the solution
        relations keyed by name (also kept on the engine)."""
        tel = _telemetry.active()
        self.iterations = 0
        self.rule_evaluations = 0
        self.plan_reports = []
        with tel.span(
            "fixpoint.solve",
            cat="fixpoint",
            rules=len(self._rules),
            relations=list(self._order),
        ):
            for name in self._order:
                self._full[name] = self._apply_filter(
                    name, self._seeds[name]
                )
            # Rules with no recursive body atom derive a fixed set:
            # evaluate them once, before the loop.
            static_rules = [
                r for r in self._rules if not r.recursive_positions
            ]
            self._memo = {}
            try:
                for rule in static_rules:
                    self.rule_evaluations += 1
                    with tel.span("fixpoint.rule", cat="fixpoint",
                                  rule=rule.label, iteration=0):
                        out = self._apply_filter(
                            rule.head.name, self._eval_rule(rule, None)
                        )
                    self._full[rule.head.name] = \
                        self._full[rule.head.name] | out
            finally:
                self._memo = None
            for name in self._order:
                self._delta[name] = self._full[name]
            while any(
                not self._delta[n].is_empty() for n in self._order
            ):
                self.iterations += 1
                self._iterate(tel)
        self._solved = True
        return dict(self._full)

    def _evaluate_rules(self, tel, it: int) -> Dict[str, Relation]:
        """One round of rule-body evaluations: each rule once per
        recursive body atom whose delta is non-empty."""
        acc: Dict[str, Relation] = {}
        for rule in self._rules:
            for pos in rule.recursive_positions:
                delta = self._delta[rule.positive[pos].name]
                if delta.is_empty():
                    continue
                self.rule_evaluations += 1
                with tel.span(
                    "fixpoint.rule",
                    cat="fixpoint",
                    rule=rule.label,
                    delta=rule.positive[pos].name,
                    iteration=it,
                ):
                    out = self._eval_rule(rule, pos)
                prev = acc.get(rule.head.name)
                acc[rule.head.name] = (
                    out if prev is None else prev | out
                )
        return acc

    def _iterate(self, tel) -> None:
        it = self.iterations
        span_args = {"iteration": it}
        if tel.enabled:
            for name in self._order:
                span_args[f"delta_{name}"] = self._delta[name].size()
        with tel.span("fixpoint.iteration", cat="fixpoint", **span_args):
            # One lifetime scope per iteration: every intermediate the
            # rule bodies allocate dies here; only the new delta and
            # full relations are kept.
            with self.universe.scope() as scope:
                # The per-round CSE memo holds intermediates that die
                # with this scope; it must not outlive the round.
                self._memo = {}
                try:
                    acc = self._evaluate_rules(tel, it)
                finally:
                    self._memo = None
                for name in self._order:
                    contrib = acc.get(name)
                    if contrib is None:
                        fresh = self._empty_like(name)
                    else:
                        # Move the round's tuples into the relation's
                        # declared domains before the diff, so every
                        # delta has the same placement and the next
                        # round's replaces of static facts hit the cache.
                        contrib = self._full[name]._align_to(contrib)
                        contrib = self._apply_filter(name, contrib)
                        fresh = contrib - self._full[name]
                    self._delta[name] = scope.keep(fresh)
                    if not fresh.is_empty():
                        self._full[name] = scope.keep(
                            self._full[name] | fresh
                        )

    # ------------------------------------------------------------------
    # Incremental maintenance (DRed delete/rederive)
    # ------------------------------------------------------------------

    def _as_update_relation(self, name: str, value) -> Relation:
        """Coerce an update argument (a relation or an iterable of
        tuples) to a relation over ``name``'s declared schema."""
        schema_rel = self._schema_of(name)
        if isinstance(value, Relation):
            return self._check_rel(name, value)
        names = list(schema_rel.schema.names())
        pds = [schema_rel.schema.physdom(n).name for n in names]
        return Relation.from_tuples(self.universe, names, list(value), pds)

    def _edb_get(self, name: str) -> Relation:
        if name in self._seeds:
            return self._seeds[name]
        if name in self._facts:
            return self._facts[name]
        raise JeddError(f"unknown relation {name!r}")

    def _edb_set(self, name: str, rel: Relation) -> None:
        if name in self._seeds:
            self._seeds[name] = rel
        else:
            self._facts[name] = rel

    def _bound_eval(
        self,
        rule: Rule,
        idx: int,
        delta_rel: Relation,
        fulls: Mapping[str, Relation],
        facts: Mapping[str, Relation],
        label: str = "",
    ) -> Relation:
        """One rule body with positive occurrence ``idx`` bound to
        ``delta_rel`` and every other atom bound through the given
        full/fact maps (negated atoms read ``facts`` too) — the shared
        evaluator of the over-delete, rederive, and grow phases, which
        differ only in which snapshot of the solution they bind."""

        def atom_value(atom: Atom, use_delta: bool) -> Relation:
            if use_delta:
                return self._rename_to_vars(delta_rel, atom)
            if atom.name in self._seeds:
                rel = fulls[atom.name]
            else:
                rel = facts[atom.name]
            return self._rename_to_vars(rel, atom)

        def neg_value(atom: Atom) -> Relation:
            return self._rename_to_vars(facts[atom.name], atom)

        self.rule_evaluations += 1
        return execute_rule_plan(
            rule,
            self._rule_plan(rule, idx, atom_value),
            atom_value,
            neg_value,
            label=label or rule.label,
            collect=self.plan_reports if self.collect_plans else None,
            memo=self._memo,
            place=self._head_place(rule),
        )

    def _neg_trigger_eval(
        self,
        rule: Rule,
        neg_atom: Atom,
        delta_rel: Relation,
        fulls: Mapping[str, Relation],
        facts: Mapping[str, Relation],
        label: str = "",
    ) -> Relation:
        """Rule-body derivations whose *negated* atom ``neg_atom``
        matches ``delta_rel``: the derivations killed when the negated
        fact gains those tuples, or unblocked when it loses them.  The
        trigger is planned as an extra delta-anchored positive conjunct
        (its variables are all bound by the positive atoms), so the
        cost scales with the changed tuples."""
        extra = Atom(neg_atom.name, neg_atom.vars)
        others = tuple(a for a in rule.negated if a is not neg_atom)
        synth = Rule(rule.head, rule.positive + (extra,), others, ())
        return self._bound_eval(
            synth, len(rule.positive), delta_rel, fulls, facts,
            label=label or f"~{neg_atom.name}:{rule.label}",
        )

    def _rederive_eval(self, rule: Rule, deleted: Relation) -> Relation:
        """The subset of ``deleted`` head tuples this rule still
        derives from the current (post-deletion) state: the body plus
        the deleted set as a delta-anchored conjunct over the head
        variables."""
        extra = Atom(rule.head.name, rule.head.vars)
        synth = Rule(rule.head, rule.positive + (extra,), rule.negated, ())
        return self._bound_eval(
            synth, len(rule.positive), deleted, self._full, self._facts,
            label=f"rederive:{rule.label}",
        )

    def insert(self, name: str, facts) -> Dict[str, Relation]:
        """Add tuples to a base fact (or seed) relation and maintain
        every derived relation incrementally; ``facts`` is a relation
        or an iterable of tuples in the declared attribute order.
        Requires a prior :meth:`solve`."""
        return self.update(inserts={name: facts})

    def retract(self, name: str, facts) -> Dict[str, Relation]:
        """Remove tuples from a base fact (or seed) relation and
        maintain every derived relation via delete/rederive."""
        return self.update(retracts={name: facts})

    def update(
        self,
        inserts: Optional[Mapping[str, object]] = None,
        retracts: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, Relation]:
        """Apply one batch of base-fact insertions and retractions and
        bring all derived relations to the fixed point of the updated
        facts — bit-identical to a from-scratch :meth:`solve`.

        Retractions apply before insertions (a tuple named in both ends
        up present).  Returns the solution dict; phase counters land in
        :attr:`last_update_stats`.
        """
        if not self._solved:
            raise JeddError("update() requires an initial solve()")
        tel = _telemetry.active()
        mgr = self.universe.manager
        kernel0 = 0.0
        if mgr is not None:
            kernel0 = mgr.stats.nodes_created + mgr.stats.op_totals()[1]
        evals0 = self.rule_evaluations
        old_facts = dict(self._facts)
        old_full = dict(self._full)
        delta_minus: Dict[str, Relation] = {}
        delta_plus: Dict[str, Relation] = {}
        for name, value in (retracts or {}).items():
            rel = self._as_update_relation(name, value)
            d = rel & self._edb_get(name)
            if not d.is_empty():
                delta_minus[name] = d
                self._edb_set(name, self._edb_get(name) - d)
        for name, value in (inserts or {}).items():
            rel = self._as_update_relation(name, value)
            d = rel - self._edb_get(name)
            if not d.is_empty():
                delta_plus[name] = d
                self._edb_set(name, self._edb_get(name) | d)
        stats: Dict[str, float] = {
            "inserted_base": float(
                sum(d.size() for d in delta_plus.values())
            ),
            "retracted_base": float(
                sum(d.size() for d in delta_minus.values())
            ),
            "deleted": 0.0,
            "rederived": 0.0,
            "delete_iterations": 0.0,
            "grow_iterations": 0.0,
            "updates": 1.0,
        }
        self.last_update_stats = stats
        if not delta_plus and not delta_minus:
            stats["rule_evaluations"] = 0.0
            stats["kernel_work"] = 0.0
            return dict(self._full)
        with tel.span(
            "incremental.update",
            cat="incremental",
            inserted=int(stats["inserted_base"]),
            retracted=int(stats["retracted_base"]),
            relations=sorted(set(delta_plus) | set(delta_minus)),
        ):
            deleted = self._overdelete(
                delta_plus, delta_minus, old_full, old_facts, tel, stats
            )
            for name, d in deleted.items():
                if not d.is_empty():
                    self._full[name] = self._full[name] - d
            self._regrow(delta_plus, delta_minus, deleted, tel, stats)
        stats["rule_evaluations"] = float(self.rule_evaluations - evals0)
        if mgr is not None:
            stats["kernel_work"] = (
                mgr.stats.nodes_created + mgr.stats.op_totals()[1] - kernel0
            )
        if tel.enabled:
            tel.record_gauges(stats, prefix="incremental")
        return dict(self._full)

    def _overdelete(
        self,
        delta_plus: Mapping[str, Relation],
        delta_minus: Mapping[str, Relation],
        old_full: Mapping[str, Relation],
        old_facts: Mapping[str, Relation],
        tel,
        stats: Dict[str, float],
    ) -> Dict[str, Relation]:
        """DRed phase 1: everything that *might* have lost its last
        derivation.  Direct kills come from retracted seed tuples,
        retracted facts bound at each positive occurrence, and inserted
        tuples of negated facts; kills then propagate per rule delta
        through the recursive relations, always joining against the
        pre-update solution (``old_full``/``old_facts``)."""
        D = {n: self._empty_like(n) for n in self._order}
        frontier = {n: self._empty_like(n) for n in self._order}
        with tel.span("incremental.overdelete", cat="incremental"):
            self._memo = {}
            try:
                for name, d in delta_minus.items():
                    if name in self._seeds:
                        frontier[name] = frontier[name] | (
                            d & old_full[name]
                        )
                for rule in self._rules:
                    head = rule.head.name
                    for i, atom in enumerate(rule.positive):
                        if atom.name in self._seeds:
                            continue
                        d = delta_minus.get(atom.name)
                        if d is None:
                            continue
                        out = self._bound_eval(
                            rule, i, d, old_full, old_facts,
                            label=f"kill:{rule.label}",
                        )
                        frontier[head] = frontier[head] | (
                            out & old_full[head]
                        )
                    for atom in rule.negated:
                        d = delta_plus.get(atom.name)
                        if d is None:
                            continue
                        out = self._neg_trigger_eval(
                            rule, atom, d, old_full, old_facts,
                            label=f"kill~{atom.name}:{rule.label}",
                        )
                        frontier[head] = frontier[head] | (
                            out & old_full[head]
                        )
                while True:
                    for n in self._order:
                        frontier[n] = frontier[n] - D[n]
                    if all(frontier[n].is_empty() for n in self._order):
                        break
                    stats["delete_iterations"] += 1.0
                    for n in self._order:
                        D[n] = D[n] | frontier[n]
                    nxt = {n: self._empty_like(n) for n in self._order}
                    for rule in self._rules:
                        head = rule.head.name
                        for pos in rule.recursive_positions:
                            src = rule.positive[pos].name
                            if frontier[src].is_empty():
                                continue
                            out = self._bound_eval(
                                rule, pos, frontier[src],
                                old_full, old_facts,
                                label=f"kill+:{rule.label}",
                            )
                            nxt[head] = nxt[head] | (
                                out & old_full[head]
                            )
                    frontier = nxt
            finally:
                self._memo = None
        stats["deleted"] = float(sum(D[n].size() for n in self._order))
        return D

    def _regrow(
        self,
        delta_plus: Mapping[str, Relation],
        delta_minus: Mapping[str, Relation],
        deleted: Mapping[str, Relation],
        tel,
        stats: Dict[str, float],
    ) -> None:
        """DRed phases 2+3: rederive over-deleted tuples that survive
        on the updated facts, then run the ordinary semi-naive loop
        seeded with the rederivations, the insertions, and the
        derivations newly unblocked by retractions from negated
        facts."""
        grown = {n: self._empty_like(n) for n in self._order}
        with tel.span("incremental.rederive", cat="incremental"):
            self._memo = {}
            try:
                for n in self._order:
                    if deleted[n].is_empty():
                        continue
                    back = self._apply_filter(
                        n, deleted[n] & self._seeds[n]
                    )
                    grown[n] = grown[n] | back
                for rule in self._rules:
                    head = rule.head.name
                    if deleted[head].is_empty():
                        continue
                    out = self._rederive_eval(rule, deleted[head])
                    grown[head] = grown[head] | self._apply_filter(
                        head, out
                    )
            finally:
                self._memo = None
        stats["rederived"] = float(
            sum((grown[n] & deleted[n]).size() for n in self._order)
        )
        with tel.span("incremental.grow", cat="incremental"):
            self._memo = {}
            try:
                for name, d in delta_plus.items():
                    if name in self._seeds:
                        grown[name] = grown[name] | self._apply_filter(
                            name, d
                        )
                for rule in self._rules:
                    head = rule.head.name
                    for i, atom in enumerate(rule.positive):
                        if atom.name in self._seeds:
                            continue
                        d = delta_plus.get(atom.name)
                        if d is None:
                            continue
                        out = self._bound_eval(
                            rule, i, d, self._full, self._facts,
                            label=f"grow:{rule.label}",
                        )
                        grown[head] = grown[head] | self._apply_filter(
                            head, out
                        )
                    for atom in rule.negated:
                        d = delta_minus.get(atom.name)
                        if d is None:
                            continue
                        out = self._neg_trigger_eval(
                            rule, atom, d, self._full, self._facts,
                            label=f"grow~{atom.name}:{rule.label}",
                        )
                        grown[head] = grown[head] | self._apply_filter(
                            head, out
                        )
            finally:
                self._memo = None
            for n in self._order:
                fresh = grown[n] - self._full[n]
                self._delta[n] = fresh
                if not fresh.is_empty():
                    self._full[n] = self._full[n] | fresh
            while any(
                not self._delta[n].is_empty() for n in self._order
            ):
                stats["grow_iterations"] += 1.0
                self.iterations += 1
                self._iterate(tel)

    def __getitem__(self, name: str) -> Relation:
        """The current value of a recursive relation or fact."""
        if name in self._full:
            return self._full[name]
        if name in self._seeds:
            return self._seeds[name]
        return self._facts[name]
