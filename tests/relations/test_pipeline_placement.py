"""Head-directed placement in ``Relation.compose_pipeline``.

Each pipeline step moves either the operand into the running result's
physical domains or the running result into the operand's, whichever
moves fewer bits; ``place`` adds, on the last step, the bits the result
would still need to reach the consumer's domains.  Placement must never
change the answer.  On every kernel (reference, ooc, ZDD)
random 1-3 step pipelines over randomly placed relations must give the
same tuples with a random ``place``, with ``place=None`` and as the
join-then-project fold.  The result must land in ``place`` wherever the
chosen alignment leaves it free to.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relations import Relation, Universe

OBJECTS = ["o0", "o1", "o2", "o3", "o4"]
NAMES = ["a", "b", "c", "d", "e", "f"]
PHYSDOMS = ["P1", "P2", "P3", "P4", "P5", "P6"]

KERNELS = {
    "reference": dict(backend="bdd", kernel="reference"),
    "ooc": dict(backend="bdd", kernel="ooc"),
    "zdd": dict(backend="zdd"),
}


def make_universe(kernel):
    u = Universe(**KERNELS[kernel])
    d = u.domain("D", len(OBJECTS))
    for obj in OBJECTS:
        d.intern(obj)
    for name in NAMES:
        u.attribute(name, d)
    for pd in PHYSDOMS:
        u.physical_domain(pd, d.bits)
    u.finalize()
    return u


@st.composite
def relation_spec(draw, names):
    pds = draw(st.permutations(PHYSDOMS))[: len(names)]
    rows = draw(st.sets(
        st.tuples(*[st.sampled_from(OBJECTS) for _ in names]), max_size=10
    ))
    return list(names), pds, rows


@st.composite
def pipelines(draw):
    """``(base, steps, place)``: relation specs and ``(spec, on, drop)``
    steps that respect compose_pipeline's contract, and a random
    placement of the result's attributes."""
    fresh = list(draw(st.permutations(NAMES)))
    cur = [fresh.pop() for _ in range(draw(st.integers(1, 2)))]
    base = draw(relation_spec(cur))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        on = draw(st.lists(
            st.sampled_from(cur), min_size=1, max_size=2, unique=True
        ))
        new = [fresh.pop() for _ in range(draw(st.integers(0, 1)))
               if fresh]
        combined = cur + new
        drop = draw(st.lists(
            st.sampled_from(combined), max_size=len(combined) - 1,
            unique=True,
        ))
        steps.append((draw(relation_spec(on + new)), on, drop))
        cur = [n for n in combined if n not in drop]
    place = {
        n: pd
        for n, pd in zip(cur, draw(st.lists(
            st.sampled_from(PHYSDOMS + [None]),
            min_size=len(cur), max_size=len(cur),
        )))
        if pd is not None
    }
    return base, steps, place


def build(u, spec):
    names, pds, rows = spec
    return Relation.from_tuples(u, names, rows, pds)


def as_dicts(rel):
    names = rel.schema.names()
    return {frozenset(zip(names, row)) for row in rel.tuples()}


def placement(rel):
    return {attr.name: pd.name for attr, pd in rel.schema.pairs}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(max_examples=40, deadline=None)
@given(case=pipelines())
def test_placement_never_changes_tuples(kernel, case):
    base_spec, step_specs, place = case
    u = make_universe(kernel)
    base = build(u, base_spec)
    steps = [(build(u, spec), on, drop) for spec, on, drop in step_specs]

    fold = base
    for other, on, drop in steps:
        fold = fold.join(other, on, on)
        if drop:
            fold = fold.project_away(*drop)
    unplaced = base.compose_pipeline(steps)
    placed = base.compose_pipeline(steps, place)
    assert as_dicts(placed) == as_dicts(unplaced) == as_dicts(fold)

    # Asked for where it lands anyway, the result stays there.
    assert placement(
        base.compose_pipeline(steps, placement(unplaced))
    ) == placement(unplaced)

    # An attribute the last step moves out of a taken domain goes to
    # its place domain when no input of that step holds it.
    prev = base.compose_pipeline(steps[:-1]) if steps[:-1] else base
    other, on, _ = steps[-1]
    taken = set(placement(prev).values()) | set(placement(other).values())
    got = placement(placed)
    for name, pd in got.items():
        source = prev if name in prev.schema else other
        want = place.get(name)
        others = {v for n, v in got.items() if n != name}
        if (
            want is not None
            and name not in on
            and pd != source.schema.physdom(name).name
            and want not in taken | others
        ):
            assert pd == want, (name, got, place)
