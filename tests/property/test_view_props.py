"""Property: a materialized view always equals its plan run now.

After random DML on the sources — including rebinding a source to a
fresh object at the same version — ``view.relation()`` must equal
``plan.compute(...)`` over the current sources, under every view
operator and every preemption strategy.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import HRelation, NO_PREEMPTION, OFF_PATH, ON_PATH
from repro.core.views import MaterializedView, ViewPlan
from repro.errors import AmbiguityError, InconsistentRelationError
from tests.property.strategies import pair_of_relations, relations, repair

OPS = ("select", "union", "intersection", "difference", "join", "divide")
STRATEGIES = (OFF_PATH, ON_PATH, NO_PREEMPTION)
UNDECIDABLE = (AmbiguityError, InconsistentRelationError)


def _draw_item(relation: HRelation, data) -> tuple:
    return tuple(data.draw(st.sampled_from(h.nodes())) for h in relation.schema.hierarchies)


def _fill(relation: HRelation, data) -> HRelation:
    for _ in range(data.draw(st.integers(0, 3))):
        relation.assert_item(
            _draw_item(relation, data), truth=data.draw(st.booleans()), replace=True
        )
    repair(relation)
    return relation


def _sources(op: str, pair, data) -> list:
    if op == "select":
        return [pair[0]]
    if op == "divide":
        dividend = data.draw(relations(arity=2, max_tuples=4, name="dividend"))
        shared = dividend.schema.attributes[1]
        divisor = HRelation(
            [(shared, dividend.schema.hierarchy_for(shared))], name="divisor"
        )
        return [dividend, _fill(divisor, data)]
    return list(pair)


def _replacement(source: HRelation, data) -> HRelation:
    """A fresh object holding other tuples at ``source``'s version."""
    fresh = _fill(
        HRelation(source.schema, name=source.name, strategy=source.strategy), data
    )
    fresh.load_tuples(list(fresh.asserted.items()), version=source.version)
    return fresh


@settings(max_examples=150, deadline=None)
@given(
    pair=pair_of_relations(max_tuples=4),
    op=st.sampled_from(OPS),
    strategy=st.sampled_from(STRATEGIES),
    data=st.data(),
)
def test_view_equals_recompute(pair, op, strategy, data):
    slots = _sources(op, pair, data)
    for relation in slots:
        relation.strategy = strategy
        repair(relation)
    resolvers = [lambda i=i: slots[i] for i in range(len(slots))]
    if op == "select":
        node = data.draw(st.sampled_from(slots[0].schema.hierarchies[0].nodes()))
        plan = ViewPlan("select", resolvers, {slots[0].schema.attributes[0]: node})
    else:
        plan = ViewPlan(op, resolvers)
    view = MaterializedView("v", plan=plan)
    try:
        view.relation()
    except UNDECIDABLE:
        assume(False)

    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        index = data.draw(st.integers(0, len(slots) - 1))
        target = slots[index]
        action = data.draw(st.sampled_from(["true", "false", "retract", "rebind"]))
        if action == "rebind":
            slots[index] = _replacement(target, data)
            continue
        item = _draw_item(target, data)
        if action == "retract":
            target.discard(item)
        else:
            target.assert_item(item, truth=(action == "true"), replace=True)
        repair(target)

    try:
        fresh = plan.compute(slots, "ref")
    except UNDECIDABLE:
        assume(False)
    assert view.relation().same_tuples_as(fresh)
