"""Property tests: short-circuit evaluation is invisible in results.

``combine(fn_token=t)`` over three or more inputs stops probing a
candidate at the first truth that settles a symmetric function, in
input order.  That changes *which probes run*, never the candidate set,
the emitted truths, or the emission order.  These properties pin it
against an anonymous left-to-right ``combine`` across random
hierarchies and relations and all three preemption strategies, plus the
invariant of the per-relation statistics the benchmark times:
incrementally patched stats always equal a from-scratch rebuild.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HRelation, RelationSchema, algebra
from repro.core.preemption import STRATEGIES
from repro.planner import RelationStats, stats_for
from tests.property.strategies import hierarchies, relations, repair
from tests.property.test_algebra_props import under_strategy

STRATEGY_NAMES = sorted(STRATEGIES)
SYMMETRIC_TOKENS = ["or", "and"]
FUNCTIONS = {"or": lambda *truths: any(truths), "and": lambda *truths: all(truths)}


def same_relation(one: HRelation, other: HRelation) -> bool:
    """Bit-identical: equal asserted maps (items, signs, and — via the
    shared insertion order contract — enumeration order), stamped with
    the same version (both sides store through the same bulk load)."""
    return (
        dict(one.asserted) == dict(other.asserted)
        and list(one.asserted) == list(other.asserted)
        and one.version == other.version
    )


@st.composite
def combine_inputs(draw, min_inputs=3, max_inputs=5):
    """n >= 3 consistent relations over one shared unary schema.

    Three inputs is where ``combine`` starts short-circuiting: a
    binary combine probes every input and the property would test
    nothing.
    """
    hierarchy = draw(hierarchies(name="dom"))
    first = draw(relations(hierarchy=hierarchy, max_tuples=4, name="r0"))
    rels = [first]
    count = draw(st.integers(min_value=min_inputs, max_value=max_inputs))
    for i in range(1, count):
        sibling = HRelation(first.schema, name="r{}".format(i))
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            item = (draw(st.sampled_from(hierarchy.nodes())),)
            if item not in sibling.asserted:
                sibling.assert_item(item, truth=draw(st.booleans()))
        repair(sibling)
        rels.append(sibling)
    return rels


def _oracle(rels, token, consolidate=True):
    """Left-to-right and exhaustive: an anonymous callable is never
    short-circuited."""
    return algebra.combine(
        rels, FUNCTIONS[token], name="oracle", consolidate=consolidate
    )


def _planned(rels, token, consolidate=True):
    return algebra.combine(
        rels, FUNCTIONS[token], fn_token=token, name="planned",
        consolidate=consolidate,
    )


@given(
    combine_inputs(),
    st.sampled_from(STRATEGY_NAMES),
    st.sampled_from(SYMMETRIC_TOKENS),
)
@settings(max_examples=40, deadline=None)
def test_planned_combine_bit_identical_under_every_strategy(
    rels, strategy_name, token
):
    """Short-circuited combines emit exactly what the exhaustive
    left-to-right combine emits — same items, same signs, same insertion
    order — under all three preemption strategies."""
    under_strategy(strategy_name, *rels)
    assert same_relation(_planned(rels, token), _oracle(rels, token))


@given(combine_inputs(), st.sampled_from(SYMMETRIC_TOKENS))
@settings(max_examples=25, deadline=None)
def test_planned_combine_bit_identical_before_consolidation(rels, token):
    """Identity must hold on the *raw* emission stream too, not just
    after the redundancy sweep has had a chance to paper over a
    divergence."""
    assert same_relation(
        _planned(rels, token, consolidate=False),
        _oracle(rels, token, consolidate=False),
    )


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_stats_after_deltas_equal_rebuild(data):
    """Any interleaving of asserts, sign flips, retractions, hierarchy
    growth, and mid-sequence refreshes leaves the cached, incrementally
    patched stats equal to a from-scratch rebuild."""
    hierarchy = data.draw(hierarchies(name="dom"), label="hierarchy")
    relation = HRelation(RelationSchema([("value", hierarchy)]), name="mutant")
    if data.draw(st.booleans(), label="trim"):
        relation.delta_log_limit = 4  # exercise the trimmed-log rebuild path
    stats = stats_for(relation)
    for _ in range(data.draw(st.integers(min_value=1, max_value=25), label="steps")):
        op = data.draw(
            st.sampled_from(["assert", "flip", "retract", "grow", "refresh"]),
            label="op",
        )
        if op == "assert":
            item = (data.draw(st.sampled_from(hierarchy.nodes()), label="node"),)
            if item not in relation.asserted:
                relation.assert_item(
                    item, truth=data.draw(st.booleans(), label="truth")
                )
        elif op == "flip" and relation.asserted:
            item = data.draw(st.sampled_from(sorted(relation.asserted)), label="at")
            relation.assert_item(
                item, truth=not relation.asserted[item], replace=True
            )
        elif op == "retract" and relation.asserted:
            relation.retract(
                data.draw(st.sampled_from(sorted(relation.asserted)), label="rm")
            )
        elif op == "grow":
            parent = data.draw(st.sampled_from(hierarchy.nodes()), label="parent")
            if not hierarchy.is_instance(parent):
                name = "leaf{}".format(len(hierarchy.nodes()))
                hierarchy.add_instance(name, parents=[parent])
        elif op == "refresh":
            # Patch mid-sequence so later deltas apply on top of a
            # patch, not only onto the pristine snapshot.
            stats_for(relation)
    patched = stats_for(relation)
    assert patched is stats  # still the cached object, patched in place
    assert patched.snapshot() == RelationStats(relation).snapshot()
