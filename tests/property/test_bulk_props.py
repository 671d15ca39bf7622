"""The engine vs the per-item reference: the two must be identical.

The :class:`~repro.core.bulk.BulkEvaluator` answers most queries from
one bitset sweep and runs node elimination for the rest; per-item
binding (:mod:`repro.core.binding`, the reference) re-derives everything
per query from a scan of the relation.  On random DAGs — deliberately
*without* the consistency repair, so conflicted items exercise the
``None`` verdicts — every item of D* must get the same truth and the
same binder list under every preemption strategy.

The second half drives the memoised evaluator through writes: one
advanced through the relation's delta log answers exactly like one
swept from scratch and like the reference, redundant and preference
edges included, and reuses the bit slots retractions free.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HRelation, NO_PREEMPTION, OFF_PATH, ON_PATH
from repro.core import binding, bulk
from repro.hierarchy import Hierarchy
from tests.property.strategies import relations

STRATEGIES = [OFF_PATH, ON_PATH, NO_PREEMPTION]


@settings(max_examples=60, deadline=None)
@given(relations(max_tuples=5, consistent=False))
def test_bulk_truth_matches_binding_for_every_strategy(relation):
    product = relation.schema.product
    for strategy in STRATEGIES:
        evaluator = bulk.BulkEvaluator(relation, strategy)
        for item in product.all_items():
            expected, _ = binding.truth_and_binders(relation, item, strategy)
            assert evaluator.truth(item) == expected, (strategy.name, item)


@settings(max_examples=40, deadline=None)
@given(relations(max_tuples=5, arity=2, consistent=False))
def test_bulk_truth_matches_binding_arity_two(relation):
    product = relation.schema.product
    for strategy in STRATEGIES:
        evaluator = bulk.BulkEvaluator(relation, strategy)
        for item in product.all_items():
            expected, _ = binding.truth_and_binders(relation, item, strategy)
            assert evaluator.truth(item) == expected, (strategy.name, item)


@settings(max_examples=60, deadline=None)
@given(relations(max_tuples=5, consistent=False))
def test_bulk_binders_match_binding_exactly(relation):
    """Binder lists, not just truths: order and content must agree,
    whether the sweep or node elimination produced them."""
    product = relation.schema.product
    for strategy in STRATEGIES:
        evaluator = bulk.BulkEvaluator(relation, strategy)
        for item in product.all_items():
            expected = binding.truth_and_binders(relation, item, strategy)
            assert evaluator.truth_and_binders(item) == (
                expected[0],
                list(expected[1]),
            ), (strategy.name, item)


@settings(max_examples=60, deadline=None)
@given(relations(max_tuples=6, consistent=False))
def test_evaluator_for_tracks_mutations(relation):
    """The memoised evaluator must never serve stale answers across a
    mutation (version-keyed rebuild)."""
    product = relation.schema.product
    probes = list(product.all_items())
    assert bulk.truths(relation, probes) == [
        binding.truth_and_binders(relation, item)[0] for item in probes
    ]
    # Mutate: flip one stored sign, retract another, assert a new item.
    stored = relation.items()
    if stored:
        relation.assert_item(stored[0], truth=not relation.asserted[stored[0]],
                             replace=True)
    if len(stored) > 1:
        relation.retract(stored[1])
    for node in relation.schema.hierarchies[0].nodes():
        if (node,) not in relation.asserted:
            relation.assert_item((node,), truth=True)
            break
    assert bulk.truths(relation, probes) == [
        binding.truth_and_binders(relation, item)[0] for item in probes
    ]


@settings(max_examples=60, deadline=None)
@given(relations(max_tuples=6, consistent=False))
def test_scoped_cache_invalidation_is_sound(relation):
    """Warm the evaluator everywhere, mutate one item, and require every
    answer of the advanced evaluator to match the reference on a cold
    relation."""
    product = relation.schema.product
    probes = list(product.all_items())
    for probe in probes:  # warm the evaluator and its minimality memo
        relation.strongest_binders(probe)
    stored = relation.items()
    if stored:
        relation.retract(stored[len(stored) // 2])
    else:
        relation.assert_item((relation.schema.hierarchies[0].root,), truth=True)
    cold = HRelation(relation.schema, name="cold")
    cold.assert_all(relation.asserted.items())
    for probe in probes:
        assert relation.strongest_binders(probe) == binding.strongest_binders(cold, probe), probe


# ----------------------------------------------------------------------
# advanced evaluator == rebuilt evaluator
# ----------------------------------------------------------------------


def _assert_same_answers(advanced, fresh, product):
    for item in product.all_items():
        assert advanced.truth(item) == fresh.truth(item), item
        assert advanced.truth_and_binders(item) == fresh.truth_and_binders(item), item


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_advanced_evaluator_equals_rebuilt(data):
    """Any interleaving of assert / retract / sign flip, with the
    memoised evaluator read (hence advanced) at arbitrary points, must
    answer exactly like a from-scratch sweep of the final relation —
    every strategy, multi-parent DAGs, arity 1-2, conflicted relations
    included — and never hand out more bit slots than tuples were ever
    stored at once."""
    arity = data.draw(st.integers(min_value=1, max_value=2))
    relation = data.draw(relations(arity=arity, max_tuples=5, consistent=False))
    strategy = data.draw(st.sampled_from(STRATEGIES))
    relation.strategy = strategy
    product = relation.schema.product
    factors = relation.schema.hierarchies
    bulk.evaluator_for(relation)  # the snapshot every later read advances
    builds = bulk._obs.default_registry().counter("bulk.evaluator.builds")
    swept = builds.value
    high_water = len(relation)
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        item = tuple(data.draw(st.sampled_from(h.nodes())) for h in factors)
        if item in relation.asserted and data.draw(st.booleans()):
            relation.retract(item)
        else:
            relation.assert_item(item, truth=data.draw(st.booleans()), replace=True)
        high_water = max(high_water, len(relation))
        if data.draw(st.booleans()):
            _assert_same_answers(
                bulk.evaluator_for(relation), bulk.BulkEvaluator(relation), product
            )
    advanced = bulk.evaluator_for(relation)
    assert builds.value == swept  # advanced every time, never rebuilt
    _assert_same_answers(advanced, bulk.BulkEvaluator(relation), product)
    widest = max((m for table in advanced._postings for m in table.values()), default=0)
    assert widest.bit_length() <= high_water


def _assert_engine_is_reference(relation):
    product = relation.schema.product
    evaluator = bulk.evaluator_for(relation)
    for item in product.all_items():
        expected = binding.truth_and_binders(relation, item)
        assert evaluator.truth(item) == expected[0], (relation.strategy.name, item)
        assert evaluator.truth_and_binders(item) == expected, (relation.strategy.name, item)
        assert sorted(relation.subsumers_of(item)) == sorted(
            other for other in relation.asserted if product.subsumes(other, item)
        ), item


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_advanced_engine_equals_reference(data):
    """After any assert / retract / sign-flip sequence, under all three
    strategies, the memoised evaluator (advanced, never rebuilt) returns
    the per-item reference's truth *and* binder list at every item of
    D*, and ``subsumers_of`` equals the inline ``subsumes`` scan — over
    hierarchies that may carry redundant class edges and preference
    edges, where node elimination, not the sweep, decides."""
    arity = data.draw(st.integers(min_value=1, max_value=2))
    seed = data.draw(
        relations(
            arity=arity,
            max_tuples=5,
            consistent=False,
            redundant_edges=True,
            preference_edges=True,
        )
    )
    factors = seed.schema.hierarchies
    twins = []
    for strategy in STRATEGIES:
        twin = seed.copy()
        twin.strategy = strategy
        _assert_engine_is_reference(twin)  # the one sweep per strategy
        twins.append(twin)
    builds = bulk._obs.default_registry().counter("bulk.evaluator.builds")
    swept = builds.value
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        item = tuple(data.draw(st.sampled_from(h.nodes())) for h in factors)
        retract = item in seed.asserted and data.draw(st.booleans())
        truth = data.draw(st.booleans())
        check = data.draw(st.booleans())
        for relation in [seed] + twins:
            if retract:
                relation.retract(item)
            else:
                relation.assert_item(item, truth=truth, replace=True)
        if check:
            for twin in twins:
                _assert_engine_is_reference(twin)
    for twin in twins:
        _assert_engine_is_reference(twin)
    assert builds.value == swept


def test_toggling_never_widens_the_masks():
    """1 000 retract/assert pairs reuse freed bit slots: the widest
    posting mask stays within the high-water stored-tuple count (an
    append-only slot per assert would add 1 000 bits to every mask)."""
    h = Hierarchy("h", root="root")
    for c in range(4):
        h.add_class("c{}".format(c))
        for i in range(4):
            h.add_instance("c{}i{}".format(c, i), ["c{}".format(c)])
    relation = HRelation([("a", h)], name="r")
    for c in range(4):
        relation.assert_item(("c{}".format(c),))
        relation.assert_item(("c{}i0".format(c),), truth=False)
    high_water = len(relation)
    bulk.evaluator_for(relation)
    for j in range(1000):
        item = ("c{}".format(j % 4),)
        relation.retract(item)
        bulk.evaluator_for(relation)
        relation.assert_item(item)
        advanced = bulk.evaluator_for(relation)
    widest = max(m for table in advanced._postings for m in table.values())
    assert widest.bit_length() <= high_water
    _assert_same_answers(advanced, bulk.BulkEvaluator(relation), relation.schema.product)
