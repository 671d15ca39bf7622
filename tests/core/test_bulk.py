"""Unit tests for the bulk truth evaluator on the paper's datasets."""

from __future__ import annotations

import pytest

from repro.errors import AmbiguityError
from repro.hierarchy import HierarchyBuilder
from repro.core import (
    HRelation,
    NO_PREEMPTION,
    OFF_PATH,
    ON_PATH,
    binding,
    bulk_truth_of,
    bulk_truths,
    evaluator_for,
    find_conflicts,
)
from repro.core import bulk
from repro.workloads import flying_dataset

STRATEGIES = [OFF_PATH, ON_PATH, NO_PREEMPTION]


def _assert_matches_binding(relation):
    product = relation.schema.product
    for strategy in STRATEGIES:
        evaluator = bulk.BulkEvaluator(relation, strategy)
        for item in product.all_items():
            expected = binding.truth_and_binders(relation, item, strategy)
            assert evaluator.truth(item) == expected[0], (strategy.name, item)
            assert evaluator.truth_and_binders(item) == (
                expected[0],
                list(expected[1]),
            ), (strategy.name, item)


def test_matches_binding_on_flying(flying):
    _assert_matches_binding(flying.flies)


def test_matches_binding_on_flying_with_redundant_edge():
    dataset = flying_dataset(redundant_pamela_edge=True)
    assert dataset.flies.schema.product.needs_elimination_binding()
    _assert_matches_binding(dataset.flies)


def test_matches_binding_on_elephants(elephants):
    _assert_matches_binding(elephants.animal_color)
    _assert_matches_binding(elephants.enclosure_size)


def test_matches_binding_on_school(school):
    _assert_matches_binding(school.respects)


def test_matches_binding_with_preference_edges():
    """Preference edges put the binding order at odds with the
    applicability order; the evaluator must not trust its minimal
    frontier there, and still agree."""
    h = (
        HierarchyBuilder("animal")
        .klass("bird")
        .klass("penguin", under="bird")
        .klass("sick_bird", under="bird")
        .instance("pete", under=["penguin", "sick_bird"])
        .prefer("penguin", over="sick_bird")
        .build()
    )
    relation = HRelation([("creature", h)], name="flies")
    relation.assert_all([(("penguin",), False), (("sick_bird",), True)])
    assert h.has_preference_edges()
    _assert_matches_binding(relation)


def test_fig1_verdicts_through_bulk(flying):
    flies = flying.flies
    truths = bulk_truths(
        flies, [("tweety",), ("paul",), ("pamela",), ("patricia",), ("peter",)]
    )
    assert truths == [True, False, True, True, True]
    assert bulk_truth_of(flies, ("bird",)) is True


def test_bulk_truth_of_raises_on_conflict():
    dataset = flying_dataset(redundant_pamela_edge=True)
    with pytest.raises(AmbiguityError):
        bulk_truth_of(dataset.flies, ("pamela",))
    # the non-raising batch API marks it None instead
    assert bulk_truths(dataset.flies, [("pamela",)]) == [None]


def test_extension_equals_per_atom_binding(flying, elephants):
    for relation in (flying.flies, elephants.animal_color, elephants.enclosure_size):
        product = relation.schema.product
        hierarchies = relation.schema.hierarchies
        atoms = [
            item
            for item in product.all_items()
            if all(h.is_leaf(v) for h, v in zip(hierarchies, item))
        ]
        expected = {
            atom for atom in atoms if binding.truth_and_binders(relation, atom)[0]
        }
        assert set(relation.extension()) == expected


def test_extension_raises_on_conflicted_atom():
    dataset = flying_dataset(redundant_pamela_edge=True)
    with pytest.raises(AmbiguityError):
        list(dataset.flies.extension())


def test_find_conflicts_still_spots_pamela():
    dataset = flying_dataset(redundant_pamela_edge=True)
    conflicts = find_conflicts(dataset.flies, exhaustive=True)
    assert [c.item for c in conflicts] == [("pamela",)]
    signs = {b.truth for b in conflicts[0].binders}
    assert signs == {True, False}


def test_evaluator_is_cached_until_a_version_moves(flying):
    flies = flying.flies
    first = evaluator_for(flies)
    assert evaluator_for(flies) is first
    flies.assert_item(("tweety",), truth=True)
    second = evaluator_for(flies)
    assert second is not first
    assert evaluator_for(flies) is second
    # hierarchy DDL moves the product version and invalidates too
    flying.animal.add_instance("tina", parents=["canary"])
    assert evaluator_for(flies) is not second
    assert bulk_truth_of(flies, ("tina",)) is True


def test_preference_edge_evaluator_is_advanced():
    """Preference edges change the binding order, not applicability: the
    relation carries postings like any other, a write advances them, and
    the advanced evaluator (not a fresh one) still agrees."""
    h = (
        HierarchyBuilder("animal")
        .klass("bird")
        .klass("penguin", under="bird")
        .klass("sick_bird", under="bird")
        .instance("pete", under=["penguin", "sick_bird"])
        .prefer("penguin", over="sick_bird")
        .build()
    )
    relation = HRelation([("creature", h)], name="flies")
    relation.assert_all([(("penguin",), False), (("sick_bird",), True)])
    evaluator_for(relation)
    registry = bulk._obs.default_registry()
    builds = registry.counter("bulk.evaluator.builds").value
    advances = registry.counter("bulk.evaluator.advances").value
    relation.retract(("sick_bird",))
    relation.assert_item(("bird",), truth=True)
    advanced = evaluator_for(relation)
    assert registry.counter("bulk.evaluator.builds").value == builds
    assert registry.counter("bulk.evaluator.advances").value == advances + 1
    assert sorted(advanced.subsumers_of(("pete",))) == [("bird",), ("penguin",)]
    for item in relation.schema.product.all_items():
        assert advanced.truth_and_binders(item) == binding.truth_and_binders(relation, item)


def test_retraction_is_order_independent(flying):
    flies = flying.flies
    flies.retract(("peter",))
    assert ("peter",) not in flies.asserted
    assert flies.truth_of(("peter",)) is False  # penguin default again
    assert flies.discard(("peter",)) is False
    assert [t.item for t in flies.tuples()] == [
        ("bird",),
        ("penguin",),
        ("amazing_flying_penguin",),
    ]
