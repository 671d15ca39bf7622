"""Subsumer lookup off the evaluator's postings: ``subsumers_of`` must
equal the inline ``product.subsumes`` scan, and the engine's answers the
per-item reference's (:mod:`repro.core.binding`)."""

import random

import pytest

from repro.core import HRelation, RelationSchema, binding, consolidate
from repro.core.bulk import evaluator_for
from repro.obs import default_registry
from repro.workloads.generators import (
    balanced_tree_hierarchy,
    random_consistent_relation,
)


@pytest.fixture
def big_relation():
    hierarchy = balanced_tree_hierarchy("t", depth=3, fanout=3)
    schema = RelationSchema([("x", hierarchy)])
    return random_consistent_relation(schema, tuple_count=60, seed=11)


def _scan(relation, item):
    product = relation.schema.product
    return {other for other in relation.asserted if product.subsumes(other, item)}


class TestCorrectness:
    def test_index_matches_scan_single(self, big_relation):
        for node in big_relation.schema.hierarchies[0].nodes():
            item = (node,)
            assert set(big_relation.subsumers_of(item)) == _scan(big_relation, item)

    def test_index_matches_scan_binary(self):
        left = balanced_tree_hierarchy("l", depth=2, fanout=3)
        right = balanced_tree_hierarchy("r", depth=2, fanout=3)
        schema = RelationSchema([("a", left), ("b", right)])
        relation = random_consistent_relation(schema, tuple_count=40, seed=3)
        rng = random.Random(0)
        for _ in range(60):
            item = (rng.choice(left.nodes()), rng.choice(right.nodes()))
            assert set(relation.subsumers_of(item)) == _scan(relation, item)

    def test_empty_when_attribute_misses(self, big_relation):
        hierarchy = big_relation.schema.hierarchies[0]
        fresh = HRelation(big_relation.schema)
        fresh.assert_item((hierarchy.nodes()[1],))
        # Pick a node disjoint from the asserted one.
        sibling = hierarchy.nodes()[2]
        if not hierarchy.subsumes(hierarchy.nodes()[1], sibling):
            assert fresh.subsumers_of((sibling,)) == []


class TestIntegration:
    def test_threshold_switches_paths(self, big_relation):
        """No tuple count switches paths any more: a relation below the
        old threshold (32) and one above it both answer from their
        evaluator, and both agree with the per-item reference."""
        small = HRelation(big_relation.schema)
        small.assert_all(list(big_relation.asserted.items())[:8])
        registry = default_registry()
        served = [
            registry.counter("bulk.evaluator." + how)
            for how in ("builds", "advances", "reuses")
        ]
        for relation in (small, big_relation):
            leaves = relation.schema.hierarchies[0].leaves()
            before = sum(counter.value for counter in served)
            for node in leaves:
                assert relation.holds(node) == binding.truth_of(relation, (node,))
            assert sum(counter.value for counter in served) == before + len(leaves)

    def test_index_rebuilt_after_mutation(self, big_relation):
        hierarchy = big_relation.schema.hierarchies[0]
        leaf = hierarchy.leaves()[0]
        before = big_relation.holds(leaf)
        big_relation.assert_item((leaf,), truth=not before, replace=True)
        assert big_relation.holds(leaf) == (not before)
        assert set(big_relation.subsumers_of((leaf,))) == _scan(big_relation, (leaf,))

    def test_subsumers_of_includes_self(self, flying):
        subs = flying.flies.subsumers_of(("peter",))
        assert ("peter",) in subs
        assert ("penguin",) in subs and ("bird",) in subs

    def test_consolidate_agrees_across_paths(self, big_relation):
        """Consolidation preserves every truth value, whichever side
        answers: the engine on the consolidated relation, the per-item
        reference on the original."""
        consolidated = consolidate(big_relation)
        assert evaluator_for(consolidated).sweep_exact
        for node in big_relation.schema.hierarchies[0].nodes():
            assert consolidated.holds(node) == binding.truth_of(big_relation, (node,))
