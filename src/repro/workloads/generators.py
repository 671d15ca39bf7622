"""Synthetic workload generators for the performance experiments.

Everything takes an explicit ``seed`` and builds from
:class:`random.Random`, so every benchmark row is reproducible.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.hierarchy.graph import Hierarchy


def balanced_tree_hierarchy(
    name: str, depth: int, fanout: int, instances_per_leaf_class: int = 0
) -> Hierarchy:
    """A complete ``fanout``-ary class tree of the given depth.

    Node names encode their path (``c0_2_1``); optional instances hang
    under the deepest classes.  With ``depth=d`` and ``fanout=f`` the
    tree has ``(f^(d+1)-1)/(f-1)`` classes.
    """
    hierarchy = Hierarchy(name)
    frontier = [hierarchy.root]
    for level in range(depth):
        next_frontier: List[str] = []
        for parent in frontier:
            for i in range(fanout):
                if parent == hierarchy.root:
                    child = "c{}".format(len(next_frontier))
                else:
                    child = "{}_{}".format(parent, i)
                hierarchy.add_class(child, parents=[parent])
                next_frontier.append(child)
        frontier = next_frontier
    for leaf_class in frontier:
        for i in range(instances_per_leaf_class):
            hierarchy.add_instance("{}_i{}".format(leaf_class, i), parents=[leaf_class])
    return hierarchy


def layered_dag_hierarchy(
    name: str,
    layers: int,
    width: int,
    extra_parent_probability: float = 0.2,
    seed: int = 0,
) -> Hierarchy:
    """A layered DAG: ``layers`` levels of ``width`` classes; every node
    gets one parent in the previous layer plus extra parents with the
    given probability (multiple inheritance)."""
    rng = random.Random(seed)
    hierarchy = Hierarchy(name)
    previous = [hierarchy.root]
    for layer in range(layers):
        current: List[str] = []
        for i in range(width):
            node = "l{}_{}".format(layer, i)
            primary = rng.choice(previous)
            hierarchy.add_class(node, parents=[primary])
            for candidate in previous:
                if candidate != primary and rng.random() < extra_parent_probability:
                    hierarchy.add_edge(candidate, node)
            current.append(node)
        previous = current
    return hierarchy


def chain_hierarchy(name: str, length: int, siblings: int = 1) -> Hierarchy:
    """A single specialisation chain of the given length; each link may
    carry extra sibling leaves to fatten the extension."""
    hierarchy = Hierarchy(name)
    parent = hierarchy.root
    for level in range(length):
        node = "chain{}".format(level)
        hierarchy.add_class(node, parents=[parent])
        for s in range(siblings):
            hierarchy.add_instance("leaf{}_{}".format(level, s), parents=[parent])
        parent = node
    return hierarchy


def exception_chain_relation(
    hierarchy: Hierarchy, attribute: str = "value", name: str = "chain"
) -> HRelation:
    """Alternating exceptions down the ``chain_hierarchy`` spine —
    the deepest possible exception-to-exception nesting (section 2.1:
    "exceptions to exceptions in any required exception hierarchy of
    arbitrary depth")."""
    relation = HRelation([(attribute, hierarchy)], name=name)
    truth = True
    level = 0
    node = "chain0"
    while node in hierarchy:
        relation.assert_item((node,), truth=truth)
        truth = not truth
        level += 1
        node = "chain{}".format(level)
    return relation


def random_consistent_relation(
    schema: RelationSchema,
    tuple_count: int,
    negative_ratio: float = 0.3,
    seed: int = 0,
    name: str = "random",
) -> HRelation:
    """Sample ``tuple_count`` signed tuples, skipping any assertion that
    would create an unresolved conflict, so the result is consistent by
    construction."""
    rng = random.Random(seed)
    relation = HRelation(schema, name=name)
    node_pools = [h.nodes() for h in schema.hierarchies]
    attempts = 0
    max_attempts = tuple_count * 30
    while len(relation) < tuple_count and attempts < max_attempts:
        attempts += 1
        item = tuple(rng.choice(pool) for pool in node_pools)
        truth = rng.random() >= negative_ratio
        if item in relation.asserted:
            continue
        relation.assert_item(item, truth=truth)
        if relation.conflicts():
            relation.retract(item)
    return relation


def membership_workload(
    class_count: int, members_per_class: int, seed: int = 0
) -> Tuple[Hierarchy, HRelation, List[str]]:
    """The P1/P2 workload: ``class_count`` disjoint classes each holding
    ``members_per_class`` instances, and a single-attribute property
    relation asserting the property once per *class*.

    Returns ``(hierarchy, hierarchical_relation, all_instances)``.  The
    flat equivalent of the relation has ``class_count *
    members_per_class`` tuples; the hierarchical one has
    ``class_count``.
    """
    rng = random.Random(seed)
    hierarchy = Hierarchy("things")
    instances: List[str] = []
    for c in range(class_count):
        klass = "group{}".format(c)
        hierarchy.add_class(klass)
        for m in range(members_per_class):
            instance = "item{}_{}".format(c, m)
            hierarchy.add_instance(instance, parents=[klass])
            instances.append(instance)
    relation = HRelation([("thing", hierarchy)], name="has_property")
    for c in range(class_count):
        relation.assert_item(("group{}".format(c),), truth=True)
    rng.shuffle(instances)
    return hierarchy, relation, instances

