"""Deterministic multi-cone workloads for the parallel suite.

The hierarchy is a star of disjoint cones under the root — the shape
cone partitioning is built for — and the relations assert class-level
tuples plus atom-level tuples whose binders never overlap, so they are
consistent under every preemption strategy (including ``none``, where
any specialisation override would be a conflict).
"""

from __future__ import annotations

from typing import List

from repro.core import HRelation, RelationSchema
from repro.core.explicate import extension_relation
from repro.core.preemption import STRATEGIES
from repro.hierarchy import Hierarchy


def cone_hierarchy(cones: int = 6, instances: int = 3, name: str = "dom") -> Hierarchy:
    """``cones`` disjoint classes under the root, ``instances`` leaves each."""
    hierarchy = Hierarchy(name, root=name)
    for c in range(cones):
        cls = "c{}".format(c)
        hierarchy.add_class(cls, parents=[name])
        for i in range(instances):
            hierarchy.add_instance("c{}i{}".format(c, i), parents=[cls])
    return hierarchy


def cone_relations(hierarchy: Hierarchy, strategy: str = "off-path"):
    """Two consistent binary relations over disjoint cone pairs.

    Class-level tuples pair cone 2k with cone 2k+1; atom-level tuples
    (some negative) live in cone pairs no class tuple covers, so no two
    asserted items ever bind a common atom.
    """
    schema = RelationSchema([("a", hierarchy), ("b", hierarchy)])
    cones = sum(1 for node in hierarchy.nodes() if node.startswith("c") and "i" not in node)
    left = HRelation(schema, name="left", strategy=STRATEGIES[strategy])
    right = HRelation(schema, name="right", strategy=STRATEGIES[strategy])
    for k in range(cones // 2):
        a, b = "c{}".format(2 * k), "c{}".format(2 * k + 1)
        left.assert_item((a, b), truth=True)
        right.assert_item((b, a), truth=True)
        # Atom-level tuples in the mirrored cone pair: never under the
        # class tuples above, alternating signs for truth diversity.
        left.assert_item(("{}i0".format(b), "{}i0".format(a)), truth=k % 2 == 0)
        right.assert_item(("{}i1".format(a), "{}i1".format(b)), truth=k % 2 == 1)
    return left, right


def same_relation(one: HRelation, other: HRelation) -> bool:
    """Bit-identical: equal asserted maps (items, signs, and — via the
    shared insertion order contract — enumeration order), stamped with
    the same version (both sides store through the same bulk load)."""
    return (
        dict(one.asserted) == dict(other.asserted)
        and list(one.asserted) == list(other.asserted)
        and one.version == other.version
    )


def flat_atoms(relation: HRelation) -> List[tuple]:
    return sorted(extension_relation(relation).asserted)
