"""Hypothesis strategies: random small hierarchies and consistent relations.

Hierarchies are generated in transitively-reduced normal form (the
paper's off-path assumption) unless a test asks for redundant class
edges or preference edges; relations are made consistent by a repair
loop that retracts one conflicting binder at a time, so downstream
properties can assume the ambiguity constraint holds.
"""

from __future__ import annotations

from typing import Tuple

from hypothesis import strategies as st

from repro.errors import CycleError
from repro.hierarchy import Hierarchy, algorithms
from repro.core import HRelation, RelationSchema


@st.composite
def hierarchies(
    draw,
    max_nodes: int = 7,
    name: str = "h",
    max_parents: int = 2,
    redundant_edges: bool = False,
    preference_edges: bool = False,
) -> Hierarchy:
    """A random rooted DAG with no redundant edges (``max_parents=1``:
    a tree).  ``redundant_edges`` / ``preference_edges`` then draw up to
    two of each on top: class edges parallel to an existing path (the
    appendix's "Pamela is a Penguin" link) and binding-only edges
    between otherwise incomparable nodes."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    edges: dict = {"root": set()}
    names = ["n{}".format(i) for i in range(count)]
    for i, node in enumerate(names):
        pool = ["root"] + names[:i]
        parent_count = draw(
            st.integers(min_value=1, max_value=min(max_parents, len(pool)))
        )
        parents = draw(
            st.lists(
                st.sampled_from(pool),
                min_size=parent_count,
                max_size=parent_count,
                unique=True,
            )
        )
        edges[node] = set()
        for parent in parents:
            edges[parent].add(node)
    reduced = algorithms.transitive_reduction(edges)
    hierarchy = Hierarchy(name, root="root")
    for node in algorithms.topological_order(reduced):
        if node == "root":
            continue
        parents = sorted(algorithms.immediate_predecessors(reduced, node))
        hierarchy.add_class(node, parents=parents)
    pairs = [(a, b) for a in hierarchy.nodes() for b in names if a != b]
    if redundant_edges:
        shortcuts = [
            (a, b)
            for a, b in pairs
            if hierarchy.subsumes(a, b) and a not in hierarchy.parents(b)
        ]
        for a, b in draw(_up_to_two(shortcuts)):
            hierarchy.add_edge(a, b)
    if preference_edges:
        unordered = [
            (a, b)
            for a, b in pairs
            if a != "root" and not hierarchy.subsumes(a, b) and not hierarchy.subsumes(b, a)
        ]
        for weaker, stronger in draw(_up_to_two(unordered)):
            try:
                hierarchy.add_preference_edge(weaker, stronger)
            except CycleError:  # the first drawn edge already orders the pair
                pass
    return hierarchy


def _up_to_two(candidates):
    if not candidates:
        return st.just([])
    return st.lists(st.sampled_from(candidates), max_size=2, unique=True)


@st.composite
def relations(
    draw,
    hierarchy: Hierarchy | None = None,
    max_tuples: int = 5,
    arity: int = 1,
    consistent: bool = True,
    name: str = "r",
    **hierarchy_draws: bool,
) -> HRelation:
    """A random relation over fresh (or given) hierarchies; repaired to
    consistency when requested.  ``hierarchy_draws`` are passed to
    :func:`hierarchies` (``redundant_edges``, ``preference_edges``)."""
    if hierarchy is not None:
        factors = [hierarchy] * arity
    else:
        factors = [
            draw(hierarchies(name="h{}".format(i), **hierarchy_draws))
            for i in range(arity)
        ]
    schema = RelationSchema(
        [("a{}".format(i), h) for i, h in enumerate(factors)]
    )
    relation = HRelation(schema, name=name)
    tuple_count = draw(st.integers(min_value=0, max_value=max_tuples))
    for _ in range(tuple_count):
        item = tuple(draw(st.sampled_from(h.nodes())) for h in factors)
        truth = draw(st.booleans())
        if item not in relation.asserted:
            relation.assert_item(item, truth=truth)
    if consistent:
        repair(relation)
    return relation


def repair(relation: HRelation, max_rounds: int = 50) -> None:
    """Retract one binder of the first conflict until consistent."""
    for _ in range(max_rounds):
        conflicts = relation.conflicts()
        if not conflicts:
            return
        binder = conflicts[0].binders[0]
        relation.discard(binder.item)
    raise AssertionError("repair loop did not converge")


def pair_of_relations(arity: int = 1, max_tuples: int = 5):
    """Two consistent relations over one shared schema."""

    @st.composite
    def build(draw) -> Tuple[HRelation, HRelation]:
        left = draw(relations(arity=arity, max_tuples=max_tuples, name="left"))
        right = HRelation(left.schema, name="right")
        tuple_count = draw(st.integers(min_value=0, max_value=max_tuples))
        for _ in range(tuple_count):
            item = tuple(
                draw(st.sampled_from(h.nodes())) for h in left.schema.hierarchies
            )
            truth = draw(st.booleans())
            if item not in right.asserted:
                right.assert_item(item, truth=truth)
        repair(right)
        return left, right

    return build()
