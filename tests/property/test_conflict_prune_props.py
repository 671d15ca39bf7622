"""Property: overlap-mask pruning leaves the conflict candidate set
exactly as the all-pairs scan produced it.

``conflicts.conflict_candidates`` now probes only opposite-sign pairs
whose descendant cones can intersect (a cleared overlap bit proves the
meet set empty).  The reference below is the pre-optimization all-pairs
meet scan; the two must agree on every relation, consistent or not.

The commit check prunes further: from a conflict-free unary normal-form
relation only the cones of the written items are probed.  The reference
there is the whole-relation ``find_conflicts`` of the relation after the
writes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NO_PREEMPTION, OFF_PATH, ON_PATH, HRelation
from repro.core.conflicts import check_write, conflict_candidates, find_conflicts
from tests.property.strategies import hierarchies, relations, repair


def all_pairs_candidates(relation):
    product = relation.schema.product
    positives = [item for item, truth in relation.asserted.items() if truth]
    negatives = [item for item, truth in relation.asserted.items() if not truth]
    seen = set()
    for pos in positives:
        for neg in negatives:
            seen.update(product.meet(pos, neg))
    return sorted(seen, key=product.topological_key)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pruned_candidates_equal_all_pairs_scan(data):
    arity = data.draw(st.integers(min_value=1, max_value=2))
    relation = data.draw(
        relations(arity=arity, max_tuples=6, consistent=False)
    )
    assert conflict_candidates(relation) == all_pairs_candidates(relation)


# ----------------------------------------------------------------------
# cone-scoped commit check == whole-relation scan
# ----------------------------------------------------------------------


@st.composite
def maybe_redundant_hierarchies(draw, name="h"):
    """A normal-form DAG, or the same with one redundant class edge
    (which moves unary conflict probing from the posting masks onto
    the meet candidates, and the commit check back to the whole
    relation)."""
    hierarchy = draw(hierarchies(name=name, max_nodes=9, max_parents=3))
    shortcuts = [
        (above, node)
        for node in hierarchy.nodes()
        for above in hierarchy.ancestors(node, include_self=False)
        if above not in hierarchy.parents(node)
    ]
    if shortcuts and draw(st.booleans()):
        hierarchy.add_edge(*draw(st.sampled_from(shortcuts)))
    return hierarchy


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cone_scoped_check_equals_whole_relation_scan(data):
    """From a relation with no conflicts, after 1-3 random writes, the
    commit check reports the whole scan's conflicts — same items, same
    binders, same order — and confines itself to the written cones
    exactly on unary normal-form schemas."""
    arity = data.draw(st.integers(min_value=1, max_value=2))
    shared = data.draw(maybe_redundant_hierarchies())
    base = data.draw(relations(hierarchy=shared, arity=arity, max_tuples=8, consistent=False))
    base.strategy = data.draw(st.sampled_from([OFF_PATH, ON_PATH, NO_PREEMPTION]))
    repair(base)
    assert find_conflicts(base) == []
    staged = base.copy()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        item = tuple(data.draw(st.sampled_from(shared.nodes())) for _ in range(arity))
        if item in staged.asserted and data.draw(st.booleans()):
            staged.retract(item)
        else:
            staged.assert_item(item, truth=data.draw(st.booleans()), replace=True)
    scoped, scope, _ = check_write(staged, base)
    unary_normal_form = arity == 1 and not shared.redundant_edges()
    assert scope == ("cone" if unary_normal_form else "relation")
    cold = HRelation(staged.schema, name="cold", strategy=staged.strategy)
    cold.assert_all(staged.asserted.items())
    assert scoped == find_conflicts(cold)
    assert scoped == find_conflicts(staged)
