"""Property tests for the newer layers: the condition language, the
binder index, storage round-trips, and the appendix semantics checked
against their literal definitions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flat import from_hrelation
from repro.core import ON_PATH, member, select_where
from repro.core.binding import truth_and_binders
from repro.core.where import And, Not, Or
from repro.hierarchy import algorithms
from tests.property.strategies import hierarchies, relations


# ----------------------------------------------------------------------
# select_where vs a direct per-atom predicate
# ----------------------------------------------------------------------


@st.composite
def conditions(draw, attributes, hierarchies_):
    """A random boolean membership condition of depth <= 3."""
    depth = draw(st.integers(min_value=0, max_value=2))

    def leaf():
        position = draw(st.integers(min_value=0, max_value=len(attributes) - 1))
        node = draw(st.sampled_from(hierarchies_[position].nodes()))
        return member(attributes[position], node)

    def build(level):
        if level == 0:
            return leaf()
        kind = draw(st.sampled_from(["and", "or", "not", "leaf"]))
        if kind == "leaf":
            return leaf()
        if kind == "not":
            return Not(build(level - 1))
        parts = [build(level - 1) for _ in range(draw(st.integers(2, 3)))]
        return And(*parts) if kind == "and" else Or(*parts)

    return build(depth)


@given(relations(arity=2, max_tuples=4), st.data())
@settings(max_examples=50, deadline=None)
def test_select_where_matches_per_atom_predicate(r, data):
    condition = data.draw(
        conditions(r.schema.attributes, r.schema.hierarchies), label="condition"
    )
    got = set(select_where(r, condition).extension())

    leaf_members = {
        leaf: set(
            r.schema.hierarchy_for(leaf.attribute).leaves_under(leaf.node)
        )
        for leaf in condition.members()
    }

    def holds_of(atom):
        assignment = {
            leaf: atom[r.schema.index_of(leaf.attribute)] in members
            for leaf, members in leaf_members.items()
        }
        return condition.evaluate(assignment)

    want = {atom for atom in r.extension() if holds_of(atom)}
    assert got == want


# ----------------------------------------------------------------------
# the evaluator's postings agree with the scan everywhere
# ----------------------------------------------------------------------


@given(relations(arity=2, max_tuples=5))
@settings(max_examples=50, deadline=None)
def test_index_and_scan_binders_agree(r):
    product = r.schema.product
    for item in product.all_items():
        assert set(r.subsumers_of(item)) == {
            other for other in r.asserted if product.subsumes(other, item)
        }
        s_truth, s_binders = truth_and_binders(r, item)  # the reference scan
        assert r.truth_of(item) == s_truth
        assert set(r.strongest_binders(item)) == set(s_binders)


# ----------------------------------------------------------------------
# on-path preemption matches its literal definition
# ----------------------------------------------------------------------


@given(relations(consistent=False))
@settings(max_examples=50, deadline=None)
def test_on_path_matches_path_avoidance_definition(r):
    """Appendix: under on-path preemption, asserted ``j`` still binds to
    ``x`` iff some path from ``j`` to ``x`` avoids every other asserted
    node (when a single ``i`` sits on every path, this is exactly "every
    path from j must pass through i" and j is preempted).  The
    implementation runs the keep-redundant node-elimination mechanism;
    this checks it against direct path queries on the hierarchy graph.
    """
    hierarchy = r.schema.hierarchies[0]
    graph = hierarchy.class_graph()
    product = r.schema.product
    for node in hierarchy.nodes():
        item = (node,)
        if item in r.asserted:
            continue
        applicable = [
            other for other in r.asserted if product.subsumes(other, item)
        ]
        surviving = set()
        for j in applicable:
            blockers = [i[0] for i in applicable if i != j]
            if algorithms.has_path(graph, j[0], node, avoiding=blockers):
                surviving.add(j)
        got = ON_PATH.strongest_binders(product, r.asserted, item)
        assert {b.item for b in got} == surviving


# ----------------------------------------------------------------------
# persistence round-trips
# ----------------------------------------------------------------------


@given(relations(arity=2, max_tuples=5))
@settings(max_examples=40, deadline=None)
def test_storage_roundtrip_preserves_everything(r):
    from repro.engine import HierarchicalDatabase
    from repro.engine.storage import database_from_dict, database_to_dict

    db = HierarchicalDatabase("prop")
    for hierarchy in r.schema.hierarchies:
        db.register_hierarchy(hierarchy)
    db.register_relation(r)
    loaded = database_from_dict(database_to_dict(db))
    restored = loaded.relation(r.name)
    assert restored.asserted == r.asserted
    for original, copy in zip(r.schema.hierarchies, restored.schema.hierarchies):
        assert set(original.nodes()) == set(copy.nodes())
        assert set(original.edges()) == set(copy.edges())
        for node in original.nodes():
            assert original.is_instance(node) == copy.is_instance(node)
    # Same flat semantics after the round-trip.
    assert from_hrelation(restored).rows() == from_hrelation(r).rows()


# ----------------------------------------------------------------------
# aggregation consistency
# ----------------------------------------------------------------------


@given(relations(arity=2, max_tuples=4))
@settings(max_examples=50, deadline=None)
def test_count_equals_extension_size(r):
    from repro.core import aggregate

    assert aggregate.count(r) == len(set(r.extension()))
    by_value = aggregate.count_by(r, r.schema.attributes[0])
    assert sum(by_value.values()) == aggregate.count(r)
