"""The binary snapshot codec is lossless — property-checked.

A database rebuilt from its binary snapshot must be *bit-identical* to
the original wherever the engine can observe: the asserted item → sign
map, the stored version counters, and every bulk-evaluator posting
mask.  The snapshot holds no postings, so the recovered side's masks
come from a fresh sweep over the recovered tuples; they are compared
with the original's evaluator over their nonzero masks, because an
advanced evaluator may keep a zero mask where a sweep has no entry, and
``applicable_mask`` treats the two identically.

The wire flavour gets the same treatment: any result rows routed
through the columnar message blocks must decode to the exact JSON
shapes the v1 protocol would have shipped.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bulk
from repro.core.preemption import STRATEGIES
from repro.engine import HierarchicalDatabase, codec
from tests.property.strategies import hierarchies, relations


def _nonzero(tables):
    return [{node: mask for node, mask in table.items() if mask} for table in tables]


@settings(max_examples=40, deadline=None)
@given(relations(max_tuples=6, consistent=False))
def test_snapshot_roundtrip_is_bit_identical(relation):
    database = HierarchicalDatabase("prop")
    for hierarchy in relation.schema.hierarchies:
        if hierarchy.name not in database.hierarchies:
            database.register_hierarchy(hierarchy)
    database.register_relation(relation)

    recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
    copy = recovered.relation(relation.name)

    assert copy.asserted == relation.asserted
    assert copy.version == relation.version
    for name, hierarchy in database.hierarchies.items():
        assert recovered.hierarchy(name).version == hierarchy.version
        assert set(recovered.hierarchy(name).nodes()) == set(hierarchy.nodes())

    original_eval = bulk.evaluator_for(relation)
    copy_eval = bulk.evaluator_for(copy)
    assert _nonzero(copy_eval._postings) == _nonzero(original_eval._postings)
    # And the swept postings actually answer queries identically.
    for item in relation.schema.product.all_items():
        assert copy_eval.truth(item) == original_eval.truth(item)


@st.composite
def with_instances(draw, hierarchy):
    """``hierarchy`` with up to three instances added under its
    classes (the drawn hierarchies hold classes only)."""
    classes = hierarchy.nodes()
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        parents = draw(st.lists(st.sampled_from(classes), min_size=1, max_size=2, unique=True))
        hierarchy.add_instance("{}_i{}".format(hierarchy.name, i), parents=parents)
    return hierarchy


def assert_same_hierarchy(copy, original):
    assert set(copy.nodes()) == set(original.nodes())
    assert set(copy.edges()) == set(original.edges())
    assert copy.preference_edges() == original.preference_edges()
    for node in original.nodes():
        assert copy.is_instance(node) == original.is_instance(node)


@settings(max_examples=40, deadline=None)
@given(
    relations(
        max_tuples=6, arity=2, consistent=False, redundant_edges=True, preference_edges=True
    ),
    st.sampled_from(sorted(STRATEGIES)),
    st.data(),
)
def test_snapshot_roundtrip_binary_arity_two(relation, strategy, data):
    relation.strategy = STRATEGIES[strategy]
    database = HierarchicalDatabase("prop2")
    for hierarchy in relation.schema.hierarchies:
        if hierarchy.name not in database.hierarchies:
            database.register_hierarchy(data.draw(with_instances(hierarchy)))
    database.register_relation(relation)
    recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
    copy = recovered.relation(relation.name)
    assert copy.asserted == relation.asserted
    assert copy.strategy.name == strategy
    for original, restored in zip(relation.schema.hierarchies, copy.schema.hierarchies):
        assert_same_hierarchy(restored, original)
    assert _nonzero(bulk.evaluator_for(copy)._postings) == _nonzero(
        bulk.evaluator_for(relation)._postings
    )


@settings(max_examples=60, deadline=None)
@given(
    hierarchies(redundant_edges=True, preference_edges=True).flatmap(with_instances),
    st.randoms(use_true_random=False),
)
def test_shuffled_node_table_loads_the_same_hierarchy(hierarchy, rng):
    """Nodes are created before parents are linked, so a node table
    loads in any order."""
    database = HierarchicalDatabase("shuffled")
    database.register_hierarchy(hierarchy)
    envelope, blocks = codec.decode_container(
        codec.encode_snapshot(database), codec.SNAPSHOT_MAGIC
    )
    rng.shuffle(envelope["hierarchies"][0]["nodes"])
    recovered, _ = codec.decode_snapshot(
        codec.encode_container(codec.SNAPSHOT_MAGIC, envelope, blocks)
    )
    assert_same_hierarchy(recovered.hierarchy(hierarchy.name), hierarchy)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.text(min_size=0, max_size=8), min_size=2, max_size=2),
            st.booleans(),
        ),
        max_size=30,
    )
)
def test_wire_pairs_decode_to_exact_json_shape(pairs):
    wire_pairs = [[list(values), truth] for values, truth in pairs]
    message = {
        "id": 1,
        "payload": {"tuples": codec.columnar_pairs(wire_pairs, 2)},
    }
    decoded = codec.decode_message(codec.encode_message(message))
    assert decoded == {"id": 1, "payload": {"tuples": wire_pairs}}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.text(min_size=0, max_size=8), min_size=3, max_size=3), max_size=30
    )
)
def test_wire_rows_decode_to_exact_json_shape(rows):
    wire_rows = [list(row) for row in rows]
    message = {"rows": codec.columnar_rows(wire_rows, 3)}
    assert codec.decode_message(codec.encode_message(message)) == {"rows": wire_rows}
