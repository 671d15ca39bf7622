"""Unit tests for the binary columnar codec (wire pages + snapshots).

The codec promises *shape identity*: a message or database encoded to
the binary container and decoded back must be indistinguishable from
the JSON path — same dict shapes on the wire, same asserted maps,
posting masks, versions, and views after a snapshot round-trip.
"""

import json

import pytest

from repro.engine import HierarchicalDatabase, codec
from repro.errors import ProtocolError, StorageError

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE pingo IN animal UNDER penguin;
CREATE RELATION flies (creature: animal);
ASSERT flies (bird);
ASSERT NOT flies (penguin);
"""


def sample_database():
    database = HierarchicalDatabase("db")
    database.execute(SETUP)
    return database


class TestContainer:
    def test_roundtrip(self):
        envelope = {"kind": "test", "n": 3}
        blocks = [b"alpha", b"", b"\x00" * 9]
        data = codec.encode_container(codec.WIRE_MAGIC, envelope, blocks)
        out_env, out_blocks = codec.decode_container(data, codec.WIRE_MAGIC)
        assert out_env == envelope
        assert out_blocks == blocks

    def test_wrong_magic_rejected(self):
        data = codec.encode_container(codec.WIRE_MAGIC, {}, [])
        with pytest.raises(ValueError):
            codec.decode_container(data, codec.SNAPSHOT_MAGIC)

    def test_truncated_rejected(self):
        data = codec.encode_container(codec.WIRE_MAGIC, {"a": 1}, [b"xyz"])
        with pytest.raises(ValueError):
            codec.decode_container(data[:-2], codec.WIRE_MAGIC)

    def test_binary_bodies_never_look_like_json(self):
        # Frame sniffing relies on the magic not starting with '{'.
        assert not codec.WIRE_MAGIC.startswith(b"{")
        assert not codec.SNAPSHOT_MAGIC.startswith(b"{")
        assert codec.is_binary_body(codec.encode_message({"id": 1}))
        assert not codec.is_binary_body(json.dumps({"id": 1}).encode())


class TestColumns:
    def test_rows_roundtrip(self):
        rows = [("a", "x"), ("b", "x"), ("a", "y"), ("long-value", "x")]
        block = codec.pack_rows(rows, 2)
        # Decoded rows come back as lists — the JSON wire shape.
        assert codec.unpack_rows(block) == [list(row) for row in rows]

    def test_empty_rows(self):
        assert codec.unpack_rows(codec.pack_rows([], 3)) == []

    def test_dictionary_reuse_beats_json(self):
        # 5k rows over 10 distinct values: dictionary ids, not strings.
        rows = [["value-%d" % (i % 10)] for i in range(5000)]
        block = codec.pack_rows(rows, 1)
        assert codec.unpack_rows(block) == rows
        assert len(block) < len(json.dumps(rows)) / 4

    def test_wide_dictionary_promotes_id_width(self):
        rows = [["v%d" % i] for i in range(300)]  # > 0xFF distinct
        assert codec.unpack_rows(codec.pack_rows(rows, 1)) == rows

    def test_signs_roundtrip(self):
        for truths in ([], [True], [False] * 9, [True, False] * 33):
            block = codec.pack_signs(truths)
            assert codec.unpack_signs(block, len(truths)) == truths

    def test_postings_roundtrip_drops_zero_masks(self):
        table = {"bird": 0b101, "penguin": 0, "tweety": 1}
        out = codec.unpack_postings(codec.pack_postings(table))
        assert out == {"bird": 0b101, "tweety": 1}

    def test_postings_large_masks(self):
        table = {"n": (1 << 200) | 7}
        assert codec.unpack_postings(codec.pack_postings(table)) == table


class TestMessages:
    def test_message_without_columns_roundtrips(self):
        message = {"id": 9, "ok": True, "nested": {"a": [1, 2, None]}}
        assert codec.decode_message(codec.encode_message(message)) == message

    def test_signed_pairs_decode_to_exact_json_shape(self):
        pairs = [[["bird", "x"], True], [["penguin", "y"], False]]
        message = {"id": 1, "payload": {"tuples": codec.columnar_pairs(pairs, 2)}}
        out = codec.decode_message(codec.encode_message(message))
        assert out == {"id": 1, "payload": {"tuples": pairs}}

    def test_plain_rows_decode_to_exact_json_shape(self):
        rows = [["a", "b"], ["c", "d"]]
        message = {"rowsets": [codec.columnar_rows(rows, 2), codec.columnar_rows([], 2)]}
        out = codec.decode_message(codec.encode_message(message))
        assert out == {"rowsets": [rows, []]}

    def test_corrupt_body_raises_protocol_error(self):
        body = codec.encode_message({"id": 1})
        with pytest.raises(ProtocolError):
            codec.decode_message(body[:6])


class TestSnapshot:
    def test_roundtrip_preserves_truth_and_masks(self):
        database = sample_database()
        data = codec.encode_snapshot(database)
        recovered, envelope = codec.decode_snapshot(data)
        assert envelope["format"] == codec.SNAPSHOT_FORMAT_NAME
        original = database.relation("flies")
        copy = recovered.relation("flies")
        assert copy.asserted == original.asserted
        assert copy.version == original.version
        assert recovered.relation("flies").holds("tweety")
        assert not recovered.relation("flies").holds("pingo")

    def test_roundtrip_reuses_preloaded_evaluator(self):
        from repro.core.bulk import evaluator_for

        database = sample_database()
        recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
        relation = recovered.relation("flies")
        preloaded = relation._bulk_eval
        assert preloaded is not None
        assert evaluator_for(relation) is preloaded

    def test_loaded_postings_keep_topological_order(self):
        """Nothing re-sweeps a loaded table at the first write any more,
        so it must arrive keyed like a swept one (not sorted by name)."""
        database = sample_database()
        recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
        relation = recovered.relation("flies")
        order = relation.schema.hierarchies[0].topological_order()
        (table,) = relation._bulk_eval._postings
        assert list(table) == [node for node in order if node in table]
        assert list(table) != sorted(table)

    def test_preference_edge_relation_recovers_prewarmed(self):
        """A preference edge changes the binding order, not the
        postings: the snapshot carries them, and the evaluator recovered
        from them answers like a fresh sweep."""
        from repro.core.bulk import BulkEvaluator, evaluator_for

        database = sample_database()
        database.execute(
            "CREATE CLASS sick_bird IN animal UNDER bird;"
            "CREATE INSTANCE pete IN animal UNDER penguin, sick_bird;"
            "PREFER penguin OVER sick_bird IN animal;"
            "ASSERT flies (sick_bird);"
        )
        recovered, envelope = codec.decode_snapshot(codec.encode_snapshot(database))
        (spec,) = envelope["relations"]
        assert len(spec["postings"]) == 1
        relation = recovered.relation("flies")
        assert relation.schema.product.has_preference_edges()
        preloaded = relation._bulk_eval
        assert preloaded is not None and evaluator_for(relation) is preloaded
        fresh = BulkEvaluator(relation)
        assert preloaded._postings == [
            {node: mask for node, mask in table.items() if mask}
            for table in fresh._postings
        ]
        for item in relation.schema.product.all_items():
            assert preloaded.truth_and_binders(item) == fresh.truth_and_binders(item)
        assert relation.holds("pete") is False  # -penguin preempts +sick_bird

    def test_snapshot_without_postings_still_loads(self):
        """What the parent wrote for a preference-edge relation: no
        ``postings`` key.  It loads cold and sweeps at the first read."""
        data = codec.encode_snapshot(sample_database())
        envelope, blocks = codec.decode_container(data, codec.SNAPSHOT_MAGIC)
        for spec in envelope["relations"]:
            del spec["postings"]
        recovered, _ = codec.decode_snapshot(
            codec.encode_container(codec.SNAPSHOT_MAGIC, envelope, blocks)
        )
        relation = recovered.relation("flies")
        assert relation._bulk_eval is None
        assert relation.holds("tweety") and not relation.holds("pingo")

    def test_roundtrip_preserves_views_and_extra(self):
        database = sample_database()
        database.define_view("flyers", "union", ["flies", "flies"])
        data = codec.encode_snapshot(database, extra={"checkpoint": 12})
        assert codec.snapshot_envelope(data)["checkpoint"] == 12
        recovered, _ = codec.decode_snapshot(data)
        assert "flyers" in recovered.views

    def test_empty_database(self):
        recovered, _ = codec.decode_snapshot(
            codec.encode_snapshot(HierarchicalDatabase("empty"))
        )
        assert not recovered.relations
        assert not recovered.hierarchies

    def test_not_a_snapshot_raises_storage_error(self):
        with pytest.raises(StorageError):
            codec.decode_snapshot(b"definitely not a snapshot")
        with pytest.raises(StorageError):
            codec.snapshot_envelope(b"{}")
