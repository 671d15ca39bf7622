"""Unit tests for the binary columnar codec (wire pages + snapshots).

The codec promises *shape identity*: a message decodes to plain
lists and dicts whatever its body kind, and a database round-tripped
through a snapshot keeps its asserted maps, versions, and views.  A snapshot holds
data only: no posting block is written, none is read, and a recovered
relation sweeps its evaluator at the first read.
"""

import json
from pathlib import Path

import pytest

from repro.engine import HierarchicalDatabase, codec
from repro.engine.storage import database_from_dict, database_to_dict
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
        # A message's body kind follows from its contents: row columns
        # make a container, everything else is JSON.
        plain = codec.encode_message({"id": 1})
        assert plain == json.dumps({"id": 1}, separators=(",", ":")).encode()
        assert not codec.is_binary_body(plain)
        rows = codec.encode_message({"id": 1, "rows": codec.columnar_rows([["a"]])})
        assert rows.startswith(b"RBC2") and codec.is_binary_body(rows)


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
        body = codec.encode_message({"id": 1, "rows": codec.columnar_rows([["a"]])})
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

    def test_preference_edge_relation_recovers(self):
        """A preference edge changes the binding order: the relation
        recovered cold sweeps an evaluator that answers like the
        original's at every item."""
        from repro.core.bulk import evaluator_for

        database = sample_database()
        database.execute(
            "CREATE CLASS sick_bird IN animal UNDER bird;"
            "CREATE INSTANCE pete IN animal UNDER penguin, sick_bird;"
            "PREFER penguin OVER sick_bird IN animal;"
            "ASSERT flies (sick_bird);"
        )
        recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
        relation = recovered.relation("flies")
        assert relation.schema.product.has_preference_edges()
        assert relation._bulk_eval is None
        original = evaluator_for(database.relation("flies"))
        swept = evaluator_for(relation)
        for item in relation.schema.product.all_items():
            assert swept.truth_and_binders(item) == original.truth_and_binders(item)
        assert relation.holds("pete") is False  # -penguin preempts +sick_bird

    def test_snapshot_without_postings_still_loads(self):
        """Every relation of every snapshot is written without a
        ``postings`` key — arity one and two, with and without
        preference edges, swept or advanced before the write — and is
        recovered cold: the evaluator is built at the first read."""
        database = sample_database()
        database.execute(
            "CREATE HIERARCHY food;"
            "CREATE INSTANCE herring IN food;"
            "CREATE RELATION eats (creature: animal, meal: food);"
            "ASSERT eats (bird, herring);"
            "CREATE CLASS sick_bird IN animal UNDER bird;"
            "PREFER penguin OVER sick_bird IN animal;"
        )
        database.relation("flies").holds("tweety")  # memoised evaluator
        database.execute("ASSERT flies (pingo); RETRACT flies (pingo);")  # advanced
        database.relation("flies").holds("tweety")
        envelope, _ = codec.decode_container(
            codec.encode_snapshot(database), codec.SNAPSHOT_MAGIC
        )
        assert [spec["name"] for spec in envelope["relations"]] == ["flies", "eats"]
        for spec in envelope["relations"]:
            assert "postings" not in spec
        recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
        for relation in recovered.relations.values():
            assert relation._bulk_eval is None
        relation = recovered.relation("flies")
        assert relation.holds("tweety") and not relation.holds("pingo")
        assert relation._bulk_eval is not None

    def test_unknown_node_in_view_raises_the_same_error_as_json(self):
        """A view whose ``select`` names a node the hierarchy lacks is a
        fact about the data, not a torn file: both readers raise the
        same typed error with the same message."""
        database = sample_database()
        database.define_view("v", "select", ["flies"], {"creature": "bird"})
        payload = database_to_dict(database)
        payload["views"][0]["conditions"] = {"creature": "nope"}
        data = codec.encode_snapshot(database)
        envelope, blocks = codec.decode_container(data, codec.SNAPSHOT_MAGIC)
        envelope["views"][0]["conditions"] = {"creature": "nope"}
        data = codec.encode_container(codec.SNAPSHOT_MAGIC, envelope, blocks)
        with pytest.raises(Exception) as from_json:
            database_from_dict(payload)
        with pytest.raises(Exception) as from_binary:
            codec.decode_snapshot(data)
        assert type(from_binary.value) is type(from_json.value)
        assert str(from_binary.value) == str(from_json.value)
        assert "unknown node 'nope'" in str(from_binary.value)

    def test_parent_written_snapshot_still_loads(self, tmp_path):
        """``data/parent_snapshot.bin`` was written by the release that
        still persisted posting blocks (every relation in it carries a
        ``postings`` key): the ``flies`` sample, a preference-edge
        relation and a two-attribute relation.  It was made from a
        checkout of that release with ``PYTHONPATH=src python make.py
        parent_snapshot.bin``, where ``make.py`` is::

            import shutil, sys, tempfile
            from repro.engine.hql import HQLExecutor
            from repro.server import RecoveryManager

            SCRIPT = \"\"\"
            CREATE HIERARCHY animal;
            CREATE CLASS bird IN animal;
            CREATE CLASS canary IN animal UNDER bird;
            CREATE CLASS penguin IN animal UNDER bird;
            CREATE CLASS galapagos_penguin IN animal UNDER penguin;
            CREATE CLASS amazing_flying_penguin IN animal UNDER penguin;
            CREATE INSTANCE tweety IN animal UNDER canary;
            CREATE INSTANCE paul IN animal UNDER galapagos_penguin;
            CREATE INSTANCE peter IN animal UNDER penguin;
            CREATE INSTANCE pamela IN animal UNDER amazing_flying_penguin;
            CREATE INSTANCE patricia IN animal UNDER amazing_flying_penguin, galapagos_penguin;
            CREATE RELATION flies (creature: animal);
            ASSERT flies (bird); ASSERT NOT flies (penguin);
            ASSERT flies (amazing_flying_penguin); ASSERT flies (peter);
            CREATE HIERARCHY person;
            CREATE CLASS quaker IN person;
            CREATE CLASS republican IN person;
            CREATE INSTANCE nixon IN person UNDER quaker, republican;
            CREATE INSTANCE penn IN person UNDER quaker;
            PREFER republican OVER quaker IN person;
            CREATE RELATION pacifist (who: person);
            ASSERT pacifist (quaker); ASSERT NOT pacifist (republican);
            CREATE HIERARCHY food;
            CREATE CLASS seed IN food;
            CREATE CLASS fish IN food;
            CREATE INSTANCE sunflower IN food UNDER seed;
            CREATE INSTANCE herring IN food UNDER fish;
            CREATE RELATION eats (creature: animal, meal: food);
            ASSERT eats (bird, seed); ASSERT NOT eats (penguin, seed);
            ASSERT eats (penguin, fish); ASSERT eats (tweety, herring);
            RETRACT eats (tweety, herring); ASSERT NOT eats (paul, fish);
            \"\"\"

            with tempfile.TemporaryDirectory() as tmp:
                manager = RecoveryManager(tmp)
                database = manager.recover()
                HQLExecutor(
                    database, log=manager.journal, on_journal=manager.note_journalled
                ).run(SCRIPT)
                manager.checkpoint(database)
                shutil.copyfile(manager.snapshot_path_bin, sys.argv[1])
        """
        from repro.core.bulk import BulkEvaluator
        from repro.server import RecoveryManager
        from repro.server.recovery import SNAPSHOT_FILE

        data = (Path(__file__).parent / "data" / "parent_snapshot.bin").read_bytes()
        envelope = codec.snapshot_envelope(data)
        assert all("postings" in spec for spec in envelope["relations"])
        (tmp_path / SNAPSHOT_FILE).write_bytes(data)

        manager = RecoveryManager(str(tmp_path))
        database = manager.recover()
        assert manager.last_recovery["checkpoint"] == 1
        assert sorted(database.relations) == ["eats", "flies", "pacifist"]
        for relation in database.relations.values():
            assert relation._bulk_eval is None
            fresh = BulkEvaluator(relation)
            for item in relation.schema.product.all_items():
                assert relation.truth_of(item) == fresh.truth(item)
        assert database.relation("pacifist").schema.product.has_preference_edges()
        assert database.relation("pacifist").holds("nixon") is False
        assert database.relation("flies").holds("patricia") is True
        assert database.relation("eats").holds("paul", "herring") is False

        manager.checkpoint(database)
        rewritten = codec.snapshot_envelope((tmp_path / SNAPSHOT_FILE).read_bytes())
        assert rewritten["checkpoint"] == 2
        assert not any("postings" in spec for spec in rewritten["relations"])

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
