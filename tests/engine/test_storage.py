"""Unit tests for database files: the ``RDB2`` snapshot container
written by ``save_database`` and read back by ``load_database``."""

import json

import pytest

from repro.engine import HierarchicalDatabase, codec, load_database, save_database
from repro.engine.hql import HQLExecutor
from repro.engine.storage import read_database
from repro.errors import SchemaError, StorageError


@pytest.fixture
def db():
    database = HierarchicalDatabase("zoo")
    animal = database.create_hierarchy("animal")
    animal.add_class("bird")
    animal.add_class("penguin", parents=["bird"])
    animal.add_class("special", parents=["bird", "penguin"])
    animal.add_instance("tweety", parents=["bird"])
    animal.add_preference_edge("penguin", "special")
    flies = database.create_relation("flies", [("creature", "animal")], strategy="on-path")
    flies.assert_item(("bird",))
    flies.assert_item(("penguin",), truth=False)
    return database


def write_envelope(path, database, edit):
    """Save ``database`` to ``path`` with its envelope passed through
    ``edit`` first."""
    envelope, blocks = codec.decode_container(
        codec.encode_snapshot(database), codec.SNAPSHOT_MAGIC
    )
    edit(envelope)
    path.write_bytes(codec.encode_container(codec.SNAPSHOT_MAGIC, envelope, blocks))


class TestRoundtrip:
    def test_full_roundtrip(self, db, tmp_path):
        path = str(tmp_path / "zoo.rdb")
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.name == "zoo"
        assert set(loaded.hierarchies) == {"animal"}
        animal = loaded.hierarchy("animal")
        assert animal.parents("special") == frozenset({"bird", "penguin"})
        assert animal.is_instance("tweety")
        assert animal.preference_edges() == [("penguin", "special")]
        flies = loaded.relation("flies")
        assert flies.strategy.name == "on-path"
        assert [t.item for t in flies.tuples()] == [("bird",), ("penguin",)]
        assert flies.truth_of_stored(("penguin",)) is False

    def test_semantics_survive(self, db, tmp_path):
        path = str(tmp_path / "zoo.rdb")
        db.save(path)
        loaded = HierarchicalDatabase.load(path)
        assert loaded.relation("flies").holds("tweety")

    def test_back_edge_hierarchy_roundtrips_through_save_and_load(self, tmp_path):
        """``add_edge('b', 'a')`` gives ``a`` a parent inserted after
        it, so the saved node table lists a child before its parent."""
        database = HierarchicalDatabase("edges")
        h = database.create_hierarchy("h")
        h.add_class("a")
        h.add_class("b")
        h.add_edge("b", "a")
        path = str(tmp_path / "edges.rdb")
        session = HQLExecutor(database)
        session.run("SAVE '{}';".format(path))
        session.run("LOAD '{}';".format(path))
        loaded = session.database.hierarchy("h")
        assert loaded is not h
        assert loaded.parents("a") == frozenset({"h", "b"})
        assert set(loaded.edges()) == set(h.edges())
        assert loaded.topological_order() == h.topological_order()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(str(tmp_path / "nope.rdb"))

    def test_corrupt_json(self, db, tmp_path):
        """A JSON file, well-formed or not, is not a database file."""
        for name, text in (
            ("bad.json", "{not json"),
            ("old.json", json.dumps({"format": "repro-db", "version": 2, "name": "zoo"})),
        ):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(StorageError, match="bad magic"):
                load_database(str(path))
        # LOAD of such a file is a typed error; the session keeps serving.
        session = HQLExecutor(db)
        with pytest.raises(StorageError):
            session.run("LOAD '{}';".format(tmp_path / "old.json"))
        assert session.run("TRUTH flies (tweety);")[0].payload is True

    def test_wrong_format_marker(self, db, tmp_path):
        path = tmp_path / "other.rdb"
        write_envelope(path, db, lambda envelope: envelope.update(format="something-else"))
        with pytest.raises(StorageError, match="something-else"):
            load_database(str(path))

    def test_wrong_version(self, db, tmp_path):
        path = tmp_path / "v99.rdb"
        write_envelope(path, db, lambda envelope: envelope.update(version=99))
        with pytest.raises(StorageError, match="99"):
            load_database(str(path))

    def test_unknown_strategy(self, db, tmp_path):
        path = tmp_path / "bogus.rdb"
        write_envelope(
            path, db, lambda envelope: envelope["relations"][0].update(strategy="bogus")
        )
        with pytest.raises(StorageError, match="bogus"):
            load_database(str(path))

    def test_atomic_write_leaves_no_tmp(self, db, tmp_path):
        path = tmp_path / "zoo.rdb"
        save_database(db, str(path))
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["zoo.rdb"]


class TestCrashSafeWrite:
    def test_failure_leaves_original_intact(self, db, tmp_path, monkeypatch):
        """A crash mid-write (simulated: os.replace explodes) must leave
        the previous complete file untouched and no temp litter."""
        import os

        from repro.engine import storage

        path = tmp_path / "zoo.rdb"
        save_database(db, str(path))
        before = path.read_bytes()

        def explode(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(storage.os, "replace", explode)
        db.relation("flies").assert_item(("tweety",))
        with pytest.raises(StorageError, match="cannot write"):
            save_database(db, str(path))
        assert path.read_bytes() == before  # old file never touched
        assert [p for p in os.listdir(tmp_path) if p != "zoo.rdb"] == []

    def test_temp_file_written_in_same_directory(self, db, tmp_path, monkeypatch):
        """os.replace must not cross filesystems, so the temp file has
        to live next to its destination."""
        from repro.engine import storage

        seen = {}
        real_mkstemp = storage.tempfile.mkstemp

        def spy(**kwargs):
            seen.update(kwargs)
            return real_mkstemp(**kwargs)

        monkeypatch.setattr(storage.tempfile, "mkstemp", spy)
        save_database(db, str(tmp_path / "sub.rdb"))
        assert seen["dir"] == str(tmp_path)

    def test_extra_keys_merge_and_survive_load(self, db, tmp_path):
        path = str(tmp_path / "stamped.rdb")
        save_database(db, path, extra={"checkpoint": 7})
        _, envelope = read_database(path)
        assert envelope["checkpoint"] == 7
        # Unknown envelope keys are ignored by the loader.
        assert load_database(path).name == "zoo"


class TestViews:
    def test_views_roundtrip(self, db, tmp_path):
        db.create_relation("swims", [("creature", "animal")]).assert_item(
            ("penguin",)
        )
        db.define_view("movers", "union", ["flies", "swims"])
        path = str(tmp_path / "views.rdb")
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.view_definitions["movers"] == {
            "op": "union",
            "sources": ["flies", "swims"],
            "conditions": {},
        }
        assert loaded.view("movers").relation().truth_of(("penguin",)) is True

    def test_stored_select_over_an_unknown_attribute_fails_naming_the_view(
        self, db, tmp_path
    ):
        db.define_view("grounded", "select", ["flies"], {"creature": "penguin"})
        path = tmp_path / "bad_view.rdb"
        write_envelope(
            path, db, lambda envelope: envelope["views"][0].update(conditions={"zz": "penguin"})
        )
        with pytest.raises(SchemaError, match="view 'grounded'"):
            load_database(str(path))
