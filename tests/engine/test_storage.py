"""Unit tests for JSON persistence."""

import json

import pytest

from repro.errors import SchemaError, StorageError
from repro.engine import HierarchicalDatabase, load_database, save_database
from repro.engine.storage import database_from_dict, database_to_dict


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


class TestRoundtrip:
    def test_full_roundtrip(self, db, tmp_path):
        path = str(tmp_path / "zoo.json")
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
        path = str(tmp_path / "zoo.json")
        db.save(path)
        loaded = HierarchicalDatabase.load(path)
        assert loaded.relation("flies").holds("tweety")

    def test_dict_roundtrip_without_files(self, db):
        loaded = database_from_dict(database_to_dict(db))
        assert set(loaded.relations) == {"flies"}


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(str(tmp_path / "nope.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_database(str(path))

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(StorageError):
            load_database(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"format": "repro-db", "version": 99}))
        with pytest.raises(StorageError):
            load_database(str(path))

    def test_unknown_strategy(self):
        payload = {
            "format": "repro-db",
            "version": 1,
            "name": "x",
            "hierarchies": [{"name": "h", "root": "h", "nodes": []}],
            "relations": [
                {
                    "name": "r",
                    "strategy": "bogus",
                    "attributes": [["a", "h"]],
                    "tuples": [],
                }
            ],
        }
        with pytest.raises(StorageError):
            database_from_dict(payload)

    def test_atomic_write_leaves_no_tmp(self, db, tmp_path):
        path = tmp_path / "zoo.json"
        save_database(db, str(path))
        assert path.exists()
        assert not (tmp_path / "zoo.json.tmp").exists()


class TestCrashSafeWrite:
    def test_failure_leaves_original_intact(self, db, tmp_path, monkeypatch):
        """A crash mid-write (simulated: os.replace explodes) must leave
        the previous complete file untouched and no temp litter."""
        import os

        from repro.engine import storage

        path = tmp_path / "zoo.json"
        save_database(db, str(path))
        before = path.read_text()

        def explode(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(storage.os, "replace", explode)
        with pytest.raises(StorageError, match="cannot write"):
            save_database(db, str(path))
        assert path.read_text() == before  # old file never touched
        assert [p for p in os.listdir(tmp_path) if p != "zoo.json"] == []

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
        save_database(db, str(tmp_path / "sub.json"))
        assert seen["dir"] == str(tmp_path)

    def test_extra_keys_merge_and_survive_load(self, db, tmp_path):
        from repro.engine.storage import read_payload

        path = str(tmp_path / "stamped.json")
        save_database(db, path, extra={"checkpoint": 7})
        assert read_payload(path)["checkpoint"] == 7
        # Unknown top-level keys are ignored by the loader.
        assert load_database(path).name == "zoo"


class TestViews:
    def test_views_roundtrip(self, db, tmp_path):
        db.create_relation("swims", [("creature", "animal")]).assert_item(
            ("penguin",)
        )
        db.define_view("movers", "union", ["flies", "swims"])
        path = str(tmp_path / "views.json")
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
        payload = database_to_dict(db)
        payload["views"][0]["conditions"] = {"zz": "penguin"}
        path = tmp_path / "bad_view.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="view 'grounded'"):
            load_database(str(path))

    def test_version_1_files_still_load(self, db, tmp_path):
        """Format v2 added the views list; v1 payloads (no such key)
        must keep loading."""
        payload = database_to_dict(db)
        payload["version"] = 1
        payload.pop("views")
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        loaded = load_database(str(path))
        assert loaded.relation("flies").holds("tweety")
        assert loaded.view_definitions == {}
