"""Unit tests for durable recovery: snapshot + journal lifecycle.

These drive :class:`RecoveryManager` with plain executors (no sockets)
so every crash-ordering case is deterministic: journal-only recovery,
checkpoint rotation, the stale-log discard after a crash between the
snapshot replace and the journal reset, rolled-back transactions,
preemption strategies, and materialized views.
"""

import os
import shutil

import pytest

from repro.engine import HierarchicalDatabase, codec
from repro.engine.hql import HQLExecutor
from repro.engine.storage import load_database, save_database
from repro.errors import CatalogError, HQLError
from repro.server import RecoveryManager
from repro.server.recovery import OPLOG_FILE, SNAPSHOT_FILE, V1_SNAPSHOT_FILE

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


#: What a v1 server wrote as ``snapshot.json`` (the ``flies`` sample,
#: abridged): JSON text, which no reader of this release accepts.
V1_SNAPSHOT_TEXT = """{
  "format": "repro-db",
  "version": 2,
  "name": "server",
  "hierarchies": [
    {"name": "animal", "root": "animal", "preference_edges": [],
     "nodes": [{"name": "bird", "parents": ["animal"], "instance": false}]}
  ],
  "relations": [
    {"name": "flies", "strategy": "off-path",
     "attributes": [["creature", "animal"]], "tuples": [[["bird"], true]]}
  ],
  "views": [],
  "checkpoint": %d
}
"""


def plant_v1_snapshot(path, checkpoint):
    path.write_text(V1_SNAPSHOT_TEXT % checkpoint)


def boot(data_dir, **kwargs):
    """One server 'process': recover, and journal everything committed."""
    manager = RecoveryManager(str(data_dir), **kwargs)
    database = manager.recover()
    session = HQLExecutor(
        database, log=manager.journal, on_journal=manager.note_journalled
    )
    return manager, database, session


class TestJournalRecovery:
    def test_cold_boot_is_empty(self, tmp_path):
        manager, database, _ = boot(tmp_path)
        assert manager.last_recovery == {
            "snapshot": False,
            "checkpoint": 0,
            "replayed": 0,
            "discarded_stale_log": False,
        }
        assert not database.relations

    def test_journal_replay_across_boots(self, tmp_path):
        _, _, session = boot(tmp_path)
        session.run(SETUP)
        manager2, recovered, _ = boot(tmp_path)
        assert manager2.last_recovery["replayed"] == 8
        assert recovered.relation("flies").holds("tweety")
        assert not recovered.relation("flies").holds("pingo")

    def test_rolled_back_transaction_not_recovered(self, tmp_path):
        _, _, session = boot(tmp_path)
        session.run(SETUP)
        session.run("BEGIN; ASSERT NOT flies (tweety); ROLLBACK;")
        session.run("BEGIN; ASSERT flies (pingo); COMMIT;")
        _, recovered, _ = boot(tmp_path)
        assert recovered.relation("flies").holds("tweety")  # rollback left no trace
        assert recovered.relation("flies").holds("pingo")  # commit journalled

    def test_open_transaction_dies_with_the_process(self, tmp_path):
        _, _, session = boot(tmp_path)
        session.run(SETUP)
        session.run("BEGIN; ASSERT NOT flies (tweety);")  # crash before COMMIT
        _, recovered, _ = boot(tmp_path)
        assert recovered.relation("flies").holds("tweety")

    def test_preemption_strategy_survives_journal_replay(self, tmp_path):
        _, _, session = boot(tmp_path)
        session.run("CREATE HIERARCHY h;")
        session.run("CREATE RELATION r (x: h) WITH STRATEGY on-path;")
        _, recovered, _ = boot(tmp_path)
        assert recovered.relation("r").strategy.name == "on-path"


class TestCheckpoints:
    def test_checkpoint_rotates_the_journal(self, tmp_path):
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        assert manager.journalled_since_checkpoint == 8
        generation = manager.checkpoint(database)
        assert generation == 1
        assert manager.journalled_since_checkpoint == 0
        assert manager.journal.entries() == []  # folded into the snapshot
        assert manager.journal.checkpoint_marker() == 1
        with open(str(tmp_path / SNAPSHOT_FILE), "rb") as handle:
            assert codec.snapshot_envelope(handle.read())["checkpoint"] == 1

    def test_recovery_from_snapshot_plus_tail(self, tmp_path):
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        manager.checkpoint(database)
        session.run("ASSERT flies (pingo);")  # journalled after the rotation
        manager2, recovered, _ = boot(tmp_path)
        assert manager2.last_recovery["snapshot"] is True
        assert manager2.last_recovery["checkpoint"] == 1
        assert manager2.last_recovery["replayed"] == 1
        assert recovered.relation("flies").holds("pingo")

    def test_checkpoint_due_counts_journalled_statements(self, tmp_path):
        manager, _, session = boot(tmp_path, snapshot_interval=3)
        session.run("CREATE HIERARCHY h;")
        session.run("CREATE RELATION r (x: h);")
        assert not manager.checkpoint_due
        session.run("CREATE INSTANCE i IN h;")
        assert manager.checkpoint_due

    def test_failed_checkpoint_keeps_the_stamp_and_defers_the_retry(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import storage
        from repro.errors import StorageError

        manager, database, session = boot(tmp_path, snapshot_interval=3)
        session.run(SETUP)  # 8 journalled statements: due
        def disk_full(path, data):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(storage, "write_bytes_atomic", disk_full)
            with pytest.raises(StorageError):
                manager.checkpoint(database)
        assert manager.checkpoint_id == 0
        assert manager.journal.checkpoint_marker() is None  # journal untouched
        assert manager.journalled_since_checkpoint == 8
        assert not manager.checkpoint_due
        session.run("ASSERT flies (tweety); ASSERT flies (pingo);")
        assert not manager.checkpoint_due
        session.run("RETRACT flies (pingo);")
        assert manager.checkpoint_due  # one full interval after the failure
        assert manager.checkpoint(database) == 1
        session.run("RETRACT flies (tweety);")
        assert not manager.checkpoint_due  # back to the plain interval

    def test_interval_zero_never_due(self, tmp_path):
        manager, _, session = boot(tmp_path, snapshot_interval=0)
        session.run(SETUP)
        assert not manager.checkpoint_due

    def test_preemption_strategy_survives_snapshot(self, tmp_path):
        manager, database, session = boot(tmp_path)
        session.run("CREATE HIERARCHY h;")
        session.run("CREATE RELATION r (x: h) WITH STRATEGY none;")
        manager.checkpoint(database)
        _, recovered, _ = boot(tmp_path)
        assert recovered.relation("r").strategy.name == "none"

    def test_views_survive_snapshot(self, tmp_path):
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        session.run("CREATE RELATION swims (creature: animal); ASSERT swims (penguin);")
        database.define_view("movers", "union", ["flies", "swims"])
        manager.checkpoint(database)
        _, recovered, _ = boot(tmp_path)
        assert recovered.view_definitions["movers"] == {
            "op": "union",
            "sources": ["flies", "swims"],
            "conditions": {},
        }
        view = recovered.view("movers")
        assert view.relation().truth_of(("pingo",)) is True  # swims via penguin


class TestCrashOrderings:
    def test_stale_journal_discarded_not_double_applied(self, tmp_path):
        """Crash between snapshot replace and journal reset: the
        journal's statements are already inside the snapshot — replay
        would crash on CREATE (or double-apply DML)."""
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        # Step 1 of a checkpoint only: stamp generation 1 and die
        # before the journal rotation.
        save_database(database, str(tmp_path / SNAPSHOT_FILE), extra={"checkpoint": 1})
        manager2, recovered, _ = boot(tmp_path)
        assert manager2.last_recovery["discarded_stale_log"] is True
        assert manager2.last_recovery["replayed"] == 0
        assert recovered.relation("flies").holds("tweety")
        # The discard re-stamped the journal; the next boot is normal.
        assert manager2.journal.checkpoint_marker() == 1
        manager3, _, _ = boot(tmp_path)
        assert manager3.last_recovery["discarded_stale_log"] is False

    def test_missing_journal_is_fine(self, tmp_path):
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        manager.checkpoint(database)
        os.unlink(str(tmp_path / OPLOG_FILE))
        _, recovered, _ = boot(tmp_path)
        assert recovered.relation("flies").holds("tweety")

    def test_corrupt_snapshot_surfaces_as_storage_error(self, tmp_path):
        from repro.errors import StorageError

        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        manager.checkpoint(database)
        whole = (tmp_path / SNAPSHOT_FILE).read_bytes()
        (tmp_path / SNAPSHOT_FILE).write_bytes(whole[: len(whole) // 2])
        with pytest.raises(StorageError):
            boot(tmp_path)


class TestSnapshotFormats:
    """Recovery reads ``snapshot.bin`` only: a v1 ``snapshot.json`` is
    refused alone and ignored beside a binary snapshot."""

    def test_v1_only_directory_is_refused(self, tmp_path):
        from repro.errors import StorageError

        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        manager.checkpoint(database)
        # Rewrite it as a plain v1 directory: JSON snapshot, no binary.
        os.unlink(str(tmp_path / SNAPSHOT_FILE))
        plant_v1_snapshot(tmp_path / V1_SNAPSHOT_FILE, checkpoint=1)
        with pytest.raises(StorageError) as caught:
            boot(tmp_path)
        message = str(caught.value)
        assert str(tmp_path / V1_SNAPSHOT_FILE) in message
        assert "earlier release" in message and SNAPSHOT_FILE in message
        # The refusal left the directory as it was.
        assert sorted(os.listdir(str(tmp_path))) == [OPLOG_FILE, V1_SNAPSHOT_FILE]

    def test_v1_only_tenant_is_quarantined(self, tmp_path):
        from repro.errors import TenantQuarantinedError
        from repro.tenants import TenantRegistry

        registry = TenantRegistry.durable(str(tmp_path))
        tenant = registry.create("old")
        HQLExecutor(tenant.database).run(SETUP)
        plant_v1_snapshot(tmp_path / "old" / V1_SNAPSHOT_FILE, checkpoint=1)
        registry2 = TenantRegistry.durable(str(tmp_path))
        assert "StorageError" in registry2.tenants["old"].quarantined
        assert V1_SNAPSHOT_FILE in registry2.tenants["old"].quarantined
        assert registry2.default.database is not None
        with pytest.raises(TenantQuarantinedError):
            registry2.get("old")

    def test_stale_json_next_to_binary_is_ignored(self, tmp_path):
        """A checkpoint of an earlier release wrote ``snapshot.bin``
        before unlinking ``snapshot.json``, so a crash in between leaves
        both, and the binary one is the newer: recovery reads it alone,
        whatever stamp the JSON file carries."""
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        plant_v1_snapshot(tmp_path / V1_SNAPSHOT_FILE, checkpoint=7)
        session.run("ASSERT flies (pingo);")
        manager.checkpoint(database)
        manager2, recovered, _ = boot(tmp_path)
        assert manager2.last_recovery["checkpoint"] == 1
        assert recovered.relation("flies").holds("pingo")
        # Nothing deletes it either; the next checkpoint leaves it be.
        manager2.checkpoint(recovered)
        assert os.path.exists(str(tmp_path / V1_SNAPSHOT_FILE))

    def test_mid_checkpoint_crash_binary_format(self, tmp_path):
        """Binary flavour of the stale-journal ordering: snapshot.bin
        replaced, crash before the journal reset."""
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        save_database(database, str(tmp_path / SNAPSHOT_FILE), extra={"checkpoint": 1})
        manager2, recovered, _ = boot(tmp_path)
        assert manager2.last_recovery["discarded_stale_log"] is True
        assert manager2.last_recovery["replayed"] == 0
        assert recovered.relation("flies").holds("tweety")

    def test_binary_roundtrip_is_bit_identical(self, tmp_path):
        """The recovered database matches the original tuple-for-tuple
        and sign-for-sign, and its first read sweeps an evaluator that
        answers like the original's at every item."""
        from repro.core.bulk import evaluator_for

        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        manager.checkpoint(database)
        _, recovered, _ = boot(tmp_path)
        for name in ("flies",):
            original = database.relation(name)
            copy = recovered.relation(name)
            assert copy.asserted == original.asserted
            assert copy.version == original.version
            assert copy._bulk_eval is None
            items = list(original.schema.product.all_items())
            assert evaluator_for(copy).truths(items) == evaluator_for(original).truths(items)


class TestLoadAndSnapshots:
    """``SAVE``/``LOAD`` files and ``snapshot.bin`` are one format, and
    a journalled session refuses ``LOAD``, which its journal cannot
    record."""

    def test_load_in_a_journalled_session_is_refused(self, tmp_path):
        """An accepted ``LOAD`` would not be journalled, but the writes
        after it would, and the next boot would replay them against the
        catalog from before it."""
        path = str(tmp_path / "other.db")
        HQLExecutor(
            database_from_script(
                "CREATE HIERARCHY h; CREATE CLASS a IN h; CREATE RELATION x (v: h);"
            )
        ).run("SAVE '{}';".format(path))

        _, database, session = boot(tmp_path / "data")
        session.run("CREATE HIERARCHY h; CREATE CLASS a IN h;")
        try:
            session.run("LOAD '{}';".format(path))
            refused = None
        except HQLError as exc:
            refused = exc
        try:
            session.run("ASSERT x (a);")
        except CatalogError:
            pass
        _, recovered, _ = boot(tmp_path / "data")
        assert refused is not None and "LOAD is refused" in str(refused)
        assert "x" not in database.relations  # the refusal touched nothing
        assert sorted(recovered.hierarchies) == ["h"] and not recovered.relations
        # The session keeps serving.
        session.run("CREATE RELATION y (v: h); ASSERT y (a);")
        assert session.run("TRUTH y (a);")[0].payload is True

    def test_saved_file_boots_as_a_snapshot(self, tmp_path):
        database = database_from_script(SETUP)
        database.define_view("flyers", "union", ["flies", "flies"])
        HQLExecutor(database).run("SAVE '{}';".format(tmp_path / "zoo.db"))
        os.makedirs(str(tmp_path / "data"))
        shutil.copyfile(str(tmp_path / "zoo.db"), str(tmp_path / "data" / SNAPSHOT_FILE))
        manager, recovered, _ = boot(tmp_path / "data")
        assert manager.last_recovery["snapshot"] is True
        assert_same_database(recovered, database)

    def test_checkpointed_snapshot_loads(self, tmp_path):
        manager, database, session = boot(tmp_path)
        session.run(SETUP)
        manager.checkpoint(database)
        served = HQLExecutor(database_from_script("CREATE HIERARCHY other;"))
        served.run("LOAD '{}';".format(tmp_path / SNAPSHOT_FILE))
        assert_same_database(served.database, database)
        assert load_database(str(tmp_path / SNAPSHOT_FILE)).relation("flies").holds("tweety")


def database_from_script(script):
    database = HierarchicalDatabase("server")
    database.execute(script)
    return database


def assert_same_database(got, expected):
    assert sorted(got.hierarchies) == sorted(expected.hierarchies)
    for name, hierarchy in expected.hierarchies.items():
        assert set(got.hierarchy(name).edges()) == set(hierarchy.edges())
        assert got.hierarchy(name).version == hierarchy.version
    assert sorted(got.relations) == sorted(expected.relations)
    for name, relation in expected.relations.items():
        assert got.relation(name).asserted == relation.asserted
        assert got.relation(name).version == relation.version
    assert got.view_definitions == expected.view_definitions
