"""Multi-tenant server tests: isolation, quotas, lifecycle, recovery.

The contract under test (docs/SERVER.md "Multi-tenancy"): tenants are
*independent* databases under one process — same relation names never
collide across tenants in data, caches, stats, metrics, or recovery
files; quota violations raise typed errors; one corrupt tenant is
quarantined without taking the others down; and ``use`` is rejected
mid-transaction because staged state cannot follow a session across
databases.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os

import pytest

from repro.client import HQLClient
from repro.engine import HierarchicalDatabase
from repro.errors import (
    QuotaExceededError,
    RemoteError,
    StorageError,
    TenantError,
    UnknownTenantError,
)
from repro.server import HQLServer, ServerThread
from repro.tenants import DEFAULT_TENANT, TenantQuotas, TenantRegistry, TokenBucket

SETUP = (
    "CREATE HIERARCHY animal;"
    "CREATE CLASS bird IN animal;"
    "CREATE INSTANCE tweety IN animal UNDER bird;"
    "CREATE RELATION flies (creature: animal);"
)


@pytest.fixture
def multi_server():
    server = HQLServer(HierarchicalDatabase("multi"), port=0, tenants=("t1", "t2"))
    runner = ServerThread(server)
    host, port = runner.start()
    try:
        yield server, host, port
    finally:
        runner.shutdown()


def client_for(host, port, db=None, **kw):
    client = HQLClient(host=host, port=port, db=db, **kw)
    client.connect()
    return client


# ----------------------------------------------------------------------
# registry unit tests
# ----------------------------------------------------------------------


class TestRegistry:
    def test_memory_registry_has_a_default_tenant(self):
        registry = TenantRegistry.memory()
        assert registry.default.name == DEFAULT_TENANT
        assert registry.names() == [DEFAULT_TENANT]

    def test_create_and_drop(self):
        registry = TenantRegistry.memory()
        registry.create("alpha")
        assert "alpha" in registry
        registry.drop("alpha")
        assert "alpha" not in registry

    def test_default_tenant_cannot_be_dropped(self):
        registry = TenantRegistry.memory()
        with pytest.raises(TenantError):
            registry.drop(DEFAULT_TENANT)

    def test_invalid_names_are_rejected(self):
        registry = TenantRegistry.memory()
        for bad in ("", "1abc", "a/b", "x" * 65, "a b"):
            with pytest.raises(TenantError):
                registry.create(bad)

    def test_duplicate_create_is_rejected(self):
        registry = TenantRegistry.memory()
        registry.create("alpha")
        with pytest.raises(TenantError):
            registry.create("alpha")

    def test_unknown_tenant_error_names_the_known_ones(self):
        registry = TenantRegistry.memory()
        registry.create("alpha")
        with pytest.raises(UnknownTenantError) as err:
            registry.get("nope")
        assert "alpha" in str(err.value)

    def test_tuple_quota_raises_typed_error(self):
        registry = TenantRegistry.memory()
        tenant = registry.create("alpha", TenantQuotas(max_tuples=0))
        with pytest.raises(QuotaExceededError) as err:
            tenant.check_tuple_quota()
        assert err.value.tenant == "alpha"
        assert err.value.quota == "max_tuples"

    def test_token_bucket_enforces_sustained_rate(self):
        bucket = TokenBucket(rate=10.0, capacity=2)
        now = bucket.stamp  # drive time explicitly from the bucket's epoch
        assert bucket.take(now)
        assert bucket.take(now)
        assert not bucket.take(now)  # burst spent, no time has passed
        assert not bucket.take(now + 0.05)  # half a token is not one
        assert bucket.take(now + 0.15)  # tokens refill at 10/s

    def test_quotas_round_trip_through_json(self):
        quotas = TenantQuotas(max_tuples=10, statement_rate=5.0)
        again = TenantQuotas.from_dict(json.loads(json.dumps(quotas.to_dict())))
        assert again == quotas


class TestDurableRegistry:
    def test_named_tenants_get_their_own_directories(self, tmp_path):
        registry = TenantRegistry.durable(str(tmp_path))
        registry.create("alpha")
        assert (tmp_path / "alpha").is_dir()
        # The default tenant occupies the root — no 'default/' subdir.
        assert not (tmp_path / "default").exists()

    def test_discovery_recovers_named_tenants(self, tmp_path):
        registry = TenantRegistry.durable(str(tmp_path))
        tenant = registry.create("alpha")
        tenant.recovery.journal.append("CREATE HIERARCHY h;")
        registry2 = TenantRegistry.durable(str(tmp_path))
        assert "alpha" in registry2
        assert "h" in registry2.get("alpha").database.hierarchies

    def test_quotas_persist_in_tenant_json(self, tmp_path):
        registry = TenantRegistry.durable(str(tmp_path))
        registry.create("alpha", TenantQuotas(max_tuples=7))
        registry2 = TenantRegistry.durable(str(tmp_path))
        assert registry2.get("alpha").quotas.max_tuples == 7

    def test_failed_quota_write_keeps_the_old_quotas(self, tmp_path, monkeypatch):
        """``tenant.json`` goes through the crash-safe writer: a full
        disk leaves the old quotas in memory and on disk, and the
        caller gets a typed error."""
        from repro.engine import storage

        registry = TenantRegistry.durable(str(tmp_path))
        registry.create("alpha", TenantQuotas(max_tuples=7))

        def disk_full(path, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(storage, "write_bytes_atomic", disk_full)
        with pytest.raises(StorageError, match="tenant.json"):
            registry.set_quotas("alpha", TenantQuotas(max_tuples=9))
        assert registry.get("alpha").quotas.max_tuples == 7
        # A tenant whose quotas could not be written is not created.
        with pytest.raises(StorageError):
            registry.create("beta")
        assert "beta" not in registry
        monkeypatch.undo()
        assert TenantRegistry.durable(str(tmp_path)).get("alpha").quotas.max_tuples == 7
        assert registry.create("beta").quotas == registry.default_quotas

    def test_corrupt_tenant_is_quarantined_not_fatal(self, tmp_path):
        registry = TenantRegistry.durable(str(tmp_path))
        tenant = registry.create("broken")
        tenant.recovery.journal.append("CREATE HIERARCHY h;")
        # Mangle the journal so replay fails at the next boot.
        oplog = tmp_path / "broken" / "oplog.hql"
        oplog.write_text("THIS IS NOT HQL (;;\n")
        registry.create("healthy")

        registry2 = TenantRegistry.durable(str(tmp_path))
        assert registry2.tenants["broken"].quarantined is not None
        # The healthy tenants still serve.
        assert registry2.get("healthy").database is not None
        assert registry2.default.database is not None
        from repro.errors import TenantQuarantinedError

        with pytest.raises(TenantQuarantinedError):
            registry2.get("broken")

    def test_drop_deletes_the_tenant_directory(self, tmp_path):
        registry = TenantRegistry.durable(str(tmp_path))
        registry.create("alpha")
        assert (tmp_path / "alpha").is_dir()
        registry.drop("alpha")
        assert not (tmp_path / "alpha").exists()


# ----------------------------------------------------------------------
# wire-level isolation
# ----------------------------------------------------------------------


class TestIsolation:
    def test_same_relation_names_never_collide(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.execute(SETUP + "ASSERT flies (bird);")
            c.use("t1")
            c.execute(SETUP + "ASSERT flies (tweety);")
            c.use("t2")
            c.execute(SETUP)  # t2 asserts nothing

            assert not c.truth("flies", ["tweety"])
            c.use("t1")
            assert c.truth("flies", ["tweety"])
            c.use("default")
            assert c.truth("flies", ["bird"])

    def test_hello_advertises_tenants(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            assert c.hello["tenants"] == ["default", "t1", "t2"]

    def test_caches_and_metrics_are_per_tenant(self, multi_server):
        server, host, port = multi_server
        with client_for(host, port) as c:
            c.use("t1")
            c.execute(SETUP + "ASSERT flies (bird);")
            c.execute("SELECT FROM flies;")
            c.execute("SELECT FROM flies;")  # cache hit in t1 only
        t1 = server.registry.get("t1")
        t2 = server.registry.get("t2")
        assert t1.database.query_cache.hits >= 1
        assert t2.database.query_cache.hits == 0
        assert t1.m_statements.snapshot() > 0
        assert t2.m_statements.snapshot() == 0
        assert t1.database.metrics is not t2.database.metrics

    def test_per_request_db_field_binds_the_session(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port, db="t1") as c:
            c.execute(SETUP + "ASSERT flies (bird);")
        with client_for(host, port, db="t2") as c:
            c.execute(SETUP)
            assert not c.truth("flies", ["bird"])
        with client_for(host, port, db="t1") as c:
            assert c.truth("flies", ["bird"])

    def test_use_inside_transaction_is_rejected_typed(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.use("t1")
            c.execute(SETUP)
            c.execute("BEGIN;")
            with pytest.raises(RemoteError) as err:
                c.use("t2")
            assert err.value.remote_type == "TenantError"
            assert "transaction" in str(err.value)
            c.execute("ROLLBACK;")
            c.use("t2")  # fine once the transaction is closed

    def test_unknown_tenant_is_a_typed_remote_error(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            with pytest.raises(RemoteError) as err:
                c.use("nope")
            assert err.value.remote_type == "UnknownTenantError"

    def test_transactions_do_not_cross_tenants(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as a, client_for(host, port) as b:
            a.use("t1")
            b.use("t2")
            a.execute(SETUP)
            b.execute(SETUP)
            a.execute("BEGIN; ASSERT flies (bird);")
            # b's view of t2 is untouched by a's staged t1 write...
            assert not b.truth("flies", ["bird"])
            a.execute("COMMIT;")
            # ...and stays untouched after the commit lands in t1.
            assert not b.truth("flies", ["bird"])


# ----------------------------------------------------------------------
# quotas over the wire
# ----------------------------------------------------------------------


class TestQuotas:
    def test_tuple_quota_over_the_wire(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.set_tenant_quotas("t1", {"max_tuples": 1})
            c.use("t1")
            c.execute(SETUP + "ASSERT flies (bird);")
            with pytest.raises(RemoteError) as err:
                c.execute("ASSERT flies (tweety);")
            assert err.value.remote_type == "QuotaExceededError"

    def test_statement_rate_quota(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.create_tenant("limited", quotas={"statement_rate": 1.0, "burst": 2})
            c.use("limited")
            with pytest.raises(RemoteError) as err:
                for _ in range(10):
                    c.execute("CREATE HIERARCHY h;" if False else "SHOW RELATIONS;")
            assert err.value.remote_type == "QuotaExceededError"
            denials = [
                t for t in c.tenants() if t["name"] == "limited"
            ][0]["quotas"]["denials"]
            assert denials >= 1

    def test_cursor_quota(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.create_tenant("cursed", quotas={"max_cursors": 1})
            c.use("cursed")
            c.execute(SETUP)
            c.execute(
                "".join(
                    "CREATE INSTANCE b{} IN animal UNDER bird;"
                    "ASSERT flies (b{});".format(i, i)
                    for i in range(40)
                )
            )
            first = c.execute("SELECT FROM flies;", page_size=5)[0]
            assert first.cursor  # one open cursor: at the cap
            with pytest.raises(RemoteError) as err:
                c.execute("SELECT FROM flies;", page_size=5)
            assert err.value.remote_type == "QuotaExceededError"

    def test_quota_errors_do_not_poison_the_session(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.set_tenant_quotas("t2", {"max_tuples": 0})
            c.use("t2")
            c.execute(SETUP)
            with pytest.raises(RemoteError):
                c.execute("ASSERT flies (bird);")
            # Reads still work, and so does another tenant.
            assert not c.truth("flies", ["bird"])
            c.use("t1")
            c.execute(SETUP + "ASSERT flies (bird);")


# ----------------------------------------------------------------------
# lifecycle over the wire
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_create_list_drop(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.create_tenant("fresh")
            assert "fresh" in [t["name"] for t in c.tenants()]
            c.drop_tenant("fresh")
            assert "fresh" not in [t["name"] for t in c.tenants()]

    def test_drop_reclaims_cursors_and_unbinds_sessions(self, multi_server):
        server, host, port = multi_server
        with client_for(host, port) as c, client_for(host, port) as admin:
            c.use("t1")
            c.execute(SETUP)
            c.execute(
                "".join(
                    "CREATE INSTANCE b{} IN animal UNDER bird;"
                    "ASSERT flies (b{});".format(i, i)
                    for i in range(40)
                )
            )
            result = c.execute("SELECT FROM flies;", page_size=5)[0]
            assert result.cursor
            tenant = server.registry.get("t1")
            assert server._tenant_cursors(tenant) == 1

            admin.drop_tenant("t1")
            # The cursor is reaped with the tenant...
            assert server._tenant_cursors(tenant) == 0
            # ...and the session's next statement reports the tenant gone.
            with pytest.raises(RemoteError) as err:
                c.execute("SHOW RELATIONS;")
            assert err.value.remote_type == "UnknownTenantError"
            # The session recovers by switching to a live tenant.
            c.use("t2")
            c.execute("SHOW RELATIONS;")

    def test_stats_carry_a_per_tenant_block(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.use("t1")
            c.execute(SETUP + "ASSERT flies (bird);")
            rows = {t["name"]: t for t in c.stats()["tenants"]}
            assert set(rows) == {"default", "t1", "t2"}
            assert rows["t1"]["tuples"] == 1
            assert rows["t2"]["tuples"] == 0
            assert "cache" in rows["t1"] and "quotas" in rows["t1"]

    def test_tenant_rows_carry_their_own_lock_state(self):
        server = HQLServer(HierarchicalDatabase("multi"), port=0, tenants=("t1", "t2"))
        runner = ServerThread(server)
        host, port = runner.start()
        t1 = server.registry.get("t1")
        held = False
        try:
            with client_for(host, port, db="t1") as c:
                c.execute(SETUP + "ASSERT flies (bird);")
                c.count("flies")  # one threaded read on t1
            asyncio.run_coroutine_threadsafe(
                t1.lock.acquire_write(), runner._loop
            ).result(5)
            held = True
            with client_for(host, port) as admin:
                stats = admin.stats()
            rows = {t["name"]: t for t in stats["tenants"]}
            assert rows["t1"]["lock"] == {
                "readers": 0,
                "writer_active": True,
                "writers_waiting": 0,
                "max_concurrent_readers": 1,
            }
            assert rows["t2"]["lock"] == {
                "readers": 0,
                "writer_active": False,
                "writers_waiting": 0,
                "max_concurrent_readers": 0,
            }
            # The server block still reports the default tenant's lock.
            assert stats["server"]["writer_active"] is False
            assert stats["server"]["active_readers"] == 0
        finally:
            if held:
                asyncio.run_coroutine_threadsafe(
                    t1.lock.release_write(), runner._loop
                ).result(5)
            runner.shutdown()

    def test_metrics_text_prefixes_named_tenants(self, multi_server):
        _, host, port = multi_server
        with client_for(host, port) as c:
            c.use("t1")
            c.execute(SETUP)
            text = c.metrics_text()
        assert "repro_tenant_t1_" in text


# ----------------------------------------------------------------------
# durability: per-tenant recovery after a crash
# ----------------------------------------------------------------------


class TestDurability:
    def test_all_tenants_recover_after_abort(self, tmp_path):
        data_dir = str(tmp_path)
        server = HQLServer(data_dir=data_dir, port=0, tenants=("t1", "t2"))
        runner = ServerThread(server)
        host, port = runner.start()
        with client_for(host, port) as c:
            # Instance-level asserts only: class-level truth would be
            # inherited by every instance and blur the cross-tenant
            # comparison.
            c.execute(SETUP + "ASSERT flies (tweety);")
            c.use("t1")
            c.execute(
                SETUP
                + "CREATE INSTANCE polly IN animal UNDER bird;"
                + "ASSERT flies (polly);"
            )
            c.use("t2")
            c.execute(SETUP)
        runner.abort()  # simulated crash: no final checkpoint

        server2 = HQLServer(data_dir=data_dir, port=0)
        runner2 = ServerThread(server2)
        host2, port2 = runner2.start()
        try:
            with client_for(host2, port2) as c:
                assert c.hello["tenants"] == ["default", "t1", "t2"]
                assert c.truth("flies", ["tweety"])
                c.use("t1")
                assert c.truth("flies", ["polly"])
                assert not c.truth("flies", ["tweety"])
                c.use("t2")
                assert not c.truth("flies", ["tweety"])
        finally:
            runner2.shutdown()

    def test_recovery_files_never_collide_across_tenants(self, tmp_path):
        data_dir = str(tmp_path)
        server = HQLServer(data_dir=data_dir, port=0, tenants=("t1",))
        runner = ServerThread(server)
        host, port = runner.start()
        with client_for(host, port) as c:
            c.execute(SETUP + "ASSERT flies (bird);")
            c.use("t1")
            c.execute(SETUP + "ASSERT flies (tweety);")
        runner.shutdown()
        # Root (default tenant) and t1/ have disjoint snapshot+journal.
        root_files = {f for f in os.listdir(data_dir) if f != "t1"}
        t1_files = set(os.listdir(os.path.join(data_dir, "t1")))
        assert root_files & t1_files  # same *filenames* by design...
        default_snapshot = [
            f for f in root_files if f.startswith("snapshot")
        ]
        assert default_snapshot  # ...but in different directories

    def test_quarantined_tenant_surfaces_in_stats_and_server_boots(self, tmp_path):
        data_dir = str(tmp_path)
        server = HQLServer(data_dir=data_dir, port=0, tenants=("broken", "ok"))
        runner = ServerThread(server)
        host, port = runner.start()
        with client_for(host, port, db="broken") as c:
            c.execute(SETUP)
        runner.shutdown()
        (tmp_path / "broken" / "oplog.hql").write_text("NOT HQL AT ALL (;;\n")
        # Stale snapshot removal: force journal-only boot to hit the bad log.
        for name in os.listdir(tmp_path / "broken"):
            if name.startswith("snapshot"):
                os.unlink(tmp_path / "broken" / name)

        server2 = HQLServer(data_dir=data_dir, port=0)
        runner2 = ServerThread(server2)
        host2, port2 = runner2.start()
        try:
            with client_for(host2, port2) as c:
                rows = {t["name"]: t for t in c.tenants()}
                assert rows["broken"].get("quarantined")
                with pytest.raises(RemoteError) as err:
                    c.use("broken")
                assert err.value.remote_type == "TenantQuarantinedError"
                c.use("ok")  # healthy tenants keep serving
                c.execute("SHOW RELATIONS;")
        finally:
            runner2.shutdown()
