"""Tests for leader→follower journal shipping.

Unit layers (``LeaderState`` positions, duplicate-delivery dedup,
generation persistence) plus end-to-end topologies over real sockets:
bootstrap, steady-state shipping, ``WAIT_SYNC``, the read-only and
staleness gates, follower crash/rejoin catch-up, leader restart with a
generation bump, and checkpoint rotation under a live follower.
"""

import asyncio
import time

import pytest

from repro.client import HQLClient, is_read_only_script
from repro.errors import (
    LeaderChangedError,
    ReadOnlyError,
    RemoteError,
    ReplicationError,
    ServerError,
    StorageError,
)
from repro.replication import (
    FollowerState,
    LeaderState,
    bump_generation,
    load_generation,
    parse_addr,
)
from repro.server import HQLServer, ServerThread

SETUP = (
    "CREATE HIERARCHY animal;"
    "CREATE CLASS bird IN animal;"
    "CREATE INSTANCE tweety IN animal UNDER bird;"
    "CREATE RELATION flies (creature: animal);"
    "ASSERT flies (bird);"
)


def wait_until(predicate, timeout=20.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def leader(tmp_path):
    runner = ServerThread(HQLServer(data_dir=str(tmp_path / "leader")))
    host, port = runner.start()
    runner.addr = "{}:{}".format(host, port)
    yield runner
    try:
        runner.shutdown()
    except Exception:
        pass


def start_follower(leader_addr, **kwargs):
    runner = ServerThread(HQLServer(replicate_from=leader_addr, **kwargs))
    host, port = runner.start()
    runner.addr = "{}:{}".format(host, port)
    return runner


# ----------------------------------------------------------------------
# unit: positions and segments
# ----------------------------------------------------------------------


class TestLeaderState:
    def make(self, tmp_path, entries=()):
        return LeaderState(str(tmp_path), checkpoint=3, entries=list(entries))

    def test_generation_bumps_per_boot(self, tmp_path):
        first = self.make(tmp_path)
        second = self.make(tmp_path)
        assert second.generation == first.generation + 1
        assert load_generation(str(tmp_path)) == second.generation

    def test_entries_after_within_segment(self, tmp_path):
        state = self.make(tmp_path, ["a;", "b;", "c;"])
        entries, checkpoint, offset = state.entries_after(3, 1)
        assert entries == ["b;", "c;"]
        assert (checkpoint, offset) == (3, 3)

    def test_caught_up_returns_empty_batch(self, tmp_path):
        state = self.make(tmp_path, ["a;"])
        entries, checkpoint, offset = state.entries_after(3, 1)
        assert entries == []
        assert (checkpoint, offset) == (3, 1)

    def test_position_ahead_of_log_forces_resync(self, tmp_path):
        state = self.make(tmp_path, ["a;"])
        assert state.entries_after(3, 9) is None

    def test_unknown_segment_forces_resync(self, tmp_path):
        state = self.make(tmp_path, ["a;"])
        assert state.entries_after(1, 0) is None

    def test_rotation_retires_segment_and_serves_stragglers(self, tmp_path):
        state = self.make(tmp_path, ["a;", "b;"])
        state.note_checkpoint(4)
        state.note_appended("c;")
        # A follower mid-way through the retired segment finishes it...
        entries, checkpoint, offset = state.entries_after(3, 1)
        assert entries == ["b;"]
        assert (checkpoint, offset) == (3, 2)
        # ...then rolls over the boundary into the live segment...
        entries, checkpoint, offset = state.entries_after(3, 2)
        assert entries == []
        assert (checkpoint, offset) == (4, 0)
        # ...and streams normally from there.
        entries, checkpoint, offset = state.entries_after(4, 0)
        assert entries == ["c;"]
        assert (checkpoint, offset) == (4, 1)

    def test_two_rotations_behind_forces_resync(self, tmp_path):
        state = self.make(tmp_path, ["a;"])
        state.note_checkpoint(4)
        state.note_checkpoint(5)
        assert state.entries_after(3, 0) is None

    def test_acks_and_lag(self, tmp_path):
        state = self.make(tmp_path, ["a;", "b;"])
        state.record_ack("f1", state.generation, 3, 1)
        assert state.acks_at((3, 1)) == 1
        assert state.acks_at((3, 2)) == 0
        info = state.followers["f1"]
        lag_entries, _ = state.lag_of(info)
        assert lag_entries == 1
        state.record_ack("f1", state.generation, 3, 2)
        assert state.acks_at((3, 2)) == 1
        assert state.lag_of(info)[0] == 0

    def test_stale_generation_ack_never_counts(self, tmp_path):
        state = self.make(tmp_path, ["a;"])
        state.record_ack("old", state.generation - 1, 3, 1)
        assert state.acks_at((3, 1)) == 0

    def test_wait_synced_wakes_on_ack(self, tmp_path):
        state = self.make(tmp_path, ["a;"])

        async def scenario():
            state.bind_loop(asyncio.get_running_loop())
            waiter = asyncio.ensure_future(state.wait_synced((3, 1), 1, timeout=5.0))
            await asyncio.sleep(0)  # park the waiter
            state.record_ack("f1", state.generation, 3, 1)
            return await waiter

        assert asyncio.run(scenario()) == 1

    def test_wait_synced_timeout(self, tmp_path):
        state = self.make(tmp_path)

        async def scenario():
            state.bind_loop(asyncio.get_running_loop())
            with pytest.raises(asyncio.TimeoutError):
                await state.wait_synced((3, 1), 1, timeout=0.05)

        asyncio.run(scenario())


class TestFollowerState:
    def test_staleness_unknown_before_first_catch_up(self):
        state = FollowerState("h:1")
        assert state.staleness_ms() == float("inf")

    def test_staleness_anchors_to_catch_up(self):
        state = FollowerState("h:1")
        state.caught_up_at = time.time() - 0.5
        assert 400 <= state.staleness_ms() <= 5000


class TestHelpers:
    def test_parse_addr(self):
        assert parse_addr("localhost:7497") == ("localhost", 7497)
        assert parse_addr("[::1]:7497") == ("::1", 7497)
        with pytest.raises(ReplicationError):
            parse_addr("no-port")

    def test_generation_file_survives(self, tmp_path):
        assert load_generation(str(tmp_path)) == 0
        assert bump_generation(str(tmp_path)) == 1
        assert bump_generation(str(tmp_path)) == 2

    def test_failed_generation_write_keeps_the_old_generation(self, tmp_path, monkeypatch):
        """The ``generation`` file goes through the crash-safe writer: a
        full disk fails the leader's boot with a typed error instead of
        leaving a torn file that reads as generation 0."""
        import errno
        import os

        from repro.engine import storage

        assert bump_generation(str(tmp_path)) == 1

        def disk_full(path, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(storage, "write_bytes_atomic", disk_full)
        with pytest.raises(StorageError, match="generation"):
            LeaderState(str(tmp_path), 0)
        monkeypatch.undo()
        assert load_generation(str(tmp_path)) == 1
        assert LeaderState(str(tmp_path), 0).generation == 2

    def test_read_only_script_classification(self):
        assert is_read_only_script("COUNT flies; TRUTH flies (bird);") is True
        assert is_read_only_script("ASSERT flies (bird);") is False
        assert is_read_only_script("COUNT flies; ASSERT flies (bird);") is False
        assert is_read_only_script("BEGIN;") is False
        assert is_read_only_script("not hql at all") is None


# ----------------------------------------------------------------------
# unit: duplicate delivery (generation+offset dedup)
# ----------------------------------------------------------------------


class TestApplyBatchDedup:
    def make_follower_server(self):
        # Constructed but never started: apply_batch only needs the
        # database, the lock, and the metrics instruments.
        server = HQLServer(replicate_from="127.0.0.1:1")
        server.follower_state.generation = 1
        return server

    def run_batches(self, server, batches):
        task = server._follower_task

        async def scenario():
            applied = []
            for entries, gen, base_cp, base_off, next_cp, next_off in batches:
                applied.append(
                    await task.apply_batch(
                        entries, gen, base_cp, base_off, next_cp, next_off
                    )
                )
            return applied

        return asyncio.run(scenario())

    def test_same_batch_twice_applies_once(self):
        server = self.make_follower_server()
        batch = (
            ["CREATE HIERARCHY h;", "CREATE RELATION r (x: h);", "CREATE INSTANCE i IN h;", "ASSERT r (i);"],
            1, 0, 0, 0, 4,
        )
        applied = self.run_batches(server, [batch, batch])
        assert applied == [4, 0]  # the replayed frame is a pure no-op
        assert len(list(server.database.relation("r").tuples())) == 1

    def test_overlapping_batch_trimmed(self):
        server = self.make_follower_server()
        first = (
            ["CREATE HIERARCHY h;", "CREATE RELATION r (x: h);"],
            1, 0, 0, 0, 2,
        )
        overlap = (
            ["CREATE RELATION r (x: h);", "CREATE INSTANCE i IN h;"],
            1, 0, 1, 0, 3,
        )
        applied = self.run_batches(server, [first, overlap])
        assert applied == [2, 1]  # the duplicated middle entry ran once
        assert server.follower_state.position() == (0, 3)

    def test_stale_generation_batch_dropped(self):
        server = self.make_follower_server()
        applied = self.run_batches(
            server, [(["CREATE HIERARCHY h;"], 7, 0, 0, 0, 1)]
        )
        assert applied == [0]
        assert server.follower_state.position() == (0, 0)


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------


class TestReplicationE2E:
    def test_bootstrap_and_steady_state(self, leader):
        with HQLClient(*parse_addr(leader.addr)) as lc:
            lc.execute(SETUP)
            follower = start_follower(leader.addr)
            try:
                with HQLClient(*parse_addr(follower.addr)) as fc:
                    # Bootstrap carried the pre-existing state.
                    assert fc.count("flies") == 1
                    assert fc.hello["role"] == "follower"
                    assert fc.hello["leader"] == leader.addr
                    # Steady-state shipping.
                    lc.execute("ASSERT NOT flies (tweety);")
                    assert wait_until(
                        lambda: fc.query(
                            "TRUTH flies (tweety);", render=False
                        ).payload is False
                    )
            finally:
                follower.shutdown()

    def test_wait_sync_makes_commit_immediately_readable(self, leader):
        follower = start_follower(leader.addr)
        try:
            with HQLClient(*parse_addr(leader.addr)) as lc, HQLClient(
                *parse_addr(follower.addr)
            ) as fc:
                lc.execute(SETUP, wait_sync=1)
                assert lc.last_sync["acked"] >= 1
                # No wait_until: the ack means the follower applied it.
                assert fc.count("flies") == 1
        finally:
            follower.shutdown()

    def test_wait_sync_timeout_when_unsatisfiable(self, leader):
        with HQLClient(*parse_addr(leader.addr)) as lc:
            with pytest.raises(RemoteError) as excinfo:
                lc.execute(SETUP, wait_sync=3, wait_sync_timeout=0.2)
            assert excinfo.value.remote_type == "ReplicationError"
            # The write itself still committed on the leader.
            assert lc.count("flies") == 1

    def test_follower_refuses_named_tenants(self, leader):
        """The leader ships only the default tenant's journal, so a
        follower's copy of a named tenant would answer from nothing."""
        follower = start_follower(leader.addr, tenants=("t0",))
        try:
            with HQLClient(*parse_addr(leader.addr)) as lc:
                lc.execute(SETUP, wait_sync=1)
                lc.create_tenant("t0")
                lc.use("t0")
                lc.execute(SETUP)
                assert lc.count("flies") == 1
            with HQLClient(*parse_addr(follower.addr), follow_leader=False) as fc:
                with pytest.raises(RemoteError) as excinfo:
                    fc.use("t0")
                assert excinfo.value.remote_type == "ReplicationError"
                assert "'t0'" in str(excinfo.value)
                assert "only the default tenant is replicated" in str(excinfo.value)
                # The session survives, still bound to the default tenant.
                assert fc.count("flies") == 1
                assert fc.use("default")["tenant"] == "default"
            with HQLClient(
                *parse_addr(follower.addr), follow_leader=False, db="t0"
            ) as fc:
                with pytest.raises(RemoteError) as excinfo:
                    fc.query("TRUTH flies (tweety);")
                assert excinfo.value.remote_type == "ReplicationError"
                assert "'t0'" in str(excinfo.value)
                fc.db = None
                assert fc.count("flies") == 1
        finally:
            follower.shutdown()

    def test_followers_never_serve_writes(self, leader):
        follower = start_follower(leader.addr)
        try:
            with HQLClient(*parse_addr(leader.addr)) as lc:
                lc.execute(SETUP, wait_sync=1)
            with HQLClient(
                *parse_addr(follower.addr), follow_leader=False
            ) as fc:
                with pytest.raises(LeaderChangedError) as excinfo:
                    fc.execute("ASSERT flies (tweety);")
                assert excinfo.value.leader == leader.addr
                with pytest.raises(LeaderChangedError):
                    fc.execute("BEGIN;")
                # Reads still fine on the same connection.
                assert fc.count("flies") == 1
        finally:
            follower.shutdown()

    def test_client_pointed_at_follower_follows_leader(self, leader):
        follower = start_follower(leader.addr)
        try:
            with HQLClient(*parse_addr(leader.addr)) as lc:
                lc.execute(SETUP, wait_sync=1)
            with HQLClient(*parse_addr(follower.addr)) as fc:
                fc.execute("ASSERT NOT flies (tweety);")  # re-routed
                assert (fc.host, fc.port) == parse_addr(leader.addr)
        finally:
            follower.shutdown()

    def test_routed_client_reads_from_followers(self, leader):
        follower = start_follower(leader.addr)
        try:
            client = HQLClient(*parse_addr(leader.addr), followers=[follower.addr])
            with client:
                client.execute(SETUP, wait_sync=1)
                before = None
                with HQLClient(*parse_addr(follower.addr)) as fc:
                    before = fc.stats()["engine"].get("server.statements", 0)
                    assert client.count("flies") == 1  # routed read
                    after = fc.stats()["engine"].get("server.statements", 0)
                assert after > before  # the follower actually served it
        finally:
            follower.shutdown()

    def test_routed_client_falls_back_to_leader(self, leader):
        follower = start_follower(leader.addr)
        follower_addr = follower.addr
        with HQLClient(*parse_addr(leader.addr)) as lc:
            lc.execute(SETUP, wait_sync=1)
        follower.abort()
        client = HQLClient(*parse_addr(leader.addr), followers=[follower_addr])
        with client:
            assert client.count("flies") == 1  # leader served it

    def test_follower_killed_mid_stream_catches_up_after_restart(self, leader):
        with HQLClient(*parse_addr(leader.addr)) as lc:
            lc.execute(SETUP)
            follower = start_follower(leader.addr)
            with HQLClient(*parse_addr(follower.addr)) as fc:
                assert wait_until(lambda: fc.count("flies") == 1)
            follower.abort()  # crash, not drain
            # The leader keeps committing while the follower is dead.
            for i in range(5):
                lc.execute(
                    "CREATE INSTANCE straggler{} IN animal UNDER bird;"
                    "ASSERT flies (straggler{});".format(i, i)
                )
            assert lc.count("flies") == 6
            rejoined = start_follower(leader.addr)
            try:
                with HQLClient(*parse_addr(rejoined.addr)) as fc:
                    assert wait_until(lambda: fc.count("flies") == 6)
                repl = lc.replication()
                assert repl["role"] == "leader"
            finally:
                rejoined.shutdown()

    def test_leader_restart_bumps_generation_and_forces_resync(self, tmp_path):
        data_dir = str(tmp_path / "leader")
        runner = ServerThread(HQLServer(data_dir=data_dir))
        host, port = runner.start()
        addr = "{}:{}".format(host, port)
        with HQLClient(host, port) as lc:
            lc.execute(SETUP)
            generation = lc.replication()["generation"]
        follower = start_follower(addr)
        try:
            with HQLClient(*parse_addr(follower.addr)) as fc:
                assert wait_until(lambda: fc.count("flies") == 1)
                runner.shutdown()  # leader restarts on the same port
                runner = ServerThread(HQLServer(data_dir=data_dir, port=port))
                runner.start()
                with HQLClient(host, port) as lc:
                    assert lc.replication()["generation"] == generation + 1
                    lc.execute("ASSERT NOT flies (tweety);")
                # The follower noticed the new incarnation, resynced
                # (snapshot + tail), and kept streaming.
                assert wait_until(
                    lambda: fc.query(
                        "TRUTH flies (tweety);", render=False
                    ).payload is False
                )
                assert fc.replication()["resyncs"] >= 2
                assert fc.replication()["generation"] == generation + 1
        finally:
            follower.shutdown()
            runner.shutdown()

    def test_checkpoint_rotation_under_live_follower(self, tmp_path):
        # Aggressive rotation: every 3 journalled statements.
        runner = ServerThread(
            HQLServer(data_dir=str(tmp_path / "leader"), snapshot_interval=3)
        )
        host, port = runner.start()
        follower = start_follower("{}:{}".format(host, port))
        try:
            with HQLClient(host, port) as lc, HQLClient(
                *parse_addr(follower.addr)
            ) as fc:
                lc.execute(SETUP)  # already crosses one rotation
                for i in range(4):
                    lc.execute(
                        "CREATE INSTANCE b{} IN animal UNDER bird;"
                        "ASSERT flies (b{});".format(i, i)
                    )
                assert lc.replication()["checkpoint"] >= 2
                assert wait_until(lambda: fc.count("flies") == 5)
                # And the stream keeps working after the rotations.
                lc.execute("ASSERT NOT flies (tweety);", wait_sync=1)
                assert fc.query("TRUTH flies (tweety);", render=False).payload is False
        finally:
            follower.shutdown()
            runner.shutdown()

    def test_stale_follower_refuses_reads(self, leader):
        follower = start_follower(leader.addr, max_staleness_s=0.2)
        try:
            with HQLClient(*parse_addr(leader.addr)) as lc:
                lc.execute(SETUP, wait_sync=1)
            fc = HQLClient(*parse_addr(follower.addr))
            with fc:
                assert fc.count("flies") == 1  # fresh: serves fine
                leader.abort()  # silence the leader
                assert wait_until(
                    lambda: not fc.replication()["connected"], timeout=5.0
                )
                time.sleep(0.3)  # let staleness cross the bound
                with pytest.raises(RemoteError) as excinfo:
                    fc.count("flies")
                assert excinfo.value.remote_type == "StaleReplicaError"
        finally:
            follower.shutdown()

    def test_replication_observability(self, leader):
        follower = start_follower(leader.addr)
        try:
            with HQLClient(*parse_addr(leader.addr)) as lc, HQLClient(
                *parse_addr(follower.addr)
            ) as fc:
                lc.execute(SETUP, wait_sync=1)
                repl = lc.replication()
                assert repl["role"] == "leader"
                assert repl["generation"] >= 1
                assert len(repl["followers"]) == 1
                row = repl["followers"][0]
                assert row["lag_entries"] == 0
                assert row["lag_ms"] == 0.0
                frepl = fc.replication()
                assert frepl["role"] == "follower"
                assert frepl["leader"] == leader.addr
                assert frepl["applied_entries"] >= 5
                # stats carries the same block; metrics carry the
                # ship/replay instruments.
                assert lc.stats()["replication"]["role"] == "leader"
                assert "repro_replication_ship_entries" in lc.metrics_text()
                assert "repro_replication_replay_ms" in fc.metrics_text()
        finally:
            follower.shutdown()

    def test_follower_cannot_lead(self, leader):
        follower = start_follower(leader.addr)
        try:
            with pytest.raises(ServerError):
                start_follower(follower.addr).shutdown()
        finally:
            follower.shutdown()

    def test_read_only_error_shape(self):
        err = ReadOnlyError("10.0.0.1:7497")
        assert err.leader == "10.0.0.1:7497"
        assert "10.0.0.1:7497" in str(err)

    def test_follower_rejects_data_dir(self, tmp_path):
        with pytest.raises(ServerError):
            HQLServer(data_dir=str(tmp_path / "x"), replicate_from="127.0.0.1:1")
