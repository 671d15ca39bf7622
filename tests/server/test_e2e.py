"""The acceptance scenario, end to end.

An in-process server with a data directory serves ≥4 concurrent
clients issuing mixed reads and transactional writes; the server is
killed mid-stream (:meth:`HQLServer.abort` — no drain, no final
checkpoint); a second server boots from the same directory; and the
recovered extension is checked against what the clients saw:

* every write whose COMMIT was acknowledged must be present
  (durability), and
* nothing that was never attempted may be present (no invention) —
  an unacknowledged-but-attempted write may legitimately land either
  way, since the crash can hit between journal append and ack.
"""

import threading
import time

import pytest

from repro.client import HQLClient
from repro.errors import RemoteError, ServerError
from repro.server import HQLServer, ServerThread

WRITERS = 3
READERS = 2  # ≥4 clients total, mixed workload
ROWS_PER_WRITER = 40
CRASH_AFTER_ACKS = 25  # kill the server once this many commits are in


def _dataset_hql():
    statements = [
        "CREATE HIERARCHY acct;",
        "CREATE RELATION ledger (account: acct);",
    ]
    for w in range(WRITERS):
        for i in range(ROWS_PER_WRITER):
            statements.append("CREATE INSTANCE a{}_{} IN acct;".format(w, i))
    return "".join(statements)


class Workload:
    """Shared bookkeeping between the client threads and the test."""

    def __init__(self):
        self.lock = threading.Lock()
        self.acked = set()  # COMMIT acknowledged over the wire
        self.attempted = set()  # ASSERT sent, fate unknown at crash time
        self.crash = threading.Event()
        self.reader_errors = []

    def total_acked(self):
        with self.lock:
            return len(self.acked)


def _writer(port, writer_id, work):
    client = HQLClient(port=port, reconnect=False, connect_attempts=5)
    try:
        client.connect()
        for i in range(ROWS_PER_WRITER):
            atom = "a{}_{}".format(writer_id, i)
            with work.lock:
                work.attempted.add(atom)
            client.execute(
                "BEGIN; ASSERT ledger ({}); COMMIT;".format(atom)
            )
            with work.lock:
                work.acked.add(atom)
    except (ServerError, RemoteError, ConnectionError, OSError):
        return  # the crash severed us mid-flight; exactly the point
    finally:
        client.close()


def _reader(port, work):
    client = HQLClient(port=port, reconnect=False, connect_attempts=5)
    try:
        client.connect()
        while not work.crash.is_set():
            count = client.count("ledger")
            if count < 0:  # pragma: no cover - sanity
                work.reader_errors.append(count)
            client.truth("ledger", ["a0_0"])
    except (ServerError, RemoteError, ConnectionError, OSError):
        return
    finally:
        client.close()


class TestEndToEnd:
    def test_crash_recovery_with_concurrent_clients(self, tmp_path):
        data_dir = str(tmp_path / "data")
        server = HQLServer(data_dir=data_dir, port=0, snapshot_interval=10)
        runner = ServerThread(server)
        _, port = runner.start()

        with HQLClient(port=port) as admin:
            admin.execute(_dataset_hql())

        work = Workload()
        threads = [
            threading.Thread(target=_writer, args=(port, w, work))
            for w in range(WRITERS)
        ] + [threading.Thread(target=_reader, args=(port, work)) for _ in range(READERS)]
        for thread in threads:
            thread.start()

        deadline = time.time() + 60
        while work.total_acked() < CRASH_AFTER_ACKS and time.time() < deadline:
            time.sleep(0.005)
        assert work.total_acked() >= CRASH_AFTER_ACKS, "workload never got going"

        runner.abort()  # simulated crash: no drain, no final checkpoint
        work.crash.set()
        for thread in threads:
            thread.join(30)
        assert not work.reader_errors

        # The crash landed mid-stream: some commits were acknowledged,
        # and (virtually always) some writes never happened at all.
        assert work.acked
        assert work.acked <= work.attempted

        # --- second process: recover from snapshot + journal ---------
        reborn = HQLServer(data_dir=data_dir, port=0)
        recovered = {
            item[0]
            for item, truth in (
                (t.item, t.truth) for t in reborn.database.relation("ledger").tuples()
            )
            if truth
        }

        missing_acked = work.acked - recovered
        assert not missing_acked, (
            "acknowledged commits lost in recovery: {}".format(sorted(missing_acked))
        )
        invented = recovered - work.attempted
        assert not invented, "recovery invented rows: {}".format(sorted(invented))

        # Recovery genuinely used the checkpoint machinery: with
        # interval 10 and ≥25 acked commits, at least two rotations
        # happened before the crash.
        info = reborn.recovery.last_recovery
        assert info["snapshot"] is True
        assert info["checkpoint"] >= 2

        # The reborn server serves the recovered state over the wire.
        reborn_runner = ServerThread(reborn)
        _, reborn_port = reborn_runner.start()
        try:
            with HQLClient(port=reborn_port) as client:
                assert client.count("ledger") == len(recovered)
                sample = sorted(work.acked)[0]
                assert client.truth("ledger", [sample]) is True
        finally:
            reborn_runner.shutdown()

    def test_graceful_shutdown_loses_nothing(self, tmp_path):
        """The drain counterpart: every acknowledged write survives a
        graceful shutdown via the final checkpoint, and the journal is
        left empty (fully folded into the snapshot)."""
        data_dir = str(tmp_path / "data")
        server = HQLServer(data_dir=data_dir, port=0, snapshot_interval=0)
        runner = ServerThread(server)
        _, port = runner.start()
        with HQLClient(port=port) as client:
            client.execute(
                "CREATE HIERARCHY h; CREATE RELATION r (x: h);"
                "CREATE INSTANCE i1 IN h; CREATE INSTANCE i2 IN h;"
                "ASSERT r (i1); ASSERT r (i2);"
            )
        runner.shutdown(drain=True)

        reborn = HQLServer(data_dir=data_dir, port=0)
        info = reborn.recovery.last_recovery
        assert info["snapshot"] is True
        assert info["replayed"] == 0  # everything was checkpointed
        assert {t.item[0] for t in reborn.database.relation("r").tuples()} == {
            "i1",
            "i2",
        }


@pytest.mark.parametrize("drain", [True, False])
def test_shutdown_modes_are_reenterable(tmp_path, drain):
    """Both shutdown flavours leave a directory a fresh server can boot."""
    data_dir = str(tmp_path / "d")
    server = HQLServer(data_dir=data_dir, port=0)
    runner = ServerThread(server)
    _, port = runner.start()
    with HQLClient(port=port) as client:
        client.execute("CREATE HIERARCHY h;")
    if drain:
        runner.shutdown(drain=True)
    else:
        runner.abort()
    reborn = HQLServer(data_dir=data_dir, port=0)
    assert "h" in reborn.database.hierarchies


def test_failed_checkpoint_never_fails_the_write(tmp_path, monkeypatch):
    """The journal is the durability path; a periodic checkpoint is an
    optimisation.  With every snapshot write failing, each journalled
    write is still acknowledged, the failure is counted, the attempt is
    retried only after another ``snapshot_interval`` writes, and a
    restart recovers everything from the journal."""
    import errno
    import os

    from repro.engine import storage
    from repro.server.recovery import SNAPSHOT_FILE, SNAPSHOT_FILE_BIN

    def disk_full(path, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    data_dir = str(tmp_path / "data")
    server = HQLServer(data_dir=data_dir, port=0, snapshot_interval=3)
    runner = ServerThread(server)
    _, port = runner.start()
    try:
        with HQLClient(port=port) as client:
            client.execute("CREATE HIERARCHY h; CREATE RELATION r (x: h);")
            monkeypatch.setattr(storage, "write_bytes_atomic", disk_full)
            for i in range(7):  # due at the 1st, 4th and 7th of these
                client.execute("CREATE INSTANCE i{} IN h;".format(i))
        failures = server.database.metrics.counter("server.checkpoint.failures")
        assert failures.value == 3
        assert server.recovery.checkpoint_id == 0  # the on-disk stamp: none
        assert not os.path.exists(os.path.join(data_dir, SNAPSHOT_FILE_BIN))
        assert not os.path.exists(os.path.join(data_dir, SNAPSHOT_FILE))
        assert server.recovery.journalled_since_checkpoint == 9
        assert not server.recovery.checkpoint_due
    finally:
        runner.abort()

    reborn = HQLServer(data_dir=data_dir, port=0, snapshot_interval=3)
    assert reborn.recovery.last_recovery["snapshot"] is False
    assert reborn.recovery.last_recovery["replayed"] == 9
    assert {"i{}".format(i) for i in range(7)} <= set(
        reborn.database.hierarchies["h"].nodes()
    )

    # The disk recovers: the next due checkpoint lands.
    monkeypatch.undo()
    runner = ServerThread(reborn)
    _, port = runner.start()
    try:
        with HQLClient(port=port) as client:
            for i in range(7, 10):
                client.execute("CREATE INSTANCE i{} IN h;".format(i))
        assert reborn.recovery.checkpoint_id == 1
        assert reborn.recovery.journalled_since_checkpoint == 0
        assert os.path.exists(os.path.join(data_dir, SNAPSHOT_FILE_BIN))
    finally:
        runner.abort()


class TestRecoveryAfterToggles:
    """Checkpoints written from an *advanced* evaluator: toggling a
    class-level tuple moves its row to the end of insertion order while
    its bit slot is reused, so slot-ordered postings on disk would bind
    every recovered bit to the wrong row."""

    wire_format = None  # the client default: binary

    SETUP = (
        "CREATE HIERARCHY animal;"
        "CREATE CLASS bird IN animal;"
        "CREATE CLASS penguin IN animal UNDER bird;"
        "CREATE CLASS canary IN animal UNDER bird;"
        "CREATE INSTANCE tweety IN animal UNDER canary;"
        "CREATE INSTANCE pingo IN animal UNDER penguin;"
        "CREATE INSTANCE peter IN animal UNDER penguin;"
        "CREATE RELATION flies (creature: animal);"
        "ASSERT flies (bird);"
        "ASSERT NOT flies (penguin);"
        "ASSERT flies (peter);"
    )
    #: The flat oracle, by construction: who flies while ``bird`` is asserted.
    FLIERS = {"bird", "canary", "tweety", "peter"}
    NODES = ("animal", "bird", "penguin", "canary", "tweety", "pingo", "peter")

    def _check_truths(self, port):
        with HQLClient(port=port, wire_format=self.wire_format) as client:
            for node in self.NODES:
                (result,) = client.execute("TRUTH flies ({});".format(node))
                assert result.payload is (node in self.FLIERS), node

    def test_checkpointed_postings_are_row_ordered(self, tmp_path):
        from repro.core.bulk import BulkEvaluator

        data_dir = str(tmp_path / "data")
        server = HQLServer(data_dir=data_dir, port=0, snapshot_interval=5)
        runner = ServerThread(server)
        _, port = runner.start()
        try:
            with HQLClient(port=port, wire_format=self.wire_format) as client:
                client.execute(self.SETUP)
                toggles = 0
                # Stop right after a checkpoint, with ``bird`` asserted again.
                while toggles < 12 or server.recovery.journalled_since_checkpoint:
                    client.execute("RETRACT flies (bird);")
                    client.execute("TRUTH flies (tweety);")
                    client.execute("ASSERT flies (bird);")
                    toggles += 1
            live = server.database.relation("flies")
            assert list(live.asserted)[-1] == ("bird",)  # the row moved
            assert server.recovery.checkpoint_id >= 4
        finally:
            runner.abort()

        reborn = HQLServer(data_dir=data_dir, port=0, snapshot_interval=5)
        assert reborn.recovery.last_recovery["snapshot"] is True
        assert reborn.recovery.last_recovery["replayed"] == 0
        flies = reborn.database.relation("flies")
        recovered = flies._bulk_eval  # prewarmed from the persisted postings
        fresh = BulkEvaluator(flies)
        assert recovered.key == fresh.key
        assert [
            {node: mask for node, mask in table.items() if mask}
            for table in recovered._postings
        ] == [
            {node: mask for node, mask in table.items() if mask}
            for table in fresh._postings
        ]
        runner = ServerThread(reborn)
        _, port = runner.start()
        try:
            self._check_truths(port)
            # A journal tail over the recovered evaluator, then another crash.
            with HQLClient(port=port, wire_format=self.wire_format) as client:
                client.execute("RETRACT flies (peter);")
                client.execute("RETRACT flies (bird);")
                client.execute("ASSERT flies (bird);")
                client.execute("ASSERT flies (peter);")
        finally:
            runner.abort()
        again = HQLServer(data_dir=data_dir, port=0, snapshot_interval=5)
        assert again.recovery.last_recovery["replayed"] == 4
        runner = ServerThread(again)
        _, port = runner.start()
        try:
            self._check_truths(port)
        finally:
            runner.abort()


class TestRecoveryAfterTogglesJson(TestRecoveryAfterToggles):
    wire_format = "json"
