"""Where the server executes each statement, and how it reads requests.

A warm ``TRUTH`` answers synchronously on the event loop under its
tenant's shared lock; a ``TRUTH`` that must sweep its relation first,
and every other statement, executes on a worker thread.  The
tests pin that split by thread identity, check that an inline truth
question still waits for a writer on its tenant, and check that a
malformed numeric request field is a typed error, not a dead
connection.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.client import HQLClient
from repro.core import bulk
from repro.engine import HierarchicalDatabase
from repro.engine.oplog import OperationLog
from repro.server import HQLServer, ServerThread, protocol
from repro.server.session import Session

SETUP = (
    "CREATE HIERARCHY animal;"
    "CREATE CLASS bird IN animal;"
    "CREATE INSTANCE tweety IN animal UNDER bird;"
    "CREATE RELATION flies (creature: animal);"
    "ASSERT flies (bird);"
)


@pytest.fixture
def runner():
    server = HQLServer(HierarchicalDatabase("dispatch"), port=0)
    runner = ServerThread(server)
    runner.start()
    try:
        yield runner
    finally:
        runner.shutdown()


def client_for(runner, **kw):
    client = HQLClient(port=runner.server.port, **kw)
    client.connect()
    return client


# ----------------------------------------------------------------------
# which thread executes which statement
# ----------------------------------------------------------------------


class TestStatementThreads:
    def test_only_truth_executes_on_the_loop_thread(self, runner, monkeypatch):
        with client_for(runner) as client:
            client.execute(SETUP)
            seen = []
            execute = Session.execute

            def recording(self, statement):
                seen.append((type(statement).__name__, threading.get_ident()))
                return execute(self, statement)

            monkeypatch.setattr(Session, "execute", recording)
            assert client.truth("flies", ["tweety"]) is True
            client.execute(
                "COUNT flies; SELECT FROM flies; EXTENSION flies;"
                "JUSTIFY flies (tweety); EXPLAIN COUNT flies; CONFLICTS flies;"
                "SHOW RELATIONS; ASSERT NOT flies (tweety);"
                "BEGIN; RETRACT flies (tweety); TRUTH flies (tweety); COMMIT;"
            )
        loop_thread = runner._thread.ident
        inline = {name for name, ident in seen if ident == loop_thread}
        threaded = {name for name, ident in seen if ident != loop_thread}
        assert inline == {"Truth"}
        assert threaded == {
            "Count", "Select", "Extension", "Justify", "Explain",
            "Conflicts", "Show", "Assert", "Begin", "Retract", "Commit",
        }
        # Exactly the two TRUTHs, one of them inside the transaction.
        assert [name for name, _ in seen].count("Truth") == 2

    def test_threaded_reads_do_not_count_inline_truths(self, runner):
        with client_for(runner) as client:
            client.execute(SETUP)
            for _ in range(20):
                assert client.truth("flies", ["tweety"]) is True
            stats = client.stats()["server"]
        assert stats["max_concurrent_readers"] == 1
        assert stats["active_readers"] == 0


class TestColdTruth:
    def test_first_truth_after_restart_sweeps_off_the_loop(self, tmp_path, monkeypatch):
        """A recovered relation has no evaluator: its first ``TRUTH``
        sweeps on a worker thread, and the next one reuses the result
        on the loop."""
        server = HQLServer(data_dir=str(tmp_path), port=0)
        runner = ServerThread(server)
        runner.start()
        try:
            with HQLClient(port=server.port) as client:
                client.execute(SETUP)
        finally:
            runner.shutdown()  # graceful: a final checkpoint, no journal tail

        server = HQLServer(data_dir=str(tmp_path), port=0)
        assert server.database.relation("flies")._bulk_eval is None
        builds = []
        build = bulk.build_evaluator

        def recording(*args, **kwargs):
            builds.append(threading.current_thread().name)
            return build(*args, **kwargs)

        monkeypatch.setattr(bulk, "build_evaluator", recording)
        runner = ServerThread(server)
        runner.start()
        try:
            with HQLClient(port=server.port) as client:
                assert client.truth("flies", ["tweety"]) is True
                assert len(builds) == 1
                assert builds[0] != "hql-server"
                assert client.truth("flies", ["tweety"]) is True
                assert len(builds) == 1  # the second TRUTH sweeps nothing
        finally:
            runner.shutdown()


# ----------------------------------------------------------------------
# an inline TRUTH still waits for its tenant's writer
# ----------------------------------------------------------------------


class TestWriterExclusion:
    def test_truth_waits_for_the_write_and_sees_it(self, tmp_path, monkeypatch):
        server = HQLServer(data_dir=str(tmp_path), port=0, tenants=("t1",))
        runner = ServerThread(server)
        runner.start()
        entered = threading.Event()
        release = threading.Event()
        try:
            with HQLClient(port=server.port, db="t1") as writer_client:
                writer_client.execute(SETUP)
                append = OperationLog.append

                def gated(self, *args, **kwargs):
                    entered.set()
                    assert release.wait(10)
                    return append(self, *args, **kwargs)

                monkeypatch.setattr(OperationLog, "append", gated)
                writer = threading.Thread(
                    target=writer_client.execute, args=("ASSERT NOT flies (tweety);",)
                )
                writer.start()
                assert entered.wait(10)  # the write holds t1's exclusive lock
                answers = []
                with HQLClient(port=server.port, db="t1") as reader_client:
                    reader = threading.Thread(
                        target=lambda: answers.append(
                            reader_client.truth("flies", ["tweety"])
                        )
                    )
                    reader.start()
                    time.sleep(0.3)
                    assert answers == []  # still queued behind the writer
                    release.set()
                    writer.join(10)
                    reader.join(10)
                assert answers == [False]  # the post-write truth
        finally:
            release.set()
            runner.shutdown()


# ----------------------------------------------------------------------
# malformed numeric request fields
# ----------------------------------------------------------------------


def raw_socket(runner):
    sock = socket.create_connection(("127.0.0.1", runner.server.port), timeout=5)
    protocol.check_hello(protocol.recv_frame(sock))
    return sock


def request(sock, message):
    protocol.send_frame(sock, message)
    return protocol.recv_frame(sock)


class TestMalformedNumericFields:
    @pytest.mark.parametrize("field", ["page_size", "wait_sync", "wait_sync_timeout"])
    @pytest.mark.parametrize("value", ["x", [1, 2]])
    def test_query_field_is_a_protocol_error(self, runner, field, value):
        sock = raw_socket(runner)
        try:
            setup = request(sock, {"id": 1, "op": "query", "hql": SETUP})
            assert setup["ok"] is True
            response = request(
                sock,
                {"id": 2, "op": "query", "hql": "TRUTH flies (tweety);", field: value},
            )
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert field in response["error"]["message"]
            # The session survives: the next request on this socket answers.
            answer = request(sock, {"id": 3, "op": "query", "hql": "TRUTH flies (tweety);"})
            assert answer["ok"] is True
            assert answer["results"][0]["payload"] is True
        finally:
            sock.close()

    @pytest.mark.parametrize("value", ["x", [1, 2]])
    def test_fetch_max_rows_is_a_protocol_error(self, runner, value):
        sock = raw_socket(runner)
        try:
            script = SETUP + "".join(
                "CREATE INSTANCE b{0} IN animal UNDER bird; ASSERT flies (b{0});".format(i)
                for i in range(5)
            )
            assert request(sock, {"id": 1, "op": "query", "hql": script})["ok"] is True
            opened = request(
                sock,
                {"id": 2, "op": "query", "hql": "SELECT FROM flies;", "page_size": 2},
            )
            cursor = opened["results"][0]["cursor"]["id"]
            response = request(
                sock, {"id": 3, "op": "fetch", "cursor": cursor, "max_rows": value}
            )
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "max_rows" in response["error"]["message"]
            page = request(sock, {"id": 4, "op": "fetch", "cursor": cursor, "max_rows": 1})
            assert page["ok"] is True
            assert len(page["cursor"]["rows"]) == 1
        finally:
            sock.close()

    def test_numeric_strings_still_parse(self, runner):
        sock = raw_socket(runner)
        try:
            request(sock, {"id": 1, "op": "query", "hql": SETUP})
            response = request(
                sock,
                {"id": 2, "op": "query", "hql": "COUNT flies;", "page_size": "16"},
            )
            assert response["ok"] is True
        finally:
            sock.close()


# ----------------------------------------------------------------------
# the admin ``sessions`` row renders the last statement on demand
# ----------------------------------------------------------------------


class TestSessionsRow:
    def test_last_hql_for_a_truth_and_a_script(self, runner):
        with client_for(runner) as client:
            client.execute(SETUP)
            client.truth("flies", ["tweety"])
            assert client.sessions()[0]["last_hql"] == "TRUTH flies (tweety);"
            client.execute("COUNT flies; SELECT FROM flies WHERE creature = bird;")
            assert (
                client.sessions()[0]["last_hql"]
                == "SELECT FROM flies WHERE creature = bird;"
            )

    def test_executing_renders_nothing(self, runner, monkeypatch):
        from repro.engine.hql import ast

        with client_for(runner) as client:
            client.execute(SETUP)
            rendered = []
            to_hql = ast.to_hql

            def counting(statement):
                rendered.append(statement)
                return to_hql(statement)

            monkeypatch.setattr(ast, "to_hql", counting)
            for _ in range(5):
                client.truth("flies", ["tweety"])
            assert rendered == []
            client.sessions()
            assert len(rendered) == 1
