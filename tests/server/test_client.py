"""Unit tests for the blocking client: reconnects, transactions, errors."""

import pytest

from repro.engine import HierarchicalDatabase
from repro.client import HQLClient, RemoteRepl
from repro.errors import RemoteError, ServerError
from repro.server import HQLServer, ServerThread

SETUP = (
    "CREATE HIERARCHY animal;"
    "CREATE CLASS bird IN animal;"
    "CREATE INSTANCE tweety IN animal UNDER bird;"
    "CREATE RELATION flies (creature: animal);"
    "ASSERT flies (bird);"
)


@pytest.fixture
def live_port():
    server = HQLServer(HierarchicalDatabase("clienttest"), port=0)
    runner = ServerThread(server)
    _, port = runner.start()
    try:
        yield port
    finally:
        runner.shutdown()


class TestConnection:
    def test_connect_refused_becomes_server_error(self):
        client = HQLClient(port=1, connect_attempts=1)
        with pytest.raises(ServerError, match="cannot connect"):
            client.connect()

    def test_context_manager_connects_and_closes(self, live_port):
        with HQLClient(port=live_port) as client:
            assert client.connected
            assert client.session_id is not None
        assert not client.connected

    def test_reconnect_after_broken_socket(self, live_port):
        with HQLClient(port=live_port) as client:
            client.execute(SETUP)
            client._sock.close()  # sever underneath the client
            # The retry opens a fresh connection transparently ...
            assert client.truth("flies", ["tweety"]) is True
            # ... which is a NEW session server-side.
            assert client.connected

    def test_reconnect_disabled_raises(self, live_port):
        with HQLClient(port=live_port, reconnect=False) as client:
            client.execute(SETUP)
            client._sock.close()
            with pytest.raises(ServerError, match="connection lost"):
                client.count("flies")

    def test_no_silent_retry_inside_transaction(self, live_port):
        """A lost connection killed the staged state server-side;
        replaying the next statement on a fresh session would lie."""
        with HQLClient(port=live_port) as client:
            client.execute(SETUP)
            client.execute("BEGIN;")
            assert client.in_transaction
            client._sock.close()
            with pytest.raises(ServerError, match="inside a transaction"):
                client.execute("ASSERT NOT flies (tweety);")
            assert not client.in_transaction  # state reset with the wreck
            # The client recovers for non-transactional work.
            assert client.truth("flies", ["tweety"]) is True


class TestTransactionGuard:
    def test_commit_on_clean_exit(self, live_port):
        with HQLClient(port=live_port) as client:
            client.execute(SETUP)
            with client.transaction():
                client.execute("ASSERT NOT flies (tweety);")
                assert client.in_transaction
            assert not client.in_transaction
            assert client.truth("flies", ["tweety"]) is False

    def test_rollback_on_exception(self, live_port):
        with HQLClient(port=live_port) as client:
            client.execute(SETUP)
            with pytest.raises(RuntimeError):
                with client.transaction():
                    client.execute("ASSERT NOT flies (tweety);")
                    raise RuntimeError("abandon ship")
            assert not client.in_transaction
            assert client.truth("flies", ["tweety"]) is True  # rolled back


class TestErrors:
    def test_remote_error_carries_server_type(self, live_port):
        with HQLClient(port=live_port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.execute("COUNT nothing;")
            assert excinfo.value.remote_type == "CatalogError"
            assert "CatalogError" in str(excinfo.value)

    def test_syntax_error_aborts_whole_request(self, live_port):
        with HQLClient(port=live_port) as client:
            client.execute(SETUP)
            before = client.count("flies")
            with pytest.raises(RemoteError):
                client.execute("ASSERT flies (tweety); FROBNICATE;")
            # Parse errors are detected before anything runs.
            assert client.count("flies") == before

    def test_set_planner_is_a_typed_error_and_the_session_survives(self, live_port):
        with HQLClient(port=live_port) as client:
            client.execute(SETUP)
            session = client.session_id
            # There is no SET statement: it fails at parse time, still as
            # a typed HQL error, and the connection carries on.
            for statement in ("SET PLANNER OFF;", "SET PARALLEL 2;"):
                with pytest.raises(RemoteError, match="unknown statement 'SET'") as excinfo:
                    client.execute(statement)
                assert excinfo.value.remote_type == "HQLSyntaxError"
                assert client.truth("flies", ["tweety"]) is True
                assert client.session_id == session  # no reconnect happened

    def test_query_requires_single_statement(self, live_port):
        with HQLClient(port=live_port) as client:
            with pytest.raises(ServerError, match="exactly one"):
                client.query("STATS; STATS;")


class TestRemoteRepl:
    def test_scripted_session(self, live_port):
        import io

        client = HQLClient(port=live_port)
        client.connect()
        stdin = io.StringIO(SETUP.replace(";", ";\n") + "TRUTH flies (tweety);\n\\ping\n\\q\n")
        stdout = io.StringIO()
        try:
            RemoteRepl(client, stdin=stdin, stdout=stdout).run()
        finally:
            client.close()
        out = stdout.getvalue()
        assert "connected to" in out
        assert "(tweety) is true" in out
        assert "pong" in out
        assert out.rstrip().endswith("bye")

    def test_remote_error_keeps_repl_alive(self, live_port):
        import io

        client = HQLClient(port=live_port)
        client.connect()
        stdin = io.StringIO("COUNT nope;\nCREATE HIERARCHY h;\n\\q\n")
        stdout = io.StringIO()
        try:
            RemoteRepl(client, stdin=stdin, stdout=stdout).run()
        finally:
            client.close()
        out = stdout.getvalue()
        assert "error:" in out
        assert "hierarchy h created" in out
