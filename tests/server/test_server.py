"""Integration tests: a live in-process server driven over real sockets."""

import socket
import threading
import time
import urllib.request

import pytest

from repro.engine import HierarchicalDatabase
from repro.client import HQLClient
from repro.errors import RemoteError, ServerError
from repro.server import HQLServer, ServerThread, protocol

SETUP = (
    "CREATE HIERARCHY animal;"
    "CREATE CLASS bird IN animal;"
    "CREATE INSTANCE tweety IN animal UNDER bird;"
    "CREATE RELATION flies (creature: animal);"
    "ASSERT flies (bird);"
)


@pytest.fixture
def live_server():
    """A started server on an ephemeral port; shut down afterwards."""
    server = HQLServer(HierarchicalDatabase("live"), port=0, admin_port=0)
    runner = ServerThread(server)
    host, port = runner.start()
    try:
        yield server, host, port
    finally:
        runner.shutdown()


def make_client(port, **kw):
    client = HQLClient(port=port, **kw)
    client.connect()
    return client


class TestBasics:
    wire_format = None  # the client default: binary

    def test_hello_and_query(self, live_server):
        server, host, port = live_server
        with HQLClient(host=host, port=port, wire_format=self.wire_format) as client:
            assert client.hello["database"] == "live"
            assert client.hello["protocol"] == protocol.PROTOCOL_VERSION
            assert client.wire_format == (self.wire_format or "binary")
            results = client.execute(SETUP)
            assert len(results) == 5
            assert client.truth("flies", ["tweety"]) is True
            assert client.count("flies") == 1

    def test_unrendered_extension_never_builds_the_table(self, live_server, monkeypatch):
        from repro.engine.hql import executor

        calls = []
        render_rows = executor.render_rows

        def counting(headers, rows):
            calls.append(headers)
            return render_rows(headers, rows)

        monkeypatch.setattr(executor, "render_rows", counting)
        server, host, port = live_server
        with HQLClient(host=host, port=port, wire_format=self.wire_format) as client:
            client.execute(SETUP)
            bare = client.query("EXTENSION flies;", render=False)
            assert bare.payload == [["tweety"]]
            assert not bare.message and calls == []
            rendered = client.query("EXTENSION flies;", render=True)
            assert "tweety" in rendered.message and calls == [["creature"]]

    def test_sessions_are_isolated_executors(self, live_server):
        server, host, port = live_server
        a = make_client(port, wire_format=self.wire_format)
        b = make_client(port, wire_format=self.wire_format)
        try:
            a.execute(SETUP)
            a.execute("BEGIN; ASSERT NOT flies (tweety);")
            assert a.in_transaction
            # b sees the pre-transaction state: staged copies are private.
            assert b.truth("flies", ["tweety"]) is True
            a.execute("COMMIT;")
            assert not a.in_transaction
            assert b.truth("flies", ["tweety"]) is False
        finally:
            a.close()
            b.close()

    def test_error_midscript_reports_prior_results(self, live_server):
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as client:
            client.execute(SETUP)
            with pytest.raises(RemoteError) as excinfo:
                client.execute("COUNT flies; COUNT nonexistent;")
            assert excinfo.value.remote_type == "CatalogError"
            # The first statement still ran server-side.
            assert client.count("flies") == 1

    def test_unknown_op_rejected(self, live_server):
        server, host, port = live_server
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        try:
            protocol.check_hello(protocol.recv_frame(sock))
            protocol.send_frame(sock, {"id": 1, "op": "explode"})
            response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "ServerError"
        finally:
            sock.close()

    def test_garbage_frame_gets_error_then_hangup(self, live_server):
        server, host, port = live_server
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        try:
            protocol.check_hello(protocol.recv_frame(sock))
            sock.sendall(b"\x00\x00\x00\x03{{{")
            response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert protocol.recv_frame(sock) is None  # server hung up
        finally:
            sock.close()


class TestTransactionsOverTheWire:
    wire_format = None  # the client default: binary

    def test_disconnect_rolls_back_open_transaction(self, live_server):
        server, host, port = live_server
        observer = make_client(port, wire_format=self.wire_format)
        try:
            observer.execute(SETUP)
            doomed = make_client(port, wire_format=self.wire_format)
            doomed.execute("BEGIN; ASSERT NOT flies (tweety);")
            doomed.close()  # vanish without COMMIT
            deadline = time.time() + 5
            while len(server.sessions) > 1 and time.time() < deadline:
                time.sleep(0.02)
            assert len(server.sessions) == 1  # the server reaped the session
            assert observer.truth("flies", ["tweety"]) is True  # rolled back
        finally:
            observer.close()

    def test_txn_flag_tracks_server_state(self, live_server):
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as client:
            client.execute(SETUP)
            assert not client.in_transaction
            client.execute("BEGIN;")
            assert client.in_transaction
            client.execute("ROLLBACK;")
            assert not client.in_transaction


class TestConcurrency:
    wire_format = None  # the client default: binary

    def test_read_statements_overlap(self, live_server):
        """Many clients hammering reads must actually hold the shared
        lock together — the lock's high-water mark is the proof."""
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as setup:
            setup.execute(SETUP)
        workers = 4
        barrier = threading.Barrier(workers)
        errors = []

        def reader():
            try:
                with make_client(port, wire_format=self.wire_format) as client:
                    barrier.wait(timeout=10)
                    for _ in range(40):
                        client.truth("flies", ["tweety"])
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert server.lock.max_concurrent_readers >= 2

    def test_concurrent_writers_all_land(self, live_server):
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as setup:
            setup.execute(
                "CREATE HIERARCHY h; CREATE RELATION r (x: h);"
            )
            for i in range(8):
                setup.execute("CREATE INSTANCE i{} IN h;".format(i))

        def writer(i):
            with make_client(port, wire_format=self.wire_format) as client:
                client.execute("ASSERT r (i{});".format(i))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        with make_client(port, wire_format=self.wire_format) as check:
            assert check.count("r") == 8


class TestAdmin:
    wire_format = None  # the client default: binary

    def test_ping_stats_sessions(self, live_server):
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as client:
            assert client.ping() is True
            stats = client.stats()
            assert stats["database"] == "live"
            assert stats["server"]["sessions"] == 1
            sessions = client.sessions()
            assert len(sessions) == 1
            assert sessions[0]["id"] == client.session_id

    def test_metrics_text_is_prometheus(self, live_server):
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as client:
            client.execute(SETUP)
            text = client.metrics_text()
            assert "server_connections" in text
            assert "server_statements" in text

    def test_unknown_admin_command(self, live_server):
        server, host, port = live_server
        with make_client(port, wire_format=self.wire_format) as client:
            with pytest.raises(RemoteError):
                client.admin("self-destruct")

    def test_http_admin_endpoint(self, live_server):
        server, host, port = live_server
        base = "http://127.0.0.1:{}".format(server.admin_port)
        with urllib.request.urlopen(base + "/healthz", timeout=5) as response:
            assert response.status == 200
        with urllib.request.urlopen(base + "/metrics", timeout=5) as response:
            body = response.read().decode()
            assert "server_connections" in body
        with urllib.request.urlopen(base + "/stats", timeout=5) as response:
            assert b'"database"' in response.read()


class TestShutdown:
    wire_format = None  # the client default: binary

    def test_graceful_shutdown_refuses_new_connections(self):
        server = HQLServer(HierarchicalDatabase("bye"), port=0)
        runner = ServerThread(server)
        host, port = runner.start()
        with make_client(port, wire_format=self.wire_format) as client:
            client.execute(SETUP)
        runner.shutdown()
        with pytest.raises(ServerError):
            HQLClient(port=port, connect_attempts=1).connect()

    def test_database_and_data_dir_are_exclusive(self, tmp_path):
        with pytest.raises(ServerError):
            HQLServer(HierarchicalDatabase("x"), data_dir=str(tmp_path))


# ----------------------------------------------------------------------
# the same behaviour over the v1 JSON wire — what a v1 peer, or a client
# built with ``wire_format="json"``, speaks.  (Subclasses rather than
# ``parametrize`` so the binary tests keep their ids.)
# ----------------------------------------------------------------------

class TestBasicsJson(TestBasics):
    wire_format = "json"


class TestTransactionsOverTheWireJson(TestTransactionsOverTheWire):
    wire_format = "json"


class TestConcurrencyJson(TestConcurrency):
    wire_format = "json"


class TestAdminJson(TestAdmin):
    wire_format = "json"
