"""Streaming cursors over the wire: paging, lifetime, frame limits.

Boots real servers on background threads and drives them with
:class:`HQLClient` so the whole path is exercised — columnar pages,
``fetch``/``close`` verbs, session reaping, and the structured
oversize-frame error."""

import io

import pytest

from repro.client import HQLClient, RemoteRepl
from repro.errors import RemoteError
from repro.server import HQLServer, ServerThread
from repro.server.session import Cursor, Session

ROWS = 120


@pytest.fixture()
def server_port():
    server = HQLServer(port=0)
    runner = ServerThread(server)
    _, port = runner.start()
    try:
        with HQLClient(port=port) as seed:
            seed.execute("CREATE HIERARCHY item;")
            seed.execute(
                "".join("CREATE INSTANCE n%03d IN item;" % i for i in range(ROWS))
            )
            seed.execute(
                "CREATE RELATION r (x: item);"
                + "".join("ASSERT r (n%03d);" % i for i in range(ROWS))
            )
        yield port
    finally:
        runner.shutdown()


class TestCursorObject:
    def test_paging_and_drain(self):
        cursor = Cursor(1, "extension", [[i] for i in range(10)], page_size=4)
        page, done = cursor.fetch()
        assert page == [[0], [1], [2], [3]] and not done
        assert cursor.remaining == 6
        page, done = cursor.fetch(max_rows=5)
        assert len(page) == 5 and not done
        page, done = cursor.fetch()
        assert page == [[9]] and done
        assert cursor.fetch() == ([], True)

    def test_session_reaps_oldest_at_cap(self):
        session = Session(1, executor=None)
        first = session.open_cursor("extension", [], 10)
        for _ in range(session.max_cursors):
            session.open_cursor("extension", [], 10)
        assert first.id not in session.cursors
        assert len(session.cursors) == session.max_cursors

    def test_close_clears_cursors(self):
        class Stub:
            def close(self):
                pass

        session = Session(1, executor=Stub())
        session.open_cursor("extension", [[1]], 10)
        session.close()
        assert not session.cursors


class TestWireCursors:
    def test_execute_returns_first_page_and_token(self, server_port):
        with HQLClient(port=server_port) as client:
            result = client.execute("SELECT * FROM r;", page_size=30)[-1]
            assert result.cursor is not None
            assert result.cursor["total"] == ROWS
            assert result.cursor["page"] == 30
            assert len(result.payload["tuples"]) == 30

    def test_iterator_streams_everything_once(self, server_port):
        with HQLClient(port=server_port) as client:
            cursor = client.cursor("SELECT * FROM r;", page_size=25)
            rows = list(cursor)
            assert cursor.total_rows == ROWS
            assert sorted(r[0][0] for r in rows) == sorted(
                "n%03d" % i for i in range(ROWS)
            )

    def test_small_results_skip_the_cursor(self, server_port):
        with HQLClient(port=server_port) as client:
            result = client.execute("SELECT * FROM r LIMIT 5;", page_size=30)[-1]
            assert result.cursor is None
            assert len(result.payload["tuples"]) == 5
            # The lazy iterator still works over an unpaged result.
            cursor = client.cursor("SELECT * FROM r LIMIT 5;", page_size=30)
            assert len(list(cursor)) == 5

    def test_auto_page_size(self, server_port):
        with HQLClient(port=server_port) as client:
            result = client.execute("SELECT * FROM r;", page_size=-1)[-1]
            # 120 short rows fit one frame comfortably: no paging needed,
            # or a single large page — either way every row arrives.
            rows = list(client.cursor("SELECT * FROM r;"))
            assert len(rows) == ROWS

    def test_fetch_and_close_verbs(self, server_port):
        with HQLClient(port=server_port) as client:
            result = client.execute("SELECT * FROM r;", page_size=50)[-1]
            cursor_id = result.cursor["id"]
            reply = client.fetch(cursor_id, max_rows=20)
            assert len(reply["rows"]) == 20
            assert reply["remaining"] == ROWS - 50 - 20
            assert not reply["done"]
            assert client.close_cursor(cursor_id) is True
            assert client.close_cursor(cursor_id) is False

    def test_drained_cursor_closes_itself(self, server_port):
        with HQLClient(port=server_port) as client:
            result = client.execute("SELECT * FROM r;", page_size=100)[-1]
            cursor_id = result.cursor["id"]
            reply = client.fetch(cursor_id)
            assert reply["done"]
            assert client.close_cursor(cursor_id) is False  # already reaped

    def test_unknown_cursor_is_a_remote_error(self, server_port):
        with HQLClient(port=server_port) as client:
            with pytest.raises(RemoteError, match="no open cursor"):
                client.fetch(424242)

    def test_cursor_drain_equals_stored_tuples(self, server_port):
        with HQLClient(port=server_port) as client:
            drained = list(client.cursor("SELECT * FROM r;", page_size=17))
        assert len(drained) == ROWS
        assert {tuple(item): truth for item, truth in drained} == {
            ("n%03d" % i,): True for i in range(ROWS)
        }

    def test_stats_count_open_cursors(self, server_port):
        with HQLClient(port=server_port) as client:
            client.execute("SELECT * FROM r;", page_size=10)
            assert client.stats()["server"]["cursors_open"] == 1

    def test_disconnect_reaps_cursors(self, server_port):
        client = HQLClient(port=server_port)
        client.connect()
        client.execute("SELECT * FROM r;", page_size=10)
        client.close()
        with HQLClient(port=server_port) as watcher:
            assert watcher.stats()["server"]["cursors_open"] == 0


class TestFrameLimit:
    @pytest.fixture()
    def tiny_port(self):
        server = HQLServer(port=0, max_frame=8192)
        runner = ServerThread(server)
        _, port = runner.start()
        try:
            with HQLClient(port=port) as seed:
                seed.execute("CREATE HIERARCHY item;")
                for lo in range(0, 400, 50):
                    seed.execute(
                        "".join(
                            "CREATE INSTANCE node%04d IN item;" % i
                            for i in range(lo, lo + 50)
                        )
                    )
                seed.execute("CREATE RELATION big (x: item);")
                for lo in range(0, 400, 50):
                    seed.execute(
                        "".join(
                            "ASSERT big (node%04d);" % i for i in range(lo, lo + 50)
                        )
                    )
            yield port
        finally:
            runner.shutdown()

    def test_oversize_response_is_a_typed_error(self, tiny_port):
        with HQLClient(port=tiny_port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.execute("SELECT * FROM big;")
            message = str(excinfo.value)
            assert "FrameTooLargeError" in message
            assert "8192" in message
            assert "cursor" in message  # the remediation hint

    def test_connection_survives_the_oversize_error(self, tiny_port):
        with HQLClient(port=tiny_port) as client:
            with pytest.raises(RemoteError):
                client.execute("SELECT * FROM big;")
            result = client.execute("SELECT * FROM big LIMIT 3;")[-1]
            assert len(result.payload["tuples"]) == 3

    def test_cursor_streams_under_the_tiny_frame(self, tiny_port):
        with HQLClient(port=tiny_port) as client:
            rows = list(client.cursor("SELECT * FROM big;"))
            assert len(rows) == 400


class TestReplStreaming:
    def test_large_results_stream_row_by_row(self, server_port):
        with HQLClient(port=server_port) as client:
            out = io.StringIO()
            repl = RemoteRepl(client, stdout=out, page_rows=25)
            repl.execute("SELECT * FROM r;")
            text = out.getvalue()
            assert "{} row(s) streamed".format(ROWS) in text
            assert text.count("-> True") == ROWS

    def test_small_results_render_normally(self, server_port):
        with HQLClient(port=server_port) as client:
            out = io.StringIO()
            repl = RemoteRepl(client, stdout=out, page_rows=500)
            repl.execute("SELECT * FROM r LIMIT 2;")
            assert "streamed" not in out.getvalue()
