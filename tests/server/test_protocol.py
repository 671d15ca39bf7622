"""Unit tests for the wire protocol: framing, handshake, serialisation."""

import asyncio
import socket
import struct

import pytest

from repro.engine import HierarchicalDatabase, codec
from repro.engine.hql import HQLExecutor
from repro.errors import ProtocolError
from repro.server import protocol

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE RELATION flies (creature: animal);
ASSERT flies (bird);
"""


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"id": 7, "op": "query", "hql": "TRUTH flies (tweety);"}
        frame = protocol.encode_frame(message)
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_body(frame[4:]) == message

    def test_socket_roundtrip(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, {"id": 1, "ok": True})
            protocol.send_frame(a, {"id": 2, "ok": False})
            assert protocol.recv_frame(b) == {"id": 1, "ok": True}
            assert protocol.recv_frame(b) == {"id": 2, "ok": False}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_frame_rejected_before_read(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 1 << 30))
            with pytest.raises(ProtocolError, match="exceeds"):
                protocol.recv_frame(b, max_frame=1024)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 100) + b"only a few bytes")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_undecodable_body(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_body(b"{not json")
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_body(b"[1, 2, 3]")

    def test_async_read_frame(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(protocol.encode_frame({"id": 9}))
            reader.feed_eof()
            first = await protocol.read_frame(reader)
            second = await protocol.read_frame(reader)
            return first, second

        first, second = asyncio.run(scenario())
        assert first == {"id": 9}
        assert second is None  # clean EOF at a frame boundary

    def test_async_read_frame_truncated(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack("!I", 50) + b"short")
            reader.feed_eof()
            await protocol.read_frame(reader)

        with pytest.raises(ProtocolError, match="mid-frame"):
            asyncio.run(scenario())

    def test_async_read_frame_mid_header(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")
            reader.feed_eof()
            await protocol.read_frame(reader)

        with pytest.raises(ProtocolError, match="mid-header"):
            asyncio.run(scenario())


class TestHandshake:
    def test_hello_accepted(self):
        hello = protocol.hello("zoo", 3, "1.0", protocol.DEFAULT_MAX_FRAME)
        assert protocol.check_hello(hello) is hello
        assert hello["database"] == "zoo"
        assert hello["session"] == 3

    def test_wrong_server_rejected(self):
        with pytest.raises(ProtocolError, match="not a repro server"):
            protocol.check_hello({"server": "postgres", "protocol": 1})

    def test_wrong_protocol_rejected(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            protocol.check_hello({"server": "repro", "protocol": 99})


class TestResultSerialisation:
    @pytest.fixture
    def session(self):
        session = HQLExecutor(HierarchicalDatabase("zoo"))
        session.run(SETUP)
        return session

    def _wire(self, session, hql, render=True):
        """One statement's serialised result, as the client decodes it."""
        (result,) = session.run(hql)
        wire = protocol.serialize_result(result, render=render)
        return protocol.decode_body(protocol.encode_body(wire))

    def test_truth_payload(self, session):
        wire = self._wire(session, "TRUTH flies (tweety);")
        assert wire["kind"] == "truth"
        assert wire["payload"] is True

    def test_count_payload(self, session):
        wire = self._wire(session, "COUNT flies;")
        assert wire["kind"] == "count"
        assert wire["payload"] == 1

    def test_extension_payload(self, session):
        wire = self._wire(session, "EXTENSION flies;")
        assert wire["kind"] == "extension"
        assert wire["payload"] == [["tweety"]]  # instances, not classes

    def test_relation_payload_and_render_flag(self, session):
        hql = "SELECT FROM flies WHERE creature = bird AS out;"
        rendered = self._wire(session, hql, render=True)
        assert rendered["kind"] == "relation"
        assert rendered["payload"]["attributes"] == ["creature"]
        assert rendered["payload"]["tuples"] == [[["bird"], True]]
        assert "message" in rendered
        bare = self._wire(session, hql, render=False)
        assert "message" not in bare  # the ASCII table was never built

    def test_error_response_carries_partial_results(self):
        response = protocol.error_response(4, ValueError("boom"), [{"kind": "ok"}])
        assert response["ok"] is False
        assert response["error"] == {"type": "ValueError", "message": "boom"}
        assert response["results"] == [{"kind": "ok"}]


class TestProtocolV2:
    """Body kinds by content, the hello, and the cursor/oversize verbs."""

    def test_hello_says_protocol_3_and_advertises_cursors(self):
        hello = protocol.hello("zoo", 3, "1.0", protocol.DEFAULT_MAX_FRAME)
        assert hello["protocol"] == 3
        assert "formats" not in hello
        assert hello["cursors"] is True

    @pytest.mark.parametrize("version", [1, 2])
    def test_v1_and_v2_hellos_refused(self, version):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.check_hello({"server": "repro", "protocol": version})
        message = str(excinfo.value)
        assert "speaks {}".format(version) in message
        assert "speaks 3" in message

    def test_binary_frame_roundtrip(self):
        rows = codec.columnar_rows([["x"], ["y"]])
        message = {"id": 3, "ok": True, "results": [{"kind": "extension", "payload": rows}]}
        body = protocol.encode_frame(message)[4:]
        assert body[:4] == codec.WIRE_MAGIC  # row columns make a container
        decoded = protocol.decode_body(body)
        assert decoded["results"] == [{"kind": "extension", "payload": [["x"], ["y"]]}]
        plain = {"id": 3, "ok": True, "results": [{"kind": "count", "payload": 9}]}
        body = protocol.encode_frame(plain)[4:]
        assert body[:1] == b"{"  # everything else is JSON
        assert protocol.decode_body(body) == plain

    def test_socket_roundtrip_binary(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, {"id": 1, "rows": codec.columnar_rows([["x", "y"]])})
            assert protocol.recv_frame(b) == {"id": 1, "rows": [["x", "y"]]}
        finally:
            a.close()
            b.close()

    def test_oversize_error_is_typed_with_limits(self):
        from repro.errors import FrameTooLargeError

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 1 << 30))
            with pytest.raises(FrameTooLargeError) as excinfo:
                protocol.recv_frame(b, max_frame=1024)
            assert excinfo.value.actual == 1 << 30
            assert excinfo.value.max_frame == 1024
            response = protocol.error_response(7, excinfo.value)
            assert response["error"]["actual"] == 1 << 30
            assert response["error"]["max_frame"] == 1024
        finally:
            a.close()
            b.close()

    def test_cursor_response_shape(self):
        response = protocol.cursor_response(5, 2, [["a"]], done=False, remaining=41)
        assert response == {
            "id": 5,
            "ok": True,
            "cursor": {"id": 2, "rows": [["a"]], "done": False, "remaining": 41},
        }

    def test_binary_serialisation_matches_json_shapes(self):
        session = HQLExecutor(HierarchicalDatabase("zoo"))
        session.run(SETUP)
        for hql in (
            "SELECT FROM flies WHERE creature = bird AS out;",
            "EXTENSION flies;",
            "COUNT flies;",
            "TRUTH flies (tweety);",
        ):
            (result,) = session.run(hql)
            decoded = protocol.decode_body(
                protocol.encode_body(protocol.serialize_result(result, render=False))
            )["payload"]
            if result.kind == "truth":
                assert decoded is result.payload
            elif result.kind == "count":
                assert decoded == result.payload
            elif result.kind == "extension":
                assert decoded == [list(row) for row in result.payload]
            else:
                assert decoded["tuples"] == [
                    [list(t.item), t.truth] for t in result.payload.tuples()
                ]
