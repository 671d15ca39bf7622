"""The HQL wire protocol: versioned, length-prefixed frames.

Framing
-------
Every message — in both directions — is one *frame*: a 4-byte unsigned
big-endian length followed by that many body bytes.  A body's format
follows from what the message carries: a message holding row columns
(a relation's tuples, an extension's rows, a cursor page) is a binary
columnar container (it starts with the :data:`repro.engine.codec.
WIRE_MAGIC` bytes); every other message — requests, hellos, ``TRUTH``
and ``COUNT`` replies, admin and error replies — is UTF-8 JSON (it
starts with ``{``).  The reader tells the two apart by prefix, so no
per-frame flag and no negotiation is needed.  Frames larger than the
negotiated maximum (default 32 MiB) are rejected with
:class:`~repro.errors.FrameTooLargeError` before any allocation.

Handshake
---------
On connect the server speaks first, sending a hello frame::

    {"server": "repro", "protocol": 3, "version": "1.0.0",
     "database": "zoo", "session": 7, "max_frame": 33554432,
     "cursors": true}

Clients must check ``server`` and ``protocol`` and disconnect on
mismatch; a client accepts protocol 3 only.  Everything after the hello
is request/response.

Requests
--------
``{"id": n, "op": "query", "hql": "...", "render": true, "page_size": 0}``
    Execute an HQL script (one or more statements).  ``render``
    (default true) controls whether relation-valued results include the
    rendered ASCII table in ``message``; ``page_size`` > 0 opens a
    server-side cursor per large relation/extension result and returns
    only the first page (``page_size: 0``/absent disables paging;
    ``page_size: -1`` asks the server to pick a page size from its row
    estimates).
``{"id": n, "op": "fetch", "cursor": c, "max_rows": k}``
    The next page of an open cursor.
``{"id": n, "op": "close", "cursor": c}``
    Drop a cursor early (cursors also die with the session).
``{"id": n, "op": "admin", "cmd": "ping" | "stats" | "metrics" |
  "slowlog" | "sessions"}``
    Observability without HQL: see :mod:`repro.server.admin`.

Responses
---------
``{"id": n, "ok": true, "results": [...]}`` — one serialised
:class:`~repro.engine.hql.executor.Result` per executed statement, or
``{"id": n, "ok": true, "admin": {...}}`` for admin commands.  A paged
result carries ``"cursor": {"id": c, "total": t}`` next to a truncated
``tuples``/``rows`` list; fetch responses are ``{"id": n, "ok": true,
"cursor": {"id": c, "rows": [...], "done": false, "remaining": r}}``.
``{"id": n, "ok": false, "error": {"type": "...", "message": "..."},
"results": [...]}`` — the statements before the failing one still
report their results (HQL scripts execute left to right).  A
``FrameTooLargeError`` error additionally carries ``"actual"`` and
``"max_frame"`` byte counts.

Both an asyncio flavour (:func:`read_frame`) and a blocking-socket
flavour (:func:`recv_frame`/:func:`send_frame`) live here so the server
and the :class:`~repro.client.HQLClient` cannot drift apart.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Dict, List, Optional

from repro.engine import codec
from repro.errors import (
    FrameTooLargeError,
    ProtocolError,
    ReadOnlyError,
    StaleReplicaError,
)

PROTOCOL_NAME = "repro"
#: Version 3: a body's format follows from what it carries, and no
#: request names one.  Peers speak exactly this version.
PROTOCOL_VERSION = 3
DEFAULT_MAX_FRAME = 32 * 1024 * 1024
_HEADER = struct.Struct("!I")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


encode_body = codec.encode_message
decode_body = codec.decode_message


def encode_frame(message: Dict[str, Any], wire_format: Optional[str] = None) -> bytes:
    """One wire frame: length header + body."""
    # ``wire_format`` selects nothing: benchmarks/e2e/layers.py still
    # passes one.
    body = encode_body(message)
    if len(body) > 0xFFFFFFFF:
        raise ProtocolError("frame too large to encode ({} bytes)".format(len(body)))
    return _HEADER.pack(len(body)) + body


async def read_frame(reader, max_frame: int = DEFAULT_MAX_FRAME) -> Optional[Dict[str, Any]]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on a truncated frame,
    :class:`FrameTooLargeError` on an oversized one.
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLargeError(length, max_frame)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_body(body)


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Blocking-socket counterpart of writing one frame."""
    sock.sendall(encode_frame(message))


def recv_frame(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[Dict[str, Any]]:
    """Blocking-socket counterpart of :func:`read_frame` (``None`` on
    clean EOF at a frame boundary)."""
    header = _recv_exactly(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLargeError(length, max_frame)
    body = _recv_exactly(sock, length, allow_eof=False)
    return decode_body(body)


def _recv_exactly(sock: socket.socket, count: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------


def hello(
    database_name: str,
    session_id: int,
    version: str,
    max_frame: int,
    role: str = "single",
    leader: Optional[str] = None,
    replication: bool = False,
    tenants: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """``role`` is the server's replication role (``single`` /
    ``leader`` / ``follower``); ``replication`` advertises the
    ``replicate`` verb (true exactly when the server can lead); a
    follower's hello names its ``leader`` so clients learn where
    writes go without a separate lookup.  ``tenants`` lists the named
    databases this server hosts (and advertises the ``use`` verb and
    per-request ``db`` field); a client that never names a tenant
    talks to the default one."""
    message = {
        "server": PROTOCOL_NAME,
        "protocol": PROTOCOL_VERSION,
        "version": version,
        "database": database_name,
        "session": session_id,
        "max_frame": max_frame,
        "cursors": True,
        "role": role,
        "replication": replication,
    }
    if leader is not None:
        message["leader"] = leader
    if tenants is not None:
        message["tenants"] = list(tenants)
    return message


def check_hello(message: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a server hello client-side; returns it unchanged."""
    if message.get("server") != PROTOCOL_NAME:
        raise ProtocolError(
            "not a repro server (hello says server={!r})".format(message.get("server"))
        )
    if message.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            "protocol version mismatch: server speaks {!r}, client speaks {}".format(
                message.get("protocol"), PROTOCOL_VERSION
            )
        )
    return message


def ok_response(request_id: Any, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "results": results}


def admin_response(request_id: Any, payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "admin": payload}


def cursor_response(
    request_id: Any,
    cursor_id: int,
    rows: Any,
    done: bool,
    remaining: int,
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": True,
        "cursor": {"id": cursor_id, "rows": rows, "done": done, "remaining": remaining},
    }


def error_response(
    request_id: Any,
    error: BaseException,
    results: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    detail: Dict[str, Any] = {"type": type(error).__name__, "message": str(error)}
    if isinstance(error, FrameTooLargeError):
        detail["actual"] = error.actual
        detail["max_frame"] = error.max_frame
    if isinstance(error, ReadOnlyError):
        # Clients surface this as LeaderChangedError and re-route.
        detail["leader"] = error.leader
    if isinstance(error, StaleReplicaError):
        detail["staleness_ms"] = error.staleness_ms
        detail["bound_ms"] = error.bound_ms
    return {
        "id": request_id,
        "ok": False,
        "error": detail,
        "results": results or [],
    }


# ----------------------------------------------------------------------
# result serialisation
# ----------------------------------------------------------------------


def relation_payload(relation, tuples: codec.Columnar) -> Dict[str, Any]:
    """A relation result's payload: its schema, and ``tuples`` (all of
    its signed tuples, or one cursor page of them)."""
    return {
        "name": relation.name,
        "attributes": list(relation.schema.attributes),
        "hierarchies": [h.name for h in relation.schema.hierarchies],
        "strategy": relation.strategy.name,
        "tuples": tuples,
    }


def payload_to_json(result) -> Any:
    """The wire-safe projection of a Result payload, or ``None`` when
    the ``message`` rendering is the whole story (ok/plan/justify).
    Row payloads — a relation's signed tuples, an extension's rows —
    are :class:`~repro.engine.codec.Columnar` markers, which make the
    body a columnar container."""
    kind, payload = result.kind, result.payload
    if kind == "truth":
        return bool(payload)
    if kind == "count":
        return int(payload)
    if kind == "extension":
        return codec.columnar_rows(payload)
    if kind == "relation":
        return relation_payload(payload, codec.columnar_relation(payload))
    if kind == "conflicts":
        return [str(conflict) for conflict in payload]
    if kind == "show":
        return [list(row) for row in payload]
    if kind == "stats":
        return payload
    if kind == "ok" and isinstance(payload, (int, float, str)):
        return payload
    return None


def serialize_result(result, render: bool = True, binary: bool = True) -> Dict[str, Any]:
    """One Result as a wire dict.  ``render=False`` skips the ASCII
    table for relation/extension payloads (lazy in the executor, so the
    cost is genuinely never paid)."""
    # ``binary`` selects nothing: benchmarks/e2e/layers.py still passes it.
    wire: Dict[str, Any] = {
        "kind": result.kind,
        "payload": payload_to_json(result),
        "elapsed_ms": result.elapsed_ms,
    }
    if render or result.kind not in ("relation", "extension"):
        wire["message"] = result.message
    return wire
