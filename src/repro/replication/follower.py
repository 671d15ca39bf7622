"""The follower side of journal shipping: the link to the leader.

A follower is an ordinary :class:`~repro.server.server.HQLServer` whose
database is not recovered from a local data directory but *streamed*
from a leader: fetch the leader's snapshot, replay its journal tail,
then long-poll for new entries forever — the exact recovery algorithm
of :mod:`repro.server.recovery`, with the data directory replaced by a
socket.

:class:`LeaderLink` speaks the ``replicate`` verb over one ordinary
protocol-v2 connection (``hello`` → position exchange, ``snapshot`` →
the leader's ``snapshot.bin`` bytes, ``poll`` → the next entry batch,
long-polled server-side).  The link is deliberately dumb: it moves
frames and decodes snapshots; all position/retry/resync policy lives in
the server's follower task (:mod:`repro.server.replication`), where it
can be tested against a real leader.
"""

from __future__ import annotations

import asyncio
import base64
from typing import Any, Dict, Optional, Tuple

from repro.engine import codec
from repro.errors import ProtocolError, ReplicationError
from repro.server import protocol


def parse_addr(addr: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv6 hosts may be
    bracketed)."""
    text = addr.strip()
    if text.startswith("["):  # [::1]:7777
        host, _, rest = text[1:].partition("]")
        port = rest.lstrip(":")
    else:
        host, _, port = text.rpartition(":")
    if not host or not port:
        raise ReplicationError(
            "replicate-from address must be host:port, got {!r}".format(addr)
        )
    try:
        return host, int(port)
    except ValueError:
        raise ReplicationError(
            "replicate-from address has a non-numeric port: {!r}".format(addr)
        ) from None


def decode_snapshot_payload(payload: Dict[str, Any]):
    """A shipped snapshot back into ``(database, checkpoint)``.

    ``payload`` is the ``snapshot`` object of a snapshot response:
    ``format`` is ``binary`` (base64 ``snapshot.bin`` bytes in
    ``data``), or ``none`` for a leader that has never checkpointed (the
    follower starts from an empty database and replays the whole
    journal).
    """
    fmt = payload.get("format")
    checkpoint = int(payload.get("checkpoint", 0))
    if fmt == "none":
        from repro.engine.database import HierarchicalDatabase

        return HierarchicalDatabase(str(payload.get("database", "server"))), checkpoint
    raw = base64.b64decode(str(payload.get("data", "")))
    if fmt == codec.FORMAT_BINARY:
        database, envelope = codec.decode_snapshot(raw)
        return database, int(envelope.get("checkpoint", checkpoint))
    raise ReplicationError("leader shipped unknown snapshot format {!r}".format(fmt))


def adopt_database(target, source) -> None:
    """Replace ``target``'s catalog with ``source``'s, in place.

    Sessions and metrics hold references to the served database
    *object*, so a resync must swap its contents rather than the
    object — the same adoption the executor's ``LOAD`` performs.  The
    caller must hold the server's write lock.
    """
    target.name = source.name
    target.hierarchies = source.hierarchies
    target.relations = source.relations
    # Views re-plan against the adopting database so their resolvers
    # track its catalog, not the donor's.
    if hasattr(target, "define_view"):
        for name in list(getattr(target, "view_definitions", {})):
            target.drop_view(name)
        for name, spec in getattr(source, "view_definitions", {}).items():
            target.define_view(name, spec["op"], spec["sources"], spec["conditions"] or None)
    cache = getattr(target, "query_cache", None)
    if cache is not None:
        cache.clear()


class LeaderLink:
    """One replication connection from a follower to its leader."""

    def __init__(
        self,
        leader_addr: str,
        follower_id: str,
        *,
        listen_addr: Optional[str] = None,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        connect_timeout: float = 5.0,
    ) -> None:
        self.leader_addr = leader_addr
        self.follower_id = follower_id
        self.listen_addr = listen_addr
        self.max_frame = max_frame
        self.connect_timeout = connect_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._request_ids = 0
        #: The leader's ordinary hello (database name, protocol caps).
        self.server_hello: Dict[str, Any] = {}

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> Dict[str, Any]:
        """Dial the leader and exchange hellos; returns the replication
        hello (generation, checkpoint, end offset)."""
        host, port = parse_addr(self.leader_addr)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), self.connect_timeout
        )
        self._reader, self._writer = reader, writer
        hello = await protocol.read_frame(reader, self.max_frame)
        if hello is None:
            raise ProtocolError("leader hung up before its hello")
        protocol.check_hello(hello)
        self.server_hello = hello
        if not hello.get("replication"):
            await self.close()
            raise ReplicationError(
                "server at {} does not speak the replicate verb "
                "(protocol {})".format(self.leader_addr, hello.get("protocol"))
            )
        return await self._request(
            {"cmd": "hello", "follower": self.follower_id, "addr": self.listen_addr}
        )

    async def fetch_snapshot(self) -> Dict[str, Any]:
        """The leader's current snapshot: ``{"format", "data",
        "checkpoint", "generation", "database"}``."""
        reply = await self._request({"cmd": "snapshot"})
        return reply["snapshot"]

    async def poll(
        self,
        generation: int,
        checkpoint: int,
        offset: int,
        wait_s: float = 10.0,
    ) -> Dict[str, Any]:
        """Entries after ``(checkpoint, offset)``; the leader parks the
        request up to ``wait_s`` when the follower is caught up.

        The reply carries ``entries`` (HQL strings, possibly empty),
        the position after applying them (``checkpoint``/``offset``),
        the leader's ``generation`` and ``end_offset``, and ``resync:
        true`` when the position was unservable (stale generation, or
        behind the retained segments) — the follower must then refetch
        a snapshot.
        """
        return await self._request(
            {
                "cmd": "poll",
                "follower": self.follower_id,
                "addr": self.listen_addr,
                "generation": generation,
                "checkpoint": checkpoint,
                "offset": offset,
                "wait_s": wait_s,
            }
        )

    async def _request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        if self._writer is None or self._reader is None:
            raise ReplicationError("replication link is not connected")
        self._request_ids += 1
        message = {"id": self._request_ids, "op": "replicate"}
        message.update(body)
        self._writer.write(protocol.encode_frame(message))
        await self._writer.drain()
        reply = await protocol.read_frame(self._reader, self.max_frame)
        if reply is None:
            raise ReplicationError("leader closed the replication stream")
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise ReplicationError(
                "leader rejected {!r}: {}: {}".format(
                    body.get("cmd"),
                    error.get("type", "error"),
                    error.get("message", "?"),
                )
            )
        return reply

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def __repr__(self) -> str:
        return "LeaderLink({!r}, follower={!r}, connected={})".format(
            self.leader_addr, self.follower_id, self.connected
        )
