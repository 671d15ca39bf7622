"""Server wiring for journal shipping: the ``replicate`` verb and the
follower replay task.

Leader side
-----------
A server with a data directory automatically *leads*: it owns a
:class:`~repro.replication.state.LeaderState` mirroring the journal's
current segment, and answers ``{"op": "replicate"}`` requests on the
ordinary HQL port:

``cmd: "hello"``     register the follower; returns the leader's
                     generation and position.
``cmd: "snapshot"``  the on-disk snapshot file, base64-wrapped, read
                     under the shared lock so it cannot interleave with
                     a checkpoint rotation.
``cmd: "poll"``      journal entries after the follower's position.
                     The reported position doubles as the follower's
                     *acknowledgement* (it has applied everything up to
                     it), so ``WAIT_SYNC`` waiters wake here.  A caught-
                     up follower parks the request (long poll) until an
                     append or ``wait_s`` elapses.  An unservable
                     position — stale generation, or behind the
                     retained segments — answers ``resync: true``.

Follower side
-------------
:class:`FollowerTask` drives one replica: bootstrap (snapshot fetch +
in-place adoption + journal tail), then the poll/apply loop.  Batches
apply under the server's exclusive lock via the ordinary executor paths,
so version counters advance and the query cache invalidates exactly as
for local writes.  Duplicate delivery (a retransmitted batch after a
reconnect) is dropped by generation+offset dedup in
:meth:`FollowerTask.apply_batch`.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import os
import time
import uuid
from typing import Any, Dict, Optional

from repro.engine import codec
from repro.errors import ReplicationError
from repro.replication import (
    FollowerState,
    LeaderLink,
    LeaderState,
    adopt_database,
    decode_snapshot_payload,
)

#: Default ceiling on one leader-side long poll; the follower re-polls
#: immediately after, so this bounds connection-loss detection and the
#: granularity of the staleness clock (which re-anchors only when a
#: poll completes — a parked poll must not outlive the bound).
DEFAULT_POLL_WAIT_S = 1.0
#: Delay between reconnect attempts after the leader drops.
DEFAULT_RETRY_S = 0.5


def make_leader_state(server) -> LeaderState:
    """Build the leader half at server construction: generation bump,
    plus the in-memory mirror of the journal's current segment."""
    recovery = server.recovery
    return LeaderState(
        recovery.data_dir,
        checkpoint=recovery.checkpoint_id,
        entries=recovery.journal.entries(),
    )


# ----------------------------------------------------------------------
# leader: the replicate verb
# ----------------------------------------------------------------------


async def handle_replicate(server, message: Dict[str, Any]) -> Dict[str, Any]:
    """One ``{"op": "replicate"}`` request against ``server``."""
    leader: Optional[LeaderState] = server.leader_state
    request_id = message.get("id")
    if leader is None:
        raise ReplicationError(
            "this server cannot lead: no data directory (and therefore no "
            "journal) is attached"
            + (
                "; it is itself a follower of {}".format(server.follower_state.leader_addr)
                if server.follower_state is not None
                else ""
            )
        )
    cmd = message.get("cmd")
    if cmd == "hello":
        leader.register(str(message.get("follower")), message.get("addr"))
        server._m_repl_followers.set(len(leader.followers))
        return {
            "id": request_id,
            "ok": True,
            "generation": leader.generation,
            "checkpoint": leader.checkpoint,
            "end_offset": leader.end_offset,
            "database": server.database.name,
        }
    if cmd == "snapshot":
        return await _handle_snapshot(server, leader, request_id)
    if cmd == "poll":
        return await _handle_poll(server, leader, message)
    raise ReplicationError("unknown replicate cmd {!r}".format(cmd))


async def _handle_snapshot(server, leader: LeaderState, request_id) -> Dict[str, Any]:
    """Ship the on-disk snapshot.  The shared lock keeps a checkpoint
    (exclusive) from rotating the file mid-read, so the bytes and the
    stamp are mutually consistent."""
    recovery = server.recovery
    async with server.lock.read_locked():
        snapshot: Dict[str, Any] = {
            "generation": leader.generation,
            "checkpoint": recovery.checkpoint_id,
            "database": server.database.name,
        }
        if not os.path.exists(recovery.snapshot_path):
            # Never checkpointed: the journal alone is the whole state.
            snapshot["format"] = "none"
        else:
            raw = await asyncio.to_thread(_read_file, recovery.snapshot_path)
            snapshot["format"] = codec.FORMAT_BINARY
            snapshot["data"] = base64.b64encode(raw).decode("ascii")
    server._m_repl_snapshots.inc()
    return {"id": request_id, "ok": True, "snapshot": snapshot}


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


async def _handle_poll(server, leader: LeaderState, message: Dict[str, Any]) -> Dict[str, Any]:
    request_id = message.get("id")
    follower_id = str(message.get("follower"))
    generation = int(message.get("generation") or 0)
    checkpoint = int(message.get("checkpoint") or 0)
    offset = int(message.get("offset") or 0)
    wait_s = min(60.0, max(0.0, float(message.get("wait_s") or 0.0)))
    if message.get("addr"):
        leader.register(follower_id, str(message["addr"]))
    leader.polls += 1
    server._m_repl_polls.inc()

    def resync() -> Dict[str, Any]:
        return {
            "id": request_id,
            "ok": True,
            "resync": True,
            "generation": leader.generation,
            "end_checkpoint": leader.checkpoint,
            "end_offset": leader.end_offset,
        }

    if generation != leader.generation:
        # A position minted by a previous leader incarnation proves
        # nothing about this journal; the follower must re-bootstrap.
        return resync()
    # The reported position is an ack: the follower has applied
    # everything up to it.  Record it *before* any long-poll parking so
    # WAIT_SYNC waiters see the ack immediately.
    leader.record_ack(follower_id, generation, checkpoint, offset)
    _update_lag_gauges(server, leader)
    batch = leader.entries_after(checkpoint, offset)
    if batch is None:
        return resync()
    entries, next_checkpoint, next_offset = batch
    if not entries and (next_checkpoint, next_offset) == (checkpoint, offset) and wait_s > 0:
        # Caught up: park until an append (or the wait ceiling).
        await leader.wait_for_append(wait_s)
        batch = leader.entries_after(checkpoint, offset)
        if batch is None:
            return resync()
        entries, next_checkpoint, next_offset = batch
    leader.shipped_entries += len(entries)
    if entries:
        server._m_repl_ship_entries.inc(len(entries))
    return {
        "id": request_id,
        "ok": True,
        "generation": leader.generation,
        "entries": entries,
        "checkpoint": next_checkpoint,
        "offset": next_offset,
        "end_checkpoint": leader.checkpoint,
        "end_offset": leader.end_offset,
    }


def _update_lag_gauges(server, leader: LeaderState) -> None:
    server._m_repl_followers.set(len(leader.followers))
    worst = 0
    for info in leader.followers.values():
        lag_entries, _ = leader.lag_of(info)
        worst = max(worst, lag_entries)
    server._m_repl_lag_entries.set(worst)


# ----------------------------------------------------------------------
# follower: bootstrap + replay loop
# ----------------------------------------------------------------------


class FollowerTask:
    """Drives one follower server: bootstrap, then poll/apply forever."""

    def __init__(
        self,
        server,
        leader_addr: str,
        *,
        poll_wait_s: float = DEFAULT_POLL_WAIT_S,
        retry_s: float = DEFAULT_RETRY_S,
    ) -> None:
        self.server = server
        self.state: FollowerState = server.follower_state
        self.follower_id = "{}-{}".format(os.getpid(), uuid.uuid4().hex[:8])
        self.leader_addr = leader_addr
        self.poll_wait_s = poll_wait_s
        self.retry_s = retry_s
        self.link: Optional[LeaderLink] = None
        self._task: Optional[asyncio.Task] = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    async def bootstrap(self) -> None:
        """Connect, resync, and drain the journal tail; raises (failing
        server start) when the leader is unreachable.

        The tail drain runs before the listener binds, so the first
        client to connect sees everything the leader had at our boot —
        not just its last snapshot.
        """
        await self._connect()
        saved = self.poll_wait_s
        self.poll_wait_s = 0.0
        try:
            while not self.state.caught_up_at:
                await self._poll_once()
        finally:
            self.poll_wait_s = saved

    def spawn(self) -> None:
        self._task = asyncio.create_task(self.run(), name="repro-replication")

    async def stop(self) -> None:
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        if self.link is not None:
            await self.link.close()
            self.link = None
        self.state.connected = False

    async def run(self) -> None:
        """Poll/apply until cancelled, reconnecting (with resync when
        the leader's generation moved) after any stream failure."""
        while not self._stopping:
            try:
                if self.link is None:
                    await self._connect()
                await self._poll_once()
            except asyncio.CancelledError:
                raise
            except Exception:
                # Connection loss, leader restart mid-frame, decode
                # trouble: drop the link, mark disconnected (staleness
                # starts growing), retry after a beat.
                self.state.connected = False
                if self.link is not None:
                    await self.link.close()
                    self.link = None
                await asyncio.sleep(self.retry_s)

    # -- the stream -----------------------------------------------------

    async def _connect(self) -> None:
        listen = "{}:{}".format(self.server.host, self.server.port) if self.server.port else None
        link = LeaderLink(
            self.leader_addr,
            self.follower_id,
            listen_addr=listen,
            max_frame=self.server.max_frame,
        )
        hello = await link.connect()
        self.link = link
        self.state.connected = True
        generation = int(hello.get("generation") or 0)
        if generation != self.state.generation:
            # First contact, or the leader restarted: our position (if
            # any) is from another life — re-bootstrap from a snapshot.
            await self._resync(generation)

    async def _resync(self, generation: int) -> None:
        started = time.perf_counter()
        payload = await self.link.fetch_snapshot()
        database, checkpoint = await asyncio.to_thread(decode_snapshot_payload, payload)
        async with self.server.lock.write_locked():
            await asyncio.to_thread(adopt_database, self.server.database, database)
        self.state.generation = int(payload.get("generation") or generation)
        self.state.checkpoint = checkpoint
        self.state.offset = 0
        self.state.resyncs += 1
        self.server._m_repl_resyncs.inc()
        self.server._m_repl_replay_ms.observe((time.perf_counter() - started) * 1e3)

    async def _poll_once(self) -> None:
        reply = await self.link.poll(
            self.state.generation,
            self.state.checkpoint,
            self.state.offset,
            wait_s=self.poll_wait_s,
        )
        self.state.last_poll_at = time.time()
        if reply.get("resync"):
            await self._resync(int(reply.get("generation") or 0))
            return
        await self.apply_batch(
            reply.get("entries") or [],
            int(reply.get("generation") or 0),
            self.state.checkpoint,
            self.state.offset,
            int(reply.get("checkpoint") or 0),
            int(reply.get("offset") or 0),
        )
        end = (int(reply.get("end_checkpoint") or 0), int(reply.get("end_offset") or 0))
        self.state.lag_entries = (
            max(0, end[1] - self.state.offset)
            if end[0] == self.state.checkpoint
            else 0
        )
        if self.state.position() >= end:
            # Caught up with everything the leader had when it answered:
            # re-anchor the staleness clock.
            self.state.caught_up_at = time.time()

    async def apply_batch(
        self,
        entries,
        generation: int,
        base_checkpoint: int,
        base_offset: int,
        next_checkpoint: int,
        next_offset: int,
    ) -> int:
        """Apply one shipped batch; returns how many entries actually
        ran.

        Idempotent under duplicate delivery: a batch from a stale
        generation is dropped whole, and a batch whose span is already
        (partly) behind our position — the same frame delivered twice
        after a reconnect — is trimmed by offset so each journal entry
        applies exactly once.
        """
        if generation != self.state.generation:
            return 0
        if base_checkpoint == self.state.checkpoint and self.state.offset > base_offset:
            already = self.state.offset - base_offset
            if already >= len(entries):
                # Entire batch already applied (pure duplicate).
                if (next_checkpoint, next_offset) > self.state.position():
                    self.state.checkpoint = next_checkpoint
                    self.state.offset = next_offset
                return 0
            entries = entries[already:]
        elif base_checkpoint != self.state.checkpoint:
            # A batch for a segment we are not in — only the rotation
            # rollover (empty batch moving us to the new segment) is
            # meaningful; anything else is stale.
            if entries:
                return 0
        if entries:
            started = time.perf_counter()
            script = "\n".join(entries)
            async with self.server.lock.write_locked():
                await asyncio.to_thread(self.server.database.execute, script)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self.server._m_repl_replay_ms.observe(elapsed_ms)
            self.server._m_repl_apply_entries.inc(len(entries))
            self.state.applied_entries += len(entries)
        self.state.checkpoint = next_checkpoint
        self.state.offset = next_offset
        return len(entries)


# ----------------------------------------------------------------------
# observability projection
# ----------------------------------------------------------------------


def replication_payload(server) -> Dict[str, Any]:
    """The ``replication`` block for admin ``stats`` / the HTTP
    surface: role, positions, per-follower lag."""
    leader = getattr(server, "leader_state", None)
    if leader is not None:
        return leader.describe()
    follower = getattr(server, "follower_state", None)
    if follower is not None:
        return follower.describe()
    return {"role": "single"}
