"""Leader- and follower-side replication state machines.

Positions
---------
Because followers rebuild *all* derived state (posting bitsets, meet
tables, views) deterministically by replaying the leader's HQL
journal, a replica's entire progress is one tiny token::

    (generation, checkpoint, offset)

``generation`` stamps one leader *incarnation* — it is persisted in the
data directory and bumped every boot, so a follower can tell a restarted
leader from the one it was streaming from and resynchronise instead of
trusting a position token minted against a previous life.  ``checkpoint``
names the journal *segment* (the snapshot generation the journal
continues, exactly the ``-- checkpoint n`` marker recovery already
uses), and ``offset`` counts statements applied within that segment.
Positions are totally ordered by ``(checkpoint, offset)`` within one
generation: a rotation folds the whole segment into the snapshot, so a
higher checkpoint subsumes every entry of every lower one.

:class:`LeaderState` keeps the current segment's entries in memory
(they are appended via the executor's ``on_journal`` hook — i.e. only
*after* the durable local append), plus exactly one *previous* segment
so followers that are mid-segment when a checkpoint rotates the journal
can finish it from memory instead of refetching a snapshot.  Anything
older forces a resync: snapshot fetch + journal tail, the same path a
cold follower bootstraps through.

Thread model: ``note_appended`` is called from executor worker threads
(while the server's write lock is held); everything else runs on the
server's event loop.  The entry list is append-only and reads take
list slices, so the GIL makes the sharing safe; waiter wake-ups hop to
the loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import storage
from repro.errors import StorageError

GENERATION_FILE = "generation"

#: Entries shipped per poll response, a frame-size guard: 2k statements
#: of ordinary HQL stay far under the 32 MiB frame cap.
MAX_ENTRIES_PER_POLL = 2048

#: Per-entry append timestamps kept for lag-in-ms accounting.
_APPEND_TIMES_KEPT = 4096


def load_generation(data_dir: str) -> int:
    """The last persisted leader generation for ``data_dir`` (0 when
    the directory has never led)."""
    try:
        with open(os.path.join(data_dir, GENERATION_FILE), "r", encoding="utf-8") as fh:
            return int(fh.read().strip() or 0)
    except (OSError, ValueError):
        return 0


def bump_generation(data_dir: str) -> int:
    """Persist and return the next leader generation — called once per
    leader boot, so every incarnation is distinguishable on the wire."""
    generation = load_generation(data_dir) + 1
    path = os.path.join(data_dir, GENERATION_FILE)
    try:
        storage.write_bytes_atomic(path, "{}\n".format(generation).encode("ascii"))
    except OSError as exc:
        raise StorageError("cannot write {}: {}".format(path, exc)) from exc
    return generation


class FollowerInfo:
    """What the leader knows about one follower, updated on every poll."""

    __slots__ = ("id", "addr", "generation", "checkpoint", "offset", "last_seen")

    def __init__(self, follower_id: str, addr: Optional[str]) -> None:
        self.id = follower_id
        self.addr = addr
        self.generation = 0
        self.checkpoint = 0
        self.offset = 0
        self.last_seen = 0.0


class LeaderState:
    """The leader half of journal shipping.

    One instance hangs off a served :class:`~repro.server.server.
    HQLServer` whenever a data directory (and therefore a journal) is
    attached.  It owns the generation stamp, mirrors the current
    journal segment in memory, tracks per-follower acked positions,
    and parks ``WAIT_SYNC`` waiters until enough followers acknowledge
    an offset.
    """

    def __init__(
        self,
        data_dir: str,
        checkpoint: int,
        entries: Optional[List[str]] = None,
    ) -> None:
        self.data_dir = data_dir
        self.generation = bump_generation(data_dir)
        self.checkpoint = checkpoint
        self.entries: List[str] = list(entries or ())
        #: The one retained rotated segment: ``(checkpoint, entries)``.
        self.previous: Optional[Tuple[int, List[str]]] = None
        self.followers: Dict[str, FollowerInfo] = {}
        self._append_times: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._append_waiters: List[asyncio.Event] = []
        self._ack_waiters: List[Tuple[Tuple[int, int], int, asyncio.Event]] = []
        self.shipped_entries = 0
        self.polls = 0

    # ------------------------------------------------------------------
    # positions
    # ------------------------------------------------------------------

    @property
    def end_offset(self) -> int:
        return len(self.entries)

    def position(self) -> Tuple[int, int]:
        """The leader's current ``(checkpoint, offset)`` — what a fully
        caught-up follower has applied."""
        return (self.checkpoint, len(self.entries))

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Called at server start so worker-thread appends can wake
        loop-side waiters."""
        self._loop = loop

    # ------------------------------------------------------------------
    # journal lifecycle hooks
    # ------------------------------------------------------------------

    def note_appended(self, entry: str) -> None:
        """One statement landed in the journal (called *after* the
        durable append, from the executor's worker thread)."""
        self.entries.append(entry)
        key = (self.checkpoint, len(self.entries))
        self._append_times[key] = time.time()
        while len(self._append_times) > _APPEND_TIMES_KEPT:
            self._append_times.popitem(last=False)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._wake_append_waiters)

    def note_checkpoint(self, checkpoint: int) -> None:
        """The journal rotated: retire the live segment to ``previous``
        and start the new one empty."""
        self.previous = (self.checkpoint, self.entries)
        self.checkpoint = checkpoint
        self.entries = []
        self._append_times.clear()

    def _wake_append_waiters(self) -> None:
        waiters, self._append_waiters = self._append_waiters, []
        for event in waiters:
            event.set()

    async def wait_for_append(self, timeout: float) -> None:
        """Park a long-poll until a new entry arrives (or ``timeout``)."""
        event = asyncio.Event()
        self._append_waiters.append(event)
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            if event in self._append_waiters:
                self._append_waiters.remove(event)

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------

    def register(self, follower_id: str, addr: Optional[str]) -> FollowerInfo:
        info = self.followers.get(follower_id)
        if info is None:
            info = FollowerInfo(follower_id, addr)
            self.followers[follower_id] = info
        if addr:
            info.addr = addr
        info.last_seen = time.time()
        return info

    def entries_after(
        self, checkpoint: int, offset: int, limit: int = MAX_ENTRIES_PER_POLL
    ) -> Optional[Tuple[List[str], int, int]]:
        """The next batch for a follower at ``(checkpoint, offset)``.

        Returns ``(entries, next_checkpoint, next_offset)`` — the batch
        (possibly empty) and the position the follower holds after
        applying it — or ``None`` when the position is unservable (too
        far behind the retained segments) and the follower must resync
        via snapshot fetch.
        """
        if checkpoint == self.checkpoint:
            if offset > len(self.entries):
                return None  # ahead of us: a position from another life
            batch = self.entries[offset : offset + limit]
            return batch, self.checkpoint, offset + len(batch)
        if self.previous is not None and checkpoint == self.previous[0]:
            prev_checkpoint, prev_entries = self.previous
            if offset > len(prev_entries):
                return None
            batch = prev_entries[offset : offset + limit]
            if batch:
                return batch, prev_checkpoint, offset + len(batch)
            # Segment drained: roll the follower over the rotation
            # boundary into the live segment.
            return [], self.checkpoint, 0
        return None

    def record_ack(
        self, follower_id: str, generation: int, checkpoint: int, offset: int
    ) -> None:
        """A follower reported ``(checkpoint, offset)`` fully applied."""
        info = self.followers.get(follower_id)
        if info is None:
            info = self.register(follower_id, None)
        info.generation = generation
        info.checkpoint = checkpoint
        info.offset = offset
        info.last_seen = time.time()
        self._wake_ack_waiters()

    def forget(self, follower_id: str) -> None:
        self.followers.pop(follower_id, None)

    # ------------------------------------------------------------------
    # WAIT_SYNC
    # ------------------------------------------------------------------

    def acks_at(self, position: Tuple[int, int]) -> int:
        """How many followers (of this generation) have applied at
        least ``position``."""
        count = 0
        for info in self.followers.values():
            if info.generation != self.generation:
                continue
            if (info.checkpoint, info.offset) >= position:
                count += 1
        return count

    def _wake_ack_waiters(self) -> None:
        still_waiting = []
        for position, needed, event in self._ack_waiters:
            if self.acks_at(position) >= needed:
                event.set()
            else:
                still_waiting.append((position, needed, event))
        self._ack_waiters = still_waiting

    async def wait_synced(
        self, position: Tuple[int, int], needed: int, timeout: float
    ) -> int:
        """Block until ``needed`` followers have acked ``position``;
        returns the ack count.  Raises ``asyncio.TimeoutError`` when
        the deadline passes first."""
        acked = self.acks_at(position)
        if acked >= needed:
            return acked
        event = asyncio.Event()
        waiter = (position, needed, event)
        self._ack_waiters.append(waiter)
        try:
            await asyncio.wait_for(event.wait(), timeout)
        finally:
            if waiter in self._ack_waiters:
                self._ack_waiters.remove(waiter)
        return self.acks_at(position)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def lag_of(self, info: FollowerInfo, now: Optional[float] = None) -> Tuple[int, float]:
        """``(lag_entries, lag_ms)`` for one follower.

        Entries: how many journalled statements it has not applied
        (counted across the rotation boundary when it is one segment
        behind).  Milliseconds: the age of the oldest entry it lacks —
        0 when caught up, capped at the retained-timestamp window.
        """
        now = time.time() if now is None else now
        position = (info.checkpoint, info.offset)
        if info.generation != self.generation:
            lag_entries = len(self.entries)
            if self.previous is not None:
                lag_entries += len(self.previous[1])
        elif info.checkpoint == self.checkpoint:
            lag_entries = max(0, len(self.entries) - info.offset)
        elif self.previous is not None and info.checkpoint == self.previous[0]:
            lag_entries = max(0, len(self.previous[1]) - info.offset) + len(self.entries)
        else:
            lag_entries = len(self.entries)
            if self.previous is not None:
                lag_entries += len(self.previous[1])
        if lag_entries == 0:
            return 0, 0.0
        oldest = None
        for key, stamp in self._append_times.items():
            if key > position:
                oldest = stamp
                break
        lag_ms = 0.0 if oldest is None else max(0.0, (now - oldest) * 1e3)
        return lag_entries, lag_ms

    def describe(self) -> Dict[str, Any]:
        """The admin/stats projection of the leader's view."""
        now = time.time()
        rows = []
        for info in self.followers.values():
            lag_entries, lag_ms = self.lag_of(info, now)
            rows.append(
                {
                    "id": info.id,
                    "addr": info.addr,
                    "generation": info.generation,
                    "checkpoint": info.checkpoint,
                    "offset": info.offset,
                    "lag_entries": lag_entries,
                    "lag_ms": round(lag_ms, 3),
                    "last_seen_s": round(now - info.last_seen, 3),
                }
            )
        rows.sort(key=lambda row: str(row["id"]))
        return {
            "role": "leader",
            "generation": self.generation,
            "checkpoint": self.checkpoint,
            "end_offset": self.end_offset,
            "ship": {"entries": self.shipped_entries, "polls": self.polls},
            "followers": rows,
        }

    def __repr__(self) -> str:
        return "LeaderState(generation={}, position={}, followers={})".format(
            self.generation, self.position(), len(self.followers)
        )


class FollowerState:
    """The follower half: where we are, how stale we are, and whether
    the stream to the leader is live."""

    def __init__(self, leader_addr: str) -> None:
        self.leader_addr = leader_addr
        self.generation = 0
        self.checkpoint = 0
        self.offset = 0
        self.connected = False
        self.resyncs = 0
        self.applied_entries = 0
        #: Wall-clock of the last poll that left us caught up with the
        #: leader's end offset — the anchor for staleness accounting.
        self.caught_up_at = 0.0
        self.last_poll_at = 0.0
        self.lag_entries = 0

    def position(self) -> Tuple[int, int]:
        return (self.checkpoint, self.offset)

    def staleness_ms(self, now: Optional[float] = None) -> float:
        """Milliseconds since this replica last *knew* it was caught
        up.  Grows while the leader is unreachable, which is exactly
        the bounded-staleness read gate's input."""
        now = time.time() if now is None else now
        if self.caught_up_at == 0.0:
            return float("inf")
        return max(0.0, (now - self.caught_up_at) * 1e3)

    def describe(self) -> Dict[str, Any]:
        staleness = self.staleness_ms()
        return {
            "role": "follower",
            "leader": self.leader_addr,
            "generation": self.generation,
            "checkpoint": self.checkpoint,
            "offset": self.offset,
            "connected": self.connected,
            "lag_entries": self.lag_entries,
            "staleness_ms": None if staleness == float("inf") else round(staleness, 3),
            "applied_entries": self.applied_entries,
            "resyncs": self.resyncs,
        }

    def __repr__(self) -> str:
        return "FollowerState(leader={!r}, position={}, connected={})".format(
            self.leader_addr, self.position(), self.connected
        )
