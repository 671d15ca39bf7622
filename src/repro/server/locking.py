"""A readers-writer lock for the asyncio server.

Read-only HQL statements (SELECT, TRUTH, COUNT, …) hold the lock in
*shared* mode and may overlap — against the bitset engine they are
pure reads plus idempotent cache fills, and the engine-side caches take
their own micro-locks (:class:`~repro.engine.querycache.QueryCache`).
Mutating statements hold it in *exclusive* mode and serialise, which is
what makes the executor's copy-on-write transaction commit atomic from
every other session's point of view.

The lock is **writer-preferring**: once a writer is waiting, new readers
queue behind it.  A steady stream of cheap reads therefore cannot
starve DML — the classic failure mode of naive RW locks under exactly
the read-heavy traffic this server is built for.

Not thread-safe: this is an asyncio-side lock, acquired on the event
loop, and acquisition and release happen between awaits.  The guarded
work of a warm ``TRUTH`` runs on the loop itself (one postings probe
plus at most one evaluator advance); a cold ``TRUTH``'s (a full sweep
of the relation, after boot, a hierarchy edit or ``LOAD``) and every
other statement's run on a worker thread, because they grow with
relation size.  Inline
truth questions hold the shared lock without ever yielding, so they
never overlap one another: :attr:`ReadWriteLock.max_concurrent_readers`
counts threaded reads only — a per-layer count, not a gate, which reads
1 under a pure ``TRUTH`` load by construction.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import Dict


class ReadWriteLock:
    """Shared/exclusive lock with writer preference.

    Examples
    --------
    >>> # async with lock.read_locked():   # many at once
    >>> #     ...
    >>> # async with lock.write_locked():  # one, and no readers
    >>> #     ...
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        #: High-water mark of simultaneously active readers — the
        #: observable proof that reads actually overlapped.
        self.max_concurrent_readers = 0

    # ------------------------------------------------------------------

    async def acquire_read(self) -> None:
        async with self._cond:
            await self._cond.wait_for(
                lambda: not self._writer_active and self._writers_waiting == 0
            )
            self._readers += 1
            if self._readers > self.max_concurrent_readers:
                self.max_concurrent_readers = self._readers

    async def release_read(self) -> None:
        async with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        async with self._cond:
            self._writers_waiting += 1
            try:
                await self._cond.wait_for(
                    lambda: not self._writer_active and self._readers == 0
                )
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    async def release_write(self) -> None:
        async with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------

    @asynccontextmanager
    async def read_locked(self):
        await self.acquire_read()
        try:
            yield self
        finally:
            await self.release_read()

    @asynccontextmanager
    async def write_locked(self):
        await self.acquire_write()
        try:
            yield self
        finally:
            await self.release_write()

    # ------------------------------------------------------------------

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def writer_active(self) -> bool:
        return self._writer_active

    @property
    def writers_waiting(self) -> int:
        return self._writers_waiting

    def describe(self) -> Dict[str, object]:
        """The lock block of a tenant's ``stats`` row."""
        return {
            "readers": self._readers,
            "writer_active": self._writer_active,
            "writers_waiting": self._writers_waiting,
            "max_concurrent_readers": self.max_concurrent_readers,
        }

    def __repr__(self) -> str:
        return "ReadWriteLock(readers={}, writer={}, waiting={})".format(
            self._readers, self._writer_active, self._writers_waiting
        )
