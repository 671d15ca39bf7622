"""Durable recovery: snapshot + operation-log lifecycle for the server.

A served database lives in one *data directory*::

    <data_dir>/snapshot.bin    binary columnar snapshot (format v2)
    <data_dir>/oplog.hql       HQL journal of statements since the snapshot

Boot (:meth:`RecoveryManager.recover`) loads the latest snapshot, then
replays the journal; every committed write afterwards is appended to
the journal, and once :attr:`snapshot_interval` statements accumulate
the server takes a *checkpoint* — a fresh snapshot plus a rotated
(emptied) journal — bounding both recovery time and log growth.

The snapshot holds the catalog, the stored tuples and their signs, and
nothing derived from them (:mod:`repro.engine.codec`): each relation's
evaluator is swept the first time something reads it.  A directory
that holds only a v1 ``snapshot.json`` is refused with a
:class:`~repro.errors.StorageError` naming the file and the way to
upgrade it; a ``snapshot.json`` next to a ``snapshot.bin`` is a stale
leftover of that upgrade and is ignored.

Crash-safety of the checkpoint itself
-------------------------------------
A checkpoint is two file operations that cannot be made atomic
together, so each snapshot carries a monotonically increasing
``checkpoint`` generation and each rotated journal begins with a
``-- checkpoint <n>`` marker naming the snapshot it continues:

1. write ``snapshot.bin`` crash-safely (temp file + fsync +
   ``os.replace``) stamped with generation *n*;
2. reset ``oplog.hql`` to just the marker ``-- checkpoint <n>``.

On recovery the two stamps are compared.  Equal (or both absent):
normal case, replay the journal.  Unequal: the process died between
steps 1 and 2, so the journal on disk predates the snapshot that
already contains its effects — replaying it would double-apply (or
crash on ``CREATE``), so it is discarded and re-stamped.  Either way
no committed, journalled write is ever lost and none is applied twice.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.engine.database import HierarchicalDatabase
from repro.engine.oplog import OperationLog
from repro.engine.storage import read_database, save_database
from repro.errors import StorageError

SNAPSHOT_FILE = "snapshot.bin"
#: What a server wrote before the binary format; refused at boot.
V1_SNAPSHOT_FILE = "snapshot.json"
OPLOG_FILE = "oplog.hql"


class RecoveryManager:
    """Owns a data directory: recovery at boot, journalling and
    checkpointing while serving.

    ``fsync`` is passed through to the journal (see the durability
    trade-off in :mod:`repro.engine.oplog`); ``snapshot_interval`` is
    the number of journalled statements between automatic checkpoints
    (0 disables them — the journal then grows until :meth:`checkpoint`
    is called explicitly, e.g. at graceful shutdown).
    """

    def __init__(
        self,
        data_dir: str,
        *,
        fsync: bool = False,
        snapshot_interval: int = 500,
        name: str = "server",
    ) -> None:
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
        self.journal = OperationLog(os.path.join(data_dir, OPLOG_FILE), fsync=fsync)
        self.snapshot_interval = snapshot_interval
        self.name = name
        self.checkpoint_id = 0
        self.checkpoints = 0
        self._journalled_since_checkpoint = 0
        #: Journalled writes since the last checkpoint *attempt*: a
        #: failed checkpoint is retried one interval later, not at once.
        self._journalled_since_attempt = 0
        #: Filled by :meth:`recover` — what the last boot found.
        self.last_recovery: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def recover(self) -> HierarchicalDatabase:
        """Rebuild the database: snapshot, then journal replay (or
        journal discard when the stamps prove it is stale — see the
        module docstring)."""
        info: Dict[str, Any] = {
            "snapshot": False,
            "checkpoint": 0,
            "replayed": 0,
            "discarded_stale_log": False,
        }
        if os.path.exists(self.snapshot_path):
            database, envelope = read_database(self.snapshot_path)
            self.checkpoint_id = int(envelope.get("checkpoint", 0))
            info["snapshot"] = True
            info["checkpoint"] = self.checkpoint_id
        elif os.path.exists(os.path.join(self.data_dir, V1_SNAPSHOT_FILE)):
            raise StorageError(
                "{} is a v1 JSON snapshot, which this server no longer reads: "
                "boot the directory once under an earlier release that does, "
                "and its shutdown checkpoint rewrites it as {}".format(
                    os.path.join(self.data_dir, V1_SNAPSHOT_FILE), SNAPSHOT_FILE
                )
            )
        else:
            database = HierarchicalDatabase(self.name)
        marker = self.journal.checkpoint_marker() or 0
        if os.path.exists(self.journal.path) and marker != self.checkpoint_id:
            # Crash between snapshot replace and journal rotation: the
            # journal's writes are already inside the snapshot.
            self.journal.reset(checkpoint=self.checkpoint_id)
            info["discarded_stale_log"] = True
        else:
            info["replayed"] = self.journal.replay(database)
        self._journalled_since_checkpoint = 0
        self._journalled_since_attempt = 0
        self.last_recovery = info
        return database

    # ------------------------------------------------------------------
    # while serving
    # ------------------------------------------------------------------

    def note_journalled(self, statement=None) -> None:
        """Executor ``on_journal`` hook: one committed write landed in
        the journal."""
        self._journalled_since_checkpoint += 1
        self._journalled_since_attempt += 1

    @property
    def journalled_since_checkpoint(self) -> int:
        return self._journalled_since_checkpoint

    @property
    def checkpoint_due(self) -> bool:
        return (
            self.snapshot_interval > 0
            and self._journalled_since_attempt >= self.snapshot_interval
        )

    def checkpoint(self, database) -> int:
        """Snapshot ``database`` and rotate the journal; returns the new
        generation.  The caller must hold the write lock (the snapshot
        must not interleave with a commit).

        A failed snapshot write raises ``StorageError`` and leaves
        the generation, the previous snapshot and the journal — the
        durability path — as they were; :attr:`checkpoint_due` turns
        true again after another ``snapshot_interval`` writes."""
        stamp = self.checkpoint_id + 1
        self._journalled_since_attempt = 0
        save_database(database, self.snapshot_path, extra={"checkpoint": stamp})
        self.checkpoint_id = stamp
        self.journal.reset(checkpoint=stamp)
        self._journalled_since_checkpoint = 0
        self.checkpoints += 1
        return stamp

    def __repr__(self) -> str:
        return "RecoveryManager({!r}, checkpoint={}, pending={})".format(
            self.data_dir, self.checkpoint_id, self._journalled_since_checkpoint
        )
