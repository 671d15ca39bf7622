"""Durable recovery: snapshot + operation-log lifecycle for the server.

A served database lives in one *data directory*::

    <data_dir>/snapshot.bin    binary columnar snapshot (format v2)
    <data_dir>/snapshot.json   JSON snapshot (format v1; read, never written)
    <data_dir>/oplog.hql       HQL journal of statements since the snapshot

Boot (:meth:`RecoveryManager.recover`) loads the latest snapshot, then
replays the journal; every committed write afterwards is appended to
the journal, and once :attr:`snapshot_interval` statements accumulate
the server takes a *checkpoint* — a fresh snapshot plus a rotated
(emptied) journal — bounding both recovery time and log growth.

A checkpoint always writes ``snapshot.bin``.  Recovery reads whichever
file exists, so a directory written by a v1 server boots and is
upgraded by its next checkpoint; when *both* exist — a crash between
writing ``snapshot.bin`` and unlinking the v1 file — the higher
checkpoint generation wins, and the usual stamp comparison against the
journal marker below handles the rest.  The binary format additionally
persists each relation's posting bitsets, so recovery skips the
subsumption sweep entirely.

Crash-safety of the checkpoint itself
-------------------------------------
A checkpoint is two file operations that cannot be made atomic
together, so each snapshot carries a monotonically increasing
``checkpoint`` generation and each rotated journal begins with a
``-- checkpoint <n>`` marker naming the snapshot it continues:

1. write ``snapshot.bin`` crash-safely (temp file + fsync +
   ``os.replace``) stamped with generation *n*, and best-effort unlink
   a v1 ``snapshot.json`` (now stale);
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

from repro.engine import codec
from repro.engine.database import HierarchicalDatabase
from repro.engine.oplog import OperationLog
from repro.engine.storage import (
    database_from_dict,
    read_binary_snapshot,
    read_bytes,
    read_payload,
    save_database_binary,
)

SNAPSHOT_FILE = "snapshot.json"
SNAPSHOT_FILE_BIN = "snapshot.bin"
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
        self.snapshot_path_bin = os.path.join(data_dir, SNAPSHOT_FILE_BIN)
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

    def _pick_snapshot(self) -> Optional[str]:
        """Which on-disk snapshot to recover from: the only one present,
        or — when both formats exist — the higher checkpoint stamp
        (ties go to binary: richer, and stamped-equal means same
        contents)."""
        has_bin = os.path.exists(self.snapshot_path_bin)
        has_json = os.path.exists(self.snapshot_path)
        if has_bin and not has_json:
            return codec.FORMAT_BINARY
        if has_json and not has_bin:
            return codec.FORMAT_JSON
        if not has_bin:
            return None
        bin_stamp = int(
            codec.snapshot_envelope(read_bytes(self.snapshot_path_bin)).get(
                "checkpoint", 0
            )
        )
        json_stamp = int(read_payload(self.snapshot_path).get("checkpoint", 0))
        return codec.FORMAT_JSON if json_stamp > bin_stamp else codec.FORMAT_BINARY

    def recover(self) -> HierarchicalDatabase:
        """Rebuild the database: snapshot, then journal replay (or
        journal discard when the stamps prove it is stale — see the
        module docstring)."""
        info: Dict[str, Any] = {
            "snapshot": False,
            "format": None,
            "checkpoint": 0,
            "replayed": 0,
            "discarded_stale_log": False,
        }
        chosen = self._pick_snapshot()
        if chosen == codec.FORMAT_BINARY:
            database, envelope = read_binary_snapshot(self.snapshot_path_bin)
            self.checkpoint_id = int(envelope.get("checkpoint", 0))
            info["snapshot"] = True
            info["format"] = codec.FORMAT_BINARY
            info["checkpoint"] = self.checkpoint_id
        elif chosen == codec.FORMAT_JSON:
            payload = read_payload(self.snapshot_path)
            database = database_from_dict(payload)
            self.checkpoint_id = int(payload.get("checkpoint", 0))
            info["snapshot"] = True
            info["format"] = codec.FORMAT_JSON
            info["checkpoint"] = self.checkpoint_id
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
        save_database_binary(
            database, self.snapshot_path_bin, extra={"checkpoint": stamp}
        )
        self.checkpoint_id = stamp
        # A v1 snapshot (if any) now carries an older stamp; drop it
        # before rotating the journal so a crash anywhere in between
        # still recovers from the freshest snapshot (both-files recovery
        # picks the higher stamp, and the stale-journal check handles
        # the unrotated log).
        try:
            os.unlink(self.snapshot_path)
        except OSError:
            pass
        self.journal.reset(checkpoint=stamp)
        self._journalled_since_checkpoint = 0
        self.checkpoints += 1
        return stamp

    def __repr__(self) -> str:
        return "RecoveryManager({!r}, checkpoint={}, pending={})".format(
            self.data_dir, self.checkpoint_id, self._journalled_since_checkpoint
        )
