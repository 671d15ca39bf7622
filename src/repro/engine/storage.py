"""The file layer of persistence.

A database file holds the same bytes as a data directory's
``snapshot.bin``: the ``RDB2`` container of :mod:`repro.engine.codec`.
``SAVE``/``LOAD``, ``repro run --db/--save``, ``repro serve --db`` and
server checkpoints all write and read it through the functions here,
so a ``SAVE``d file copied into an empty data directory as
``snapshot.bin`` boots, and a checkpointed ``snapshot.bin`` loads.
Every write is crash-safe (:func:`write_bytes_atomic`).
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, Optional

from repro.engine.codec import decode_snapshot, encode_snapshot
from repro.errors import StorageError


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Crash-safely write ``data`` to ``path``.

    The bytes go to an anonymous temp file *in the same directory*
    (``os.replace`` must not cross filesystems), are fsynced, and only
    then renamed into place — a crash at any point leaves either the
    old complete file or the new complete file, never a torn one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        raise StorageError("no such database file: {}".format(path)) from None
    except OSError as exc:
        raise StorageError("cannot read {}: {}".format(path, exc)) from None


def save_database(database, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
    """Write the database to ``path`` crash-safely.  ``extra`` keys
    (a checkpoint stamp, say) are merged into the snapshot envelope;
    :func:`read_database` returns them and :func:`load_database`
    ignores them."""
    data = encode_snapshot(database, extra)
    try:
        write_bytes_atomic(path, data)
    except OSError as exc:
        raise StorageError("cannot write {}: {}".format(path, exc)) from exc


def read_database(path: str):
    """``(database, envelope)`` from a database file."""
    return decode_snapshot(read_bytes(path))


def load_database(path: str):
    return read_database(path)[0]
