"""The network service layer: a concurrent HQL server.

``repro serve`` (or embedding :class:`HQLServer` /
:class:`ServerThread` directly) turns the in-process engine into a
shared multi-client service: a versioned length-prefixed wire
protocol (columnar bodies for replies that carry rows, JSON for the
rest), per-connection sessions owning transaction state, a
readers-writer lock that overlaps read statements and serialises
writes, durable snapshot+journal recovery, and an admin surface for
metrics, stats, the slow-query log, and live sessions.  See
docs/SERVER.md for the full protocol and semantics.
"""

from repro.server.locking import ReadWriteLock
from repro.server.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_NAME,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)
from repro.server.recovery import RecoveryManager
from repro.server.replication import FollowerTask, replication_payload
from repro.server.server import HQLServer, ServerThread
from repro.server.session import Session

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FollowerTask",
    "HQLServer",
    "PROTOCOL_NAME",
    "PROTOCOL_VERSION",
    "ReadWriteLock",
    "RecoveryManager",
    "ServerThread",
    "Session",
    "replication_payload",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
]
