"""Read replication: leader→follower journal shipping.

The paper's hierarchy model makes replication unusually clean: *all*
derived state (posting bitsets, meet tables, materialized views) is a
deterministic function of the HQL journal, so replaying the leader's
journal **is** replication.  A follower bootstraps exactly the way a
restarted server recovers — snapshot, then journal tail — except both
arrive over the wire, and then keeps replaying forever.

* :class:`~repro.replication.state.LeaderState` — the leader half:
  generation stamps, the in-memory mirror of the journal's current
  (and one previous) segment, per-follower acked positions and lag,
  and ``WAIT_SYNC`` waiters.
* :class:`~repro.replication.state.FollowerState` — the follower half:
  applied position, connectivity, and staleness accounting for the
  bounded-staleness read gate.
* :class:`~repro.replication.follower.LeaderLink` — the wire client a
  follower uses to fetch snapshots and long-poll journal batches.

Server wiring (the ``replicate`` verb, the read-only session mode, the
follower replay task) lives in :mod:`repro.server.replication`; client
read/write routing in :mod:`repro.client`.
"""

from repro.replication.follower import (
    LeaderLink,
    decode_snapshot_payload,
    parse_addr,
)
from repro.replication.state import (
    GENERATION_FILE,
    MAX_ENTRIES_PER_POLL,
    FollowerInfo,
    FollowerState,
    LeaderState,
    bump_generation,
    load_generation,
)

__all__ = [
    "GENERATION_FILE",
    "MAX_ENTRIES_PER_POLL",
    "FollowerInfo",
    "FollowerState",
    "LeaderLink",
    "LeaderState",
    "bump_generation",
    "decode_snapshot_payload",
    "load_generation",
    "parse_addr",
]
