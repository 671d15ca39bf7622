"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  The more
specific types mirror the paper's vocabulary:

* :class:`CycleError` — the *type-irredundancy* constraint of section 3.1
  (the hierarchy graph must be acyclic).
* :class:`AmbiguityError` — the *ambiguity constraint* of section 3.1: an
  item whose strongest-binding tuples carry mixed truth values.
* :class:`InconsistentRelationError` — a whole-relation integrity failure
  (one or more unresolved conflicts), raised when a transaction attempts
  to commit an inconsistent state.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class HierarchyError(ReproError):
    """A structural problem with a hierarchy graph."""


class CycleError(HierarchyError):
    """The type-irredundancy constraint was violated: the graph has a cycle."""


class UnknownNodeError(HierarchyError, KeyError):
    """A class or instance name does not exist in the hierarchy."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable.
        return Exception.__str__(self)


class DuplicateNodeError(HierarchyError):
    """A class or instance name was defined twice in one hierarchy."""


class SchemaError(ReproError):
    """A relation was used with incompatible attributes or hierarchies."""


class TupleError(ReproError):
    """A malformed tuple: wrong arity, unknown value, or a contradictory
    re-assertion of an item with the opposite truth value."""


class AmbiguityError(ReproError):
    """The ambiguity constraint failed for some item.

    Attributes
    ----------
    item:
        The item (tuple of node names) whose truth value is ambiguous.
    binders:
        The conflicting strongest-binding tuples, as ``(item, truth)``
        pairs.
    """

    def __init__(self, item, binders) -> None:
        self.item = tuple(item)
        self.binders = tuple(binders)
        names = ", ".join(
            "{}{}".format("+" if truth else "-", "/".join(b)) for b, truth in self.binders
        )
        super().__init__(
            "ambiguous truth value for item {}: conflicting strongest binders {}".format(
                "/".join(self.item), names
            )
        )


class InconsistentRelationError(ReproError):
    """A relation (or a transaction result) contains unresolved conflicts.

    Attributes
    ----------
    conflicts:
        A tuple of :class:`repro.core.conflicts.Conflict` records.
    """

    def __init__(self, conflicts) -> None:
        self.conflicts = tuple(conflicts)
        super().__init__(
            "relation is inconsistent: {} unresolved conflict(s); first: {}".format(
                len(self.conflicts), self.conflicts[0] if self.conflicts else "<none>"
            )
        )


class TransactionError(ReproError):
    """Misuse of the transaction API (e.g. commit after rollback)."""


class CatalogError(ReproError):
    """A name clash or missing object in the engine catalog."""


class ViewError(ReproError):
    """Misuse of a materialized view — most commonly an attempt to
    mutate the view's cached relation through the read-only handle
    (``view.relation().copy()`` yields a mutable private copy)."""


class HQLError(ReproError):
    """A problem with an HQL statement."""


class HQLSyntaxError(HQLError):
    """The HQL text could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        self.line = line
        self.column = column
        super().__init__("{} (line {}, column {})".format(message, line, column))


class StorageError(ReproError):
    """A persistence problem: unreadable file or unsupported format version."""


class ServerError(ReproError):
    """A problem in the network server or client layer."""


class ProtocolError(ServerError):
    """A malformed, oversized, or version-incompatible wire frame."""


class FrameTooLargeError(ProtocolError):
    """A frame exceeded the negotiated ``max_frame``.

    Raised locally when an incoming frame's header announces too many
    bytes, and reported remotely (as an error frame) when a *response*
    would not fit — in the latter case the fix is to stream the result
    through a cursor (``page_size``) or add ``LIMIT``/``OFFSET``.

    Attributes
    ----------
    actual:
        The offending frame's body size in bytes.
    max_frame:
        The negotiated limit it exceeded.
    """

    def __init__(self, actual: int, max_frame: int, hint: str = "") -> None:
        self.actual = actual
        self.max_frame = max_frame
        message = "frame of {} bytes exceeds the {}-byte limit".format(
            actual, max_frame
        )
        if hint:
            message += "; " + hint
        super().__init__(message)


class ReplicationError(ServerError):
    """A failure in the leader→follower journal-shipping layer: a
    follower that cannot bootstrap, a replication stream that lost its
    position, or a ``WAIT_SYNC`` write that timed out waiting for
    follower acknowledgements."""


class ReadOnlyError(ReplicationError):
    """A write was sent to a read-only follower.

    Followers replay the leader's journal and serve reads; every
    mutating statement must go to the leader.  The error names it so
    routing clients can retry without out-of-band configuration.

    Attributes
    ----------
    leader:
        ``"host:port"`` of the leader this follower replicates from.
    """

    def __init__(self, leader: str) -> None:
        self.leader = leader
        super().__init__(
            "this server is a read-only replica; send writes to the "
            "leader at {}".format(leader)
        )


class StaleReplicaError(ReplicationError):
    """A follower refused a read because it has not heard from the
    leader within its configured staleness bound.

    Attributes
    ----------
    staleness_ms:
        How stale the replica believes it is, in milliseconds.
    bound_ms:
        The configured maximum.
    """

    def __init__(self, staleness_ms: float, bound_ms: float) -> None:
        self.staleness_ms = staleness_ms
        self.bound_ms = bound_ms
        super().__init__(
            "replica is {:.0f} ms stale (bound {:.0f} ms); retry on the "
            "leader or relax --max-staleness".format(staleness_ms, bound_ms)
        )


class TenantError(ServerError):
    """A problem with the multi-tenant registry: a bad tenant name, a
    ``USE`` inside an open transaction, or a lifecycle misuse (dropping
    the default tenant, creating a duplicate)."""


class UnknownTenantError(TenantError):
    """A request named a tenant the registry does not hold.

    Attributes
    ----------
    name:
        The tenant name that failed to resolve.
    known:
        The tenant names the registry does hold (sorted).
    """

    def __init__(self, name: str, known=()) -> None:
        self.name = name
        self.known = tuple(sorted(known))
        message = "unknown tenant {!r}".format(name)
        if self.known:
            message += " (known: {})".format(", ".join(self.known))
        super().__init__(message)


class TenantQuarantinedError(TenantError):
    """A tenant failed to bootstrap (corrupt snapshot or journal) and
    was quarantined: the server keeps serving every other tenant, and
    requests against this one report the boot failure instead of data.

    Attributes
    ----------
    name:
        The quarantined tenant.
    reason:
        The bootstrap failure, as recorded at recovery time.
    """

    def __init__(self, name: str, reason: str) -> None:
        self.name = name
        self.reason = reason
        super().__init__(
            "tenant {!r} is quarantined after a failed bootstrap: {}".format(
                name, reason
            )
        )


class QuotaExceededError(TenantError):
    """A tenant hit one of its configured quotas.

    Attributes
    ----------
    tenant:
        The tenant whose quota tripped.
    quota:
        Which quota: ``"max_tuples"``, ``"max_cursors"``, or
        ``"statement_rate"``.
    limit:
        The configured bound.
    current:
        The observed value that tripped it.
    """

    def __init__(self, tenant: str, quota: str, limit, current) -> None:
        self.tenant = tenant
        self.quota = quota
        self.limit = limit
        self.current = current
        super().__init__(
            "tenant {!r} exceeded its {} quota: {} (limit {})".format(
                tenant, quota, current, limit
            )
        )


class RemoteError(ServerError):
    """An error reported by the server for a remotely executed statement.

    Attributes
    ----------
    remote_type:
        The class name of the exception raised server-side (e.g.
        ``"HQLSyntaxError"``), so clients can branch without depending
        on the server's exception objects.
    """

    def __init__(self, remote_type: str, message: str) -> None:
        self.remote_type = remote_type
        super().__init__("{}: {}".format(remote_type, message))


class LeaderChangedError(RemoteError):
    """A request landed on a server that is not (or is no longer) the
    leader — typically a write sent to a read-only follower.

    Raised client-side when the remote error is a
    :class:`ReadOnlyError`, so routing callers can catch one type and
    retry against :attr:`leader` instead of string-matching a generic
    :class:`RemoteError`.

    Attributes
    ----------
    leader:
        ``"host:port"`` of the current leader as reported by the
        follower, or ``None`` if it did not say.
    """

    def __init__(self, remote_type: str, message: str, leader=None) -> None:
        self.leader = leader
        super().__init__(remote_type, message)
