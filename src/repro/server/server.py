"""The concurrent HQL server.

One :class:`HQLServer` serves a *registry of tenants* — independent
:class:`~repro.engine.database.HierarchicalDatabase` instances (see
:mod:`repro.tenants`) — to many connections over the wire protocol of
:mod:`repro.server.protocol`.  Every session is bound to exactly one
tenant at a time (the ``default`` tenant until it issues a ``use``
request or stamps a ``db`` field on a query), so a client that never
mentions tenants talks to the default one.  Concurrency model:

* the event loop owns all sockets and each tenant's
  :class:`~repro.server.locking.ReadWriteLock`;
* each statement executes while the loop holds *that tenant's* lock in
  the statement's mode — shared for reads, exclusive for writes — so
  mutating statements on one tenant serialise, and traffic on
  different tenants never contends at all;
* a ``TRUTH`` whose relation has a memoised evaluator executes
  synchronously on the event loop: its work is one postings probe plus
  at most one delta advance (~6 µs), far below the cost of a thread
  hop.  A cold ``TRUTH`` — the first read of a relation after boot, a
  hierarchy edit or a ``LOAD`` — must sweep the evaluator first (11–14
  ms for the benchmark's ``cones`` relation ``left``, ~38 ms for a
  20 000-tuple relation), so it goes to a worker thread like every
  other statement.  Writes, ``COMMIT``, ``LOAD``, algebra reads,
  ``EXTENSION``, ``JUSTIFY``, ``EXPLAIN`` and every checkpoint execute
  on a worker thread (``asyncio.to_thread``), because their work grows
  with relation size and on the loop it would stall every tenant's
  sockets for its whole duration.  Threaded reads from different
  connections overlap; inline truth questions never do, so the lock's
  ``max_concurrent_readers`` counts threaded reads only (a per-layer
  count, not a gate);
* each connection owns a :class:`~repro.server.session.Session` whose
  executor holds its transaction state; ``ASSERT``/``RETRACT`` inside
  an open transaction stage copies privately and therefore run under
  the *shared* lock, while ``COMMIT`` (which installs the staged
  relations) takes the exclusive lock.

With ``data_dir`` set the server recovers at construction (the default
tenant from the directory root, named tenants from subdirectories —
snapshot + journal replay via
:class:`~repro.server.recovery.RecoveryManager`; a tenant that fails
to recover is quarantined, never fatal), journals every committed
write to the owning tenant's journal, and checkpoints — snapshot +
journal rotation, under that tenant's exclusive lock only — every
``snapshot_interval`` journalled statements and again at graceful
shutdown.

Shutdown comes in two flavours: :meth:`shutdown` (graceful — stop
accepting, *drain* in-flight statements, close connections, final
checkpoint) and :meth:`abort` (simulated crash for recovery tests —
connections are severed mid-flight and nothing is flushed beyond what
the journal already holds).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.engine import codec
from repro.engine.database import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.engine.hql import ast
from repro.engine.hql.parser import parse
from repro.errors import (
    FrameTooLargeError,
    ProtocolError,
    ReadOnlyError,
    ReplicationError,
    ReproError,
    ServerError,
    StaleReplicaError,
    StorageError,
    TenantError,
    UnknownTenantError,
)
from repro.server import admin as admin_mod
from repro.server import protocol
from repro.server import replication as replication_mod
from repro.server.session import Session

#: Auto-sized cursor pages target this fraction of the negotiated
#: frame limit, clamped to a sane row-count range.
_PAGE_FRAME_FRACTION = 4
_PAGE_MIN_ROWS = 64
_PAGE_MAX_ROWS = 100_000


def est_row_bytes(rows, sample: int = 64) -> int:
    """Estimated serialised bytes per wire row, from a prefix sample.

    Used to auto-size cursor pages against the negotiated frame limit.
    Rows are the wire shapes the server ships — ``[item, truth]`` pairs
    or plain value lists — so the estimate is the JSON-ish footprint:
    string lengths plus a few bytes of per-value punctuation.  Cheap
    and deliberately rough; page sizing only needs the right order of
    magnitude.
    """
    if not rows:
        return 1
    total = 0
    count = 0
    for row in rows[:sample]:
        values = row[0] if (len(row) == 2 and isinstance(row[0], (list, tuple))) else row
        if isinstance(values, (list, tuple)):
            total += sum(len(str(v)) for v in values) + 4 * len(values) + 8
        else:
            total += len(str(values)) + 8
        count += 1
    return max(1, total // count)


def _request_number(message: dict, field: str, kind, default):
    """A numeric request field as ``kind`` (``int`` or ``float``); absent
    or empty reads ``default``.  A value ``kind`` cannot convert is a
    :class:`~repro.errors.ProtocolError` naming the field, so the client
    gets a typed error frame and the connection keeps serving."""
    value = message.get(field)
    if not value:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(
            "request field {!r} must be a number, got {!r}".format(field, value)
        ) from None


class HQLServer:
    """An asyncio HQL service over one hierarchical database."""

    def __init__(
        self,
        database: Optional[HierarchicalDatabase] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        data_dir: Optional[str] = None,
        snapshot_interval: int = 500,
        fsync: bool = False,
        admin_port: Optional[int] = None,
        slow_query_ms: Optional[float] = None,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        drain_timeout: float = 10.0,
        replicate_from: Optional[str] = None,
        max_staleness_s: Optional[float] = None,
        poll_wait_s: float = replication_mod.DEFAULT_POLL_WAIT_S,
        retry_s: float = replication_mod.DEFAULT_RETRY_S,
        default_quotas=None,
        tenants: Optional[Tuple[str, ...]] = None,
    ) -> None:
        # Imported here, not at module top: repro.tenants builds on the
        # server's lock and recovery modules, so a top-level import
        # would be circular through repro.server.__init__.
        from repro.tenants import TenantRegistry

        if database is not None and data_dir is not None:
            raise ServerError(
                "pass either a database or a data_dir to recover from, not both"
            )
        if replicate_from is not None and data_dir is not None:
            raise ServerError(
                "a follower streams its state from the leader; it cannot also "
                "recover from a local data_dir"
            )
        if data_dir is not None:
            self.registry = TenantRegistry.durable(
                data_dir,
                fsync=fsync,
                snapshot_interval=snapshot_interval,
                default_quotas=default_quotas,
            )
        else:
            self.registry = TenantRegistry.memory(
                database, default_quotas=default_quotas
            )
        for name in tenants or ():
            if name not in self.registry:
                self.registry.create(name)
        # Replication roles: a data directory (journal) makes this
        # server a *leader*; --replicate-from makes it a *follower*
        # (read-only, in-memory, streamed from the leader's journal).
        # The replication stream covers the *default* tenant; a
        # follower refuses every named tenant (``_bind_session``).
        self.leader_state = (
            replication_mod.make_leader_state(self) if self.recovery is not None else None
        )
        self.follower_state = None
        self._follower_task: Optional[replication_mod.FollowerTask] = None
        self.max_staleness_s = max_staleness_s
        if replicate_from is not None:
            from repro.replication import FollowerState

            self.follower_state = FollowerState(replicate_from)
            if max_staleness_s is not None:
                # The staleness clock re-anchors per completed poll, so
                # a parked long poll must turn around well inside the
                # bound or an *idle* leader would look stale.
                poll_wait_s = min(poll_wait_s, max(0.01, max_staleness_s / 2.0))
            self._follower_task = replication_mod.FollowerTask(
                self, replicate_from, poll_wait_s=poll_wait_s, retry_s=retry_s
            )
        self.slow_query_ms = slow_query_ms
        if slow_query_ms is not None:
            for tenant in self.registry:
                if tenant.database is not None:
                    tenant.database.enable_slow_query_log(slow_query_ms)
        self.host = host
        self.port = port
        self.admin_port = admin_port
        self.max_frame = max_frame
        self.drain_timeout = drain_timeout
        self.sessions: Dict[int, Session] = {}
        self.started_at = 0.0
        self.draining = False
        self._session_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._admin_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        metrics = self.database.metrics
        self._m_connections = metrics.gauge("server.connections")
        self._m_connections_total = metrics.counter("server.connections_total")
        self._m_statements = metrics.counter("server.statements")
        self._m_errors = metrics.counter("server.errors")
        self._m_checkpoints = metrics.counter("server.checkpoints")
        self._m_checkpoint_failures = metrics.counter("server.checkpoint.failures")
        self._m_cursors = metrics.counter("server.cursors_opened")
        self._m_cursor_pages = metrics.counter("server.cursor_pages")
        self._m_repl_followers = metrics.gauge("replication.followers")
        self._m_repl_lag_entries = metrics.gauge("replication.lag.entries")
        self._m_repl_polls = metrics.counter("replication.ship.polls")
        self._m_repl_ship_entries = metrics.counter("replication.ship.entries")
        self._m_repl_snapshots = metrics.counter("replication.ship.snapshots")
        self._m_repl_resyncs = metrics.counter("replication.resyncs")
        self._m_repl_apply_entries = metrics.counter("replication.apply.entries")
        self._m_repl_replay_ms = metrics.histogram("replication.replay.ms")

    # ------------------------------------------------------------------
    # the default tenant's facets, as they have always been spelled
    # ------------------------------------------------------------------

    @property
    def database(self) -> HierarchicalDatabase:
        """The default tenant's database (what a client that names no tenant talks to)."""
        return self.registry.default.database

    @property
    def recovery(self):
        """The default tenant's recovery manager, or ``None``."""
        return self.registry.default.recovery

    @property
    def lock(self):
        """The default tenant's readers-writer lock."""
        return self.registry.default.lock

    @property
    def role(self) -> str:
        """This server's replication role: ``leader`` (has a journal to
        ship), ``follower`` (streams one), or ``single``."""
        if self.follower_state is not None:
            return "follower"
        if self.leader_state is not None:
            return "leader"
        return "single"

    def _on_journal(self, tenant, statement) -> None:
        """Executor hook, fired *after* the durable local append: count
        it toward the owning tenant's next checkpoint and — for the
        default tenant on a leader — mirror it into the ship buffer.
        The ordering is the WAIT_SYNC guarantee — an entry becomes
        shippable only once it is journalled locally."""
        tenant.recovery.note_journalled(statement)
        if tenant.is_default and self.leader_state is not None:
            self.leader_state.note_appended(ast.to_hql(statement))

    def _executor_for(self, tenant) -> HQLExecutor:
        """A fresh executor bound to one tenant's database and journal
        (each session×tenant binding gets its own, so transaction state
        never leaks across sessions or tenants)."""
        recovery = tenant.recovery
        if recovery is None:
            return HQLExecutor(tenant.database)
        return HQLExecutor(
            tenant.database,
            log=recovery.journal,
            on_journal=lambda statement, _t=tenant: self._on_journal(_t, statement),
        )

    # ------------------------------------------------------------------
    # tenant lifecycle (admin surface)
    # ------------------------------------------------------------------

    def create_tenant(self, name: str, quotas=None):
        tenant = self.registry.create(name, quotas)
        if self.slow_query_ms is not None:
            tenant.database.enable_slow_query_log(self.slow_query_ms)
        return tenant

    def drop_tenant(self, name: str):
        """Drop a tenant and reclaim everything sessions hold against
        it: open cursors are reaped and staged transactions rolled
        back.  The sessions stay connected — their next statement reports the
        tenant as gone until they ``use`` another."""
        tenant = self.registry.drop(name)
        tenant.dropped = True
        for session in self.sessions.values():
            if session.tenant is tenant:
                session.cursors.clear()
                session.executor.close()
        return tenant

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener(s); returns ``(host, port)`` actually bound
        (``port=0`` picks an ephemeral one)."""
        import time

        self.started_at = time.time()
        self._idle = asyncio.Event()
        self._idle.set()
        if self.leader_state is not None:
            self.leader_state.bind_loop(asyncio.get_running_loop())
        if self._follower_task is not None:
            # Bootstrap (snapshot fetch + journal tail) *before* the
            # listener exists, so no client can read the pre-adoption
            # empty database.  An unreachable leader fails the start.
            await self._follower_task.bootstrap()
        self._server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self._follower_task is not None:
            if self._follower_task.link is not None:
                self._follower_task.link.listen_addr = "{}:{}".format(self.host, self.port)
            self._follower_task.spawn()
        if self.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                lambda r, w: admin_mod.handle_http(self, r, w), self.host, self.admin_port
            )
            self.admin_port = self._admin_server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: no new connections, in-flight statements
        drain (bounded by ``drain_timeout``), connections close, and —
        when a data directory is attached — a final checkpoint folds
        the journal into the snapshot."""
        self.draining = True
        if self._follower_task is not None:
            await self._follower_task.stop()
        await self._close_listeners()
        if drain and self._idle is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._idle.wait(), self.drain_timeout)
        await self._sever_connections()
        if drain:
            # Final checkpoints, one tenant at a time — each folds its
            # own journal into its own snapshot (quarantined tenants
            # have nothing recovered to snapshot, so they are skipped
            # and their on-disk state stays untouched for forensics).
            for tenant in list(self.registry):
                if tenant.recovery is None or tenant.database is None:
                    continue
                await asyncio.to_thread(tenant.recovery.checkpoint, tenant.database)
                self._m_checkpoints.inc()
                if tenant.is_default and self.leader_state is not None:
                    self.leader_state.note_checkpoint(tenant.recovery.checkpoint_id)

    async def abort(self) -> None:
        """Simulated crash: sever everything *now*; no drain, no final
        checkpoint — recovery must succeed from the snapshot and
        journal exactly as they are on disk."""
        self.draining = True
        if self._follower_task is not None:
            await self._follower_task.stop()
        await self._close_listeners()
        await self._sever_connections()

    async def _close_listeners(self) -> None:
        for server in (self._server, self._admin_server):
            if server is not None:
                server.close()
                with contextlib.suppress(Exception):
                    await server.wait_closed()
        self._server = None
        self._admin_server = None

    async def _sever_connections(self) -> None:
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._conn_tasks.clear()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        session_id = next(self._session_ids)
        tenant = self.registry.default
        peer = writer.get_extra_info("peername")
        session = Session(
            session_id,
            self._executor_for(tenant),
            "{}:{}".format(*peer[:2]) if peer else None,
            tenant=tenant,
        )
        self.sessions[session_id] = session
        self._m_connections.inc()
        self._m_connections_total.inc()
        try:
            writer.write(
                protocol.encode_frame(
                    protocol.hello(
                        self.database.name,
                        session_id,
                        __version__,
                        self.max_frame,
                        role=self.role,
                        leader=(
                            self.follower_state.leader_addr
                            if self.follower_state is not None
                            else None
                        ),
                        replication=self.leader_state is not None,
                        tenants=self.registry.names(),
                    )
                )
            )
            await writer.drain()
            while not self.draining:
                try:
                    message = await protocol.read_frame(reader, self.max_frame)
                except ProtocolError as exc:
                    # The stream is no longer frame-aligned; report and
                    # hang up rather than misparse everything after.
                    with contextlib.suppress(ConnectionError, OSError):
                        writer.write(
                            protocol.encode_frame(protocol.error_response(None, exc))
                        )
                        await writer.drain()
                    break
                if message is None:
                    break
                response = await self._handle_message(session, message)
                frame = protocol.encode_frame(response)
                if len(frame) - 4 > self.max_frame:
                    # The response would hang up a well-behaved client
                    # (its reader enforces the same cap), so replace it
                    # with a structured, actionable error instead.
                    self._m_errors.inc()
                    oversize = FrameTooLargeError(
                        len(frame) - 4,
                        self.max_frame,
                        hint=(
                            "stream large results with a cursor (page_size) "
                            "or add LIMIT/OFFSET to the query"
                        ),
                    )
                    replacement = protocol.error_response(message.get("id"), oversize)
                    if "txn" in response:
                        replacement["txn"] = response["txn"]
                    frame = protocol.encode_frame(replacement)
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            session.close()
            self.sessions.pop(session_id, None)
            self._m_connections.dec()
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # statement dispatch
    # ------------------------------------------------------------------

    async def _handle_message(self, session: Session, message: dict) -> dict:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "query":
                return await self._handle_query(session, message)
            if op == "use":
                tenant = self._bind_session(session, message.get("db"))
                return {
                    "id": request_id,
                    "ok": True,
                    "tenant": tenant.name,
                    "database": tenant.database.name,
                }
            if op == "fetch":
                return self._handle_fetch(session, message)
            if op == "close":
                closed = session.close_cursor(message.get("cursor"))
                return {"id": request_id, "ok": True, "closed": closed}
            if op == "admin":
                return protocol.admin_response(
                    request_id,
                    admin_mod.admin_payload(self, str(message.get("cmd")), message),
                )
            if op == "replicate":
                return await replication_mod.handle_replicate(self, message)
            raise ServerError("unknown request op {!r}".format(op))
        except ReproError as exc:
            self._m_errors.inc()
            return protocol.error_response(request_id, exc)

    def _bind_session(self, session: Session, name) -> "object":
        """Bind ``session`` to the named tenant (the ``use`` verb and
        the per-request ``db`` field).  Rejected inside an open
        transaction — staged state cannot follow the session across
        databases — against unknown/quarantined tenants, and on a
        follower against every named tenant: the leader ships only the
        default tenant's journal, so a named tenant here would answer
        from a local, never-written copy."""
        if not isinstance(name, str) or not name:
            raise TenantError("'use' needs a 'db' tenant name")
        if session.tenant is not None and session.tenant.name == name:
            return session.tenant
        if self.follower_state is not None and name != self.registry.default.name:
            raise ReplicationError(
                "tenant {!r} is not served by this follower: only the default "
                "tenant is replicated; send it to the leader at {}".format(
                    name, self.follower_state.leader_addr
                )
            )
        if session.in_transaction:
            raise TenantError(
                "cannot switch tenants inside an open transaction; "
                "COMMIT or ROLLBACK first"
            )
        tenant = self.registry.get(name)
        session.bind(tenant, self._executor_for(tenant))
        return tenant

    def _session_tenant(self, session: Session):
        """The tenant a statement executes against, re-validated per
        request so dropped tenants are reported, not silently served."""
        tenant = session.tenant
        if tenant is None:
            return None
        if tenant.dropped:
            raise UnknownTenantError(tenant.name, self.registry.tenants)
        return tenant

    def _tenant_cursors(self, tenant) -> int:
        return sum(
            len(s.cursors) for s in self.sessions.values() if s.tenant is tenant
        )

    async def _handle_query(self, session: Session, message: dict) -> dict:
        request_id = message.get("id")
        text = message.get("hql")
        if not isinstance(text, str):
            raise ServerError("query request needs an 'hql' string")
        if message.get("db") is not None:
            self._bind_session(session, message.get("db"))
        render = bool(message.get("render", True))
        page_size = _request_number(message, "page_size", int, 0)
        wait_sync = _request_number(message, "wait_sync", int, 0)
        wait_sync_timeout = _request_number(message, "wait_sync_timeout", float, 10.0)
        statements = parse(text)  # syntax errors abort the whole request
        if self.follower_state is not None:
            self._check_replica_serves(statements)
        if wait_sync > 0 and self.leader_state is None:
            raise ReplicationError(
                "WAIT_SYNC needs a leader (a server with a journal to ship); "
                "this server's role is {!r}".format(self.role)
            )
        tenant = self._session_tenant(session)
        results = []
        for statement in statements:
            try:
                if tenant is not None:
                    # Quota gates, cheapest first: the rate bucket on
                    # every statement, the tuple cap only before the
                    # statements that add tuples.
                    tenant.check_statement_rate()
                    if isinstance(statement, (ast.Assert, ast.Load)):
                        tenant.check_tuple_quota()
                result = await self._execute_locked(session, statement)
            except ReproError as exc:
                # Statements before the failure already ran (exactly as
                # in a local script); report them alongside the error.
                self._m_errors.inc()
                if tenant is not None:
                    tenant.m_errors.inc()
                response = protocol.error_response(request_id, exc, results)
                response["txn"] = session.in_transaction
                return response
            self._m_statements.inc()
            if tenant is not None:
                tenant.m_statements.inc()
            results.append(
                self._serialize_result(session, result, render, page_size)
            )
        response = protocol.ok_response(request_id, results)
        # Authoritative per-session transaction state, so clients track
        # BEGIN/COMMIT without re-parsing what they sent.
        response["txn"] = session.in_transaction
        if wait_sync > 0:
            response["sync"] = await self._wait_sync(wait_sync, wait_sync_timeout)
        return response

    def _check_replica_serves(self, statements) -> None:
        """The follower read gate: writes go to the leader, and — when
        a staleness bound is configured — reads are refused once the
        replica cannot vouch for its freshness."""
        for statement in statements:
            if isinstance(
                statement,
                (ast.MUTATING, ast.Load, ast.Begin, ast.Commit, ast.Rollback),
            ):
                raise ReadOnlyError(self.follower_state.leader_addr)
        if self.max_staleness_s is not None:
            staleness_ms = self.follower_state.staleness_ms()
            if staleness_ms > self.max_staleness_s * 1e3:
                raise StaleReplicaError(staleness_ms, self.max_staleness_s * 1e3)

    async def _wait_sync(self, needed: int, timeout: float) -> dict:
        """Block the response until ``needed`` followers have acked the
        leader's current position (everything this request journalled
        is at or below it)."""
        leader = self.leader_state
        position = leader.position()
        try:
            acked = await leader.wait_synced(position, needed, timeout)
        except asyncio.TimeoutError:
            acked = leader.acks_at(position)
        if acked < needed:
            raise ReplicationError(
                "WAIT_SYNC {} timed out after {:.1f}s with {} follower ack(s) "
                "at position {} (the write IS committed and journalled on "
                "the leader)".format(needed, timeout, acked, position)
            )
        return {
            "requested": needed,
            "acked": acked,
            "position": list(position),
        }

    # ------------------------------------------------------------------
    # cursors
    # ------------------------------------------------------------------

    def _page_rows(self, kind: str, rows, width: int):
        if kind == "relation":
            return codec.columnar_pairs(rows, width=width)
        return codec.columnar_rows(rows, width=width)

    def _serialize_result(self, session, result, render, page_size):
        """One Result as a wire dict, opening a server-side cursor when
        the caller asked for paging and the result is big enough to
        need it."""
        kind = result.kind
        if page_size and kind in ("relation", "extension"):
            if kind == "relation":
                relation = result.payload
                # map/zip keeps this C-speed: materialising 50k+ wire
                # rows is the dominant cost of opening a cursor.
                asserted = relation.asserted
                rows = list(
                    map(list, zip(map(list, asserted.keys()), asserted.values()))
                )
                width = len(relation.schema.attributes)
            else:
                rows = [list(row) for row in result.payload]
                width = len(rows[0]) if rows else 0
            size = page_size if page_size > 0 else self._auto_page_size(rows)
            if len(rows) > size:
                if session.tenant is not None:
                    session.tenant.check_cursor_quota(
                        self._tenant_cursors(session.tenant)
                    )
                cursor = session.open_cursor(
                    kind, rows, size, meta={"width": width}
                )
                self._m_cursors.inc()
                first, _ = cursor.fetch()
                self._m_cursor_pages.inc()
                wire = {
                    "kind": kind,
                    "elapsed_ms": result.elapsed_ms,
                    "cursor": {
                        "id": cursor.id,
                        "total": len(rows),
                        "page": size,
                    },
                }
                page = self._page_rows(kind, first, width)
                if kind == "relation":
                    wire["payload"] = protocol.relation_payload(relation, page)
                else:
                    wire["payload"] = page
                # A paged result never carries the rendered table — the
                # whole point is not materialising the full text.
                return wire
        return protocol.serialize_result(result, render=render)

    def _auto_page_size(self, rows) -> int:
        """Rows per page targeting ``max_frame / 4`` bytes, from a
        sampled per-row byte estimate."""
        per_row = est_row_bytes(rows)
        budget = max(1, self.max_frame // _PAGE_FRAME_FRACTION)
        return max(_PAGE_MIN_ROWS, min(_PAGE_MAX_ROWS, budget // max(1, per_row)))

    def _handle_fetch(self, session: Session, message: dict) -> dict:
        request_id = message.get("id")
        cursor = session.cursor(message.get("cursor"))
        page, done = cursor.fetch(_request_number(message, "max_rows", int, 0))
        self._m_cursor_pages.inc()
        remaining = cursor.remaining
        if done:
            session.close_cursor(cursor.id)
        rows = self._page_rows(cursor.kind, page, int(cursor.meta.get("width", 0)))
        return protocol.cursor_response(request_id, cursor.id, rows, done, remaining)

    def _needs_write_lock(self, statement: ast.Statement, session: Session) -> bool:
        """Exclusive-mode classification.

        ``COMMIT`` installs staged relations and ``LOAD`` replaces the
        whole catalog: always exclusive.  DML *inside* an open
        transaction only stages private copies, so it runs shared;
        outside a transaction it auto-commits, so it is exclusive, as
        is every DDL statement (the executor applies DDL immediately
        even mid-transaction).
        """
        if isinstance(statement, (ast.Commit, ast.Load)):
            return True
        if isinstance(statement, ast.MUTATING):
            if isinstance(statement, (ast.Assert, ast.Retract)) and session.in_transaction:
                return False
            return True
        return False

    async def _execute_locked(self, session: Session, statement: ast.Statement):
        self._inflight += 1
        self._idle.clear()
        tenant = session.tenant
        lock = tenant.lock if tenant is not None else self.lock
        recovery = tenant.recovery if tenant is not None else None
        try:
            if self._needs_write_lock(statement, session):
                async with lock.write_locked():
                    result = await asyncio.to_thread(session.execute, statement)
                    if recovery is not None and recovery.checkpoint_due:
                        # Still exclusive — but only on *this* tenant:
                        # the snapshot sees a settled catalog, the
                        # rotation can lose no writes, and every other
                        # tenant keeps serving throughout.
                        try:
                            await asyncio.to_thread(recovery.checkpoint, tenant.database)
                        except StorageError:
                            # The statement is executed and journalled:
                            # it stays acknowledged.  The journal keeps
                            # growing; the checkpoint is retried after
                            # another ``snapshot_interval`` writes.
                            self._m_checkpoint_failures.inc()
                            return result
                        self._m_checkpoints.inc()
                        if tenant.is_default and self.leader_state is not None:
                            # Mirror the rotation: retire the shipped
                            # segment, start the new one empty.
                            self.leader_state.note_checkpoint(
                                recovery.checkpoint_id
                            )
            else:
                async with lock.read_locked():
                    if isinstance(statement, ast.Truth) and session.executor.truth_is_warm(
                        statement
                    ):
                        # One postings probe of the memoised evaluator
                        # and at most one delta advance cost less than
                        # the thread hop, so it answers on the loop.
                        result = session.execute(statement)
                    else:
                        # Every other read, and a TRUTH that must sweep
                        # its relation first, grows with relation size:
                        # on a worker it cannot stall the loop's sockets.
                        result = await asyncio.to_thread(session.execute, statement)
            return result
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()


# ----------------------------------------------------------------------
# embedding helper
# ----------------------------------------------------------------------


class ServerThread:
    """Run an :class:`HQLServer` on a background thread with its own
    event loop — how tests, benchmarks, and embedders boot a live
    server without taking over the main thread.

    Examples
    --------
    >>> # runner = ServerThread(HQLServer(db))
    >>> # host, port = runner.start()
    >>> # ... connect HQLClients ...
    >>> # runner.shutdown()          # graceful; or runner.abort()
    """

    def __init__(self, server: HQLServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._run, name="hql-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServerError("server failed to start within {}s".format(timeout))
        if self._boot_error is not None:
            raise self._boot_error
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # bind failure, bad data dir, ...
                self._boot_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            with contextlib.suppress(Exception):
                loop.run_until_complete(loop.shutdown_asyncgens())
            asyncio.set_event_loop(None)
            loop.close()

    def _stop(self, coro, timeout: float) -> None:
        if self._loop is None or self._thread is None or self._loop.is_closed():
            coro.close()  # already aborted; nothing left to stop
            return
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        self._stop(self.server.shutdown(drain=drain), timeout)

    def abort(self, timeout: float = 30.0) -> None:
        """Crash the server (see :meth:`HQLServer.abort`)."""
        self._stop(self.server.abort(), timeout)
