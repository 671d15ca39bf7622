"""A blocking client for the HQL wire protocol.

:class:`HQLClient` is the programmatic doorway to a running
``repro serve`` instance: it speaks the length-prefixed JSON protocol
of :mod:`repro.server.protocol` over a plain TCP socket, transparently
reconnecting on connection loss (never inside an open transaction —
the server rolled that state back with the connection, so silently
replaying would lie), and exposing transactions as a context manager::

    with HQLClient(port=port) as client:
        client.execute("CREATE HIERARCHY animal;")
        with client.transaction():
            client.execute("ASSERT flies (bird);")
            client.execute("ASSERT NOT flies (penguin);")
        print(client.truth("flies", ["tweety"]))

Remote errors surface as :class:`~repro.errors.RemoteError` carrying
the server-side exception type, so ``except RemoteError as e:
e.remote_type == "AmbiguityError"`` works without importing server
internals.  :class:`RemoteRepl` is the interactive flavour
(``repro connect``).
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import codec
from repro.errors import (
    FrameTooLargeError,
    LeaderChangedError,
    ProtocolError,
    RemoteError,
    ServerError,
)
from repro.server import protocol

#: Statement classes that read without mutating — safe to serve from a
#: follower.  Everything else (DDL/DML, transaction control, LOAD/SAVE)
#: routes to the leader.
_READ_STATEMENTS: Optional[tuple] = None


def _read_statement_classes() -> tuple:
    global _READ_STATEMENTS
    if _READ_STATEMENTS is None:
        from repro.engine.hql import ast

        _READ_STATEMENTS = (
            ast.Truth,
            ast.Justify,
            ast.Select,
            ast.Project,
            ast.BinaryOp,
            ast.Conflicts,
            ast.Extension,
            ast.Show,
            ast.Count,
            ast.Explain,
            ast.Stats,
        )
    return _READ_STATEMENTS


def is_read_only_script(hql: str) -> Optional[bool]:
    """Client-side routing classification: ``True`` when every
    statement in ``hql`` only reads, ``False`` when any writes, and
    ``None`` when it does not parse (route to the leader and let the
    server produce the authoritative error)."""
    from repro.engine.hql.parser import parse
    from repro.errors import HQLError

    try:
        statements = parse(hql)
    except HQLError:
        return None
    read_classes = _read_statement_classes()
    return all(isinstance(s, read_classes) for s in statements)


class RemoteResult:
    """One statement's outcome as reported over the wire.

    ``cursor`` is the server's continuation descriptor (``{"id", "total",
    "page"}``) when the result was paged, else ``None`` — in the paged
    case ``payload`` holds only the first page of tuples/rows.
    """

    __slots__ = ("kind", "payload", "message", "elapsed_ms", "cursor")

    def __init__(self, wire: Dict[str, Any]) -> None:
        self.kind = wire.get("kind", "?")
        self.payload = wire.get("payload")
        self.message = wire.get("message", "")
        self.elapsed_ms = wire.get("elapsed_ms")
        self.cursor = wire.get("cursor")

    def __str__(self) -> str:
        return self.message or "{}: {!r}".format(self.kind, self.payload)

    def __repr__(self) -> str:
        return "RemoteResult(kind={!r}, payload={!r})".format(self.kind, self.payload)


class RemoteCursor:
    """A lazy, bounded-memory iterator over one paged remote result.

    Holds exactly one page of rows at a time: iterating yields the
    current page and fetches the next from the server only when the
    page is exhausted, so peak client memory is O(page), independent of
    the result size.  Usable as a context manager; closing early drops
    the server-side cursor.

    Rows are wire-shaped: ``[item, truth]`` pairs for relation results,
    plain value lists for extensions.
    """

    def __init__(self, client: "HQLClient", result: RemoteResult) -> None:
        self._client = client
        self.kind = result.kind
        self.elapsed_ms = result.elapsed_ms
        info = result.cursor or {}
        self._cursor_id = info.get("id")
        #: Total rows server-side (first page included), when paged.
        self.total_rows = info.get("total")
        if self.kind == "relation" and isinstance(result.payload, dict):
            payload = result.payload
            self.name = payload.get("name")
            self.attributes = list(payload.get("attributes") or ())
            self._page = list(payload.get("tuples") or ())
        else:
            self.name = None
            self.attributes = []
            self._page = list(result.payload or ())
        if self.total_rows is None:
            self.total_rows = len(self._page)
        self._done = self._cursor_id is None

    def __iter__(self) -> Iterator[Any]:
        while True:
            page, self._page = self._page, []
            for row in page:
                yield row
            if self._done:
                return
            reply = self._client.fetch(self._cursor_id)
            self._page = list(reply.get("rows") or ())
            self._done = bool(reply.get("done"))

    def close(self) -> None:
        """Drop the server-side cursor (best-effort; drained and
        disconnected cursors are already gone)."""
        if not self._done and self._cursor_id is not None:
            try:
                self._client.close_cursor(self._cursor_id)
            except (ServerError, ConnectionError, OSError):
                pass
        self._done = True
        self._page = []

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return "RemoteCursor(kind={!r}, total={}, open={})".format(
            self.kind, self.total_rows, not self._done
        )


class _TransactionGuard:
    """BEGIN on enter; COMMIT on clean exit, ROLLBACK on exception."""

    def __init__(self, client: "HQLClient") -> None:
        self._client = client

    def __enter__(self) -> "_TransactionGuard":
        self._client.execute("BEGIN;")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._client.execute("COMMIT;")
        else:
            # Best-effort: the connection may be gone along with the
            # transaction it carried.
            try:
                self._client.execute("ROLLBACK;")
            except (ServerError, ConnectionError, OSError):
                pass
        return False


class HQLClient:
    """A blocking connection to an HQL server.

    ``reconnect`` (default on) retries a request once on a fresh
    connection after a connection failure — unless a transaction is
    open, in which case the staged state died with the old connection
    and the :class:`~repro.errors.ServerError` propagates.  The retry
    is at-least-once: a *write* whose acknowledgement was lost may be
    applied twice — wrap writes that must not repeat in
    :meth:`transaction` (a replayed BEGIN block the server never saw
    completes harmlessly) or pass ``reconnect=False``.

    Replica routing
    ---------------
    ``followers`` is an optional list of ``"host:port"`` read replicas.
    With it set, :meth:`execute` classifies each script client-side:
    scripts that only read round-robin across the followers (falling
    back to the leader when a follower is down or refuses — stale, or
    mid-bootstrap), and everything else — DDL/DML, transactions, LOAD —
    goes to the leader connection this client was constructed for.
    A write that lands on a follower anyway (e.g. this client was
    pointed *at* a follower) surfaces as
    :class:`~repro.errors.LeaderChangedError` naming the leader, and
    the client re-routes to it once automatically.

    ``wait_sync`` (also per-call on :meth:`execute`) asks the leader to
    delay the acknowledgement of a write until that many followers have
    acked the journal entries — raising
    :class:`~repro.errors.ReplicationError` on timeout (the write is
    still durably committed on the leader).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7497,
        *,
        timeout: Optional[float] = 30.0,
        reconnect: bool = True,
        connect_attempts: int = 3,
        retry_delay: float = 0.1,
        render: bool = True,
        wire_format: Optional[str] = None,
        followers: Optional[Sequence[str]] = None,
        wait_sync: int = 0,
        wait_sync_timeout: float = 10.0,
        follow_leader: bool = True,
        db: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: The tenant this client talks to (``None`` = the server's
        #: default).  Stamped as the ``db`` field on every query
        #: request rather than sent once, so a transparent reconnect
        #: rebinds the fresh session to the same tenant.
        self.db = db
        self.timeout = timeout
        self.reconnect = reconnect
        self.connect_attempts = max(1, connect_attempts)
        self.retry_delay = retry_delay
        self.render = render
        self.followers = [str(addr) for addr in (followers or ())]
        self.wait_sync = int(wait_sync)
        self.wait_sync_timeout = wait_sync_timeout
        #: Re-route to the reported leader (once per request) when a
        #: write hits a read-only replica.
        self.follow_leader = follow_leader
        self._follower_clients: Dict[str, "HQLClient"] = {}
        self._rr = 0
        #: Preferred response encoding: binary unless ``"json"`` is
        #: asked for.  Negotiated down to JSON at connect time when
        #: the server does not advertise binary.
        self.preferred_format = wire_format or codec.FORMAT_BINARY
        self.wire_format = codec.FORMAT_JSON
        self.hello: Optional[Dict[str, Any]] = None
        self.session_id: Optional[int] = None
        self._sock: Optional[socket.socket] = None
        self._request_ids = iter(range(1, sys.maxsize))
        self._in_transaction = False
        #: The ``sync`` block of the last response (WAIT_SYNC ack
        #: count), or ``None``.
        self.last_sync: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def connect(self) -> Dict[str, Any]:
        """Open the socket and run the hello handshake; retries
        ``connect_attempts`` times (a just-booting server is normal).
        Returns the server hello."""
        last_error: Optional[Exception] = None
        for attempt in range(self.connect_attempts):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                try:
                    hello = protocol.recv_frame(sock)
                    if hello is None:
                        raise ProtocolError("server closed the connection before hello")
                    self.hello = protocol.check_hello(hello)
                except BaseException:
                    sock.close()
                    raise
                self._sock = sock
                self.session_id = self.hello.get("session")
                self._in_transaction = False
                # Format negotiation: speak binary only when both ends
                # want it; everything else falls back to JSON (v1).
                offered = protocol.hello_formats(self.hello)
                self.wire_format = (
                    self.preferred_format
                    if self.preferred_format in offered
                    else codec.FORMAT_JSON
                )
                return self.hello
            except (ConnectionError, OSError, ProtocolError) as exc:
                last_error = exc
                if attempt + 1 < self.connect_attempts:
                    time.sleep(self.retry_delay * (attempt + 1))
        raise ServerError(
            "cannot connect to {}:{}: {}".format(self.host, self.port, last_error)
        )

    def close(self) -> None:
        for sub in self._follower_clients.values():
            if sub is not self:
                sub.close()
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._in_transaction = False

    def __enter__(self) -> "HQLClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def _max_frame(self) -> int:
        if self.hello is not None:
            return int(self.hello.get("max_frame") or protocol.DEFAULT_MAX_FRAME)
        return protocol.DEFAULT_MAX_FRAME

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._sock is None:
            self.connect()
        try:
            protocol.send_frame(self._sock, request)
            response = protocol.recv_frame(self._sock, self._max_frame())
        except FrameTooLargeError as exc:
            # The response itself blew the negotiated limit (a pre-v2
            # server has no response guard).  Retrying verbatim would
            # hit the same wall, so report the fix instead.
            self.close()
            raise RemoteError(
                type(exc).__name__,
                "{}; stream large results with client.cursor(...) "
                "or add LIMIT/OFFSET to the query".format(exc),
            ) from exc
        except (ConnectionError, OSError, ProtocolError) as exc:
            was_in_transaction = self._in_transaction  # close() resets it
            self.close()
            if not self.reconnect:
                raise ServerError("connection lost: {}".format(exc)) from exc
            if was_in_transaction:
                raise ServerError(
                    "connection lost inside a transaction; the server rolled it "
                    "back — reconnect and retry the whole transaction"
                ) from exc
            self.connect()
            protocol.send_frame(self._sock, request)
            response = protocol.recv_frame(self._sock, self._max_frame())
        if response is None:
            self.close()
            raise ServerError("server closed the connection mid-request")
        return response

    @staticmethod
    def _raise_remote(response: Dict[str, Any]) -> None:
        error = response.get("error") or {}
        remote_type = error.get("type", "ServerError")
        message = error.get("message", "unknown error")
        if remote_type == "ReadOnlyError":
            # Typed so routing callers can catch one exception and
            # retry against .leader instead of string-matching.
            raise LeaderChangedError(remote_type, message, leader=error.get("leader"))
        raise RemoteError(remote_type, message)

    # ------------------------------------------------------------------
    # replica routing
    # ------------------------------------------------------------------

    def _follower_client(self, addr: str) -> "HQLClient":
        client = self._follower_clients.get(addr)
        if client is None:
            host, _, port = addr.rpartition(":")
            client = HQLClient(
                host or "127.0.0.1",
                int(port),
                timeout=self.timeout,
                reconnect=self.reconnect,
                connect_attempts=self.connect_attempts,
                retry_delay=self.retry_delay,
                render=self.render,
                wire_format=self.preferred_format,
            )
            self._follower_clients[addr] = client
        return client

    def _route_read(
        self, hql: str, render: Optional[bool], page_size: int
    ) -> Optional[Tuple["HQLClient", List[RemoteResult]]]:
        """Try the read on each follower (round-robin start) and return
        ``(client, results)`` — or ``None`` when every follower is
        down/refusing and the leader should serve it instead.  Genuine
        query errors (bad relation name, …) propagate: every server
        would report the same thing."""
        for step in range(len(self.followers)):
            addr = self.followers[(self._rr + step) % len(self.followers)]
            client = self._follower_client(addr)
            try:
                results = client.execute(hql, render=render, page_size=page_size)
            except (LeaderChangedError, ServerError, ConnectionError, OSError) as exc:
                if isinstance(exc, RemoteError) and not isinstance(
                    exc, LeaderChangedError
                ):
                    if exc.remote_type != "StaleReplicaError":
                        raise  # a real query error, not a routing signal
                continue  # follower unusable: try the next, then the leader
            self._rr = (self._rr + step + 1) % len(self.followers)
            return client, results
        return None

    def execute(
        self,
        hql: str,
        render: Optional[bool] = None,
        page_size: int = 0,
        wait_sync: Optional[int] = None,
        wait_sync_timeout: Optional[float] = None,
    ) -> List[RemoteResult]:
        """Run an HQL script remotely; one :class:`RemoteResult` per
        statement.  Raises :class:`~repro.errors.RemoteError` when the
        server reports a failure (statements before the failing one
        were still applied, exactly like a local script).

        ``page_size`` > 0 asks the server to page relation/extension
        results bigger than that many rows (the result then carries a
        ``cursor`` descriptor and only the first page); ``-1`` lets the
        server pick a page size from its frame budget.  Most callers
        want :meth:`cursor` instead.

        ``wait_sync`` > 0 (or the constructor default) blocks the
        response until that many followers have acknowledged the
        journal entries this script produced.
        """
        _, results = self._execute_routed(
            hql, render, page_size, wait_sync, wait_sync_timeout
        )
        return results

    def _execute_routed(
        self,
        hql: str,
        render: Optional[bool],
        page_size: int,
        wait_sync: Optional[int] = None,
        wait_sync_timeout: Optional[float] = None,
    ) -> Tuple["HQLClient", List[RemoteResult]]:
        """Route, execute, and report which connection served it (the
        cursor path must fetch follow-up pages from the same
        server)."""
        if (
            self.followers
            and not self._in_transaction
            and not (wait_sync or self.wait_sync)
            # Replication ships the *default* tenant's journal only, so
            # reads against a named tenant must stay on this server.
            and self.db in (None, "default")
            and is_read_only_script(hql)
        ):
            routed = self._route_read(hql, render, page_size)
            if routed is not None:
                return routed
        try:
            return self, self._execute_here(
                hql, render, page_size, wait_sync, wait_sync_timeout
            )
        except LeaderChangedError as exc:
            # This "leader" is actually a follower (e.g. the client was
            # pointed at one): hop to the leader it named, once.
            if not self.follow_leader or not exc.leader or self._in_transaction:
                raise
            host, _, port = str(exc.leader).rpartition(":")
            self.close()
            self.host, self.port = host or "127.0.0.1", int(port)
            return self, self._execute_here(
                hql, render, page_size, wait_sync, wait_sync_timeout
            )

    def _execute_here(
        self,
        hql: str,
        render: Optional[bool],
        page_size: int,
        wait_sync: Optional[int] = None,
        wait_sync_timeout: Optional[float] = None,
    ) -> List[RemoteResult]:
        request = {
            "id": next(self._request_ids),
            "op": "query",
            "hql": hql,
            "render": self.render if render is None else render,
            "format": self.wire_format,
        }
        if self.db is not None:
            request["db"] = self.db
        if page_size:
            request["page_size"] = page_size
        sync_n = self.wait_sync if wait_sync is None else int(wait_sync)
        if sync_n > 0:
            request["wait_sync"] = sync_n
            request["wait_sync_timeout"] = (
                self.wait_sync_timeout if wait_sync_timeout is None else wait_sync_timeout
            )
        response = self._roundtrip(request)
        # The server reports the session's authoritative transaction
        # state on every query response.
        if "txn" in response:
            self._in_transaction = bool(response["txn"])
        if not response.get("ok"):
            self._raise_remote(response)
        self.last_sync = response.get("sync")
        return [RemoteResult(wire) for wire in response.get("results", ())]

    def query(self, hql: str, render: Optional[bool] = None) -> RemoteResult:
        """Run exactly one statement and return its single result."""
        results = self.execute(hql, render=render)
        if len(results) != 1:
            raise ServerError(
                "query() expects exactly one statement, got {} results".format(
                    len(results)
                )
            )
        return results[0]

    def transaction(self) -> _TransactionGuard:
        """``with client.transaction(): ...`` — BEGIN/COMMIT around the
        block, ROLLBACK if it raises."""
        return _TransactionGuard(self)

    # ------------------------------------------------------------------
    # cursors
    # ------------------------------------------------------------------

    def cursor(self, hql: str, page_size: int = -1) -> RemoteCursor:
        """Run exactly one statement and stream its rows lazily.

        Returns a :class:`RemoteCursor` holding one page at a time —
        the way to read results too big for a single frame.  Small
        results come back whole (no server cursor) behind the same
        iterator, so callers never branch::

            with client.cursor("SELECT FROM big;") as rows:
                for item, truth in rows:
                    ...

        ``page_size=-1`` (default) lets the server size pages against
        its frame budget; pass a positive row count to override.
        """
        client, results = self._execute_routed(hql, False, page_size or -1)
        if len(results) != 1:
            raise ServerError(
                "cursor() expects exactly one statement, got {} results".format(
                    len(results)
                )
            )
        # Bind to whichever server actually ran it — follow-up fetches
        # must hit the session that owns the cursor.
        return RemoteCursor(client, results[0])

    def fetch(self, cursor_id: Any, max_rows: int = 0) -> Dict[str, Any]:
        """One page of an open server-side cursor (``{"id", "rows",
        "done", "remaining"}``)."""
        response = self._roundtrip(
            {
                "id": next(self._request_ids),
                "op": "fetch",
                "cursor": cursor_id,
                "max_rows": max_rows,
                "format": self.wire_format,
            }
        )
        if not response.get("ok"):
            self._raise_remote(response)
        return response.get("cursor") or {}

    def close_cursor(self, cursor_id: Any) -> bool:
        response = self._roundtrip(
            {"id": next(self._request_ids), "op": "close", "cursor": cursor_id}
        )
        if not response.get("ok"):
            self._raise_remote(response)
        return bool(response.get("closed"))

    # convenience wrappers -------------------------------------------------

    def truth(self, relation: str, values: List[str]) -> bool:
        return bool(
            self.query(
                "TRUTH {} ({});".format(relation, ", ".join(values)), render=False
            ).payload
        )

    def count(self, relation: str) -> int:
        return int(self.query("COUNT {};".format(relation), render=False).payload)

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------

    def use(self, name: str) -> Dict[str, Any]:
        """Bind this connection to the named tenant and make it sticky:
        every subsequent query (including after a transparent
        reconnect) runs against it.  Raises
        :class:`~repro.errors.RemoteError` for unknown or quarantined
        tenants, or when a transaction is open."""
        response = self._roundtrip(
            {"id": next(self._request_ids), "op": "use", "db": str(name)}
        )
        if not response.get("ok"):
            self._raise_remote(response)
        self.db = str(name)
        return {"tenant": response.get("tenant"), "database": response.get("database")}

    def tenants(self) -> List[Dict[str, Any]]:
        """One row per hosted tenant (sizes, cache hit rates, quota
        state, quarantine status)."""
        return self.admin("tenants").get("tenants") or []

    def create_tenant(
        self, name: str, quotas: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        return self.admin("tenant_create", name=name, quotas=quotas).get("tenant") or {}

    def drop_tenant(self, name: str) -> None:
        self.admin("tenant_drop", name=name)
        if self.db == name:
            self.db = None

    def set_tenant_quotas(self, name: str, quotas: Dict[str, Any]) -> Dict[str, Any]:
        return self.admin("tenant_quotas", name=name, quotas=quotas).get("tenant") or {}

    # ------------------------------------------------------------------
    # admin
    # ------------------------------------------------------------------

    def admin(self, cmd: str, **args: Any) -> Dict[str, Any]:
        request = {"id": next(self._request_ids), "op": "admin", "cmd": cmd}
        request.update(args)
        response = self._roundtrip(request)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RemoteError(
                error.get("type", "ServerError"), error.get("message", "unknown error")
            )
        return response.get("admin") or {}

    def ping(self) -> bool:
        return bool(self.admin("ping").get("ok"))

    def stats(self) -> Dict[str, Any]:
        return self.admin("stats").get("stats") or {}

    def metrics_text(self) -> str:
        return self.admin("metrics").get("text") or ""

    def slowlog(self) -> List[Dict[str, Any]]:
        return self.admin("slowlog").get("entries") or []

    def sessions(self) -> List[Dict[str, Any]]:
        return self.admin("sessions").get("sessions") or []

    def replication(self) -> Dict[str, Any]:
        """The server's replication block: role, positions, and (on a
        leader) per-follower lag in entries and ms."""
        return self.admin("replication").get("replication") or {}

    def __repr__(self) -> str:
        return "HQLClient({}:{}, {})".format(
            self.host, self.port, "connected" if self.connected else "disconnected"
        )


class RemoteRepl:
    """The wire flavour of :class:`~repro.engine.repl.HQLRepl`:
    ``repro connect`` reads statements locally and executes them on the
    server, buffering lines until the terminating ``;`` just like the
    local shell.  Stream-parameterised so tests can drive it."""

    HELP = """\
Connected to a repro HQL server — statements end with ';'.
Meta: \\h help, \\q quit, \\stats server stats, \\metrics Prometheus
      text, \\slowlog slow-query log, \\sessions live sessions,
      \\tenants hosted tenants, \\use <tenant> switch tenant,
      \\replication role and follower lag, \\ping liveness."""

    def __init__(
        self,
        client: HQLClient,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
        prompt: str = "hql> ",
        continuation: str = "...> ",
        page_rows: int = 500,
    ) -> None:
        self.client = client
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.prompt = prompt
        self.continuation = continuation
        #: Results beyond this many rows stream page-by-page through a
        #: server cursor instead of arriving (and rendering) as one
        #: buffered table.  0 disables paging.
        self.page_rows = page_rows

    def _write(self, text: str) -> None:
        self.stdout.write(text)
        if not text.endswith("\n"):
            self.stdout.write("\n")

    _META = {
        "\\stats": lambda self: self._write(
            _render_stats(self.client.stats())
        ),
        "\\metrics": lambda self: self._write(self.client.metrics_text() or "(empty)"),
        "\\slowlog": lambda self: self._write(_render_slowlog(self.client.slowlog())),
        "\\sessions": lambda self: self._write(
            "\n".join(str(s) for s in self.client.sessions()) or "(none)"
        ),
        "\\ping": lambda self: self._write("pong" if self.client.ping() else "no pong"),
        "\\replication": lambda self: self._write(
            json.dumps(self.client.replication(), indent=1)
        ),
        "\\tenants": lambda self: self._write(
            _render_tenants(self.client.tenants())
        ),
    }

    def _meta_use(self, argument: str) -> None:
        name = argument.strip()
        if not name:
            self._write("usage: \\use <tenant>")
            return
        try:
            bound = self.client.use(name)
        except ServerError as exc:
            self._write("error: {}".format(exc))
            return
        self._write(
            "now using tenant {!r} (database {!r})".format(
                bound.get("tenant"), bound.get("database")
            )
        )

    def run(self) -> None:
        hello = self.client.hello or {}
        self._write(
            "connected to {}:{} — database {!r}, session {} (\\h help, \\q quit)".format(
                self.client.host,
                self.client.port,
                hello.get("database", "?"),
                hello.get("session", "?"),
            )
        )
        buffered = ""
        while True:
            self.stdout.write(self.continuation if buffered else self.prompt)
            self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffered:
                if stripped in ("\\q", "\\quit", "exit", "quit"):
                    break
                if stripped in ("\\h", "\\help", "help"):
                    self._write(self.HELP)
                    continue
                token = (
                    stripped.replace(".", "\\", 1)
                    if stripped.startswith(".")
                    else stripped
                )
                if token == "\\use" or token.startswith("\\use "):
                    self._meta_use(token[len("\\use") :])
                    continue
                meta = self._META.get(token)
                if meta is not None:
                    try:
                        meta(self)
                    except ServerError as exc:
                        self._write("error: {}".format(exc))
                    continue
                if not stripped:
                    continue
            buffered = (buffered + "\n" + line) if buffered else line
            if not stripped.endswith(";"):
                continue
            script, buffered = buffered, ""
            self.execute(script)
        self._write("bye")

    def execute(self, script: str) -> None:
        try:
            for result in self.client.execute(script, page_size=self.page_rows):
                if result.cursor:
                    self._stream(result)
                else:
                    self._write(str(result))
        except ServerError as exc:
            self._write("error: {}".format(exc))

    def _stream(self, result: RemoteResult) -> None:
        """Page a cursor-backed result to the terminal row by row,
        never holding more than one page."""
        cursor = RemoteCursor(self.client, result)
        if cursor.kind == "relation" and cursor.attributes:
            self._write(
                "{} ({}) — {} row(s):".format(
                    cursor.name or "?", ", ".join(cursor.attributes), cursor.total_rows
                )
            )
        count = 0
        try:
            for row in cursor:
                if cursor.kind == "relation":
                    item, truth = row
                    self._write(
                        "  ({}) -> {}".format(", ".join(item), bool(truth))
                    )
                else:
                    self._write("  ({})".format(", ".join(str(v) for v in row)))
                count += 1
        finally:
            cursor.close()
        self._write("({} row(s) streamed)".format(count))


def _render_stats(stats: Dict[str, Any]) -> str:
    lines = ["server stats for database {!r}:".format(stats.get("database", "?"))]
    server = stats.get("server") or {}
    for key in sorted(server):
        lines.append("  server.{:28s} {}".format(key, server[key]))
    for scope in ("engine", "core"):
        for name, value in sorted((stats.get(scope) or {}).items()):
            lines.append("  {:35s} {}".format(name, value))
    return "\n".join(lines)


def _render_tenants(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return "(no tenants)"
    lines = []
    for row in rows:
        if row.get("quarantined"):
            lines.append(
                "{:16s} QUARANTINED: {}".format(row.get("name", "?"), row["quarantined"])
            )
            continue
        cache = row.get("cache") or {}
        quotas = row.get("quotas") or {}
        lines.append(
            "{:16s} {:>8} tuple(s)  {:>3} relation(s)  cache hit {:>6.1%}  "
            "sessions {}  cursors {}  denials {}".format(
                row.get("name", "?"),
                row.get("tuples", 0),
                row.get("relations", 0),
                float(cache.get("hit_rate") or 0.0),
                row.get("sessions", 0),
                row.get("cursors_open", 0),
                quotas.get("denials", 0),
            )
        )
    return "\n".join(lines)


def _render_slowlog(entries: List[Dict[str, Any]]) -> str:
    if not entries:
        return "slow-query log: empty (or not enabled — serve with --slow-ms)"
    lines = []
    for entry in entries:
        lines.append(
            "{:.3f} ms  {}".format(entry.get("elapsed_ms", 0.0), entry.get("statement"))
        )
        for span_line in entry.get("span") or ():
            lines.append("    " + span_line)
    return "\n".join(lines)
