"""Per-connection server sessions.

One :class:`Session` exists per accepted connection; it owns the
connection's :class:`~repro.engine.hql.HQLExecutor` and therefore its
transaction state — ``BEGIN`` on one connection never affects another,
because staged writes live on the executor until COMMIT.  The session
also carries the connection's observability: per-session statement and
error counts for the admin ``sessions`` command, and a
``server.session`` span wrapped around every statement so that when
tracing is on (forced per statement while the slow-query log is
attached), slow-query entries are attributable to the connection that
issued them.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.hql import ast
from repro.errors import ServerError
from repro.obs import trace as _trace


class Cursor:
    """A server-side paginated result: the materialised rows plus a
    read position.  Rows are whatever wire shape the opening statement
    produced (signed ``[item, truth]`` pairs for relations, plain rows
    for extensions); paging just slices."""

    __slots__ = ("id", "kind", "rows", "pos", "page_size", "meta")

    def __init__(
        self,
        cursor_id: int,
        kind: str,
        rows: List[Any],
        page_size: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = cursor_id
        self.kind = kind
        self.rows = rows
        self.pos = 0
        self.page_size = page_size
        self.meta = meta or {}

    @property
    def remaining(self) -> int:
        return len(self.rows) - self.pos

    def fetch(self, max_rows: Optional[int] = None) -> Tuple[List[Any], bool]:
        """The next page and whether the cursor is now drained."""
        count = self.page_size if not max_rows or max_rows <= 0 else max_rows
        page = self.rows[self.pos : self.pos + count]
        self.pos += len(page)
        return page, self.pos >= len(self.rows)


class Session:
    """The server-side state of one client connection."""

    #: Open cursors per session; opening one past this reaps the oldest
    #: (clients that leak cursors degrade themselves, not the server).
    max_cursors = 32

    def __init__(
        self,
        session_id: int,
        executor,
        peer: Optional[str] = None,
        tenant=None,
    ) -> None:
        self.id = session_id
        self.executor = executor
        self.peer = peer or "?"
        #: The :class:`~repro.tenants.Tenant` this session is bound to
        #: (``None`` for directly-constructed sessions in tests).  A
        #: session talks to exactly one tenant at a time; ``use``
        #: rebinds via :meth:`bind`.
        self.tenant = tenant
        self.opened_at = time.time()
        self.statements = 0
        self.errors = 0
        #: The last statement executed, rendered back to HQL only when
        #: the admin ``sessions`` row asks (:meth:`describe`).
        self.last_statement: Optional[ast.Statement] = None
        self.closed = False
        self.cursors: Dict[int, Cursor] = {}
        self._next_cursor = 0

    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.executor.in_transaction

    @property
    def tenant_name(self) -> Optional[str]:
        return self.tenant.name if self.tenant is not None else None

    def bind(self, tenant, executor) -> None:
        """Switch this session to another tenant: the old executor is
        closed (rolling back any transaction — callers reject ``use``
        mid-transaction *before* getting here, so this is purely
        defensive) and every open cursor is reaped, because cursors
        materialise rows from the tenant they were opened against."""
        if self.executor is not None and executor is not self.executor:
            self.executor.close()
        self.cursors.clear()
        self.tenant = tenant
        self.executor = executor

    def execute(self, statement: ast.Statement):
        """Run one statement on this session's executor while the
        server holds the appropriate lock mode.  A ``TRUTH`` is called
        directly on the event loop (its work is bounded: one postings
        probe plus at most one evaluator advance); every other
        statement is called on a worker thread, because its work grows
        with relation size."""
        self.statements += 1
        self.last_statement = statement
        with _trace.span("server.session", session=self.id, peer=self.peer):
            try:
                return self.executor.execute_statement(statement)
            except Exception:
                self.errors += 1
                raise

    # ------------------------------------------------------------------
    # cursors
    # ------------------------------------------------------------------

    def open_cursor(
        self,
        kind: str,
        rows: List[Any],
        page_size: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Cursor:
        """Register a new cursor over already-materialised wire rows.
        The session owns its lifetime: explicit ``close``, drain, or
        disconnect all reap it."""
        while len(self.cursors) >= self.max_cursors:
            oldest = next(iter(self.cursors))
            del self.cursors[oldest]
        self._next_cursor += 1
        cursor = Cursor(self._next_cursor, kind, rows, page_size, meta)
        self.cursors[cursor.id] = cursor
        return cursor

    def cursor(self, cursor_id: Any) -> Cursor:
        try:
            return self.cursors[cursor_id]
        except (KeyError, TypeError):
            raise ServerError(
                "no open cursor {!r} on session {}".format(cursor_id, self.id)
            ) from None

    def close_cursor(self, cursor_id: Any) -> bool:
        return self.cursors.pop(cursor_id, None) is not None

    def close(self) -> None:
        """Disconnect cleanup: roll back any open transaction so a
        dropped connection can never leave half a transaction staged
        (or journalled), and reap every open cursor."""
        if not self.closed:
            self.closed = True
            self.cursors.clear()
            self.executor.close()

    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The admin ``sessions`` row for this connection."""
        return {
            "id": self.id,
            "peer": self.peer,
            "tenant": self.tenant_name,
            "age_s": round(time.time() - self.opened_at, 3),
            "statements": self.statements,
            "errors": self.errors,
            "in_transaction": self.in_transaction,
            "cursors": len(self.cursors),
            "last_hql": (
                None
                if self.last_statement is None
                else ast.to_hql(self.last_statement)
            ),
        }

    def __repr__(self) -> str:
        return "Session(id={}, peer={!r}, statements={})".format(
            self.id, self.peer, self.statements
        )
