"""HQL execution against a :class:`HierarchicalDatabase`.

An :class:`HQLExecutor` holds a session: statements between ``BEGIN``
and ``COMMIT``/``ROLLBACK`` stage their writes in one transaction;
outside a transaction each DML statement auto-commits (and is therefore
individually subject to the ambiguity constraint).

Every statement yields a :class:`Result` with a ``kind``, a ``payload``
(relation, bool, justification, …) and a rendered ``message``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Tuple

from repro.core import algebra, bulk
from repro.core.binding import justify as _justify
from repro.core.conflicts import find_conflicts
from repro.core.relation import HRelation
from repro.engine.hql import ast
from repro.engine.hql.parser import parse
from repro.engine.querycache import MISS, cache_key, key_source_names
from repro.errors import HQLError
from repro.obs import Span, default_registry, render_span_tree
from repro.obs import trace as _trace
from repro.render.table import render_justification, render_relation, render_rows


class Result:
    """The outcome of one HQL statement.

    ``message`` is the human-readable rendering.  Statements with large
    relation payloads pass a ``render`` callable instead of an eager
    string: the table is built on first read of ``message`` (and cached),
    so programmatic callers — the query-result cache's steady-state hit
    path above all — never pay for ASCII art they do not look at.
    """

    def __init__(
        self,
        kind: str,
        payload: Any = None,
        message: str = "",
        render: Optional[Callable[[], str]] = None,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self._message = message
        self._render = render
        #: Wall time of the statement that produced this result, stamped
        #: by the executor's timing span — the same number EXPLAIN and
        #: the slow-query log see (``None`` for results built by hand).
        self.elapsed_ms: Optional[float] = None

    @property
    def message(self) -> str:
        if self._render is not None:
            self._message = self._render()
            self._render = None
        return self._message

    def __str__(self) -> str:
        return self.message or "{}: {!r}".format(self.kind, self.payload)

    def __repr__(self) -> str:
        return "Result(kind={!r}, payload={!r})".format(self.kind, self.payload)


class HQLExecutor:
    """A stateful HQL session over one database.

    ``log`` optionally attaches an
    :class:`~repro.engine.oplog.OperationLog`: every successfully
    executed mutating statement is appended (transaction bodies only on
    COMMIT), so replaying the log rebuilds the database.
    """

    def __init__(self, database, log=None, on_journal=None) -> None:
        self.database = database
        self.log = log
        #: Called with each statement right after it is journalled (the
        #: server's recovery manager counts these to pace snapshots).
        self.on_journal = on_journal
        self._transaction = None
        self._pending_log: List[ast.Statement] = []

    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while a ``BEGIN`` block is open on this session."""
        return self._transaction is not None

    def close(self) -> None:
        """End the session: roll back any open transaction and discard
        its pending journal entries (a network session that disconnects
        mid-transaction must leave no trace)."""
        if self._transaction is not None:
            try:
                self._transaction.rollback()
            finally:
                self._transaction = None
                self._pending_log = []

    def run(self, text: str) -> List[Result]:
        """Parse and execute a script; one :class:`Result` per statement."""
        return [self.execute_statement(stmt) for stmt in parse(text)]

    def execute_statement(self, statement: ast.Statement) -> Result:
        result, _elapsed_ms, _root = self._timed_execute(statement)
        return result

    def _dispatch(self, statement: ast.Statement) -> Result:
        handler = getattr(self, "_exec_{}".format(type(statement).__name__.lower()), None)
        if handler is None:
            raise HQLError("no executor for {}".format(type(statement).__name__))
        result = handler(statement)
        self._record(statement)
        return result

    def _timed_execute(
        self,
        statement: ast.Statement,
        record: bool = True,
        force_trace: bool = False,
    ) -> Tuple[Result, float, Optional[Span]]:
        """Execute one statement inside the single ``hql.statement``
        timing span.

        Every consumer of a statement's wall time — the REPL's
        ``\\timing``, ``EXPLAIN [ANALYZE]``, the slow-query log, the
        ``hql.statement.ms`` histogram — reads the number produced
        here, so they can never disagree.  Tracing is forced on when
        the caller asks (EXPLAIN ANALYZE) or when a slow-query log is
        attached (its entries carry the span tree); otherwise the span
        is the zero-cost noop unless tracing is globally enabled.

        ``record=False`` (EXPLAIN timing its inner query) skips the
        slow-query log and metrics so the wrapped run is not counted
        twice.
        """
        slowlog = getattr(self.database, "slow_query_log", None) if record else None
        kind = type(statement).__name__.lower()
        need_trace = force_trace or slowlog is not None
        started = time.perf_counter()
        if need_trace:
            with _trace.force(True):
                with _trace.span("hql.statement", kind=kind) as root:
                    result = self._dispatch(statement)
        else:
            with _trace.span("hql.statement", kind=kind) as root:
                result = self._dispatch(statement)
        if isinstance(root, Span):
            elapsed_ms = root.elapsed_ms
        else:
            root = None
            elapsed_ms = (time.perf_counter() - started) * 1e3
        result.elapsed_ms = elapsed_ms
        if record:
            metrics = getattr(self.database, "metrics", None)
            if metrics is not None:
                metrics.counter("hql.statements").inc()
                metrics.histogram("hql.statement.ms").observe(elapsed_ms)
        if slowlog is not None:
            slowlog.record(ast.to_hql(statement), elapsed_ms, root)
        return result, elapsed_ms, root

    def _record(self, statement: ast.Statement) -> None:
        if self.log is None or not isinstance(statement, ast.MUTATING):
            return
        if self._transaction is not None:
            self._pending_log.append(statement)
        else:
            self._journal_one(statement)

    def _journal_one(self, statement: ast.Statement) -> None:
        """The single journalling code path: append to the durable log
        *first*, then fire ``on_journal``.

        Every journalled write — autocommit and COMMIT alike — goes
        through here, so anything hanging off ``on_journal`` (the
        recovery manager's checkpoint pacing, the replication leader's
        ship offset, and therefore any ``WAIT_SYNC`` acknowledgement
        built on that offset) can only observe a statement *after*
        :meth:`~repro.engine.oplog.OperationLog.append` has written and
        flushed it (and fsynced it, when the log is configured to).  An
        entry can never be shipped to a follower, or acked to a
        ``WAIT_SYNC`` caller, before it is durably journalled locally.
        """
        self.log.append(statement)
        if self.on_journal is not None:
            self.on_journal(statement)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _relation(self, name: str):
        if self._transaction is not None:
            return self._transaction.relation(name)
        return self.database.relation(name)

    def _store(self, relation, alias: Optional[str]) -> Result:
        if alias:
            relation.name = alias
            if alias in self.database.relations:
                # Rebinding an existing name replaces the object; its
                # version counter restarts, so stamps alone cannot see
                # the swap and the cache must be told explicitly.
                self.database.relations[alias] = relation
                cache = self._query_cache()
                if cache is not None:
                    cache.invalidate_relation(alias)
            else:
                self.database.register_relation(relation)
        return Result(
            kind="relation",
            payload=relation,
            render=lambda: render_relation(relation),
        )

    # ------------------------------------------------------------------
    # query-result cache plumbing
    # ------------------------------------------------------------------

    def _query_cache(self):
        return getattr(self.database, "query_cache", None)

    def _where_fingerprint(self, where: Optional[ast.WhereExpr]) -> Optional[Tuple]:
        """A canonical hashable fingerprint of a WHERE tree (cache-key
        operand; two syntactically identical trees must collide)."""
        if where is None:
            return None
        if isinstance(where, ast.WhereTest):
            return ("test", where.attribute, where.value, bool(where.negated))
        if isinstance(where, ast.WhereAnd):
            return ("and",) + tuple(self._where_fingerprint(p) for p in where.parts)
        if isinstance(where, ast.WhereOr):
            return ("or",) + tuple(self._where_fingerprint(p) for p in where.parts)
        if isinstance(where, ast.WhereNot):
            return ("not", self._where_fingerprint(where.part))
        raise HQLError("unknown WHERE node {}".format(type(where).__name__))

    def _slice_fingerprint(self, stmt) -> Tuple:
        """The ``(limit, offset)`` cache-key operand of a sliceable
        statement — a LIMIT'd result must never be served for the
        unlimited key or vice versa."""
        return (stmt.limit, stmt.offset)

    @staticmethod
    def _apply_limit(relation, limit: Optional[int], offset: int):
        """Slice a result relation's stored tuples in insertion order.

        Runs inside ``compute`` so the *sliced* relation is what the
        query cache stores, and cursors can page server-side without
        shipping the full result.  A no-op slice returns the relation
        unchanged (no copy)."""
        if limit is None and not offset:
            return relation
        stop = None if limit is None else offset + limit
        sliced = relation.copy(name=relation.name)
        sliced.load_tuples(
            list(relation.asserted.items())[offset:stop],
            version=relation.version,
        )
        return sliced

    def _statement_cache_key(self, stmt: ast.Statement) -> Optional[Tuple]:
        """The cache key for a read-only statement, or ``None`` when the
        statement is uncacheable here — unknown shape, no cache on the
        database, or an open transaction (whose staged, uncommitted
        relations must never leak into the shared cache).

        EXPLAIN uses the same function, so the reported ``cache:`` line
        can never drift from what execution actually looks up.
        """
        if self._query_cache() is None or self._transaction is not None:
            return None
        if isinstance(stmt, ast.Select):
            return cache_key(
                "select",
                (
                    self._where_fingerprint(stmt.where),
                    tuple(stmt.attributes or ()),
                    self._slice_fingerprint(stmt),
                ),
                [self._relation(stmt.relation)],
            )
        if isinstance(stmt, ast.Project):
            return cache_key(
                "project",
                (tuple(stmt.attributes), self._slice_fingerprint(stmt)),
                [self._relation(stmt.relation)],
            )
        if isinstance(stmt, ast.BinaryOp):
            return cache_key(
                stmt.op,
                self._slice_fingerprint(stmt),
                [self._relation(stmt.left), self._relation(stmt.right)],
            )
        if isinstance(stmt, ast.Truth):
            return cache_key(
                "truth", tuple(stmt.values), [self._relation(stmt.relation)]
            )
        if isinstance(stmt, ast.Count):
            return cache_key(
                "count",
                (self._where_fingerprint(stmt.where),),
                [self._relation(stmt.relation)],
            )
        return None

    def _through_cache(self, key: Optional[Tuple], compute):
        """Serve ``compute()`` through the database's query cache.

        Relation payloads are stored as private copies and served as
        copies, so neither a later alias rebind nor a caller mutating
        the result can corrupt the cached entry.
        """
        cache = self._query_cache()
        if key is None or cache is None:
            return compute()
        hit = cache.get(key)
        if hit is not MISS:
            _trace.annotate(cache="hit")
            return hit.copy(name=hit.name) if isinstance(hit, HRelation) else hit
        _trace.annotate(cache="miss")
        started = time.perf_counter()
        result = compute()
        cost_ms = (time.perf_counter() - started) * 1e3
        payload = result.copy(name=result.name) if isinstance(result, HRelation) else result
        cache.put(key, payload, source_names=key_source_names(key), cost_ms=cost_ms)
        return result

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _exec_createhierarchy(self, stmt: ast.CreateHierarchy) -> Result:
        self.database.create_hierarchy(stmt.name, root=stmt.root)
        return Result(kind="ok", message="hierarchy {} created".format(stmt.name))

    def _exec_createnode(self, stmt: ast.CreateNode) -> Result:
        hierarchy = self.database.hierarchy(stmt.hierarchy)
        parents = list(stmt.parents) or None
        if stmt.instance:
            hierarchy.add_instance(stmt.name, parents=parents)
        else:
            hierarchy.add_class(stmt.name, parents=parents)
        return Result(
            kind="ok",
            message="{} {} created in {}".format(
                "instance" if stmt.instance else "class", stmt.name, stmt.hierarchy
            ),
        )

    def _exec_prefer(self, stmt: ast.Prefer) -> Result:
        hierarchy = self.database.hierarchy(stmt.hierarchy)
        hierarchy.add_preference_edge(stmt.weaker, stmt.stronger)
        return Result(
            kind="ok",
            message="preference {} over {} in {}".format(
                stmt.stronger, stmt.weaker, stmt.hierarchy
            ),
        )

    def _exec_createrelation(self, stmt: ast.CreateRelation) -> Result:
        self.database.create_relation(
            stmt.name,
            list(stmt.attributes),
            strategy=stmt.strategy or "off-path",
        )
        return Result(kind="ok", message="relation {} created".format(stmt.name))

    def _exec_drop(self, stmt: ast.Drop) -> Result:
        if stmt.kind == "RELATION":
            self.database.drop_relation(stmt.name)
        else:
            self.database.drop_hierarchy(stmt.name)
        return Result(kind="ok", message="{} {} dropped".format(stmt.kind.lower(), stmt.name))

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _exec_assert(self, stmt: ast.Assert) -> Result:
        if self._transaction is not None:
            self._transaction.assert_item(stmt.relation, stmt.values, truth=stmt.truth)
        else:
            self.database.insert(stmt.relation, stmt.values, truth=stmt.truth)
        return Result(
            kind="ok",
            message="asserted {}({})".format(
                "" if stmt.truth else "NOT ", ", ".join(stmt.values)
            ),
        )

    def _exec_retract(self, stmt: ast.Retract) -> Result:
        if self._transaction is not None:
            self._transaction.retract(stmt.relation, stmt.values)
        else:
            self.database.delete(stmt.relation, stmt.values)
        return Result(kind="ok", message="retracted ({})".format(", ".join(stmt.values)))

    def _exec_begin(self, stmt: ast.Begin) -> Result:
        if self._transaction is not None:
            raise HQLError("transaction already open")
        self._transaction = self.database.transaction()
        return Result(kind="ok", message="transaction started")

    def _exec_commit(self, stmt: ast.Commit) -> Result:
        if self._transaction is None:
            raise HQLError("no open transaction")
        try:
            self._transaction.commit()
        finally:
            # Win or lose, this transaction is over: a failed commit
            # must not leave its statements behind to be journalled by
            # a later, unrelated commit.
            self._transaction = None
            pending, self._pending_log = self._pending_log, []
        if self.log is not None:
            for statement in pending:
                self._journal_one(statement)
        return Result(kind="ok", message="committed")

    def _exec_rollback(self, stmt: ast.Rollback) -> Result:
        if self._transaction is None:
            raise HQLError("no open transaction")
        self._transaction.rollback()
        self._transaction = None
        self._pending_log = []
        return Result(kind="ok", message="rolled back")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _exec_truth(self, stmt: ast.Truth) -> Result:
        # Sessions ask many TRUTHs of one relation; the bulk evaluator
        # amortises the subsumption sweep across them (it is cached on
        # the relation and refreshed only when a write moves a version),
        # and the query cache makes an exact repeat a dict lookup.
        value = self._through_cache(
            self._statement_cache_key(stmt),
            lambda: bulk.truth_of(self._relation(stmt.relation), stmt.values),
        )
        return Result(
            kind="truth",
            payload=value,
            message="({}) is {}".format(", ".join(stmt.values), str(value).lower()),
        )

    def _exec_justify(self, stmt: ast.Justify) -> Result:
        justification = _justify(self._relation(stmt.relation), tuple(stmt.values))
        return Result(
            kind="justification",
            payload=justification,
            message=render_justification(justification),
        )

    def _condition(self, where: ast.WhereExpr):
        from repro.core import where as conditions

        if isinstance(where, ast.WhereTest):
            test = conditions.member(where.attribute, where.value)
            return conditions.Not(test) if where.negated else test
        if isinstance(where, ast.WhereAnd):
            return conditions.And(*(self._condition(p) for p in where.parts))
        if isinstance(where, ast.WhereOr):
            return conditions.Or(*(self._condition(p) for p in where.parts))
        if isinstance(where, ast.WhereNot):
            return conditions.Not(self._condition(where.part))
        raise HQLError("unknown WHERE node {}".format(type(where).__name__))

    def _exec_select(self, stmt: ast.Select) -> Result:
        from repro.core.where import select_where

        def compute():
            relation = self._relation(stmt.relation)
            if stmt.where is None:
                result = relation.copy(name="{}_where".format(relation.name))
            else:
                result = select_where(relation, self._condition(stmt.where))
            if stmt.attributes:
                result = algebra.project(result, list(stmt.attributes))
            return self._apply_limit(result, stmt.limit, stmt.offset)

        result = self._through_cache(self._statement_cache_key(stmt), compute)
        return self._store(result, stmt.alias)

    def _exec_project(self, stmt: ast.Project) -> Result:
        result = self._through_cache(
            self._statement_cache_key(stmt),
            lambda: self._apply_limit(
                algebra.project(self._relation(stmt.relation), list(stmt.attributes)),
                stmt.limit,
                stmt.offset,
            ),
        )
        return self._store(result, stmt.alias)

    def _exec_binaryop(self, stmt: ast.BinaryOp) -> Result:
        op = {
            "JOIN": algebra.join,
            "UNION": algebra.union,
            "INTERSECT": algebra.intersection,
            "DIFFERENCE": algebra.difference,
            "DIVIDE": algebra.divide,
            "SEMIJOIN": algebra.semijoin,
            "ANTIJOIN": algebra.antijoin,
        }[stmt.op]
        result = self._through_cache(
            self._statement_cache_key(stmt),
            lambda: self._apply_limit(
                op(self._relation(stmt.left), self._relation(stmt.right)),
                stmt.limit,
                stmt.offset,
            ),
        )
        return self._store(result, stmt.alias)

    def _exec_consolidate(self, stmt: ast.Consolidate) -> Result:
        if stmt.alias:
            result = self._relation(stmt.relation).consolidated()
            return self._store(result, stmt.alias)
        removed = self.database.consolidate_in_place(stmt.relation)
        return Result(
            kind="ok",
            payload=removed,
            message="consolidated {}: {} redundant tuple(s) removed".format(
                stmt.relation, removed
            ),
        )

    def _exec_explicate(self, stmt: ast.Explicate) -> Result:
        attributes = list(stmt.attributes) or None
        if stmt.alias:
            result = self._relation(stmt.relation).explicated(attributes)
            return self._store(result, stmt.alias)
        delta = self.database.explicate_in_place(stmt.relation, attributes)
        return Result(
            kind="ok",
            payload=delta,
            message="explicated {}: tuple count changed by {:+d}".format(
                stmt.relation, delta
            ),
        )

    def _exec_conflicts(self, stmt: ast.Conflicts) -> Result:
        conflicts = find_conflicts(self._relation(stmt.relation))
        lines = [str(c) for c in conflicts] or ["(consistent)"]
        return Result(kind="conflicts", payload=conflicts, message="\n".join(lines))

    def _exec_extension(self, stmt: ast.Extension) -> Result:
        relation = self._relation(stmt.relation)
        rows = sorted(relation.extension())
        headers = list(relation.schema.attributes)
        return Result(
            kind="extension", payload=rows, render=lambda: render_rows(headers, rows)
        )

    def _exec_show(self, stmt: ast.Show) -> Result:
        if stmt.what == "RELATIONS":
            rows = [
                (r.name, str(len(r)), ", ".join(r.schema.attributes))
                for r in self.database.relations.values()
            ]
            headers = ["relation", "tuples", "attributes"]
        else:
            rows = [
                (h.name, str(len(h)), str(len(h.leaves())))
                for h in self.database.hierarchies.values()
            ]
            headers = ["hierarchy", "nodes", "leaves"]
        return Result(
            kind="show", payload=rows, render=lambda: render_rows(headers, rows)
        )

    def _exec_count(self, stmt: ast.Count) -> Result:
        from repro.core import aggregate
        from repro.core.where import select_where

        def compute():
            relation = self._relation(stmt.relation)
            if stmt.where is not None:
                relation = select_where(relation, self._condition(stmt.where))
            return aggregate.count(relation)

        value = self._through_cache(self._statement_cache_key(stmt), compute)
        return Result(
            kind="count",
            payload=value,
            message="{} atom(s)".format(value),
        )

    def _exec_save(self, stmt: ast.Save) -> Result:
        self.database.save(stmt.path)
        return Result(kind="ok", message="saved to {}".format(stmt.path))

    def _exec_explain(self, stmt: ast.Explain) -> Result:
        inner = stmt.inner
        if isinstance(inner, (ast.Select, ast.Count, ast.Project)):
            input_names = [inner.relation]
        else:  # BinaryOp
            input_names = [inner.left, inner.right]
        inputs = [self._relation(name) for name in input_names]

        lines = ["plan for: {}".format(type(inner).__name__.lower())]
        for relation in inputs:
            if bulk.evaluator_for(relation).sweep_exact:
                path = "posting sweep"
            else:
                path = "posting sweep + node elimination for strategy-sensitive items"
            lines.append(
                "  input {}: {} stored tuple(s), strategy={}, {}".format(
                    relation.name, len(relation), relation.strategy.name, path
                )
            )
        schemas_match = all(
            r.schema.same_as(inputs[0].schema) for r in inputs[1:]
        )
        if schemas_match:
            from repro.core.algebra import meet_closure

            seeds = set()
            for relation in inputs:
                seeds.update(relation.asserted)
            closure = meet_closure(inputs[0].schema.product, seeds)
            lines.append(
                "  meet-closure candidates: {} (from {} seed item(s))".format(
                    len(closure), len(seeds)
                )
            )
        else:
            lines.append("  meet-closure candidates: over the merged schema")
            if isinstance(inner, ast.BinaryOp) and inner.op == "JOIN":
                from repro.core import bulk as _bulk

                zero_copy = all(
                    r.strategy.name == "off-path"
                    and _bulk.evaluator_for(r).sweep_exact
                    for r in inputs
                )
                lines.append(
                    "  join inputs: {}".format(
                        "zero-copy projection adaptors (no cylindric "
                        "extensions materialised)"
                        if zero_copy
                        else "materialised cylindric extensions"
                    )
                )
        normal_form = not any(
            r.schema.product.needs_elimination_binding() for r in inputs
        )
        lines.append(
            "  consolidation: {}".format(
                "fused into the bitset emission sweep"
                if normal_form
                else "literal subsumption-graph elimination"
            )
        )
        # Peek (not get) before executing: the line reports what the
        # execution below is about to experience without perturbing the
        # hit/miss counters twice.
        cache = self._query_cache()
        inner_key = self._statement_cache_key(inner)
        if cache is not None and inner_key is not None:
            lines.append(
                "  cache: {}".format("hit" if cache.peek(inner_key) else "miss")
            )
        result, elapsed_ms, root = self._timed_execute(
            inner, record=False, force_trace=stmt.analyze
        )
        if result.kind == "relation":
            lines.append(
                "  result: {} tuple(s), consolidated".format(len(result.payload))
            )
        else:
            lines.append("  result: {}".format(result.payload))
        lines.append("  wall time: {:.3f} ms".format(elapsed_ms))
        if stmt.analyze and root is not None:
            lines.append("  analyze:")
            lines.extend(render_span_tree(root, indent="    "))
        plan = Result(kind="plan", payload=result, message="\n".join(lines))
        plan.elapsed_ms = elapsed_ms
        return plan

    def _exec_stats(self, stmt: ast.Stats) -> Result:
        """STATS; — one table over both registries: the database's
        engine metrics and the process-global core-layer metrics, plus
        the derived query-cache hit rate."""
        rows = []
        metrics = getattr(self.database, "metrics", None)
        if metrics is not None:
            rows.extend(metrics.rows())
        rows.extend(default_registry().rows())
        cache = self._query_cache()
        if cache is not None:
            rows.append(("querycache.hit_rate", "{:.3f}".format(cache.hit_rate)))
        rows.sort()
        payload = {
            "engine": metrics.snapshot() if metrics is not None else {},
            "core": default_registry().snapshot(),
        }
        return Result(
            kind="stats",
            payload=payload,
            render=lambda: render_rows(["metric", "value"], rows),
        )

    def _exec_load(self, stmt: ast.Load) -> Result:
        from repro.engine.storage import load_database

        if self._transaction is not None:
            raise HQLError("cannot LOAD inside a transaction")
        loaded = load_database(stmt.path)
        self.database.name = loaded.name
        self.database.hierarchies = loaded.hierarchies
        self.database.relations = loaded.relations
        # Views must be re-planned against *this* database so their
        # resolvers track future DROP/CREATE in its catalog (the loaded
        # object's plans are bound to the loaded object).
        if hasattr(self.database, "define_view"):
            for name in list(getattr(self.database, "view_definitions", {})):
                self.database.drop_view(name)
            for name, spec in getattr(loaded, "view_definitions", {}).items():
                self.database.define_view(
                    name, spec["op"], spec["sources"], spec["conditions"] or None
                )
        # Every catalogued object was just replaced wholesale; version
        # counters restarted, so the whole cache is unsound.
        cache = self._query_cache()
        if cache is not None:
            cache.clear()
        return Result(kind="ok", message="loaded from {}".format(stmt.path))


def execute(database, text: str) -> List[Result]:
    """One-shot execution of a script on a fresh session."""
    return HQLExecutor(database).run(text)
