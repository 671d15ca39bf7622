"""The catalog-level facade over hierarchies and relations."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.integrity import IntegrityChecker
from repro.core.preemption import OFF_PATH, STRATEGIES, PreemptionStrategy
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.core.views import MaterializedView, ViewPlan, ViewRegistry
from repro.engine.querycache import QueryCache
from repro.errors import CatalogError, SchemaError, UnknownNodeError
from repro.hierarchy.graph import Hierarchy
from repro.obs import MetricsRegistry, SlowQueryLog


class HierarchicalDatabase:
    """A named catalog of hierarchies and hierarchical relations.

    All data manipulation goes through transactions (see
    :meth:`transaction`); the convenience mutators here each run a
    one-statement transaction, so a single inconsistent insert is
    rejected exactly like a batched one would be.

    Examples
    --------
    >>> db = HierarchicalDatabase("zoo")
    >>> animal = db.create_hierarchy("animal")
    >>> animal.add_class("bird")
    >>> _ = db.create_relation("flies", [("creature", "animal")])
    >>> db.insert("flies", ("bird",))
    >>> db.relation("flies").holds("bird")
    True
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.hierarchies: Dict[str, Hierarchy] = {}
        self.relations: Dict[str, HRelation] = {}
        self.checker = IntegrityChecker()
        self._relation_checkers: Dict[str, IntegrityChecker] = {}
        #: Per-database metrics registry (``querycache.*``, ``txn.*``,
        #: ``hql.*``); core-layer metrics live in the process-global
        #: :func:`repro.obs.default_registry` instead.  ``STATS;``
        #: renders both.
        self.metrics = MetricsRegistry()
        #: Engine-level result cache for read-only HQL statements.  Its
        #: keys carry each source's stamp, so no DDL path here tells it
        #: anything: a replaced object has a new creation serial.
        self.query_cache = QueryCache(registry=self.metrics)
        self.views = ViewRegistry()
        #: Declarative record of every :meth:`define_view` call
        #: (``name -> {"op", "sources", "conditions"}``).  A
        #: :class:`~repro.core.views.ViewPlan` holds opaque resolver
        #: callables, so this is what snapshots persist and restore.
        self.view_definitions: Dict[str, Dict[str, object]] = {}
        #: Attached by :meth:`enable_slow_query_log`; while present the
        #: HQL executor traces every statement and offers it to the log.
        self.slow_query_log: Optional[SlowQueryLog] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def enable_slow_query_log(
        self, threshold_ms: float = 100.0, maxlen: int = 128
    ) -> SlowQueryLog:
        """Start recording statements slower than ``threshold_ms``.
        Each entry keeps the statement text, elapsed time, and span
        tree (tracing is forced on per statement while the log is
        attached).  Returns the log; reconfigure by calling again."""
        self.slow_query_log = SlowQueryLog(threshold_ms, maxlen)
        self.metrics.gauge("slowlog.threshold_ms").set(threshold_ms)
        return self.slow_query_log

    def disable_slow_query_log(self) -> None:
        self.slow_query_log = None
        self.metrics.gauge("slowlog.threshold_ms").set(0)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_hierarchy(self, name: str, root: str | None = None) -> Hierarchy:
        if name in self.hierarchies:
            raise CatalogError("hierarchy {!r} already exists".format(name))
        hierarchy = Hierarchy(name, root=root)
        self.hierarchies[name] = hierarchy
        return hierarchy

    def register_hierarchy(self, hierarchy: Hierarchy) -> Hierarchy:
        """Adopt an externally-built hierarchy into the catalog."""
        if hierarchy.name in self.hierarchies:
            raise CatalogError("hierarchy {!r} already exists".format(hierarchy.name))
        self.hierarchies[hierarchy.name] = hierarchy
        return hierarchy

    def hierarchy(self, name: str) -> Hierarchy:
        try:
            return self.hierarchies[name]
        except KeyError:
            raise CatalogError("unknown hierarchy {!r}".format(name)) from None

    def create_relation(
        self,
        name: str,
        attributes: Sequence[Tuple[str, Union[str, Hierarchy]]],
        strategy: Union[str, PreemptionStrategy] = OFF_PATH,
    ) -> HRelation:
        """Create a relation whose attributes name catalogued hierarchies
        (or pass hierarchy objects directly)."""
        if name in self.relations:
            raise CatalogError("relation {!r} already exists".format(name))
        resolved = [
            (attr, self.hierarchy(h) if isinstance(h, str) else h)
            for attr, h in attributes
        ]
        if isinstance(strategy, str):
            try:
                strategy = STRATEGIES[strategy]
            except KeyError:
                raise CatalogError(
                    "unknown preemption strategy {!r}; known: {}".format(
                        strategy, sorted(STRATEGIES)
                    )
                ) from None
        relation = HRelation(RelationSchema(resolved), name=name, strategy=strategy)
        self.relations[name] = relation
        return relation

    def register_relation(self, relation: HRelation) -> HRelation:
        if relation.name in self.relations:
            raise CatalogError("relation {!r} already exists".format(relation.name))
        self.relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> HRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise CatalogError("unknown relation {!r}".format(name)) from None

    def drop_relation(self, name: str) -> None:
        if name not in self.relations:
            raise CatalogError("unknown relation {!r}".format(name))
        del self.relations[name]

    def drop_hierarchy(self, name: str) -> None:
        hierarchy = self.hierarchy(name)
        users = [
            r.name
            for r in self.relations.values()
            if any(h is hierarchy for h in r.schema.hierarchies)
        ]
        if users:
            raise CatalogError(
                "hierarchy {!r} is used by relations {}".format(name, users)
            )
        del self.hierarchies[name]

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------

    def define_view(
        self,
        name: str,
        op: str,
        sources: Sequence[str],
        conditions: Optional[Mapping[str, str]] = None,
    ) -> MaterializedView:
        """Define a plan-backed materialized view over catalogued
        relations.

        ``sources`` are relation *names*, resolved against the catalog
        on every access — so the view tracks DROP + CREATE under the
        same name instead of pinning a dead object.  A stale view
        recomputes its operator in full on the next read.

        A ``select`` whose conditions name an attribute outside the
        source's schema raises :class:`SchemaError`, and one naming an
        unknown node raises :class:`UnknownNodeError`; nothing is
        recorded.  Snapshot restore, ``LOAD`` and follower adoption come
        through here too, so a stored bad definition fails there, naming
        the view.
        """
        relations = [self.relation(source) for source in sources]
        resolvers = [
            (lambda n=source: self.relation(n)) for source in sources
        ]
        plan = ViewPlan(op, resolvers, conditions)
        if plan.conditions:
            try:
                relations[0].schema.item_from_mapping(
                    plan.conditions, default_top=True
                )
            except (SchemaError, UnknownNodeError) as exc:
                raise type(exc)("view {!r}: {}".format(name, exc)) from None
        view = self.views.define(name, plan=plan)
        self.view_definitions[name] = {
            "op": op,
            "sources": list(sources),
            "conditions": dict(conditions or {}),
        }
        return view

    def view(self, name: str) -> MaterializedView:
        try:
            return self.views.view(name)
        except KeyError:
            raise CatalogError("unknown view {!r}".format(name)) from None

    def drop_view(self, name: str) -> None:
        try:
            self.views.drop(name)
        except KeyError:
            raise CatalogError("unknown view {!r}".format(name)) from None
        self.view_definitions.pop(name, None)

    # ------------------------------------------------------------------
    # application-level constraints (section 3.1's "catalog" constraints)
    # ------------------------------------------------------------------

    def add_constraint(self, relation_name: str, constraint_name: str, predicate) -> None:
        """Register a predicate that must hold for ``relation_name``
        after every commit touching it (e.g. a cardinality cap or a
        required tuple).  The predicate receives the candidate relation
        state and returns a bool."""
        self.relation(relation_name)  # must exist
        checker = self._relation_checkers.setdefault(relation_name, IntegrityChecker())
        checker.add_constraint(constraint_name, predicate)

    def remove_constraint(self, relation_name: str, constraint_name: str) -> None:
        checker = self._relation_checkers.get(relation_name)
        if checker is not None:
            checker.remove_constraint(constraint_name)

    def constraints_for(self, relation_name: str) -> list:
        checker = self._relation_checkers.get(relation_name)
        return checker.constraint_names() if checker is not None else []

    def checker_for(self, relation_name: str):
        """The per-relation checker, or ``None`` (used at commit)."""
        return self._relation_checkers.get(relation_name)

    # ------------------------------------------------------------------
    # DML (single-statement transactions)
    # ------------------------------------------------------------------

    def transaction(self) -> "Transaction":
        from repro.engine.transactions import Transaction

        return Transaction(self)

    def insert(self, relation_name: str, item: Sequence[str], truth: bool = True) -> None:
        """Insert one signed tuple, rejecting it if it leaves the
        relation with an unresolved conflict."""
        with self.transaction() as txn:
            txn.assert_item(relation_name, item, truth=truth)

    def delete(self, relation_name: str, item: Sequence[str]) -> None:
        """Delete the tuple at ``item``, rejecting the deletion if it
        *creates* a conflict (removing a resolution tuple can)."""
        with self.transaction() as txn:
            txn.retract(relation_name, item)

    def consolidate_in_place(self, relation_name: str) -> int:
        """Consolidate a stored relation; returns tuples removed."""
        relation = self.relation(relation_name)
        before = len(relation)
        compacted = relation.consolidated()
        self.relations[relation_name] = compacted
        return before - len(compacted)

    def explicate_in_place(
        self, relation_name: str, attributes: Sequence[str] | None = None
    ) -> int:
        """Explicate a stored relation; returns the tuple-count delta."""
        relation = self.relation(relation_name)
        before = len(relation)
        flattened = relation.explicated(attributes)
        self.relations[relation_name] = flattened
        return len(flattened) - before

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def execute(self, text: str) -> List[object]:
        """Run one or more HQL statements; returns one result per
        statement (see :mod:`repro.engine.hql`)."""
        from repro.engine.hql import execute

        return execute(self, text)

    def adopt(self, source: "HierarchicalDatabase") -> None:
        """Replace this catalog with ``source``'s, in place: ``LOAD``
        and a follower's resync.

        Sessions, servers and metrics hold this database *object*, so
        its contents are swapped rather than the object.  Views are
        re-planned here so their resolvers track this catalog, not the
        donor's.  The query cache is left alone: every adopted relation
        is a new object, so no cached stamp matches it.  A server caller
        must hold the write lock.
        """
        self.name = source.name
        self.hierarchies = source.hierarchies
        self.relations = source.relations
        for name in list(self.view_definitions):
            self.drop_view(name)
        for name, spec in source.view_definitions.items():
            self.define_view(name, spec["op"], spec["sources"], spec["conditions"] or None)

    def save(self, path: str) -> None:
        from repro.engine.storage import save_database

        save_database(self, path)

    @classmethod
    def load(cls, path: str) -> "HierarchicalDatabase":
        from repro.engine.storage import load_database

        return load_database(path)

    def __repr__(self) -> str:
        return "HierarchicalDatabase({!r}, {} hierarchies, {} relations)".format(
            self.name, len(self.hierarchies), len(self.relations)
        )
