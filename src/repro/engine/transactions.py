"""Transactions that maintain the ambiguity constraint (section 3.1).

"Whenever an update is made we require that the update does not create
an unresolved conflict.  If an update creates a conflict, within the
same transaction, before the update is committed, other updates must be
made that resolve the conflict, and themselves create no new unresolved
conflict."

A :class:`Transaction` stages all writes on copy-on-write snapshots of
the touched relations; :meth:`commit` re-checks every touched relation
for conflicts and either installs all snapshots atomically or raises
:class:`~repro.errors.InconsistentRelationError` leaving the database
untouched.  Reads inside the transaction see the staged state.

The re-check costs what the transaction touched
(:func:`~repro.core.conflicts.check_write`): when the unary
normal-form relation a copy was forked from is already known
conflict-free, only the cones of the items written since are probed; a
relation nobody has verified yet, one whose hierarchy was edited since,
or any other schema gets the whole-relation scan.  Either way the
conflicts reported are the same.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.conflicts import Conflict, check_write, find_conflicts, resolution_tuples
from repro.core.relation import HRelation
from repro.errors import InconsistentRelationError, TransactionError
from repro.obs import span as _span


class Transaction:
    """A unit of work over a :class:`HierarchicalDatabase`.

    Use as a context manager: the block commits on normal exit and
    rolls back on any exception.

    Examples
    --------
    >>> # with db.transaction() as txn:
    >>> #     txn.assert_item("respects", ("obsequious_student", "teacher"))
    >>> #     txn.assert_item("respects", ("student", "incoherent_teacher"), truth=False)
    >>> #     txn.assert_item("respects", ("obsequious_student", "incoherent_teacher"))
    """

    def __init__(self, database) -> None:
        self._database = database
        self._staged: Dict[str, HRelation] = {}
        #: The live relation each staged copy was forked from — compared
        #: by identity at commit to detect a concurrent commit.
        self._bases: Dict[str, HRelation] = {}
        #: Every mutation in call order, for replay during a rebase.
        self._ops: List[tuple] = []
        self._finished = False

    # ------------------------------------------------------------------

    def _working(self, relation_name: str) -> HRelation:
        if self._finished:
            raise TransactionError("transaction already committed or rolled back")
        if relation_name not in self._staged:
            base = self._database.relation(relation_name)
            self._staged[relation_name] = base.copy()
            self._bases[relation_name] = base
        return self._staged[relation_name]

    def assert_item(
        self,
        relation_name: str,
        item: Sequence[str],
        truth: bool = True,
        replace: bool = False,
    ) -> None:
        self._working(relation_name).assert_item(item, truth=truth, replace=replace)
        self._ops.append(("assert", relation_name, tuple(item), truth, replace))

    def retract(self, relation_name: str, item: Sequence[str]) -> None:
        self._working(relation_name).retract(item)
        self._ops.append(("retract", relation_name, tuple(item)))

    def relation(self, relation_name: str) -> HRelation:
        """The staged view of a relation (reads-your-writes)."""
        if relation_name in self._staged:
            return self._staged[relation_name]
        return self._database.relation(relation_name)

    def resolve_conflicts(self, relation_name: str, truth: bool) -> List[Conflict]:
        """Auto-resolve every pending conflict in a staged relation in
        favour of ``truth`` by asserting the minimal resolution sets —
        the paper's compiled-front-end behaviour.  Returns the conflicts
        that were resolved."""
        working = self._working(relation_name)
        resolved: List[Conflict] = []
        for _ in range(100):  # resolution can cascade; bound it
            conflicts = find_conflicts(working)
            if not conflicts:
                self._ops.append(("resolve", relation_name, truth))
                return resolved
            for conflict in conflicts:
                for t in resolution_tuples(working, conflict, truth):
                    working.assert_item(t.item, truth=t.truth, replace=True)
                resolved.append(conflict)
        raise InconsistentRelationError(find_conflicts(working))

    # ------------------------------------------------------------------

    def pending_conflicts(self) -> Dict[str, List[Conflict]]:
        """Conflicts in each staged relation, keyed by relation name."""
        found = {name: find_conflicts(relation) for name, relation in self._staged.items()}
        return {name: conflicts for name, conflicts in found.items() if conflicts}

    def _rebase(self) -> None:
        """Re-fork from the live catalog and replay this transaction's
        operations.  Called when another transaction committed one of
        our relations after we forked it: installing the stale copy
        would silently discard the other commit, so the operations are
        merged onto the current state instead — the same semantics the
        operation log produces when it is replayed at recovery."""
        self._staged.clear()
        self._bases.clear()
        ops, self._ops = list(self._ops), []
        for op in ops:
            if op[0] == "assert":
                _, name, item, truth, replace = op
                self.assert_item(name, item, truth=truth, replace=replace)
            elif op[0] == "retract":
                self.retract(op[1], op[2])
            else:
                self.resolve_conflicts(op[1], op[2])

    def commit(self) -> None:
        """Install all staged relations, or raise and change nothing.

        If a concurrent transaction committed one of the staged
        relations in the meantime, the operations are replayed against
        the current state first (see :meth:`_rebase`), so concurrent
        commits merge rather than overwrite each other.
        """
        if self._finished:
            raise TransactionError("transaction already committed or rolled back")
        metrics = getattr(self._database, "metrics", None)
        if any(
            self._database.relations.get(name) is not base
            for name, base in self._bases.items()
        ):
            self._rebase()
            if metrics is not None:
                metrics.counter("txn.rebases").inc()
        with _span("txn.commit", staged=len(self._staged)) as commit_span:
            all_conflicts: List[Conflict] = []
            check, candidates = "cone", 0
            for name, relation in self._staged.items():
                conflicts, scope, probed = check_write(relation, self._bases[name])
                all_conflicts.extend(conflicts)
                candidates += probed
                if scope == "relation":
                    check = scope
                checker = getattr(self._database, "checker_for", lambda _n: None)(name)
                if checker is not None:
                    all_conflicts.extend(
                        Conflict(item=("constraint", failed), binders=())
                        for failed in checker.violations(relation)
                    )
            commit_span.annotate(check=check, candidates=candidates)
            if all_conflicts:
                if metrics is not None:
                    metrics.counter("txn.conflicts_rejected").inc()
                raise InconsistentRelationError(all_conflicts)
            for name, relation in self._staged.items():
                # A fork whose version did not move holds its base's
                # tuples; keeping the base keeps its stamp, so a write
                # that changed nothing leaves cached results fresh.
                if relation.version != self._bases[name].version:
                    self._database.relations[name] = relation
            self._finished = True
        if metrics is not None:
            metrics.counter("txn.commits").inc()

    def rollback(self) -> None:
        if self._finished:
            raise TransactionError("transaction already committed or rolled back")
        self._staged.clear()
        self._finished = True
        metrics = getattr(self._database, "metrics", None)
        if metrics is not None:
            metrics.counter("txn.rollbacks").inc()

    # ------------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if not self._finished:
                self.rollback()
            return False
        self.commit()
        return False
