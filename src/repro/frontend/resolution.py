"""Conflict-resolving front ends (section 3.1).

The model demands *explicit* conflict resolution; languages like LISP
with Flavors instead resolve silently by precedence.  The paper's
recipe: a front end compiles each user update into a transaction that
adds whatever resolution tuples the chosen precedence implies.

:class:`PrecedenceFrontend` does exactly that, parameterised by a
ranking function over the conflicting binder tuples; the built-in
rankings cover assertion order ("left precedence" in the temporal
sense: the earlier statement wins) and newest-wins.

:func:`assert_unique_property` implements the Fig. 4 pattern for
single-valued properties: asserting "royal elephants are white" on a
colour-like attribute automatically generates the explicit cancellation
"royal elephants are not grey".
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.core import bulk as _bulk
from repro.core.conflicts import Conflict, find_conflicts, resolution_tuples
from repro.core.htuple import HTuple
from repro.core.relation import HRelation

Ranking = Callable[[HRelation, Conflict], HTuple]


def oldest_assertion_wins(relation: HRelation, conflict: Conflict) -> HTuple:
    """Left precedence read temporally: among the conflicting binders,
    the tuple asserted earliest wins."""
    order = {item: i for i, item in enumerate(relation.items())}
    return min(conflict.binders, key=lambda b: order.get(b.item, len(order)))


def newest_assertion_wins(relation: HRelation, conflict: Conflict) -> HTuple:
    """The most recent assertion wins (update-in-place intuition)."""
    order = {item: i for i, item in enumerate(relation.items())}
    return max(conflict.binders, key=lambda b: order.get(b.item, -1))


class PrecedenceFrontend:
    """Compile updates into conflict-resolving transactions.

    Examples
    --------
    >>> # front = PrecedenceFrontend(oldest_assertion_wins)
    >>> # front.assert_item(relation, ("student", "incoherent"), truth=False)
    >>> # -> asserts the tuple plus whatever resolution tuples the
    >>> #    precedence implies; relation stays consistent throughout.
    """

    def __init__(self, ranking: Ranking = oldest_assertion_wins, max_rounds: int = 50) -> None:
        self.ranking = ranking
        self.max_rounds = max_rounds

    def assert_item(
        self, relation: HRelation, item: Sequence[str], truth: bool = True
    ) -> List[HTuple]:
        """Assert ``(item, truth)`` and auto-resolve any conflict it
        creates, choosing each conflict's winner by the ranking.
        Returns the extra tuples asserted.  On failure the relation is
        restored and the error re-raised."""
        snapshot = relation.copy()
        added: List[HTuple] = []
        relation.assert_item(item, truth=truth)
        try:
            for _round in range(self.max_rounds):
                conflicts = find_conflicts(relation)
                if not conflicts:
                    return added
                for conflict in conflicts:
                    winner = self.ranking(relation, conflict)
                    for t in resolution_tuples(relation, conflict, winner.truth):
                        stored = relation.truth_of_stored(t.item)
                        if stored is None:
                            relation.assert_item(t.item, truth=t.truth)
                            added.append(t)
                        elif stored != t.truth:
                            relation.assert_item(t.item, truth=t.truth, replace=True)
                            added.append(t)
            raise RuntimeError(
                "conflict resolution did not converge in {} rounds".format(
                    self.max_rounds
                )
            )
        except Exception:
            relation.clear()
            for t in snapshot.tuples():
                relation.assert_item(t.item, truth=t.truth)
            raise


def assert_unique_property(
    relation: HRelation,
    subject: str,
    value: str,
    subject_attr: str | None = None,
    value_attr: str | None = None,
) -> List[HTuple]:
    """Set a single-valued property with automatic explicit cancellation.

    For a two-attribute relation like Fig. 4's ``(animal, color)``:
    asserting ``assert_unique_property(r, "royal_elephant", "white")``
    adds ``+(royal_elephant, white)`` and, for every other colour the
    subject currently inherits (here grey), the cancellation
    ``-(royal_elephant, grey)`` — "it is not enough to say that royal
    elephants are white … an explicit cancellation is required".

    Returns every tuple asserted.
    """
    schema = relation.schema
    if schema.arity != 2:
        raise ValueError(
            "assert_unique_property expects a binary (subject, value) relation"
        )
    subject_attr = subject_attr or schema.attributes[0]
    value_attr = value_attr or schema.attributes[1]
    s_index = schema.index_of(subject_attr)
    v_index = schema.index_of(value_attr)
    value_hierarchy = schema.hierarchies[v_index]

    added: List[HTuple] = []

    def build(subject_value: str, value_value: str) -> Tuple[str, ...]:
        item = [None, None]  # type: ignore[list-item]
        item[s_index] = subject_value  # type: ignore[index]
        item[v_index] = value_value  # type: ignore[index]
        return tuple(item)  # type: ignore[arg-type]

    # Cancel every other currently-inherited value first, so the final
    # state never passes through a conflict.
    for other in value_hierarchy.leaves():
        if other == value:
            continue
        item = build(subject, other)
        current, binders = _bulk.evaluator_for(relation).truth_and_binders(item)
        if binders and current is not False:
            cancellation = HTuple(item, False)
            relation.assert_item(item, truth=False, replace=True)
            added.append(cancellation)
    positive = HTuple(build(subject, value), True)
    relation.assert_item(positive.item, truth=True, replace=True)
    added.append(positive)
    return added
