"""Hierarchical relations: the central data structure of the model.

An :class:`HRelation` stores a set of signed tuples over a
:class:`~repro.core.schema.RelationSchema`.  Storage is *condensed*: a
tuple whose value is a class stands for every member of the class, and a
negated tuple cancels a more general positive one.  Section 3's key
invariant holds throughout: "every hierarchical relation must be
equivalent to a unique flat relation for a given item hierarchy", and
:meth:`extension` / :meth:`to_flat` realise that equivalence.

Upward compatibility (section 4): a relation whose every value is a leaf
behaves exactly like a standard relation — binding never fires because
no item is below any other.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core import binding as _binding
from repro.core import bulk as _bulk
from repro.core.htuple import HTuple, format_item
from repro.core.preemption import OFF_PATH, PreemptionStrategy
from repro.core.schema import RelationSchema
from repro.errors import TupleError
from repro.hierarchy.graph import Hierarchy
from repro.hierarchy.product import Item


class HRelation:
    """A hierarchical relation: signed tuples over a schema.

    Parameters
    ----------
    schema:
        Either a :class:`RelationSchema` or a sequence of
        ``(attribute, Hierarchy)`` pairs.
    name:
        Optional label used by rendering and the engine catalog.
    strategy:
        The preemption strategy for truth evaluation; defaults to the
        paper's off-path semantics.

    Examples
    --------
    >>> from repro.hierarchy import hierarchy_from_dict
    >>> animal = hierarchy_from_dict("animal", {"bird": {"penguin": None}})
    >>> flies = HRelation([("creature", animal)], name="flies")
    >>> flies.assert_item(("bird",))
    >>> flies.assert_item(("penguin",), truth=False)
    >>> flies.truth_of(("penguin",))
    False
    """

    def __init__(
        self,
        schema: RelationSchema | Sequence[Tuple[str, Hierarchy]],
        name: str = "relation",
        strategy: PreemptionStrategy = OFF_PATH,
    ) -> None:
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        self.schema = schema
        self.name = name
        self.strategy = strategy
        #: Insertion-ordered (dicts preserve it) item -> truth mapping;
        #: doubles as the insertion record, so retraction is O(1).
        self._tuples: Dict[Item, bool] = {}
        self._version = 0
        #: The one derived binding structure: the memoised, delta-advanced
        #: :class:`~repro.core.bulk.BulkEvaluator` every truth question reads.
        self._bulk_eval = None
        #: ``(strategy, version, hierarchy versions)`` at which a conflict
        #: check last came back empty (see :mod:`repro.core.conflicts`).
        self._consistent_at = None
        #: Recent mutations as ``(version, item)`` pairs; ``item`` is the
        #: touched item.  Incremental consumers (the bulk evaluator's
        #: advance, the conflict check's cone scope, the planner's
        #: statistics) replay it via :meth:`changes_since`.
        self._delta_log: List[Tuple[int, Item]] = []
        #: Versions at or below this floor have fallen off the delta log
        #: (capacity trim or an unscoped wipe); ``changes_since`` answers
        #: ``None`` for cursors that old, forcing a full recompute.
        self._delta_floor = 0

    #: Delta-log capacity: beyond this many recorded mutations the oldest
    #: entries are dropped and the floor advances, so an idle consumer can
    #: never pin unbounded history.
    delta_log_limit = 256

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def assert_item(
        self, item: Sequence[str], truth: bool = True, replace: bool = False
    ) -> None:
        """Add a signed tuple.

        Re-asserting an item with the same truth value is a no-op
        (relations are sets); re-asserting with the *opposite* truth
        value raises :class:`TupleError` unless ``replace=True``, because
        a relation mapping one item to both 0 and 1 is meaningless.
        """
        key = self.schema.check_item(item)
        if key in self._tuples:
            if self._tuples[key] == truth:
                return
            if not replace:
                raise TupleError(
                    "item ({}) is already asserted with truth {}; "
                    "pass replace=True to flip it".format(
                        ", ".join(key), self._tuples[key]
                    )
                )
        self._tuples[key] = truth
        self._bump(key)

    def assert_tuple(self, htuple: HTuple, replace: bool = False) -> None:
        """Add an :class:`HTuple` (see :meth:`assert_item`)."""
        self.assert_item(htuple.item, truth=htuple.truth, replace=replace)

    def assert_all(
        self, pairs: Iterable[Tuple[Sequence[str], bool]] | Iterable[HTuple]
    ) -> None:
        """Bulk-add ``(item, truth)`` pairs or :class:`HTuple` objects."""
        for entry in pairs:
            if isinstance(entry, HTuple):
                self.assert_tuple(entry)
            else:
                item, truth = entry
                self.assert_item(item, truth=truth)

    def load_tuples(
        self,
        pairs: Iterable[Tuple[Sequence[str], bool]],
        version: Optional[int] = None,
    ) -> None:
        """Trusted bulk load for snapshot recovery.

        Replaces the stored tuples wholesale without per-item schema
        checks (the pairs came out of a snapshot this schema wrote) and
        without per-item version bumps.  ``version`` restores the
        counter the snapshot recorded, so a relation reads the same
        version after a restart as before it (no memo keyed on it
        outlives the process), and the delta floor advances to it, so
        incremental consumers see "history unavailable" rather than a
        bogus empty delta.
        """
        self._tuples = {tuple(item): bool(truth) for item, truth in pairs}
        self._version = len(self._tuples) if version is None else version
        self._delta_log = []
        self._delta_floor = self._version
        self._bulk_eval = None
        self._consistent_at = None

    def retract(self, item: Sequence[str]) -> None:
        """Remove the tuple asserted at ``item``; raises if absent."""
        key = self.schema.check_item(item)
        if key not in self._tuples:
            raise TupleError("no tuple asserted at ({})".format(", ".join(key)))
        del self._tuples[key]
        self._bump(key)

    def discard(self, item: Sequence[str]) -> bool:
        """Remove the tuple at ``item`` if present; returns whether it was."""
        key = self.schema.check_item(item)
        if key not in self._tuples:
            return False
        del self._tuples[key]
        self._bump(key)
        return True

    def clear(self) -> None:
        self._tuples.clear()
        self._bump()

    def _bump(self, changed: Item | None = None) -> None:
        """Advance the version after a mutation of ``changed`` (``None``
        for an unscoped wipe) and record it in the delta log — all a
        write does; the evaluator replays the log at the next read."""
        self._version += 1
        if changed is None:
            self._delta_log.clear()
            self._delta_floor = self._version
            return
        self._delta_log.append((self._version, changed))
        if len(self._delta_log) > self.delta_log_limit:
            trimmed, _ = self._delta_log.pop(0)
            self._delta_floor = trimmed

    # ------------------------------------------------------------------
    # storage views
    # ------------------------------------------------------------------

    @property
    def asserted(self) -> Mapping[Item, bool]:
        """The raw item -> truth mapping (read-only by convention)."""
        return self._tuples

    @property
    def version(self) -> int:
        return self._version

    def changes_since(self, version: int) -> Optional[List[Item]]:
        """The items mutated after ``version`` (assert, retract, or sign
        flip), oldest first, or ``None`` when that history is no longer
        available — the cursor predates the delta-log floor or an
        unscoped ``clear`` intervened.  Consumers getting ``None`` must
        fall back to a full recompute.
        """
        if version < self._delta_floor:
            return None
        log = self._delta_log  # ascending versions; (v,) sorts before (v, item)
        return [item for _, item in log[bisect_left(log, (version + 1,)):]]

    def tuples(self) -> List[HTuple]:
        """All stored tuples, in insertion order."""
        return [HTuple(item, truth) for item, truth in self._tuples.items()]

    def items(self) -> List[Item]:
        return list(self._tuples)

    def truth_of_stored(self, item: Sequence[str]) -> Optional[bool]:
        """The stored sign at exactly ``item`` (no binding), else ``None``."""
        return self._tuples.get(self.schema.check_item(item))

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item: object) -> bool:
        try:
            key = self.schema.check_item(item)  # type: ignore[arg-type]
        except Exception:
            return False
        return key in self._tuples

    def __iter__(self) -> Iterator[HTuple]:
        return iter(self.tuples())

    def copy(self, name: str | None = None) -> "HRelation":
        """An independent relation with the same tuples.

        The version counter and delta log carry over, so a copy staged by
        a transaction and later installed in place of the original reads
        as a *continuation* of its history: version stamps stay
        monotonic (query-cache keys cannot collide with the original's)
        and ``changes_since`` keeps working across the swap.  So do the
        memoised bulk evaluator (an immutable snapshot, shared as it is;
        the copy then advances it by its own writes instead of sweeping
        from cold) and the conflict-free stamp.
        """
        out = HRelation(self.schema, name=name or self.name, strategy=self.strategy)
        out._tuples = dict(self._tuples)
        out._version = self._version
        out._delta_log = list(self._delta_log)
        out._delta_floor = self._delta_floor
        out._bulk_eval = self._bulk_eval
        out._consistent_at = self._consistent_at
        return out

    def same_tuples_as(self, other: "HRelation") -> bool:
        """True iff both relations store exactly the same signed tuples
        (physical equality, not just the same flat extension)."""
        return self._tuples == other._tuples

    # ------------------------------------------------------------------
    # truth / semantics
    # ------------------------------------------------------------------

    def truth_of(self, item: Sequence[str]) -> bool:
        """Truth value of any item (class-level or atomic), by binding."""
        return _bulk.truth_of(self, item)

    def holds(self, *values: str) -> bool:
        """Sugar: ``r.holds("tweety")`` == ``r.truth_of(("tweety",))``."""
        return self.truth_of(tuple(values))

    def strongest_binders(self, item: Sequence[str]) -> List[HTuple]:
        key = self.schema.check_item(item)
        return _bulk.evaluator_for(self).truth_and_binders(key)[1]

    def subsumers_of(self, item: Sequence[str]) -> List[Item]:
        """Every asserted item subsuming ``item`` (itself included when
        asserted) — the applicability set binding starts from, read off
        the evaluator's postings."""
        return _bulk.evaluator_for(self).subsumers_of(self.schema.check_item(item))

    def justify(self, item: Sequence[str]) -> "_binding.Justification":
        return _binding.justify(self, self.schema.check_item(item))

    def extension(self) -> Iterator[Item]:
        """The equivalent flat relation: every atomic item mapped to 1.

        Enumerates the atoms below the positive tuples (rather than all
        of D*) and filters through one :class:`~repro.core.bulk.
        BulkEvaluator`, so the cost scales with the positive cones, not
        the domain — and each atom costs a bitset lookup, not a binding
        derivation.
        """
        return _bulk.extension_atoms(self)

    def extension_size(self) -> int:
        return sum(1 for _ in self.extension())

    def is_consistent(self) -> bool:
        from repro.core import conflicts

        return conflicts.is_consistent(self)

    def conflicts(self) -> List["object"]:
        from repro.core import conflicts

        return conflicts.find_conflicts(self)

    # ------------------------------------------------------------------
    # operators (sugar around repro.core.{consolidate,explicate,algebra})
    # ------------------------------------------------------------------

    def consolidated(self) -> "HRelation":
        from repro.core.consolidate import consolidate

        return consolidate(self)

    def explicated(
        self, attributes: Sequence[str] | None = None, drop_negated: bool | None = None
    ) -> "HRelation":
        from repro.core.explicate import explicate

        return explicate(self, attributes=attributes, drop_negated=drop_negated)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def format_tuple(self, htuple: HTuple) -> str:
        flags = [
            h.is_leaf(v) for h, v in zip(self.schema.hierarchies, htuple.item)
        ]
        return "{} {}".format(htuple.sign, format_item(htuple.item, flags))

    def __repr__(self) -> str:
        return "HRelation({!r}, {} tuples, schema={})".format(
            self.name, len(self), self.schema
        )

    def __str__(self) -> str:
        from repro.render.table import render_relation

        return render_relation(self)
