"""Conflict detection and resolution sets (sections 2.1, 2.2, 3.1).

A *conflict* is an item whose strongest-binding tuples carry differing
truth values — the state the paper refuses to permit ("we treat such a
conflict as an inconsistent state of the database").  The *ambiguity
constraint* of section 3.1 demands that every item of D* either carries
its own tuple or has unanimous strongest binders.

Detection is *optimistic*, exactly as the paper prescribes: two classes
are assumed disjoint unless the hierarchy offers evidence of an
intersection — a common node (an instance, or a declared intersection
class).  The candidate items that need checking are the **maximal common
descendants** (meet sets) of opposite-sign asserted pairs:

    If any item conflicts under off-path preemption, then some maximal
    common descendant of two opposite-sign asserted items conflicts.

    Proof sketch: let Z be a conflicted item with minimal binders t⁺ and
    t⁻.  Pick a maximal common descendant Z' of (t⁺, t⁻) with Z ⊆ Z'.
    Any asserted k with t ⊃ k ⊇ Z' would satisfy t ⊃ k ⊇ Z and
    contradict t's minimality at Z, so both t⁺ and t⁻ are still minimal
    binders at Z'; a tuple asserted at Z' itself would equally
    contradict minimality (or make Z' = Z conflict-free).  Hence Z'
    conflicts.  ∎

For the appendix strategies the same candidates are checked (complete
for no-preemption by the identical argument on *applicable* sets;
for on-path the candidate set is a heuristic and ``exhaustive=True``
is available — the hypothesis suite cross-validates both against the
brute-force oracle on small universes).

On *unary normal-form* schemas :func:`find_conflicts` does not compute
meets at all: the bulk evaluator's posting masks directly enumerate
every node with tuples of both signs applicable (see
:meth:`~repro.core.bulk.BulkEvaluator.mixed_sign_items`), which is a
complete probe set under every strategy — a conflicted item's
strongest binders are always a sign-mixed subset of its applicable
set.  That probe may surface conflicted items *below* a meet candidate
as well; they are genuine conflicts, so callers relying on "candidates
⊆ exhaustive" are unaffected.  Redundant-edge hierarchies keep the
historical meet probe (whose coverage there is heuristic anyway).

**Checking a write, not a relation.**  Section 3.1 checks integrity at
*every* update, so the check must cost what the update touched.  A
tuple asserted, retracted or flipped at *x* changes the applicable set
of the items below *x* and of nothing else; a candidate outside the
cone of *x* is a meet of two unchanged tuples, was a candidate before,
and binds as it did.  So once a relation is known conflict-free —
:func:`find_conflicts` stamps it whenever it comes back empty —
:func:`check_write` probes only the candidates inside the cones of the
touched items and reports exactly what the whole scan would.  The
stamp carries the hierarchy versions: a class edge added since can put
a conflict anywhere, and the next check is a whole-relation one.  Only
unary normal-form schemas are scoped this way (their candidates are
read off the posting masks over the cones); every other schema keeps
the whole-relation scan at each commit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Set, Tuple

from repro.core import bulk as _bulk
from repro.core.htuple import HTuple
from repro.hierarchy.product import Item


@dataclass(frozen=True)
class Conflict:
    """An item whose strongest binders disagree.

    Attributes
    ----------
    item:
        The conflicted item.
    binders:
        The strongest-binding tuples, mixed in truth value.
    """

    item: Item
    binders: Tuple[HTuple, ...]

    @property
    def positive(self) -> Tuple[HTuple, ...]:
        return tuple(b for b in self.binders if b.truth)

    @property
    def negative(self) -> Tuple[HTuple, ...]:
        return tuple(b for b in self.binders if not b.truth)

    def __str__(self) -> str:
        return "conflict at ({}) between {}".format(
            ", ".join(self.item), " and ".join(str(b) for b in self.binders)
        )


def conflict_candidates(relation) -> List[Item]:
    """The items worth probing: every maximal common descendant of an
    opposite-sign pair of asserted items (deduplicated, in a linear
    extension of the subsumption order)."""
    product = relation.schema.product
    positives = [item for item, truth in relation.asserted.items() if truth]
    negatives = [item for item, truth in relation.asserted.items() if not truth]
    seen: Set[Item] = set()
    if positives and negatives:
        # Optimistic-disjointness pruning: one overlap sweep per
        # attribute marks, for each positive, exactly the negatives
        # whose descendant cones can intersect it; only those pairs get
        # a meet probe.  A clear bit proves the meet set is empty, so
        # the candidate set is identical to the all-pairs scan.
        masks = _bulk.overlap_masks(relation.schema, positives, negatives)
        for pos, mask in zip(positives, masks):
            while mask:
                low = mask & -mask
                mask ^= low
                seen.update(product.meet(pos, negatives[low.bit_length() - 1]))
    return product.topological_sort(seen)


def _state(relation) -> Tuple:
    return (relation.strategy.name, relation.version, relation.schema.product.version)


def _unary_normal_form(relation) -> bool:
    schema = relation.schema
    return schema.arity == 1 and not schema.product.needs_elimination_binding()


def _probe(relation, evaluator, candidates: Iterable[Item]) -> Tuple[List[Conflict], int]:
    """The conflicted ``candidates``, in order, and how many distinct
    items were probed.  An empty answer stamps the relation
    conflict-free at its current state."""
    out: List[Conflict] = []
    seen: Set[Item] = set()
    for item in candidates:
        if item in seen:
            continue
        seen.add(item)
        if evaluator.truth(item) is None:
            _, binders = evaluator.truth_and_binders(item)
            out.append(Conflict(item=item, binders=tuple(binders)))
    if not out:
        relation._consistent_at = _state(relation)
    return out, len(seen)


def _scan(relation, exhaustive: bool = False) -> Tuple[List[Conflict], int]:
    """:func:`find_conflicts` plus the number of items probed."""
    product = relation.schema.product
    evaluator = _bulk.evaluator_for(relation)
    if exhaustive:
        candidates: Iterator[Item] | List[Item] = product.all_items()
    elif _unary_normal_form(relation):
        # Unary normal-form schemas skip the pairwise meets entirely:
        # the sweep's posting masks name every node with both signs
        # applicable — a complete probe set under every strategy (it
        # contains each meet candidate, and more; everything reported
        # is still a real conflict, so soundness is untouched).  With
        # redundant or preference edges the probe stays the meet set,
        # keeping the historical (heuristic) coverage there.
        candidates = evaluator.mixed_sign_items()
    else:
        candidates = conflict_candidates(relation)
    return _probe(relation, evaluator, candidates)


def find_conflicts(relation, exhaustive: bool = False) -> List[Conflict]:
    """All conflicts in ``relation``.

    ``exhaustive=True`` scans every item of D* — exponential in arity,
    intended for tests and tiny universes; the default probes only the
    meet candidates (complete for off-path preemption, see module doc).
    """
    return _scan(relation, exhaustive)[0]


def check_write(relation, base) -> Tuple[List[Conflict], str, int]:
    """:func:`find_conflicts` for ``relation``, a copy of ``base``
    mutated since — what a commit runs.  Returns ``(conflicts, scope,
    probed)``: the same conflicts in the same order as the whole scan,
    whether they came from the touched cones only (``"cone"``) or from
    the whole relation (``"relation"``), and how many items were probed.

    The cones suffice when ``base`` is stamped conflict-free at the
    present hierarchy, the delta log still reaches back to it and the
    schema is unary normal-form: the candidates are then the mixed-sign
    nodes of the cones, read off the posting masks.  Everything else —
    an unverified base, a hierarchy edit since the stamp, n-ary schemas,
    redundant or preference edges — keeps the whole-relation scan.
    """
    touched = None
    if base._consistent_at == _state(base) and _unary_normal_form(relation):
        touched = relation.changes_since(base.version)
    if touched is None:
        conflicts, probed = _scan(relation)
        return conflicts, "relation", probed
    evaluator = _bulk.evaluator_for(relation)
    conflicts, probed = _probe(relation, evaluator, evaluator.mixed_sign_items(below=touched))
    return conflicts, "cone", probed


def is_consistent(relation, exhaustive: bool = False) -> bool:
    """True iff the ambiguity constraint holds for every item."""
    return not find_conflicts(relation, exhaustive=exhaustive)


# ----------------------------------------------------------------------
# resolution sets (section 3.1)
# ----------------------------------------------------------------------


def complete_resolution_set(relation, a: Sequence[str], b: Sequence[str]) -> List[Item]:
    """The *complete conflict resolution set* for asserted items ``a``
    and ``b``: every item X with X ⊆ a and X ⊆ b.

    Unique for a given conflict on a given item hierarchy.  Note the
    size is the product of the per-attribute common-descendant counts.
    """
    a = relation.schema.check_item(a)
    b = relation.schema.check_item(b)
    per_attribute: List[List[str]] = []
    for h, va, vb in zip(relation.schema.hierarchies, a, b):
        common = sorted(
            h.descendants(va) & h.descendants(vb), key=h.topological_rank
        )
        if not common:
            return []
        per_attribute.append(common)
    return [tuple(combo) for combo in itertools.product(*per_attribute)]


def minimal_resolution_set(relation, a: Sequence[str], b: Sequence[str]) -> List[Item]:
    """The *minimal conflict resolution set*: the maximal elements of the
    complete set — derived componentwise as the product of per-attribute
    maximal common descendants ("by virtue of the transitivity of
    subsumption", section 3.1)."""
    product = relation.schema.product
    a = relation.schema.check_item(a)
    b = relation.schema.check_item(b)
    return sorted(product.meet(a, b), key=product.topological_key)


def resolution_tuples(relation, conflict: Conflict, truth: bool) -> List[HTuple]:
    """A set of tuples that, once asserted, resolves ``conflict`` in
    favour of ``truth``: one tuple per member of the minimal conflict
    resolution set of every opposite-sign binder pair.

    The paper notes fewer tuples may suffice (an item binding closer to
    several members at once); this planner returns the straightforward
    sound set, which the integrity checker verifies creates no *new*
    unresolved conflict.
    """
    items: Set[Item] = set()
    for pos in conflict.positive:
        for neg in conflict.negative:
            items.update(minimal_resolution_set(relation, pos.item, neg.item))
    product = relation.schema.product
    return [
        HTuple(item, truth)
        for item in product.topological_sort(items)
    ]
