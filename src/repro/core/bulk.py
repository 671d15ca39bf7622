"""Bulk truth evaluation: one subsumption sweep answering many queries.

Section 4 of the paper leaves efficiency open ("the model shows promise
of efficient implementation, though some further work is needed in this
direction").  The per-item machinery in :mod:`repro.core.binding`
re-derives an item's applicability set and minimality frontier on every
call, so bulk consumers — :meth:`HRelation.extension`,
:func:`algebra.combine`, :func:`conflicts.find_conflicts`, full
:func:`explicate` — paid O(n · binding) for n queries.  A
:class:`BulkEvaluator` builds the relation's binding structure **once**
and answers each query from bitset lookups:

* Every stored tuple gets one bit position.  Per attribute, the tuples'
  bits are seeded onto their value nodes and swept *down* the class
  graph in one pass (:meth:`Hierarchy.downward_union`), yielding at
  each node the bitset of stored tuples whose value there subsumes it.
* The applicability set of a query item is then the AND across
  attributes of those per-node bitsets — one dict lookup and one
  integer AND per attribute, instead of a subsumption test per stored
  tuple (or a posting intersection per query).
* Binding strength falls out of the same structure: the strict
  subsumers of stored tuple *t* among the stored tuples are just the
  applicability mask of *t*'s own item (memoised per tuple), so the
  minimal — strongest-binding — applicable tuples of any query are an
  OR/AND-NOT away.

Strategy coverage mirrors :mod:`repro.core.preemption`:

* **off-path** on normal-form hierarchies (the paper's default) and
  **no preemption** on any hierarchy are answered exactly from the
  sweep.
* Items whose applicable tuples are unanimous are strategy-independent
  (strongest binders are a non-empty subset of them), and so are items
  whose *minimal* applicable tuples already disagree unless a
  preference edge can rank one minimal tuple over another; the sweep
  decides both for **on-path** and for off-path over non-normal-form
  hierarchies.
* Only the remaining stratum needs the paper's node elimination, and it
  gets it directly: the strategy's ``strongest_binders`` runs on the
  items of the applicability mask, never on a scan of the relation.
  Preference edges change the binding order, not applicability
  (:meth:`Hierarchy.downward_union` ignores them), so those schemas
  carry postings like any other.

Evaluators are immutable snapshots keyed on ``(strategy, relation
version, hierarchy versions)``; :func:`evaluator_for` memoises the
current one on the relation, so interleaved reads share a single sweep.

**A mutation advances the evaluator instead of invalidating it.**  A
stored tuple is one bit column over its own cone, so when the relation
has moved on :func:`evaluator_for` replays the relation's delta log
(:meth:`HRelation.changes_since`) through
:meth:`BulkEvaluator.advanced`: an asserted tuple sets its bit in the
sign masks and, per attribute, in the postings of the nodes below its
value; a retracted one clears the same bits; a sign flip swaps one bit
between the sign masks and touches no posting.  The result is a *new*
evaluator sharing every untouched mask with the old one, so a reader
holding the old snapshot — another session reading the base relation
while a transaction advances its staged copy — never sees it change.

A retracted tuple's bit slot goes on a free list and the next asserted
tuple takes it: the widest mask never exceeds the high-water mark of
stored tuples, however long the relation churns.  Slots therefore stop
following insertion order (:meth:`BulkEvaluator.in_row_order` tells; a
checkpoint persists row-ordered postings only).

The full sweep is still what runs when the delta cannot say what
changed: the first read of a relation, a hierarchy edit (every cone may
have moved), ``clear()`` / ``load_tuples`` (history wiped), a cursor the
delta log has trimmed past, or a different strategy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.core.htuple import HTuple
from repro.errors import AmbiguityError
from repro.hierarchy.product import Item


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _verdict(binders: Sequence[HTuple]) -> Optional[bool]:
    """The truth a binder list decides: ``False`` when nothing binds
    (the universal negated tuple), ``None`` when the binders disagree."""
    truths = {b.truth for b in binders}
    if len(truths) == 1:
        return truths.pop()
    return None if truths else False


class BulkEvaluator:
    """A read-only snapshot of one relation's binding structure.

    Build once (O(hierarchy + stored tuples) bitset work), then call
    :meth:`truth` / :meth:`truth_and_binders` any number of times.  The
    snapshot is only valid for the ``(relation, hierarchy)`` versions it
    was built against; use :func:`evaluator_for` to get a cached
    instance that is advanced (:meth:`advanced`) as the relation moves.
    """

    # Slots, so that a snapshot can be copied attribute by attribute:
    # ``copy.copy`` of a plain instance goes through ``__dict__`` and
    # CPython then serves every attribute read of the copy from the slow
    # path — measured at +30 % on ``truth`` over a whole hierarchy.
    __slots__ = (
        "relation", "strategy", "key", "_product", "_asserted", "_items", "_free",
        "_pos", "_neg", "_frontier_binds", "_minimal_exact", "_postings", "_above",
    )

    def __init__(self, relation, strategy=None, *, postings=None) -> None:
        chosen = strategy if strategy is not None else relation.strategy
        self.relation = relation
        self.strategy = chosen
        schema = relation.schema
        product = schema.product
        self._product = product
        self._asserted: Dict[Item, bool] = dict(relation.asserted)
        #: Bit slot -> stored item; ``None`` marks a slot on the free list.
        self._items: List[Optional[Item]] = list(self._asserted)
        self._free: List[int] = []
        self.key = (chosen.name, relation.version, product.version)
        pos = neg = 0
        for i, item in enumerate(self._items):
            if self._asserted[item]:
                pos |= 1 << i
            else:
                neg |= 1 << i
        self._pos = pos
        self._neg = neg
        #: Every minimal applicable tuple is a strongest binder — unless
        #: a preference edge can rank one of them over another.
        self._frontier_binds = not product.has_preference_edges()
        self._minimal_exact = (
            chosen.name == "off-path" and not product.needs_elimination_binding()
        )
        self._postings: List[Dict[str, int]] = []
        if postings is not None:
            # Precomputed tables (binary snapshot recovery): trusted
            # verbatim, so loading skips the subsumption sweep — the
            # whole point of persisting them.
            self._postings = [dict(table) for table in postings]
        else:
            for position, hierarchy in enumerate(schema.hierarchies):
                seed: Dict[str, int] = {}
                for i, item in enumerate(self._items):
                    value = item[position]
                    seed[value] = seed.get(value, 0) | (1 << i)
                self._postings.append(hierarchy.downward_union(seed))
        # Strict asserted subsumers per stored tuple, filled lazily:
        # only queries that reach the minimality check pay for them.
        self._above: List[Optional[int]] = [None] * len(self._items)

    # ------------------------------------------------------------------
    # advancing
    # ------------------------------------------------------------------

    def rebound(self, relation) -> "BulkEvaluator":
        """This snapshot attached to ``relation`` — a copy of the
        relation it was built for, holding the same tuples.
        :meth:`in_row_order` reads ``self.relation``, so an evaluator
        must never be attached to one relation and read another."""
        out = BulkEvaluator.__new__(BulkEvaluator)
        for name in BulkEvaluator.__slots__:
            setattr(out, name, getattr(self, name))
        out.relation = relation
        return out

    def advanced(self, relation, changed: Iterable[Item]) -> "BulkEvaluator":
        """A new evaluator for ``relation``, which continues the history
        of the relation this one was built for and has since mutated
        ``changed`` (:meth:`HRelation.changes_since` of this snapshot's
        version; the hierarchies have not moved).

        Each changed item's stored sign here is compared with
        ``relation.asserted``: absent → present takes a bit slot (a freed
        one first) and sets it over the item's cone in each attribute's
        postings, present → absent clears the same bits and frees the
        slot, a sign flip swaps the bit between the sign masks.  ``self``
        is left untouched and keeps answering for the old state.
        """
        out = self.rebound(relation)
        out.key = (self.strategy.name, relation.version, self._product.version)
        out._asserted = asserted = dict(self._asserted)
        out._items = items = list(self._items)
        out._free = free = list(self._free)
        out._postings = postings = [dict(table) for table in self._postings]
        pos, neg = self._pos, self._neg
        current = relation.asserted
        hierarchies = relation.schema.hierarchies
        # Retractions first, so the slots they free serve this batch's
        # own asserts and the masks stay within the high-water mark.
        for item in sorted(dict.fromkeys(changed), key=current.__contains__):
            old, new = asserted.get(item), current.get(item)
            if old == new:
                continue
            if old is not None:
                # A C-speed scan: cheaper than carrying (and copying, per
                # snapshot) an item -> slot dict for the writes that need it.
                slot = items.index(item)
            elif free:
                slot = free.pop()
                items[slot] = item
            else:
                slot = len(items)
                items.append(item)
            bit = 1 << slot
            if old is None or new is None:
                # The tuple's bit column appears or disappears over its
                # cone (a free slot's bit is clear everywhere).
                for table, hierarchy, value in zip(postings, hierarchies, item):
                    for node in hierarchy.downward_closure((value,)):
                        table[node] = table.get(node, 0) ^ bit
            pos &= ~bit
            neg &= ~bit
            if new is None:
                del asserted[item]
                items[slot] = None
                free.append(slot)
            else:
                asserted[item] = new
                if new:
                    pos |= bit
                else:
                    neg |= bit
        out._pos = pos
        out._neg = neg
        out._above = [None] * len(items)
        return out

    def in_row_order(self) -> bool:
        """True iff bit *i* is row *i* of ``relation.asserted`` — what a
        fresh build gives and a persisted posting table must have.
        Advancing breaks it as soon as a slot is reused or a tuple is
        re-asserted (its row moves to the end, its slot stays)."""
        return self._items == list(self.relation.asserted)

    # ------------------------------------------------------------------
    # masks
    # ------------------------------------------------------------------

    @property
    def sweep_exact(self) -> bool:
        """True when *every* query is answered by the sweep itself —
        no node-elimination stratum exists.  Holds for off-path over
        normal-form hierarchies (the paper's default) and for
        no-preemption over any hierarchy; these are the strategies the
        zero-copy algebra adaptors may wrap."""
        return self.strategy.name == "none" or self._minimal_exact

    def applicable_mask(self, item: Item) -> int:
        """The bitset of stored tuples whose item subsumes ``item``."""
        postings = self._postings
        mask = postings[0].get(item[0], 0)
        for position in range(1, len(postings)):
            if not mask:
                return 0
            mask &= postings[position].get(item[position], 0)
        return mask

    def _above_mask(self, index: int) -> int:
        mask = self._above[index]
        if mask is None:
            mask = self.applicable_mask(self._items[index]) & ~(1 << index)
            self._above[index] = mask
        return mask

    def _minimal_mask(self, applicable: int) -> int:
        """The minimal (most specific) tuples of an applicability mask."""
        dominated = 0
        rest = applicable
        while rest:
            low = rest & -rest
            dominated |= self._above_mask(low.bit_length() - 1)
            rest ^= low
        return applicable & ~dominated

    def subsumers_of(self, item: Item) -> List[Item]:
        """Every stored item subsuming ``item`` (itself included when
        stored), unordered — the applicability mask as items."""
        return [self._items[i] for i in _iter_bits(self.applicable_mask(item))]

    def _eliminated(self, item: Item, applicable: int) -> List[HTuple]:
        """The strategy-sensitive stratum: the strategy's own node
        elimination over the applicable tuples the mask names."""
        relevant = [self._items[i] for i in _iter_bits(applicable)]
        return self.strategy.strongest_binders(
            self._product, self._asserted, item, relevant=relevant
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def truth(self, item: Item) -> Optional[bool]:
        """The truth value of ``item`` (already schema-checked), or
        ``None`` when its strongest binders conflict.

        Decides as much as possible from the sweep: an exact stored hit,
        an empty or sign-unanimous applicable set, and a sign-mixed
        minimal frontier are strategy-independent; only the genuinely
        strategy-sensitive leftovers run node elimination.
        """
        sign = self._asserted.get(item)
        if sign is not None:
            return sign
        applicable = self.applicable_mask(item)
        if not applicable:
            return False
        if not applicable & self._neg:
            return True
        if not applicable & self._pos:
            return False
        if self.strategy.name == "none":
            return None
        if self._frontier_binds:
            minimal = self._minimal_mask(applicable)
            minimal_pos = minimal & self._pos
            if minimal_pos and minimal & self._neg:
                return None
            if self._minimal_exact:
                return bool(minimal_pos)
        return _verdict(self._eliminated(item, applicable))

    def truth_and_binders(self, item: Item) -> Tuple[Optional[bool], List[HTuple]]:
        """Like :func:`binding.truth_and_binders`, bit-identical binders
        included.  Strategies whose binder *sets* need node elimination
        run it for every unstored item here; consumers that only need
        truth values should call :meth:`truth` and fetch binders for the
        rare conflict."""
        sign = self._asserted.get(item)
        if sign is not None:
            return sign, [HTuple(item, sign)]
        applicable = self.applicable_mask(item)
        if not applicable:
            return False, []
        if self.strategy.name == "none":
            binders = self._htuples(applicable, reverse=True)
        elif self._minimal_exact:
            binders = self._htuples(self._minimal_mask(applicable))
        else:
            binders = self._eliminated(item, applicable)
        return _verdict(binders), binders

    def truths(self, items: Sequence[Item]) -> List[Optional[bool]]:
        """Truth values for many (schema-checked) items at once."""
        return [self.truth(item) for item in items]

    def mixed_sign_items(self, below: Optional[Iterable[Item]] = None) -> List[Item]:
        """Every domain item with tuples of *both* signs applicable, in
        a linear extension of the subsumption order — restricted to the
        cones of ``below`` when given (the cost then follows those
        cones, not the hierarchy).

        Any conflicted item's strongest binders are a sign-mixed subset
        of its applicable set — under every strategy — so this is a
        complete conflict-probe set, read straight off the posting
        masks with no meet computations.  Only available for unary
        schemas (higher arities would need the product enumerated).
        """
        if len(self._postings) != 1:
            raise ValueError("mixed-sign enumeration needs a unary schema")
        pos, neg = self._pos, self._neg
        table = self._postings[0]
        if below is None:
            entries: Iterable[Tuple[str, int]] = table.items()
        else:
            cone = self._product.factors[0].downward_closure(v for (v,) in below)
            entries = ((node, table.get(node, 0)) for node in cone)
        out = [(node,) for node, mask in entries if mask & pos and mask & neg]
        return self._product.topological_sort(out)

    def _htuples(self, mask: int, reverse: bool = False) -> List[HTuple]:
        items = self._product.topological_sort(
            (self._items[i] for i in _iter_bits(mask)), reverse=reverse
        )
        return [HTuple(item, self._asserted[item]) for item in items]

    def __repr__(self) -> str:
        return "BulkEvaluator({!r}, {} tuples, {})".format(
            getattr(self.relation, "name", "?"), len(self._asserted), self.strategy
        )


class ProjectedEvaluator:
    """Schema-projection adaptor: answers truth queries posed over a
    *wider* schema by projecting each item onto the base relation's
    attribute positions before consulting its evaluator.

    This is the zero-copy cylindric extension: a relation padded with
    hierarchy roots on the attributes it lacks has exactly the base
    relation's binding structure (root components subsume everything
    and compare equal among stored tuples), so the padded relation
    never needs to be materialised.  Only valid when the base
    evaluator's answers are decided entirely by the sweep
    (:attr:`BulkEvaluator.sweep_exact`); node elimination would
    otherwise re-derive bindings against the wrong (unpadded) schema.
    """

    def __init__(self, base: BulkEvaluator, positions: Sequence[int]) -> None:
        if not base.sweep_exact:
            raise ValueError(
                "projection adaptor requires a sweep-exact base evaluator"
            )
        self._base = base
        self._positions = tuple(positions)

    def truth(self, item: Item) -> Optional[bool]:
        positions = self._positions
        return self._base.truth(tuple(item[p] for p in positions))


class ConeEvaluator:
    """The truth function of a one-tuple relation ``{(cone, true)}``:
    an item is true iff the cone item subsumes it.  Strategy-free (a
    single positive tuple either applies or nothing does), so ``select``
    can evaluate its selection cone without building a relation."""

    def __init__(self, product, cone_item: Item) -> None:
        # One (position, descendant bitset, rank table) test per
        # component; a root component subsumes every value and needs none.
        self._tests = [
            (position, factor.descendant_mask(value), factor.topological_ranks())
            for position, (factor, value) in enumerate(zip(product.factors, cone_item))
            if value != factor.root
        ]

    def truth(self, item: Item) -> bool:
        for position, cone, rank in self._tests:
            if not cone >> rank[item[position]] & 1:
                return False
        return True


def subsumer_masks(schema, items: Sequence[Item]) -> List[int]:
    """Per item, the bitset of *other* ``items`` strictly subsuming it.

    One posting sweep per attribute (seed each item's bit on its value,
    :meth:`Hierarchy.ancestor_union` gathers at each value the bits
    seeded on or above it) replaces the pairwise ``subsumes`` scan: the
    strict subsumers of item *i* are the AND across attributes of the
    masks at its values, minus its own bit.  Only the items' values and
    their ancestors are visited, so the cost follows the items, not the
    hierarchy.  This is the substrate the bulk consolidation sweep and
    the vectorised subsumption graph read from.
    """
    postings: List[Dict[str, int]] = []
    for position, hierarchy in enumerate(schema.hierarchies):
        seed: Dict[str, int] = {}
        bit = 1
        for item in items:
            value = item[position]
            seed[value] = seed.get(value, 0) | bit
            bit <<= 1
        postings.append(hierarchy.ancestor_union(seed, seed))
    out: List[int] = []
    bit = 1  # item i's own bit: set in its mask (it subsumes itself), XORed out
    for item in items:
        mask = postings[0][item[0]]
        for position in range(1, len(postings)):
            mask &= postings[position][item[position]]
        out.append(mask ^ bit)
        bit <<= 1
    return out


def cover_masks(schema, covers: Sequence[Item], items: Sequence[Item]) -> List[int]:
    """Per item, the bitset of ``covers`` whose item subsumes it.

    One posting sweep per attribute (seed each cover's bit on its value,
    :meth:`Hierarchy.downward_union` pushes it over the value's cone)
    answers every (cover, item) subsumption test at once.  The delta
    view-refresh path uses this as its changed-cone test: an item lies
    inside the union of the mutated items' descendant cones iff its
    mask is non-zero.
    """
    postings: List[Dict[str, int]] = []
    for position, hierarchy in enumerate(schema.hierarchies):
        seed: Dict[str, int] = {}
        for i, cover in enumerate(covers):
            value = cover[position]
            seed[value] = seed.get(value, 0) | (1 << i)
        postings.append(hierarchy.downward_union(seed))
    out: List[int] = []
    for item in items:
        mask = postings[0].get(item[0], 0)
        for position in range(1, len(postings)):
            if not mask:
                break
            mask &= postings[position].get(item[position], 0)
        out.append(mask)
    return out


def overlap_masks(schema, subjects: Sequence[Item], others: Sequence[Item]) -> List[int]:
    """Per subject, the bitset of ``others`` whose descendant cone can
    intersect the subject's — the AND across attributes of one
    :meth:`Hierarchy.overlap_union` sweep each.  Pairs with a zero bit
    are disjoint and need no meet probe (optimistic disjointness); this
    is the pruning mask the conflict scan and the meet-closure share.
    """
    masks: List[int] = []
    for position, hierarchy in enumerate(schema.hierarchies):
        seed: Dict[str, int] = {}
        for i, other in enumerate(others):
            value = other[position]
            seed[value] = seed.get(value, 0) | (1 << i)
        overlap = hierarchy.overlap_union(seed)
        if position == 0:
            masks = [overlap.get(subject[0], 0) for subject in subjects]
        else:
            for i, subject in enumerate(subjects):
                masks[i] &= overlap.get(subject[position], 0)
    return masks


def minimal_of_mask(mask: int, subsumers: Sequence[int]) -> int:
    """The minimal (most specific) members of ``mask`` given each
    member's strict-subsumer mask: drop everything some member sits
    strictly above."""
    dominated = 0
    rest = mask
    while rest:
        low = rest & -rest
        dominated |= subsumers[low.bit_length() - 1]
        rest ^= low
    return mask & ~dominated


# ----------------------------------------------------------------------
# module API
# ----------------------------------------------------------------------


def evaluator_for(relation, strategy=None) -> BulkEvaluator:
    """The relation's current evaluator: the memoised one while nothing
    moved, that one advanced by the relation's own delta log after
    tuple mutations, a full sweep otherwise (first use, a hierarchy
    edit, wiped or trimmed history, another strategy)."""
    chosen = strategy if strategy is not None else relation.strategy
    key = (chosen.name, relation.version, relation.schema.product.version)
    cached = getattr(relation, "_bulk_eval", None)
    if cached is not None:
        if cached.key == key:
            _obs.default_registry().counter("bulk.evaluator.reuses").inc()
            return cached
        if cached.key[0] == key[0] and cached.key[2] == key[2]:
            changed = relation.changes_since(cached.key[1])
            if changed is not None:
                _obs.default_registry().counter("bulk.evaluator.advances").inc()
                evaluator = cached.advanced(relation, changed)
                relation._bulk_eval = evaluator
                return evaluator
    return build_evaluator(relation, chosen)


def build_evaluator(relation, strategy=None) -> BulkEvaluator:
    """Sweep ``relation`` from scratch and memoise the result on it —
    the evaluator is in row order (:meth:`BulkEvaluator.in_row_order`)
    whatever slots the one it replaces had handed out."""
    chosen = strategy if strategy is not None else relation.strategy
    _obs.default_registry().counter("bulk.evaluator.builds").inc()
    with _obs.span(
        "bulk.build_evaluator",
        relation=relation.name,
        tuples=len(relation.asserted),
        strategy=chosen.name,
    ):
        evaluator = BulkEvaluator(relation, chosen)
    try:
        relation._bulk_eval = evaluator
    except AttributeError:
        pass
    return evaluator


def truth_of(relation, item: Sequence[str], strategy=None) -> bool:
    """Drop-in equivalent of :func:`binding.truth_of` that amortises the
    binding structure across calls; raises :class:`AmbiguityError` when
    the ambiguity constraint fails at ``item``."""
    key = relation.schema.check_item(item)
    evaluator = evaluator_for(relation, strategy)
    truth = evaluator.truth(key)
    if truth is None:
        _, binders = evaluator.truth_and_binders(key)
        raise AmbiguityError(key, [(b.item, b.truth) for b in binders])
    return truth


def truths(relation, items: Sequence[Sequence[str]], strategy=None) -> List[Optional[bool]]:
    """Truth values for many items in one sweep (``None`` marks a
    conflict instead of raising, so callers can batch-triage)."""
    evaluator = evaluator_for(relation, strategy)
    check = relation.schema.check_item
    return [evaluator.truth(check(item)) for item in items]


def extension_atoms(relation) -> Iterator[Item]:
    """The relation's flat extension, enumerated through one evaluator.

    Same contract as the historical per-item loop — atoms below the
    positive tuples, deduplicated, filtered by binding, conflicted atoms
    raising :class:`AmbiguityError` — at one bitset lookup per atom.
    """
    evaluator = evaluator_for(relation)
    product = relation.schema.product
    seen = set()
    for item, truth in relation.asserted.items():
        if not truth:
            continue
        for atom in product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            answer = evaluator.truth(atom)
            if answer is None:
                _, binders = evaluator.truth_and_binders(atom)
                raise AmbiguityError(atom, [(b.item, b.truth) for b in binders])
            if answer:
                yield atom
