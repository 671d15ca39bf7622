"""Materialized views over hierarchical relations, with delta refresh.

A view is a named operator result that callers can query like a stored
relation; because every layer of this library is versioned (relations
bump a counter per mutation, hierarchies too), the view can tell
precisely when its cache is stale and recompute lazily.

This rounds out the paper's positioning of the model as a back-end for
reasoning systems: the front end "issues less queries to the database"
precisely when the database can keep derived relations fresh itself.

Two refresh paths
-----------------
Views defined through a :class:`ViewPlan` over the *pointwise* operators
(select, union, intersection, difference) keep the full
pre-consolidation candidate pool of the last recompute — every
meet-closure item with its combined truth value.  When a source mutates,
the view replays the source's delta log (:meth:`HRelation.
changes_since`) and re-evaluates only the candidates inside the union of
the mutated items' descendant cones (the *changed cones*, tested in bulk
via :func:`repro.core.bulk.cover_masks`), patching the cached relation
in place.  Correctness: a tuple at item *x* can influence exactly the
queries at items below *x*, so every candidate whose truth could have
moved is covered by some changed item; new meet candidates introduced by
the change are themselves below a changed item, hence also covered.

Everything else falls back to a full recompute: plans over join or
divide (their candidate sets are not patchable cone-locally), legacy
``compute=`` callables, hierarchy or strategy changes, exhausted delta
logs, replaced source objects, oversized change batches, and a changed
cone touching most of the pool (where full recompute is cheaper anyway).

Read-only handles
-----------------
:meth:`MaterializedView.relation` returns a :class:`ViewRelation` — the
cached object itself, guarded so that callers cannot corrupt the cache
by mutating what they were handed.  Use ``view.relation().copy()`` for
a private mutable copy.

Examples
--------
>>> # flyers = MaterializedView(
>>> #     "penguin_flyers",
>>> #     plan=ViewPlan("select", [flies], {"creature": "penguin"}))
>>> # flyers.relation()                  # computed once ...
>>> # flies.assert_item(("sparrow",))
>>> # flyers.relation()                  # ... patched, not recomputed
>>> # flyers.delta_refresh_count
>>> # 1
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro import obs as _obs
from repro.core import algebra as _algebra
from repro.core import bulk as _bulk
from repro.core.relation import HRelation
from repro.errors import ViewError
from repro.hierarchy.product import Item

#: A view source: a relation, or a zero-argument callable resolving to
#: one (e.g. a catalog lookup, so DROP + CREATE re-binds by name).
Source = Union[HRelation, Callable[[], HRelation]]


def _stamp(sources: Sequence[HRelation]) -> Tuple:
    return tuple(
        (r.version, r.schema.product.version, r.strategy.name) for r in sources
    )


def _is_bottom(schema, item: Item) -> bool:
    """True iff ``item`` has no strict descendant in any attribute — its
    cone is itself, so it covers nothing else and meets nothing new.
    The delta path skips the whole-hierarchy posting sweeps for such
    items, making instance-level churn O(pool) instead of O(hierarchy)."""
    return all(
        hierarchy.descendant_mask(value).bit_count() == 1
        for hierarchy, value in zip(schema.hierarchies, item)
    )


class ViewRelation(HRelation):
    """The read-only handle a view hands out.

    It *is* the cached relation (no per-access copy), but every mutator
    raises :class:`ViewError`: historically ``view.relation()`` returned
    the live cache, so one stray ``assert_item`` corrupted every later
    read.  ``copy()`` still returns a plain mutable :class:`HRelation`.
    The view's own delta-refresh path patches through the base class on
    purpose.
    """

    _frozen = False

    def _refuse(self, operation: str) -> None:
        raise ViewError(
            "{!r} is a materialized-view result; {} would corrupt the view "
            "cache.  Mutate the view's sources, or take a private copy "
            "with .copy() first.".format(self.name, operation)
        )

    def assert_item(self, item, truth: bool = True, replace: bool = False) -> None:
        if self._frozen:
            self._refuse("assert_item")
        HRelation.assert_item(self, item, truth=truth, replace=replace)

    def retract(self, item) -> None:
        if self._frozen:
            self._refuse("retract")
        HRelation.retract(self, item)

    def discard(self, item) -> bool:
        if self._frozen:
            self._refuse("discard")
        return HRelation.discard(self, item)

    def clear(self) -> None:
        if self._frozen:
            self._refuse("clear")
        HRelation.clear(self)

    @classmethod
    def adopt(cls, relation: HRelation, name: str) -> "ViewRelation":
        """Wrap a freshly computed relation (storage is taken over, not
        copied — the input must be private to the caller)."""
        out = cls(relation.schema, name=name, strategy=relation.strategy)
        out._tuples = relation._tuples
        out._version = relation._version
        out._delta_log = relation._delta_log
        out._delta_floor = relation._delta_floor
        out._frozen = True
        return out


class ViewPlan:
    """A declarative view definition the engine can refresh incrementally.

    Parameters
    ----------
    op:
        One of ``select``, ``union``, ``intersection``, ``difference``
        (delta-capable) or ``join``, ``divide`` (always fully
        recomputed).
    sources:
        One relation for ``select``, two for the binary operators.  Each
        may be a zero-argument callable, resolved on every access — pass
        catalog lookups so the view follows DROP + CREATE by name.
    conditions:
        The attribute -> class mapping for ``select`` (required there,
        forbidden elsewhere).
    """

    #: Operators whose candidate pool the delta path can patch in place.
    DELTA_OPS = frozenset({"select", "union", "intersection", "difference"})

    _BINARY = {
        "union": _algebra.union,
        "intersection": _algebra.intersection,
        "difference": _algebra.difference,
        "join": _algebra.join,
        "divide": _algebra.divide,
    }

    def __init__(
        self,
        op: str,
        sources: Sequence[Source],
        conditions: Optional[Mapping[str, str]] = None,
    ) -> None:
        op = op.lower()
        if op == "select":
            if len(sources) != 1:
                raise ValueError("a select plan takes exactly one source")
            if not conditions:
                raise ValueError(
                    "a select plan needs a non-empty conditions mapping "
                    "(an unconditioned select is just the source)"
                )
        elif op in self._BINARY:
            if len(sources) != 2:
                raise ValueError("a {} plan takes exactly two sources".format(op))
            if conditions:
                raise ValueError("conditions only apply to select plans")
        else:
            raise ValueError(
                "unknown view operator {!r}; expected one of {}".format(
                    op, sorted(self._BINARY) + ["select"]
                )
            )
        self.op = op
        self.sources: List[Source] = list(sources)
        self.conditions = dict(conditions) if conditions else None

    @property
    def delta_capable(self) -> bool:
        return self.op in self.DELTA_OPS

    def compute(
        self, sources: Sequence[HRelation], name: str, capture: Optional[Dict] = None
    ) -> HRelation:
        """Run the operator fully; ``capture`` receives the candidate
        pool when the operator is delta-capable."""
        if self.op == "select":
            return _algebra.select(
                sources[0], self.conditions, name=name, capture=capture
            )
        fn = self._BINARY[self.op]
        if self.op in ("join", "divide"):
            return fn(sources[0], sources[1], name=name)
        return fn(sources[0], sources[1], name=name, capture=capture)

    def truth_fn(self) -> Callable[..., bool]:
        """The pointwise boolean the operator combines truths with."""
        return {
            "select": lambda a, b: a and b,
            "union": lambda a, b: a or b,
            "intersection": lambda a, b: a and b,
            "difference": lambda a, b: a and not b,
        }[self.op]

    def evaluators(self, sources: Sequence[HRelation]) -> List[object]:
        """Current truth evaluators mirroring the full operator's inputs."""
        if self.op == "select":
            schema = sources[0].schema
            cone = schema.item_from_mapping(dict(self.conditions), default_top=True)
            return [
                _bulk.evaluator_for(sources[0]),
                _bulk.ConeEvaluator(schema.product, cone),
            ]
        return [_bulk.evaluator_for(source) for source in sources]

    def __repr__(self) -> str:
        return "ViewPlan({!r}, {} sources{})".format(
            self.op,
            len(self.sources),
            ", conditions={}".format(self.conditions) if self.conditions else "",
        )


class MaterializedView:
    """A lazily-refreshed cached computation over source relations.

    Parameters
    ----------
    name:
        The view's name (stamped onto the cached relation).
    compute:
        Legacy definition: a zero-argument callable producing an
        :class:`HRelation`.  Always fully recomputed when stale.
    sources:
        With ``compute``: every relation the callable reads.  The cache
        is invalidated when any source (or any of its hierarchies)
        mutates; listing too few sources silently serves stale data, so
        list them all.
    plan:
        Declarative definition: a :class:`ViewPlan`.  Mutually exclusive
        with ``compute`` and required for delta refresh.
    """

    #: Delta refresh gives up beyond this many distinct changed items
    #: per refresh (a batch that large is close to a rebuild anyway).
    delta_change_limit = 64

    #: Full-recompute trigger: the pool may grow to at most this many
    #: times its size at the last full refresh before being rebuilt.
    pool_growth_limit = 4

    def __init__(
        self,
        name: str,
        compute: Optional[Callable[[], HRelation]] = None,
        sources: Sequence[Source] = (),
        plan: Optional[ViewPlan] = None,
    ) -> None:
        if (compute is None) == (plan is None):
            raise ValueError("provide exactly one of compute= or plan=")
        self.name = name
        self._compute = compute
        self._plan = plan
        self._source_spec: List[Source] = (
            list(plan.sources) if plan is not None else list(sources)
        )
        self._cached: Optional[ViewRelation] = None
        self._stamp: Optional[Tuple] = None
        #: Pre-consolidation candidate pool of the last full refresh
        #: (item -> combined truth); ``None`` when delta is unavailable.
        self._pool: Optional[Dict[Item, bool]] = None
        self._pool_order: Optional[List[Item]] = None
        self._full_size = 0
        #: Per-source ``relation.version`` cursor into the delta logs.
        self._cursors: Optional[List[int]] = None
        self.refresh_count = 0
        self.delta_refresh_count = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _resolve_sources(self) -> List[HRelation]:
        return [s() if callable(s) else s for s in self._source_spec]

    def is_stale(self) -> bool:
        """Would :meth:`relation` refresh (delta or full) right now?"""
        return self._cached is None or self._stamp != _stamp(self._resolve_sources())

    def relation(self) -> HRelation:
        """The view's current contents as a read-only handle, refreshed
        only when stale — incrementally when the plan allows it."""
        sources = self._resolve_sources()
        stamp = _stamp(sources)
        if self._cached is not None and stamp == self._stamp:
            _obs.default_registry().counter("views.serve.fresh").inc()
            return self._cached
        with _obs.span("view.refresh", view=self.name) as sp:
            if self._try_delta(sources, stamp):
                _obs.default_registry().counter("views.refresh.delta").inc()
                sp.annotate(mode="delta", tuples=len(self._cached))
                return self._cached
            self._full_refresh(sources, stamp)
            _obs.default_registry().counter("views.refresh.full").inc()
            sp.annotate(mode="full", tuples=len(self._cached))
        return self._cached

    def invalidate(self) -> None:
        """Force the next access to fully recompute (e.g. after an
        effectful change the stamps cannot see)."""
        self._cached = None
        self._stamp = None
        self._pool = None
        self._pool_order = None
        self._cursors = None

    def truth_of(self, item) -> bool:
        return self.relation().truth_of(item)

    def extension(self):
        return self.relation().extension()

    def __len__(self) -> int:
        return len(self.relation())

    def __repr__(self) -> str:
        state = "stale" if self.is_stale() else "fresh"
        return "MaterializedView({!r}, {}, {} refreshes, {} delta)".format(
            self.name, state, self.refresh_count, self.delta_refresh_count
        )

    # ------------------------------------------------------------------
    # refresh machinery
    # ------------------------------------------------------------------

    def _full_refresh(self, sources: Sequence[HRelation], stamp: Tuple) -> None:
        capture: Optional[Dict] = (
            {} if (self._plan is not None and self._plan.delta_capable) else None
        )
        if self._plan is not None:
            computed = self._plan.compute(sources, self.name, capture=capture)
        else:
            computed = self._compute()
        self._cached = ViewRelation.adopt(computed, self.name)
        if capture and "candidates" in capture:
            self._pool = dict(zip(capture["candidates"], capture["truths"]))
            self._pool_order = list(capture["candidates"])
            self._full_size = len(self._pool_order)
        else:
            self._pool = None
            self._pool_order = None
            self._full_size = 0
        self._stamp = stamp
        self._cursors = [source.version for source in sources]
        self.refresh_count += 1

    def _try_delta(self, sources: Sequence[HRelation], stamp: Tuple) -> bool:
        """Attempt an in-place patch; False falls through to a full
        recompute (the fallback matrix in the module docstring)."""
        if (
            self._plan is None
            or not self._plan.delta_capable
            or self._cached is None
            or self._pool is None
            or self._stamp is None
            or self._cursors is None
            or len(self._stamp) != len(stamp)
        ):
            return False
        for old, new in zip(self._stamp, stamp):
            if old[1:] != new[1:]:  # hierarchy or strategy changed
                return False
        changed: List[Item] = []
        seen: Set[Item] = set()
        for source, cursor in zip(sources, self._cursors):
            if source.version < cursor:  # object replaced under the name
                return False
            delta = source.changes_since(cursor)
            if delta is None:  # history trimmed or wiped
                return False
            for item in delta:
                if item not in seen:
                    seen.add(item)
                    changed.append(item)
        if not changed or len(changed) > self.delta_change_limit:
            return False
        if len(self._pool_order) > max(32, self.pool_growth_limit * self._full_size):
            return False
        if not self._apply_delta(sources, changed):
            return False
        self._stamp = stamp
        self._cursors = [source.version for source in sources]
        self.delta_refresh_count += 1
        return True

    def _apply_delta(self, sources: Sequence[HRelation], changed: List[Item]) -> bool:
        schema = self._cached.schema
        product = schema.product
        pool = self._pool
        order = self._pool_order
        base_len = len(order)

        # 1. Close the changed items into the candidate pool: every new
        #    meet they (transitively) introduce lies inside a changed
        #    cone, so the pool stays a superset of the full candidate
        #    set.  The overlap mask prunes disjoint pairs before any
        #    meet probe.
        frontier = [item for item in changed if item not in pool]
        pending: Set[Item] = set(frontier)
        while frontier:
            for item in frontier:
                pool[item] = None
                order.append(item)
            # A bottom item's cone is itself, so its meet with anything
            # is itself (already pooled) or empty — only non-bottom
            # items can introduce new candidates and need the probe.
            probe = [item for item in frontier if not _is_bottom(schema, item)]
            next_frontier: List[Item] = []
            if probe:
                masks = _bulk.overlap_masks(schema, probe, order)
                for item, mask in zip(probe, masks):
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        other = order[low.bit_length() - 1]
                        if other == item:
                            continue
                        for met in product.meet(item, other):
                            if met not in pool and met not in pending:
                                pending.add(met)
                                next_frontier.append(met)
            frontier = next_frontier

        # 2. The affected region: every candidate inside some changed
        #    item's descendant cone (all newly added ones qualify).  A
        #    bottom item covers exactly itself, so only non-bottom
        #    changes pay the posting sweep over the pool.
        generals = [item for item in changed if not _is_bottom(schema, item)]
        if generals:
            masks = _bulk.cover_masks(schema, generals, order)
            affected = [item for item, mask in zip(order, masks) if mask]
        else:
            affected = []
        covered = set(affected)
        for item in changed:
            if item not in covered and item in pool:
                covered.add(item)
                affected.append(item)
        if len(affected) > len(order) // 2 and len(order) > 32:
            self._rollback(base_len)
            return False  # touching most of the pool: rebuild instead

        # 3. Re-evaluate only the affected candidates, through the
        #    sources' evaluators (advanced by the same delta, not rebuilt).
        truths: List[bool] = []
        evaluators = self._plan.evaluators(sources)
        fn = self._plan.truth_fn()
        for item in affected:
            row: List[bool] = []
            for evaluator in evaluators:
                truth = evaluator.truth(item)
                if truth is None:  # conflict: let the full path raise it
                    self._rollback(base_len)
                    return False
                row.append(truth)
            truths.append(fn(*row))

        # 4. Patch the cached relation in place.  The frozen handle is
        #    bypassed through the base class on purpose; re-asserting an
        #    unchanged truth is a no-op, so only moved items mutate.
        cached = self._cached
        for item, truth in zip(affected, truths):
            pool[item] = truth
            HRelation.assert_item(cached, item, truth=truth, replace=True)
        return True

    def _rollback(self, base_len: int) -> None:
        for item in self._pool_order[base_len:]:
            del self._pool[item]
        del self._pool_order[base_len:]


class ViewRegistry:
    """A named collection of views, e.g. one per database."""

    def __init__(self) -> None:
        self._views: dict[str, MaterializedView] = {}

    def define(
        self,
        name: str,
        compute: Optional[Callable[[], HRelation]] = None,
        sources: Sequence[Source] = (),
        plan: Optional[ViewPlan] = None,
    ) -> MaterializedView:
        if name in self._views:
            raise ValueError("view {!r} already defined".format(name))
        view = MaterializedView(name, compute=compute, sources=sources, plan=plan)
        self._views[name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        return self._views[name]

    def drop(self, name: str) -> None:
        del self._views[name]

    def names(self) -> List[str]:
        return sorted(self._views)

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)
