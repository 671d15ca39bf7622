"""Materialized views over hierarchical relations.

A view is a named operator result that callers can query like a stored
relation.  Its answer is its defining query run now: the view remembers
the :meth:`~repro.core.relation.HRelation.stamp` of every source it was
computed from (creation serial, version, product version, strategy) and
recomputes lazily, in full, on the first read after any of them moves.
The engine's query cache decides freshness by the same stamp.

This rounds out the paper's positioning of the model as a back-end for
reasoning systems: the front end "issues less queries to the database"
precisely when the database can keep derived relations fresh itself.

Read-only handles
-----------------
:meth:`MaterializedView.relation` returns a :class:`ViewRelation` — the
cached object itself, guarded so that callers cannot corrupt the cache
by mutating what they were handed.  Use ``view.relation().copy()`` for
a private mutable copy.  The query cache serves its relation results
the same way.

Examples
--------
>>> # flyers = MaterializedView(
>>> #     "penguin_flyers",
>>> #     plan=ViewPlan("select", [flies], {"creature": "penguin"}))
>>> # flyers.relation()                  # computed once ...
>>> # flies.assert_item(("sparrow",))
>>> # flyers.relation()                  # ... recomputed on the next read
>>> # flyers.refresh_count
>>> # 2
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs as _obs
from repro.core import algebra as _algebra
from repro.core.relation import HRelation
from repro.errors import ViewError

#: A view source: a relation, or a zero-argument callable resolving to
#: one (e.g. a catalog lookup, so DROP + CREATE re-binds by name).
Source = Union[HRelation, Callable[[], HRelation]]


class ViewRelation(HRelation):
    """The read-only handle a view or the query cache hands out.

    It *is* the cached relation (no per-access copy), but every mutator
    raises :class:`ViewError`: historically ``view.relation()`` returned
    the live cache, so one stray ``assert_item`` corrupted every later
    read.  ``copy()`` still returns a plain mutable :class:`HRelation`.
    """

    def _refuse(self, operation: str) -> None:
        raise ViewError(
            "{!r} is a cached derived relation; {} would corrupt the "
            "cache.  Mutate its sources, or take a private copy with "
            ".copy() first.".format(self.name, operation)
        )

    def assert_item(self, item, truth: bool = True, replace: bool = False) -> None:
        self._refuse("assert_item")

    def retract(self, item) -> None:
        self._refuse("retract")

    def discard(self, item) -> bool:
        self._refuse("discard")

    def clear(self) -> None:
        self._refuse("clear")

    @classmethod
    def adopt(cls, relation: HRelation, name: str) -> "ViewRelation":
        """Wrap a freshly computed relation (storage is taken over, not
        copied — the input must be private to the caller).  The handle
        has its own creation serial and inherits the memos keyed by
        version, as a copy does."""
        out = cls(relation.schema, name=name, strategy=relation.strategy)
        out._tuples = relation._tuples
        out._version = relation._version
        out._delta_log = relation._delta_log
        out._delta_floor = relation._delta_floor
        out._bulk_eval = relation._bulk_eval
        out._consistent_at = relation._consistent_at
        return out


class ViewPlan:
    """A declarative view definition.

    Parameters
    ----------
    op:
        One of ``select``, ``union``, ``intersection``, ``difference``,
        ``join`` or ``divide``.
    sources:
        One relation for ``select``, two for the binary operators.  Each
        may be a zero-argument callable, resolved on every access — pass
        catalog lookups so the view follows DROP + CREATE by name.
    conditions:
        The attribute -> class mapping for ``select`` (required there,
        forbidden elsewhere).
    """

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

    def compute(self, sources: Sequence[HRelation], name: str) -> HRelation:
        """Run the operator over the resolved ``sources``."""
        if self.op == "select":
            return _algebra.select(sources[0], self.conditions, name=name)
        return self._BINARY[self.op](sources[0], sources[1], name=name)

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
    plan:
        The definition: a :class:`ViewPlan`.  The cache is stale when
        the :meth:`~repro.core.relation.HRelation.stamp` of any source
        moved: a source (or one of its hierarchies) mutated, or a source
        name resolves to a different object.
    """

    def __init__(self, name: str, plan: ViewPlan) -> None:
        self.name = name
        self._plan = plan
        self._source_spec: List[Source] = list(plan.sources)
        self._cached: Optional[ViewRelation] = None
        #: The stamps of the sources the cache was computed from.
        self._computed_at: Optional[Tuple] = None
        self.refresh_count = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _resolve_sources(self) -> List[HRelation]:
        return [s() if callable(s) else s for s in self._source_spec]

    def is_stale(self) -> bool:
        """Would :meth:`relation` recompute right now?"""
        stamps = tuple(source.stamp() for source in self._resolve_sources())
        return stamps != self._computed_at

    def relation(self) -> HRelation:
        """The view's current contents as a read-only handle, recomputed
        only when stale."""
        sources = self._resolve_sources()
        stamps = tuple(source.stamp() for source in sources)
        if stamps == self._computed_at:
            _obs.default_registry().counter("views.serve.fresh").inc()
            return self._cached
        with _obs.span("view.refresh", view=self.name) as sp:
            computed = self._plan.compute(sources, self.name)
            self._cached = ViewRelation.adopt(computed, self.name)
            self._computed_at = stamps
            self.refresh_count += 1
            _obs.default_registry().counter("views.refresh.full").inc()
            sp.annotate(tuples=len(self._cached))
        return self._cached

    def truth_of(self, item) -> bool:
        return self.relation().truth_of(item)

    def extension(self):
        return self.relation().extension()

    def __len__(self) -> int:
        return len(self.relation())

    def __repr__(self) -> str:
        state = "stale" if self.is_stale() else "fresh"
        return "MaterializedView({!r}, {}, {} refreshes)".format(
            self.name, state, self.refresh_count
        )


class ViewRegistry:
    """A named collection of views, e.g. one per database."""

    def __init__(self) -> None:
        self._views: dict[str, MaterializedView] = {}

    def define(self, name: str, plan: ViewPlan) -> MaterializedView:
        if name in self._views:
            raise ValueError("view {!r} already defined".format(name))
        view = MaterializedView(name, plan)
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
