"""Engine-level query-result cache.

The paper positions the hierarchical model as a database back end for
reasoning systems that "issue less queries to the database"; the bulk
evaluator makes a *single* evaluation fast, this cache makes *repeated*
evaluation nearly free.  The read-only HQL statements
that build a result (SELECT, PROJECT, the COMBINE/JOIN family, COUNT)
are keyed by

* a canonical fingerprint of the operator tree — the operator name plus
  its normalized operands (WHERE fingerprints, attribute lists, slice
  bounds), and
* each source relation's :meth:`~repro.core.relation.HRelation.stamp`:
  ``(creation serial, version, product version, strategy)``.

A derived relation is fixed by its sources' stored tuples, their
hierarchies and the binding strategy, and the stamp covers all of
them: every mutation bumps the relation's version, hierarchy mutations
bump the product version, and an object *replaced* under a name (DROP +
CREATE, an alias rebind, in-place CONSOLIDATE/EXPLICATE, LOAD) is a
new object with a new creation serial, even at an equal version.  So a
stale entry can never be served, and nothing invalidates the cache:
entries nobody can reach again age out of the LRU.  Materialized views
(:mod:`repro.core.views`) decide freshness by the same stamp.

Entries hold :class:`~repro.core.views.ViewRelation` results (or plain
scalars for COUNT): read-only handles, handed out as they are on a hit
and on a miss, so a caller cannot corrupt the cache and no result is
copied.  ``.copy()`` gives a private, mutable relation.  The store is a
plain LRU with hit/miss/evict counters; EXPLAIN surfaces the
per-statement ``cache: hit|miss`` status.

TRUTH is not cached: the relation's maintained bulk evaluator already
answers a point question in less time than a lookup takes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry

MISS = object()
"""Sentinel distinguishing "no entry" from a cached falsy payload."""


def cache_key(op: str, operands: Tuple, sources: Sequence) -> Tuple:
    """The canonical cache key for one operator-tree evaluation.

    ``operands`` must already be hashable and canonical (tuples, not
    lists; WHERE trees fingerprinted); ``sources`` are the relations the
    evaluation reads — every one of them, or staleness goes undetected.
    """
    return (op, operands, tuple(relation.stamp() for relation in sources))


class QueryCache:
    """An LRU-bounded store of query results.

    Examples
    --------
    >>> cache = QueryCache(maxsize=2)
    >>> cache.put(("op", (), ()), 42)
    >>> cache.get(("op", (), ()))
    42
    >>> cache.hits, cache.misses
    (1, 0)

    Counters live in a :class:`~repro.obs.MetricsRegistry` under
    ``querycache.*`` — pass the owning database's registry so ``STATS;``
    and the Prometheus exporter see them; a standalone cache gets a
    private one.  ``hits``/``misses``/… remain readable as properties.
    """

    def __init__(
        self,
        maxsize: int = 256,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        #: The server runs read statements on a thread pool under a
        #: shared read lock, so concurrent lookups race each other (and
        #: the LRU reorder is a compound mutation); one short critical
        #: section per operation keeps the store coherent.
        self._lock = threading.RLock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("querycache.hits")
        self._misses = self.registry.counter("querycache.misses")
        self._evictions = self.registry.counter("querycache.evictions")
        self._size = self.registry.gauge("querycache.entries")

    # counter views -- the registry owns the numbers

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self._hits.value + self._misses.value
        return self._hits.value / lookups if lookups else 0.0

    # ------------------------------------------------------------------

    def get(self, key: Tuple) -> object:
        """The cached payload, or :data:`MISS`; counts and touches LRU."""
        with self._lock:
            entry = self._entries.get(key, MISS)
            if entry is MISS:
                self._misses.inc()
                return MISS
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry

    def peek(self, key: Tuple) -> bool:
        """True iff ``key`` is present — no counters, no LRU touch
        (EXPLAIN uses this to report ``cache: hit|miss``)."""
        return key in self._entries

    def put(self, key: Tuple, payload: object) -> None:
        """Store ``payload``, evicting the least recently used entries
        to make room when full."""
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = payload
                return
            while len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._entries[key] = payload
            self._size.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return "QueryCache({} entries, {} hits, {} misses, {} evictions)".format(
            len(self._entries), self.hits, self.misses, self.evictions
        )
