"""Engine-level query-result cache.

The paper positions the hierarchical model as a database back end for
reasoning systems that "issue less queries to the database"; the bulk
and bitset layers (PRs 1-2) made a *single* evaluation fast, this cache
makes *repeated* evaluation nearly free.  Every read-only HQL statement
(SELECT, PROJECT, the COMBINE/JOIN family, TRUTH, COUNT) is keyed by

* a canonical fingerprint of the operator tree — the operator name plus
  its normalized operands (relation names, WHERE fingerprints,
  attribute lists), and
* one *stamp* per source relation: ``(name, relation.version,
  product.version, strategy)``.

Because every mutation bumps the relation's version (and hierarchy
mutations bump the product version), a stale entry can never be served:
its stamp simply no longer matches.  The stamps make invalidation
implicit for DML; DDL that *replaces* an object under an existing name
(DROP + CREATE, consolidate/explicate in place, LOAD) resets version
counters and must call :meth:`QueryCache.invalidate_relation` — the
:class:`~repro.engine.database.HierarchicalDatabase` hooks do.

Entries hold :class:`~repro.core.relation.HRelation` results (or plain
scalars for TRUTH/COUNT).  Relation payloads are stored as private
copies and served as copies, so a caller mutating a result can never
corrupt the cache.  The store is LRU-bounded and keeps hit/miss/evict
counters; EXPLAIN surfaces the per-statement ``cache: hit|miss`` status.

Admission is cost-aware (:class:`CacheAdmission`, reading the cache's
registry).  While the store has free space every payload is admitted —
caching a cheap result costs nothing then.  Under eviction pressure
the policy earns its keep: a payload whose compute cost is below the
admission floor is *rejected* (counted under ``querycache.rejected``)
instead of evicting something, and eviction scans pass over *pinned*
entries — hot (hit at least once) and expensive ones — while any
unpinned victim exists.  Cheap-query churn therefore stops flushing
the entries that are actually worth keeping.  A payload put without
``cost_ms`` is always admitted and never pinned.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry

MISS = object()
"""Sentinel distinguishing "no entry" from a cached falsy payload."""

#: A query cheaper than this produced its answer in about the time a
#: cache lookup + payload copy takes: storing it under eviction
#: pressure can only evict something more valuable.
ADMIT_FLOOR_MS = 0.05
#: An entry at least this expensive that has also *hit* at least once
#: is pinned: eviction passes over it while any unpinned victim exists.
PIN_COST_MS = 1.0


class CacheAdmission:
    """The query cache's admission + pinning policy.

    ``registry`` is the owning database's metrics registry: the
    admission floor adapts to the observed ``hql.statement.ms``
    distribution once enough statements have been timed (a deployment
    whose cheapest statements take 5 ms should not hoard 0.1 ms
    entries just because the default floor is lower).  A payload
    stored without a measured cost fails open: always admitted, never
    pinned.
    """

    def __init__(self, registry=None) -> None:
        self.registry = registry

    def _floor_ms(self) -> float:
        floor = ADMIT_FLOOR_MS
        if self.registry is not None:
            histogram = self.registry.histogram("hql.statement.ms")
            if histogram.count >= 200:
                floor = min(max(floor, 0.02 * histogram.mean), 10.0 * floor)
        return floor

    def admit(self, cost_ms: Optional[float]) -> bool:
        """Called only under eviction pressure: is this payload worth
        evicting something for?"""
        if cost_ms is None:
            return True
        return cost_ms >= self._floor_ms()

    def pin(self, cost_ms: Optional[float], hits: int) -> bool:
        """Hot (hit at least once) *and* expensive entries survive
        eviction scans while any unpinned victim exists."""
        if cost_ms is None:
            return False
        return hits >= 1 and cost_ms >= PIN_COST_MS


def source_stamp(relation) -> Tuple:
    """The freshness stamp of one source relation.

    ``relation.version`` moves on every tuple mutation, the product
    version on every hierarchy mutation, and the strategy name guards
    against in-place strategy reassignment (which bumps no counter).
    """
    return (
        relation.name,
        relation.version,
        tuple(relation.schema.product.version),
        relation.strategy.name,
    )


def cache_key(op: str, operands: Tuple, sources: Sequence) -> Tuple:
    """The canonical cache key for one operator-tree evaluation.

    ``operands`` must already be hashable and canonical (tuples, not
    lists; WHERE trees fingerprinted); ``sources`` are the relations the
    evaluation reads — every one of them, or staleness goes undetected.
    """
    return (op, operands, tuple(source_stamp(r) for r in sources))


class QueryCache:
    """An LRU-bounded store of query results with per-relation indexing.

    Examples
    --------
    >>> cache = QueryCache(maxsize=2)
    >>> cache.put(("op", (), ()), 42, source_names=["r"])
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
        #: key -> [cost_ms, hits] bookkeeping for admission + pinning
        self._meta: Dict[Tuple, list] = {}
        #: relation name -> keys of entries that read it (invalidation index)
        self._by_source: Dict[str, set] = {}
        #: The server runs read statements on a thread pool under a
        #: shared read lock, so concurrent lookups race each other (and
        #: the LRU reorder is a compound mutation); one short critical
        #: section per operation keeps the store coherent.
        self._lock = threading.RLock()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Cost-aware admission/pinning policy.  A payload stored without
        #: ``cost_ms`` is always admitted and never pinned (plain LRU).
        self.admission = CacheAdmission(self.registry)
        self._hits = self.registry.counter("querycache.hits")
        self._misses = self.registry.counter("querycache.misses")
        self._evictions = self.registry.counter("querycache.evictions")
        self._invalidations = self.registry.counter("querycache.invalidations")
        self._rejected = self.registry.counter("querycache.rejected")
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
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def rejected(self) -> int:
        return self._rejected.value

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
            meta = self._meta.get(key)
            if meta is not None:
                meta[1] += 1
            return entry

    def peek(self, key: Tuple) -> bool:
        """True iff ``key`` is present — no counters, no LRU touch
        (EXPLAIN uses this to report ``cache: hit|miss``)."""
        return key in self._entries

    def put(
        self,
        key: Tuple,
        payload: object,
        source_names: Iterable[str] = (),
        cost_ms: Optional[float] = None,
    ) -> None:
        """Store ``payload``; evicts to make room when full.

        ``cost_ms`` is what computing the payload took; it decides,
        under eviction pressure only, whether the payload is worth an
        eviction at all and which resident entries are pinned against
        being the victim.
        ``source_names`` feed the invalidation index.
        """
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = payload
                if cost_ms is not None:
                    self._meta.setdefault(key, [None, 0])[0] = cost_ms
                return
            if len(self._entries) >= self.maxsize and not self.admission.admit(cost_ms):
                self._rejected.inc()
                return
            while len(self._entries) >= self.maxsize:
                evicted_key = self._victim()
                del self._entries[evicted_key]
                self._meta.pop(evicted_key, None)
                self._unindex(evicted_key)
                self._evictions.inc()
            self._entries[key] = payload
            self._meta[key] = [cost_ms, 0]
            self._size.set(len(self._entries))
            for name in source_names:
                self._by_source.setdefault(name, set()).add(key)

    def _victim(self) -> Tuple:
        """The eviction victim: the least recently used *unpinned*
        entry, falling back to plain LRU when everything is pinned (the
        cache must never refuse to make room for an admitted entry)."""
        first = None
        for key in self._entries:
            if first is None:
                first = key
            cost_ms, hits = self._meta.get(key, (None, 0))
            if not self.admission.pin(cost_ms, hits):
                return key
        return first

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate_relation(self, name: str) -> int:
        """Drop every entry that read relation ``name``; returns how
        many.  Needed only when an object is *replaced* under an
        existing name (version counters restart there); ordinary DML is
        handled by the version stamps."""
        with self._lock:
            keys = self._by_source.pop(name, None)
            if not keys:
                return 0
            dropped = 0
            for key in keys:
                if self._entries.pop(key, MISS) is not MISS:
                    dropped += 1
                self._meta.pop(key, None)
                self._unindex(key, skip=name)
            self._invalidations.inc(dropped)
            self._size.set(len(self._entries))
            return dropped

    def clear(self) -> None:
        with self._lock:
            self._invalidations.inc(len(self._entries))
            self._entries.clear()
            self._meta.clear()
            self._by_source.clear()
            self._size.set(0)

    def _unindex(self, key: Tuple, skip: Optional[str] = None) -> None:
        for name, keys in list(self._by_source.items()):
            if name == skip:
                continue
            keys.discard(key)
            if not keys:
                del self._by_source[name]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return "QueryCache({} entries, {} hits, {} misses, {} evictions)".format(
            len(self._entries), self.hits, self.misses, self.evictions
        )


def key_source_names(key: Tuple) -> List[str]:
    """The relation names a cache key's stamps reference (for callers
    that index entries themselves)."""
    return [stamp[0] for stamp in key[2]]
