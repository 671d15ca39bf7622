"""Engine-level query-result cache.

The paper positions the hierarchical model as a database back end for
reasoning systems that "issue less queries to the database"; the bulk
and bitset layers (PRs 1-2) made a *single* evaluation fast, this cache
makes *repeated* evaluation nearly free.  The read-only HQL statements
that build a result (SELECT, PROJECT, the COMBINE/JOIN family, COUNT)
are keyed by

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
scalars for COUNT).  Relation payloads are stored as private copies and
served as copies, so a caller mutating a result can never corrupt the
cache.  The store is a plain LRU with hit/miss/evict counters; EXPLAIN
surfaces the per-statement ``cache: hit|miss`` status.

TRUTH is not cached: the relation's maintained bulk evaluator already
answers a point question in less time than a lookup plus copy takes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry

MISS = object()
"""Sentinel distinguishing "no entry" from a cached falsy payload."""


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
        #: relation name -> keys of entries that read it (invalidation index)
        self._by_source: Dict[str, set] = {}
        #: The server runs read statements on a thread pool under a
        #: shared read lock, so concurrent lookups race each other (and
        #: the LRU reorder is a compound mutation); one short critical
        #: section per operation keeps the store coherent.
        self._lock = threading.RLock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("querycache.hits")
        self._misses = self.registry.counter("querycache.misses")
        self._evictions = self.registry.counter("querycache.evictions")
        self._invalidations = self.registry.counter("querycache.invalidations")
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

    def put(
        self,
        key: Tuple,
        payload: object,
        source_names: Iterable[str] = (),
    ) -> None:
        """Store ``payload``, evicting the least recently used entries
        to make room when full.  ``source_names`` feed the invalidation
        index."""
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = payload
                return
            while len(self._entries) >= self.maxsize:
                evicted_key, _ = self._entries.popitem(last=False)
                self._unindex(evicted_key)
                self._evictions.inc()
            self._entries[key] = payload
            self._size.set(len(self._entries))
            for name in source_names:
                self._by_source.setdefault(name, set()).add(key)

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
                self._unindex(key, skip=name)
            self._invalidations.inc(dropped)
            self._size.set(len(self._entries))
            return dropped

    def clear(self) -> None:
        with self._lock:
            self._invalidations.inc(len(self._entries))
            self._entries.clear()
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
