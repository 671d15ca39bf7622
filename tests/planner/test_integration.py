"""What is left of the planner in HQL: no SET, no planner block in
STATS, an EXPLAIN that names only the decisions actually taken, and
the query cache's admission policy under pressure."""

import pytest

from repro.engine.database import HierarchicalDatabase
from repro.engine.hql.executor import HQLExecutor
from repro.engine.querycache import QueryCache
from repro.errors import HQLError

SCHEMA = """
CREATE HIERARCHY dom ROOT dom;
CREATE CLASS c0 IN dom UNDER dom;
CREATE CLASS c1 IN dom UNDER dom;
CREATE INSTANCE c0i IN dom UNDER c0;
CREATE INSTANCE c1i IN dom UNDER c1;
CREATE RELATION likes (a: dom, b: dom);
ASSERT likes (c0, c1);
ASSERT likes (c1i, c0i);
"""


@pytest.fixture
def executor():
    database = HierarchicalDatabase()
    ex = HQLExecutor(database)
    ex.run(SCHEMA)
    yield ex
    ex.close()


def test_set_planner_is_rejected(executor):
    # There is no execution knob, so there is no SET statement: it fails
    # at parse time, still as a typed HQL error, and the session survives.
    for statement in ("SET PLANNER OFF;", "SET PARALLEL 2;"):
        with pytest.raises(HQLError, match="unknown statement 'SET'"):
            executor.run(statement)
        assert executor.run("TRUTH likes (c0i, c1i);")[0].payload is True


def test_explain_names_only_decisions_taken(executor):
    # Binding path per input, consolidation mode and cache status; no
    # estimate line, traced or not.
    for statement in ("EXPLAIN UNION likes WITH likes;", "EXPLAIN ANALYZE INTERSECT likes WITH likes;"):
        message = executor.run(statement)[0].message
        assert "input likes: 2 stored tuple(s), strategy=off-path, posting sweep" in message
        assert "consolidation: fused into the bitset emission sweep" in message
        assert "cache: miss" in message
        assert "estimate" not in message and "est_candidates" not in message
    assert "planner" not in executor.run("STATS;")[0].payload


def test_cache_admits_everything_while_not_full():
    cache = QueryCache(maxsize=8)
    for i in range(8):
        cache.put(("op", i, ()), i, cost_ms=0.0001)
    assert len(cache) == 8
    assert cache.rejected == 0


def test_cache_rejects_cheap_payloads_under_pressure():
    cache = QueryCache(maxsize=2)
    cache.put(("op", 1, ()), 1, cost_ms=5.0)
    cache.put(("op", 2, ()), 2, cost_ms=5.0)
    cache.put(("op", 3, ()), 3, cost_ms=0.0001)  # cheaper than a lookup
    assert cache.rejected == 1
    assert cache.evictions == 0
    assert len(cache) == 2
    cache.put(("op", 4, ()), 4, cost_ms=5.0)  # expensive: evicts LRU
    assert cache.evictions == 1


def test_cache_eviction_passes_over_pinned_entries():
    from repro.engine.querycache import MISS

    cache = QueryCache(maxsize=2)
    cache.put(("hot",), "expensive", cost_ms=50.0)
    assert cache.get(("hot",)) == "expensive"  # hit: now hot + expensive
    cache.put(("cold",), "cheap-but-kept", cost_ms=2.0)
    cache.put(("new",), "payload", cost_ms=9.0)
    # LRU order would evict "hot"; pinning diverts the eviction to the
    # unpinned "cold" entry instead.
    assert cache.get(("hot",)) == "expensive"
    assert cache.get(("cold",)) is MISS


def test_cache_falls_back_to_lru_when_everything_is_pinned():
    cache = QueryCache(maxsize=2)
    for key in ("a", "b"):
        cache.put((key,), key, cost_ms=50.0)
        assert cache.get((key,)) == key
    cache.put(("c",), "c", cost_ms=50.0)  # all pinned: plain LRU wins
    assert len(cache) == 2
    assert cache.evictions == 1


def test_costless_puts_are_plain_lru():
    from repro.engine.querycache import MISS

    cache = QueryCache(maxsize=2)
    cache.put(("op", 1, ()), 1)
    assert cache.get(("op", 1, ())) == 1  # a hit never pins a costless entry
    cache.put(("op", 2, ()), 2)
    cache.put(("op", 3, ()), 3)  # no cost: admitted, evicts the LRU entry
    assert cache.rejected == 0
    assert cache.evictions == 1
    assert cache.get(("op", 1, ())) is MISS


def test_database_wires_admission_into_its_cache():
    db = HierarchicalDatabase("wired")
    assert db.query_cache.admission.registry is db.metrics


def test_executor_records_cost_on_cached_statements(executor):
    executor.run("SELECT FROM likes WHERE a = c0;")
    cache = executor.database.query_cache
    assert len(cache) == 1
    (meta,) = cache._meta.values()
    assert meta[0] is not None and meta[0] > 0  # cost_ms recorded


def test_server_stats_payload_has_no_planner_block():
    from repro.server.admin import stats_payload
    from repro.tenants import TenantRegistry

    class _Lock:
        readers = 0
        max_concurrent_readers = 0
        writer_active = False

    class _Server:
        database = HierarchicalDatabase("s")
        registry = TenantRegistry.memory(database)
        started_at = 0.0
        sessions = {}
        lock = _Lock()
        draining = False
        recovery = None

        def _tenant_cursors(self, tenant):
            return 0

    payload = stats_payload(_Server())
    assert "planner" not in payload
    assert payload["tenants"][0]["name"] == "default"
