"""The engine query-result cache: the store itself and its executor
wiring (hits, misses, invalidation, transaction bypass, EXPLAIN)."""

import pytest

from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.engine.querycache import MISS, QueryCache, cache_key, source_stamp
from repro.errors import HQLSyntaxError

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE RELATION flies (creature: animal);
CREATE RELATION swims (creature: animal);
ASSERT flies (bird);
ASSERT NOT flies (penguin);
ASSERT swims (penguin);
"""


@pytest.fixture
def db():
    database = HierarchicalDatabase("zoo")
    database.execute(SETUP)
    database.query_cache.clear()
    return database


class TestQueryCacheStore:
    def test_get_put_and_counters(self, db):
        cache = QueryCache()
        key = cache_key("select", ("x",), [db.relation("flies")])
        assert cache.get(key) is MISS
        cache.put(key, "payload", source_names=["flies"])
        assert cache.get(key) == "payload"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, db):
        cache = QueryCache(maxsize=2)
        flies = db.relation("flies")
        keys = [cache_key("select", (i,), [flies]) for i in range(3)]
        cache.put(keys[0], 0)
        cache.put(keys[1], 1)
        assert cache.get(keys[0]) == 0  # touch: key 1 becomes the LRU
        cache.put(keys[2], 2)
        assert cache.get(keys[1]) is MISS
        assert cache.get(keys[0]) == 0
        assert cache.evictions == 1

    def test_a_hit_entry_is_evicted_in_lru_order(self):
        """No entry is protected by its hits: the least recently used
        one goes, whatever it cost or however often it was read."""
        cache = QueryCache(maxsize=2)
        cache.put(("op", 1, ()), 1)
        assert cache.get(("op", 1, ())) == 1
        cache.put(("op", 2, ()), 2)
        cache.put(("op", 3, ()), 3)
        assert cache.evictions == 1
        assert cache.get(("op", 1, ())) is MISS
        assert cache.get(("op", 2, ())) == 2

    def test_maxsize_zero_stores_nothing(self, db):
        cache = QueryCache(maxsize=0)
        key = cache_key("select", (), [db.relation("flies")])
        cache.put(key, "payload")
        assert len(cache) == 0

    def test_invalidate_relation_by_name(self, db):
        cache = QueryCache()
        flies, swims = db.relation("flies"), db.relation("swims")
        k1 = cache_key("select", (), [flies])
        k2 = cache_key("union", (), [flies, swims])
        k3 = cache_key("select", (), [swims])
        for key in (k1, k2, k3):
            cache.put(key, "x", source_names=[s[0] for s in key[2]])
        assert cache.invalidate_relation("flies") == 2
        assert cache.get(k1) is MISS and cache.get(k2) is MISS
        assert cache.get(k3) == "x"

    def test_version_stamp_distinguishes_states(self, db):
        flies = db.relation("flies")
        before = source_stamp(flies)
        flies.assert_item(("tweety",))
        assert source_stamp(flies) != before

    def test_key_collision_safety(self, db):
        """Distinct statements must map to distinct keys even when they
        share an operator and a source relation."""
        flies, swims = db.relation("flies"), db.relation("swims")
        keys = {
            cache_key("select", (("test", "creature", "bird", False),), [flies]),
            cache_key("select", (("test", "creature", "penguin", False),), [flies]),
            cache_key("select", (("test", "creature", "bird", True),), [flies]),
            cache_key("select", (("test", "creature", "bird", False),), [swims]),
            cache_key("union", (), [flies, swims]),
            cache_key("union", (), [swims, flies]),
            cache_key("count", (), [flies]),
            cache_key("count", (("test", "creature", "bird", False),), [flies]),
        }
        assert len(keys) == 8


class TestExecutorIntegration:
    def test_repeat_select_hits(self, db):
        db.execute("SELECT FROM flies WHERE creature = bird;")
        db.execute("SELECT FROM flies WHERE creature = bird;")
        stats = db.query_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_result_equals_fresh(self, db):
        (first,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        (second,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        assert sorted(first.payload.extension()) == sorted(second.payload.extension())

    def test_mutation_invalidates_via_stamp(self, db):
        (before,) = db.execute("COUNT flies WHERE creature = tweety;")
        db.execute("ASSERT NOT flies (tweety);")
        (after,) = db.execute("COUNT flies WHERE creature = tweety;")
        assert (before.payload, after.payload) == (1, 0)
        assert db.query_cache.hits == 0  # the stamp moved: a miss, not a stale hit

    def test_served_copy_is_isolated(self, db):
        (first,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        first.payload.clear()  # vandalise the handed-out copy
        (second,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        assert len(list(second.payload.extension())) > 0

    def test_truth_and_count_cached(self, db):
        """Only COUNT of the two is cached; TRUTH reads the evaluator."""
        db.execute("TRUTH flies (paul); TRUTH flies (paul);")
        db.execute("COUNT flies; COUNT flies;")
        assert db.query_cache.stats()["hits"] == 1

    def test_truth_never_touches_the_cache(self, db):
        before = db.query_cache.stats()
        results = db.execute("TRUTH flies (tweety); TRUTH flies (tweety);")
        assert [r.payload for r in results] == [True, True]
        db.execute("ASSERT NOT flies (tweety);")
        (after,) = db.execute("TRUTH flies (tweety);")
        assert after.payload is False
        stats = db.query_cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (
            before["hits"],
            before["misses"],
            before["entries"],
        )

    def test_transaction_bypasses_cache(self, db):
        session = HQLExecutor(db)
        session.run("SELECT FROM flies WHERE creature = bird;")
        baseline = db.query_cache.stats()
        session.run("BEGIN;")
        session.run("SELECT FROM flies WHERE creature = bird;")
        session.run("COMMIT;")
        stats = db.query_cache.stats()
        assert (stats["hits"], stats["misses"]) == (
            baseline["hits"],
            baseline["misses"],
        )

    def test_drop_and_recreate_invalidates(self, db):
        db.execute("SELECT FROM flies WHERE creature = bird;")
        db.execute("DROP RELATION flies;")
        db.execute("CREATE RELATION flies (creature: animal);")
        (result,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        assert list(result.payload.extension()) == []

    def test_alias_overwrite_invalidates(self, db):
        db.execute("SELECT FROM flies WHERE creature = bird AS picked;")
        (before,) = db.execute("COUNT picked WHERE creature = tweety;")
        db.execute("SELECT FROM swims WHERE creature = penguin AS picked;")
        (after,) = db.execute("COUNT picked WHERE creature = tweety;")
        assert (before.payload, after.payload) == (1, 0)

    def test_explain_reports_hit_and_miss(self, db):
        (miss,) = db.execute("EXPLAIN SELECT FROM flies WHERE creature = bird;")
        assert "cache: miss" in miss.message
        (hit,) = db.execute("EXPLAIN SELECT FROM flies WHERE creature = bird;")
        assert "cache: hit" in hit.message
        db.execute("ASSERT flies (tweety);")
        (again,) = db.execute("EXPLAIN SELECT FROM flies WHERE creature = bird;")
        assert "cache: miss" in again.message

    def test_explain_truth_names_no_cache(self, db):
        """EXPLAIN names the decisions taken.  TRUTH takes no plan or
        cache decision, so EXPLAIN refuses it outright instead of
        printing a ``cache:`` line; SELECT still reports one."""
        with pytest.raises(HQLSyntaxError, match="EXPLAIN supports"):
            db.execute("EXPLAIN TRUTH flies (tweety);")
        (select,) = db.execute("EXPLAIN SELECT FROM flies WHERE creature = bird;")
        assert "cache: miss" in select.message
