"""The engine query-result cache: the store itself and its executor
wiring (hits, misses, stamps, read-only results, transaction bypass,
EXPLAIN)."""

import pytest

from repro.core.views import ViewRelation
from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.engine.querycache import MISS, QueryCache, cache_key
from repro.errors import HQLSyntaxError, ViewError

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
        cache.put(key, "payload")
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

    def test_drop_and_create_at_equal_version_misses(self, db):
        """A relation replaced under its name at an equal version keys
        differently: nothing has to tell the cache about the swap."""
        cache = QueryCache()
        old = db.relation("flies")
        key = cache_key("select", (), [old])
        cache.put(key, "old answer")
        db.execute("DROP RELATION flies; CREATE RELATION flies (creature: animal);")
        db.execute("ASSERT flies (penguin); ASSERT NOT flies (paul);")
        new = db.relation("flies")
        assert new.version == old.version and new.name == old.name
        assert cache.get(cache_key("select", (), [new])) is MISS
        assert cache.get(key) == "old answer"

    def test_version_stamp_distinguishes_states(self, db):
        flies = db.relation("flies")
        before = flies.stamp()
        flies.assert_item(("tweety",))
        assert flies.stamp() != before

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

    def test_write_that_changes_nothing_keeps_the_cache_warm(self, db):
        """Re-asserting a stored tuple commits no new relation object,
        so the source's stamp, and the cached answer over it, hold."""
        flies = db.relation("flies")
        db.execute("SELECT FROM flies WHERE creature = bird;")
        db.execute("ASSERT flies (bird);")
        assert db.relation("flies") is flies
        db.execute("SELECT FROM flies WHERE creature = bird;")
        assert db.query_cache.stats()["hits"] == 1

    def test_served_result_is_read_only(self, db):
        (first,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        assert isinstance(first.payload, ViewRelation)
        before = sorted(first.payload.extension())
        with pytest.raises(ViewError):
            first.payload.clear()  # try to vandalise the handed-out result
        (second,) = db.execute("SELECT FROM flies WHERE creature = bird;")
        assert second.payload is first.payload  # a hit hands out the same handle
        assert sorted(second.payload.extension()) == before
        private = second.payload.copy()
        private.clear()  # a copy is private and mutable
        assert sorted(second.payload.extension()) == before

    def test_bound_alias_leaves_the_cached_entry_untouched(self, db):
        """``AS`` binds a private copy: writing to the name cannot reach
        the cached result, however often the same answer is bound."""
        query = "SELECT FROM flies WHERE creature = bird"
        db.execute(query + " AS s;")
        db.execute(query + " AS s;")
        assert db.query_cache.stats()["hits"] == 1
        db.execute("RETRACT s (bird); ASSERT s (paul);")
        assert sorted(db.relation("s").asserted) == [("paul",), ("penguin",)]
        (again,) = db.execute(query + ";")
        assert db.query_cache.stats()["hits"] == 2
        assert dict(again.payload.asserted) == {("bird",): True, ("penguin",): False}

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
