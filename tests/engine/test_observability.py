"""The observability wiring end to end: EXPLAIN ANALYZE span trees,
STATS, the slow-query log, span hygiene across commit/rollback, and the
metric promotion of the query-cache counters."""

import pytest

from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.engine.repl import HQLRepl
from repro.errors import InconsistentRelationError
from repro.obs import trace
from repro.obs.trace import span

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE RELATION flies (creature: animal);
CREATE RELATION swims (creature: animal);
CREATE RELATION chases (hunter: animal, prey: animal);
ASSERT flies (bird);
ASSERT NOT flies (penguin);
ASSERT swims (penguin);
"""


@pytest.fixture(autouse=True)
def tracing_off():
    trace.disable()
    yield
    trace.disable()


@pytest.fixture
def db():
    database = HierarchicalDatabase("zoo")
    database.execute(SETUP)
    database.query_cache.clear()
    return database


class TestExplainAnalyze:
    def test_span_tree_for_a_combine(self, db):
        (result,) = db.execute("EXPLAIN ANALYZE UNION flies WITH swims;")
        message = result.message
        assert "analyze:" in message
        assert "hql.statement" in message
        assert "algebra.union" in message and "left=flies" in message
        assert "algebra.pointwise" in message
        assert "candidates=" in message and "tuples_out=" in message
        assert "fused=" in message
        assert "cache=miss" in message

    def test_tree_shaped_cone_walks_the_hierarchy_zero_times(self, db):
        (result,) = db.execute("EXPLAIN ANALYZE UNION flies WITH swims;")
        assert "closure_probed=0 hierarchy_sweeps=0" in result.message

    def test_only_values_above_a_multi_parent_node_are_probed(self, db):
        db.execute(
            "CREATE CLASS swimmer IN animal;"
            "CREATE INSTANCE pingu IN animal UNDER penguin, swimmer;"
            "ASSERT swims (swimmer);"
        )
        (result,) = db.execute("EXPLAIN ANALYZE UNION flies WITH swims;")
        # bird, penguin and swimmer sit above the two-parent pingu; their
        # meet, pingu itself, joins for a second down-and-up round.
        assert "closure_probed=4 hierarchy_sweeps=4" in result.message

    def test_cache_hit_shortens_the_tree(self, db):
        db.execute("EXPLAIN ANALYZE UNION flies WITH swims;")
        (hit,) = db.execute("EXPLAIN ANALYZE UNION flies WITH swims;")
        assert "cache=hit" in hit.message
        assert "algebra.union" not in hit.message  # served, not computed

    def test_join_reports_zero_copy(self, db):
        (result,) = db.execute("EXPLAIN ANALYZE JOIN flies WITH swims;")
        assert "algebra.join" in result.message
        assert "zero_copy=yes" in result.message

    def test_plain_explain_has_no_tree(self, db):
        (result,) = db.execute("EXPLAIN UNION flies WITH swims;")
        assert "analyze:" not in result.message
        assert "wall time:" in result.message

    def test_wall_time_matches_the_span_root(self, db):
        """One span is the single source of statement timing: the plan's
        wall-time line and the rendered root must carry the same number."""
        (result,) = db.execute("EXPLAIN ANALYZE COUNT flies;")
        (wall_line,) = [
            ln for ln in result.message.splitlines() if "wall time:" in ln
        ]
        (root_line,) = [
            ln for ln in result.message.splitlines() if "hql.statement" in ln
        ]
        wall_ms = wall_line.split("wall time:")[1].split("ms")[0].strip()
        assert "({} ms)".format(wall_ms) in root_line

    def test_tracing_left_disabled_afterwards(self, db):
        db.execute("EXPLAIN ANALYZE COUNT flies;")
        assert not trace.enabled()


class TestStats:
    def test_stats_shows_querycache_and_hit_rate(self, db):
        db.execute("SELECT FROM flies WHERE creature = bird;")
        db.execute("SELECT FROM flies WHERE creature = bird;")
        (result,) = db.execute("STATS;")
        assert "querycache.hits" in result.message
        assert "querycache.misses" in result.message
        assert "querycache.hit_rate" in result.message
        assert result.payload["engine"]["querycache.hits"] == 1
        assert result.payload["engine"]["querycache.misses"] == 1

    def test_stats_shows_engine_and_core_sections(self, db):
        db.execute("UNION flies WITH swims;")
        (result,) = db.execute("STATS;")
        assert result.payload["engine"]["txn.commits"] >= 3
        assert result.payload["core"]["algebra.union.calls"] >= 1
        assert "hql.statement.ms" in result.payload["engine"]

    def test_two_databases_do_not_share_engine_metrics(self):
        a = HierarchicalDatabase("a")
        b = HierarchicalDatabase("b")
        a.execute(SETUP)
        a.query_cache.clear()
        a.execute("TRUTH flies (tweety); TRUTH flies (tweety);")
        assert a.query_cache.hits == 1
        assert b.query_cache.hits == 0
        assert b.metrics.counter("querycache.hits").value == 0


class TestQueryCacheCounterPromotion:
    def test_counters_live_in_the_registry(self, db):
        db.execute("COUNT flies; COUNT flies;")
        assert db.metrics.counter("querycache.hits").value == db.query_cache.hits == 1
        assert (
            db.metrics.counter("querycache.misses").value == db.query_cache.misses == 1
        )

    def test_no_private_int_counter_fields_remain(self, db):
        from repro.engine.querycache import QueryCache

        assert isinstance(QueryCache.hits, property)
        assert isinstance(QueryCache.misses, property)
        assert isinstance(QueryCache.evictions, property)
        assert isinstance(QueryCache.invalidations, property)

    def test_hit_rate(self, db):
        assert db.query_cache.hit_rate == 0.0
        db.execute("COUNT flies; COUNT flies; COUNT flies;")
        assert db.query_cache.hit_rate == pytest.approx(2 / 3)


class TestSlowQueryLog:
    def test_captures_statement_over_threshold(self, db):
        log = db.enable_slow_query_log(threshold_ms=0.0)
        db.execute("SELECT FROM flies WHERE creature = penguin;")
        entries = log.entries()
        assert len(entries) >= 1
        entry = entries[-1]
        assert entry.statement == "SELECT FROM flies WHERE creature = penguin;"
        assert entry.elapsed_ms > 0.0
        assert entry.span is not None and entry.span.name == "hql.statement"

    def test_high_threshold_captures_nothing(self, db):
        log = db.enable_slow_query_log(threshold_ms=60_000.0)
        db.execute("COUNT flies;")
        assert len(log) == 0

    def test_disable(self, db):
        db.enable_slow_query_log(threshold_ms=0.0)
        db.disable_slow_query_log()
        assert db.slow_query_log is None
        db.execute("COUNT flies;")  # must not raise

    def test_log_entry_time_matches_result_time(self, db):
        log = db.enable_slow_query_log(threshold_ms=0.0)
        session = HQLExecutor(db)
        (result,) = session.run("COUNT flies;")
        assert result.elapsed_ms == log.entries()[-1].elapsed_ms


class TestSpansAcrossTransactions:
    def test_commit_nests_inside_statement_span(self, db):
        with trace.collect("test") as root:
            db.execute("ASSERT swims (bird);")
        names = [s.name for s in root.walk()]
        assert "txn.commit" in names

    def test_failing_commit_leaks_no_span(self, db):
        with trace.collect("test") as root:
            with pytest.raises(InconsistentRelationError):
                # A crossing positive/negative pair neither of which
                # dominates the other: the commit is rejected.
                with db.transaction() as txn:
                    txn.assert_item("chases", ("bird", "penguin"))
                    txn.assert_item("chases", ("penguin", "bird"), truth=False)
            # The stack unwound: a fresh span is a direct child of root.
            with span("probe") as probe:
                pass
        assert probe._parent is root
        commits = [s for s in root.walk() if s.name == "txn.commit"]
        assert len(commits) == 1  # opened, closed by the exception

    def test_rollback_counted_not_leaked(self, db):
        before = db.metrics.counter("txn.rollbacks").value
        session = HQLExecutor(db)
        session.run("BEGIN;")
        session.run("ASSERT swims (tweety);")
        session.run("ROLLBACK;")
        assert db.metrics.counter("txn.rollbacks").value == before + 1
        with trace.collect("test") as root:
            with span("probe") as probe:
                pass
        assert probe._parent is root


class TestReplMetaCommands:
    def _run(self, db, lines):
        import io

        out = io.StringIO()
        repl = HQLRepl(db, stdin=io.StringIO(lines), stdout=out)
        repl.run()
        return out.getvalue()

    def test_stats_meta_command(self, db):
        db.execute("COUNT flies;")
        output = self._run(db, ".stats\n\\q\n")
        assert "querycache.hit_rate" in output

    def test_slowlog_meta_command(self, db):
        db.enable_slow_query_log(threshold_ms=0.0)
        db.execute("COUNT flies;")
        output = self._run(db, ".slowlog\n\\q\n")
        assert "COUNT flies;" in output
        assert "hql.statement" in output

    def test_slowlog_not_enabled_message(self, db):
        output = self._run(db, ".slowlog\n\\q\n")
        assert "not enabled" in output

    def test_timing_toggle(self, db):
        output = self._run(db, "\\timing\nCOUNT flies;\n\\q\n")
        assert "timing on" in output
        assert "time:" in output and "ms" in output
