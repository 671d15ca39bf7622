"""What is left of the planner in HQL: no SET, no planner block in
STATS, and an EXPLAIN that names only the decisions actually taken."""

import pytest

from repro.engine.database import HierarchicalDatabase
from repro.engine.hql.executor import HQLExecutor
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
