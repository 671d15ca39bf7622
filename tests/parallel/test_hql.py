"""HQL surface: SET PARALLEL, the EXPLAIN ``parallel:`` line, and the
CLI ``--workers`` flag."""

import pytest

from repro import parallel
from repro.engine.database import HierarchicalDatabase
from repro.engine.hql import ast
from repro.engine.hql.executor import HQLExecutor
from repro.engine.hql.parser import parse
from repro.errors import HQLError

SCHEMA = """
CREATE HIERARCHY dom ROOT dom;
CREATE CLASS c0 IN dom UNDER dom;
CREATE CLASS c1 IN dom UNDER dom;
CREATE CLASS c2 IN dom UNDER dom;
CREATE CLASS c3 IN dom UNDER dom;
CREATE INSTANCE c0i IN dom UNDER c0;
CREATE INSTANCE c1i IN dom UNDER c1;
CREATE INSTANCE c2i IN dom UNDER c2;
CREATE INSTANCE c3i IN dom UNDER c3;
CREATE RELATION likes (a: dom, b: dom);
ASSERT likes (c0, c1);
ASSERT likes (c2, c3);
ASSERT likes (c1i, c0i);
ASSERT likes (c3i, c2i);
"""


@pytest.fixture
def executor():
    database = HierarchicalDatabase()
    ex = HQLExecutor(database)
    ex.run(SCHEMA)
    yield ex
    ex.close()


def test_set_parses_and_round_trips():
    statement = parse("SET PARALLEL 4;")[0]
    assert statement == ast.Set(option="PARALLEL", value="4")
    assert parse(ast.to_hql(statement)) == [statement]
    assert not isinstance(statement, ast.MUTATING)  # never journalled


def test_set_parallel_configures_the_layer(executor):
    result = executor.run("SET PARALLEL 3;")[0]
    assert parallel.config().workers == 3
    assert "3" in result.message
    result = executor.run("SET PARALLEL 0;")[0]
    assert parallel.config().workers == 0
    assert "serial" in result.message


def test_set_rejects_unknown_option_and_bad_values(executor):
    with pytest.raises(HQLError, match="unknown SET option"):
        executor.run("SET FROBNICATE 1;")
    with pytest.raises(HQLError, match="expects an integer"):
        executor.run("SET PARALLEL lots;")


def test_explain_reports_parallel_plan(executor):
    executor.run("SET PARALLEL 2;")
    parallel.configure(min_tuples=0, fanout=1)
    message = executor.run("EXPLAIN UNION likes WITH likes;")[0].message
    assert "parallel: shards=2 residual=0" in message

    # Positive min_tuples: the planner prices the dispatch, and its
    # decline message names the cost gate.
    parallel.configure(min_tuples=10_000)
    message = executor.run("EXPLAIN UNION likes WITH likes;")[0].message
    assert "parallel: serial (below cost gate" in message

    executor.run("SET PARALLEL 0;")
    message = executor.run("EXPLAIN UNION likes WITH likes;")[0].message
    assert "parallel: serial (disabled)" in message


def test_cli_serve_accepts_workers_flag():
    from repro.cli import _build_parser

    args = _build_parser().parse_args(["serve", "--workers", "2", "--port", "0"])
    assert args.workers == 2
    args = _build_parser().parse_args(["serve", "--port", "0"])
    assert args.workers is None
