"""Parallel execution is bit-identical to serial, for every operator,
strategy, and worker count — plus the cost gate and crash recovery."""

import pytest

from repro import parallel
from repro.core import (
    difference,
    find_conflicts,
    intersection,
    join,
    project,
    select,
    union,
)
from repro.core import RelationSchema, HRelation
from repro.core.bulk import extension_atoms
from repro.core.explicate import explicate
from repro.core.preemption import STRATEGIES
from repro.errors import EngineError
from repro.parallel import pool as _pool

from tests.parallel.helpers import cone_hierarchy, cone_relations, same_relation

STRATEGY_NAMES = ["off-path", "on-path", "none"]
WORKER_COUNTS = [1, 2, 4]


def serial(fn, *args, **kwargs):
    parallel.configure(workers=0)
    try:
        return fn(*args, **kwargs)
    finally:
        parallel.reset()


def forced(workers, fn, *args, **kwargs):
    parallel.configure(workers=workers, min_tuples=0)
    try:
        return fn(*args, **kwargs)
    finally:
        parallel.reset()


@pytest.fixture(params=STRATEGY_NAMES)
def strategy(request):
    return request.param


@pytest.fixture
def workload(strategy):
    hierarchy = cone_hierarchy(cones=8, instances=3)
    left, right = cone_relations(hierarchy, strategy=strategy)
    return hierarchy, left, right


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_set_operators_match_serial(workload, workers):
    _, left, right = workload
    for op in (union, intersection, difference):
        expect = serial(op, left, right)
        got = forced(workers, op, left, right)
        assert same_relation(expect, got), op.__name__


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_select_and_project_match_serial(workload, workers):
    _, left, _ = workload
    expect = serial(select, left, {"a": "c1"})
    got = forced(workers, select, left, {"a": "c1"})
    assert same_relation(expect, got)

    expect = serial(project, left, ["a"])
    got = forced(workers, project, left, ["a"])
    assert same_relation(expect, got)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_join_matches_serial(strategy, workers):
    hierarchy = cone_hierarchy(cones=8, instances=3)
    schema_ab = RelationSchema([("a", hierarchy), ("b", hierarchy)])
    schema_bc = RelationSchema([("b", hierarchy), ("c", hierarchy)])
    one = HRelation(schema_ab, name="one", strategy=STRATEGIES[strategy])
    two = HRelation(schema_bc, name="two", strategy=STRATEGIES[strategy])
    for k in range(4):
        a, b = "c{}".format(2 * k), "c{}".format(2 * k + 1)
        one.assert_item((a, b), truth=True)
        two.assert_item((b, a), truth=True)
        two.assert_item(("{}i0".format(a), "{}i0".format(b)), truth=True)
    expect = serial(join, one, two)
    got = forced(workers, join, one, two)
    assert same_relation(expect, got)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_extension_and_explicate_match_serial(workload, workers):
    _, left, _ = workload
    expect_atoms = serial(lambda r: list(extension_atoms(r)), left)
    got_atoms = forced(workers, lambda r: list(extension_atoms(r)), left)
    assert expect_atoms == got_atoms

    expect = serial(explicate, left)
    got = forced(workers, explicate, left)
    assert same_relation(expect, got)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_find_conflicts_match_serial(strategy, workers):
    hierarchy = cone_hierarchy(cones=8, instances=3)
    for c in range(8):
        hierarchy.add_class("c{}x".format(c), parents=["c{}".format(c)])
        hierarchy.add_instance("c{}xi".format(c), parents=["c{}x".format(c)])
    schema = RelationSchema([("a", hierarchy), ("b", hierarchy)])
    relation = HRelation(schema, name="noisy", strategy=STRATEGIES[strategy])
    for k in range(4):
        a, b = "c{}".format(2 * k), "c{}".format(2 * k + 1)
        relation.assert_item((a, b), truth=True)
    # Crosswise incomparable overlaps: the meet (c0x, c1x) is asserted
    # by neither tuple and neither binder preempts the other under any
    # strategy — a genuine conflict, one per cone pair so the conflicts
    # span shards.
    relation.assert_item(("c0", "c1x"), truth=True)
    relation.assert_item(("c0x", "c1"), truth=False)
    relation.assert_item(("c2", "c3x"), truth=True)
    relation.assert_item(("c2x", "c3"), truth=False)
    expect = serial(find_conflicts, relation)
    got = forced(workers, find_conflicts, relation)
    assert [(c.item, c.binders) for c in expect] == [
        (c.item, c.binders) for c in got
    ]
    assert expect  # sanity: the workload really conflicts somewhere


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_root_valued_tuples_survive_root_skip(workload, workers):
    """Snapshots drop root values from the shard closures (the padded
    join positions would otherwise ship the whole hierarchy), but a
    root *asserted as data* must still behave: pointwise ops evaluate
    it through the capping node, and the extension task — which
    enumerates the root's leaves — must not use the narrowed closure."""
    hierarchy, left, right = workload
    right.assert_item((hierarchy.root, "c1"), truth=True)
    for op in (union, intersection, difference):
        expect = serial(op, left, right)
        got = forced(workers, op, left, right)
        assert same_relation(expect, got), op.__name__

    root_rel = right.copy(name="rooted")
    root_rel.clear()
    root_rel.assert_item((hierarchy.root, hierarchy.root), truth=True)
    root_rel.assert_item(("c0", "c1"), truth=True)
    root_rel.assert_item(("c2", "c3"), truth=True)
    expect_atoms = serial(lambda r: list(extension_atoms(r)), root_rel)
    got_atoms = forced(workers, lambda r: list(extension_atoms(r)), root_rel)
    assert expect_atoms == got_atoms


def test_gate_declines_below_threshold(workload):
    _, left, right = workload
    parallel.configure(workers=2, min_tuples=10_000)
    assert not parallel.plan(
        left.schema, [("full", left), ("full", right)], fn_token="or"
    ).parallel
    expect = serial(union, left, right)
    got = union(left, right)
    assert same_relation(expect, got)


def test_declined_plan_routes_no_tuple(workload, monkeypatch):
    """The gate is asked before any stored tuple is padded or hashed: a
    declined operator costs O(inputs), not O(stored tuples)."""
    from repro.parallel import engine

    _, left, right = workload
    padded = []
    real_pad = engine._pad

    def counting_pad(item, positions, top):
        padded.append(item)
        return real_pad(item, positions, top)

    monkeypatch.setattr(engine, "_pad", counting_pad)
    specs = [("proj", left, (0, 1)), ("proj", right, (0, 1))]
    parallel.configure(workers=2, min_tuples=10_000)
    assert not parallel.plan(left.schema, specs, fn_token="and").parallel
    assert padded == []
    parallel.configure(min_tuples=0)
    assert parallel.plan(left.schema, specs, fn_token="and").parallel
    assert len(padded) == len(left) + len(right)


def test_gate_declines_capture_and_unknown_fn(workload):
    _, left, right = workload
    parallel.configure(workers=2, min_tuples=0)
    specs = [("full", left), ("full", right)]
    assert (
        parallel.plan(left.schema, specs, fn_token="or", capture={}).reason
        == "capture hook requested"
    )
    assert (
        parallel.plan(left.schema, specs, fn_token="xor").reason
        == "combining function is not shippable"
    )
    assert parallel.plan(left.schema, specs, fn_token="or").parallel


def test_plan_describe_lines(workload):
    _, left, right = workload
    specs = [("full", left), ("full", right)]
    parallel.configure(workers=2, min_tuples=0, fanout=1)
    described = parallel.plan(left.schema, specs, fn_token="or").describe()
    assert described.startswith("shards=2 residual=")
    # Fanout decouples decomposition from the worker count: the same
    # two workers now sweep four narrower shards.
    parallel.configure(fanout=2)
    described = parallel.plan(left.schema, specs, fn_token="or").describe()
    assert described.startswith("shards=4 residual=")
    parallel.configure(workers=0)
    assert (
        parallel.plan(left.schema, specs, fn_token="or").describe()
        == "serial (disabled)"
    )


def test_worker_crash_raises_engine_error_and_pool_recovers(workload):
    _, left, right = workload
    with pytest.raises(EngineError, match="worker process died"):
        _pool.run_tasks([{"kind": "crash"}], workers=2)
    # The database and the layer both survive: the next parallel
    # operation rebuilds the pool and answers correctly.
    expect = serial(union, left, right)
    got = forced(2, union, left, right)
    assert same_relation(expect, got)
    assert dict(left.asserted)  # inputs untouched
