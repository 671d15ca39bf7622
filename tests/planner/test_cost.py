"""The cost model: combine plans, gates, estimates, and admission."""

import pytest

from repro import planner
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.hierarchy.graph import Hierarchy
from repro.obs import MetricsRegistry, default_registry


def _workload():
    h = Hierarchy("d")
    for c in range(4):
        klass = "c{}".format(c)
        h.add_class(klass)
        for i in range(5):
            h.add_instance("c{}i{}".format(c, i), parents=[klass])
    schema = RelationSchema([("value", h)])
    narrow = HRelation(schema, name="narrow")
    narrow.assert_item(("c0i0",), truth=True)
    medium = HRelation(schema, name="medium")
    medium.assert_item(("c1",), truth=True)
    broad = HRelation(schema, name="broad")
    for c in range(4):
        broad.assert_item(("c{}".format(c),), truth=True)
    return narrow, medium, broad


def test_plan_combine_orders_or_widest_first():
    narrow, medium, broad = _workload()
    plan = planner.plan_combine([narrow, medium, broad], "or")
    assert plan is not None
    assert plan.shortcircuit == "or"
    assert plan.order == [2, 1, 0]
    assert plan.reordered


def test_plan_combine_orders_and_narrowest_first():
    narrow, medium, broad = _workload()
    plan = planner.plan_combine([broad, medium, narrow], "and")
    assert plan.shortcircuit == "and"
    assert plan.order == [2, 1, 0]


def test_plan_combine_is_stable_for_equal_coverage():
    narrow, medium, broad = _workload()
    plan = planner.plan_combine([narrow, medium, broad], "and")
    # Already narrowest-first: the stable sort keeps syntax order.
    assert plan.order == [0, 1, 2]
    assert not plan.reordered


def test_plan_combine_declines_when_it_must():
    narrow, medium, broad = _workload()
    assert planner.plan_combine([narrow, broad], "or") is None  # binary
    assert planner.plan_combine([narrow, medium, broad], "andnot") is None
    assert planner.plan_combine([narrow, medium, broad], None) is None


def test_estimate_feedback_corrects_bias():
    narrow, medium, broad = _workload()
    raw = planner.estimate_candidates([narrow, medium, broad], op="testop")
    for _ in range(50):
        planner.observe_estimate("testop", raw, raw * 3)
    corrected = planner.estimate_candidates([narrow, medium, broad], op="testop")
    assert corrected > raw * 2  # EWMA pulled the correction toward 3x


def test_observe_estimate_counts_gross_misses():
    off10x = default_registry().counter("planner.estimate.off10x")
    before = off10x.value
    planner.observe_estimate("op", 10, 11)
    assert off10x.value == before
    planner.observe_estimate("op", 10, 500)
    planner.observe_estimate("op", 500, 10)
    assert off10x.value == before + 2


def test_cache_admission_floor_and_pinning():
    admission = planner.cache_admission()
    assert not admission.admit(0.001)  # cheaper than a lookup
    assert admission.admit(5.0)
    assert admission.admit(None)  # unknown cost: fail open
    assert admission.pin(5.0, hits=1)
    assert not admission.pin(5.0, hits=0)  # never hit: not hot
    assert not admission.pin(0.1, hits=9)  # cheap: not worth pinning
    assert not admission.pin(None, hits=9)  # unknown cost: never pinned


def test_cache_admission_floor_adapts_to_observed_statements():
    registry = MetricsRegistry()
    admission = planner.cache_admission(registry)
    histogram = registry.histogram("hql.statement.ms")
    for _ in range(250):
        histogram.observe(10.0)
    floor = admission._floor_ms()
    base = planner.config().cache_min_cost_ms
    assert floor > base  # 2% of a 10ms mean beats the default floor
    assert floor <= 10.0 * base  # but stays capped


def test_describe_reports_counters():
    state = planner.describe()
    assert "enabled" not in state
    assert set(state) >= {
        "reorders", "combine_plans", "estimate_checks", "corrections",
    }
    assert not {"parallel_grants", "parallel_declines"} & set(state)


def test_configure_rejects_unknown_keys():
    with pytest.raises(TypeError):
        planner.configure(warp_factor=9)
