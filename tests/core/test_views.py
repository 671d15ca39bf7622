"""Unit tests for materialized views."""

import pytest

from repro.core import (
    NO_PREEMPTION,
    OFF_PATH,
    ON_PATH,
    HRelation,
    MaterializedView,
    ViewPlan,
    ViewRegistry,
    select,
    union,
)
from repro.errors import ViewError
from repro.hierarchy import Hierarchy


@pytest.fixture
def flyers_view(flying):
    return MaterializedView(
        "penguin_flyers",
        plan=ViewPlan("select", [flying.flies], {"creature": "penguin"}),
    )


def everything(flying):
    """A plan over all of ``flies``: the union of the relation with itself."""
    return ViewPlan("union", [flying.flies, flying.flies])


class TestMaterializedView:
    def test_computed_once_while_fresh(self, flyers_view):
        first = flyers_view.relation()
        second = flyers_view.relation()
        assert first is second
        assert flyers_view.refresh_count == 1

    def test_refreshed_after_source_mutation(self, flying, flyers_view):
        assert sorted(x[0] for x in flyers_view.extension()) == [
            "pamela",
            "patricia",
            "peter",
        ]
        flying.flies.retract(("peter",))
        assert flyers_view.is_stale()
        assert sorted(x[0] for x in flyers_view.extension()) == [
            "pamela",
            "patricia",
        ]
        # One recompute per read after a change, none while fresh.
        assert flyers_view.refresh_count == 2

    def test_refreshed_after_hierarchy_mutation(self, flying, flyers_view):
        flyers_view.relation()
        flying.animal.add_instance("percy", parents=["amazing_flying_penguin"])
        assert flyers_view.is_stale()
        assert ("percy",) in set(flyers_view.extension())

    def test_truth_of_passthrough(self, flyers_view):
        assert flyers_view.truth_of(("pamela",))
        assert not flyers_view.truth_of(("paul",))

    def test_len(self, flyers_view):
        assert len(flyers_view) == len(flyers_view.relation())

    def test_name_applied(self, flyers_view):
        assert flyers_view.relation().name == "penguin_flyers"

    def test_repr(self, flyers_view):
        assert "stale" in repr(flyers_view)
        flyers_view.relation()
        assert "fresh" in repr(flyers_view)


class TestViewRelationHandle:
    """Regression: ``relation()`` used to hand out the live cached
    object, so a caller mutating the result corrupted every later read."""

    def test_mutators_refused(self, flying, flyers_view):
        handle = flyers_view.relation()
        with pytest.raises(ViewError):
            handle.assert_item(("paul",))
        with pytest.raises(ViewError):
            handle.retract(("peter",))
        with pytest.raises(ViewError):
            handle.discard(("peter",))
        with pytest.raises(ViewError):
            handle.clear()

    def test_cache_survives_mutation_attempt(self, flyers_view):
        before = sorted(flyers_view.extension())
        with pytest.raises(ViewError):
            flyers_view.relation().clear()
        assert sorted(flyers_view.extension()) == before
        assert flyers_view.refresh_count == 1  # still served from cache

    def test_copy_is_private_and_mutable(self, flyers_view):
        copy = flyers_view.relation().copy()
        assert type(copy) is HRelation
        copy.clear()  # must not raise ...
        assert len(list(flyers_view.extension())) > 0  # ... nor leak back


class TestViewPlan:
    def test_select_requires_conditions(self, flying):
        with pytest.raises(ValueError):
            ViewPlan("select", [flying.flies])

    def test_select_takes_one_source(self, flying):
        with pytest.raises(ValueError):
            ViewPlan("select", [flying.flies, flying.flies], {"creature": "bird"})

    def test_binary_takes_two_sources(self, flying):
        with pytest.raises(ValueError):
            ViewPlan("union", [flying.flies])

    def test_unknown_operator(self, flying):
        with pytest.raises(ValueError):
            ViewPlan("teleport", [flying.flies, flying.flies])


class TestDeltaRefresh:
    """A read after source changes (a delta) recomputes the plan in
    full, once, and matches the operator run directly."""

    @pytest.fixture
    def plan_view(self, flying):
        return MaterializedView(
            "penguin_flyers",
            plan=ViewPlan("select", [flying.flies], {"creature": "penguin"}),
        )

    def test_plan_matches_direct_compute(self, flying, plan_view):
        direct = select(flying.flies, {"creature": "penguin"})
        assert sorted(plan_view.extension()) == sorted(direct.extension())

    def test_single_tuple_churn_recomputes_once(self, flying, plan_view):
        plan_view.relation()
        flying.flies.retract(("peter",))
        assert sorted(x[0] for x in plan_view.extension()) == ["pamela", "patricia"]
        assert sorted(x[0] for x in plan_view.extension()) == ["pamela", "patricia"]
        assert plan_view.refresh_count == 2

    @pytest.mark.parametrize(
        "strategy", [OFF_PATH, ON_PATH, NO_PREEMPTION], ids=lambda s: s.name
    )
    def test_every_read_after_a_change_recomputes(self, strategy):
        hierarchy = Hierarchy("things", root="thing")
        hierarchy.add_class("bird", parents=["thing"])
        hierarchy.add_class("penguin", parents=["bird"])
        for i in range(3):
            hierarchy.add_instance("p{}".format(i), parents=["penguin"])
        relation = HRelation([("creature", hierarchy)], name="r", strategy=strategy)
        relation.assert_item(("bird",), truth=True)
        view = MaterializedView(
            "in_bird", plan=ViewPlan("select", [relation], {"creature": "bird"})
        )
        for i in range(3):
            relation.assert_item(("p{}".format(i),), truth=False)
            expected = sorted(select(relation, {"creature": "bird"}).extension())
            assert sorted(view.extension()) == expected
            assert sorted(view.extension()) == expected  # served fresh
        assert view.refresh_count == 3

    def test_delta_matches_full_recompute(self, flying, plan_view):
        plan_view.relation()
        flying.flies.assert_item(("paul",), truth=True)
        flying.flies.retract(("amazing_flying_penguin",))
        patched = sorted(plan_view.extension())
        fresh = sorted(select(flying.flies, {"creature": "penguin"}).extension())
        assert patched == fresh
        assert plan_view.refresh_count == 2

    def test_hierarchy_mutation_forces_full_recompute(self, flying, plan_view):
        """A class added under a cached cone is invisible to the delta
        log (it is a product mutation), so the view must fully refresh."""
        plan_view.relation()
        flying.animal.add_instance("percy", parents=["amazing_flying_penguin"])
        assert plan_view.is_stale()
        assert ("percy",) in set(plan_view.extension())
        assert plan_view.refresh_count == 2

    def test_join_plan_always_full(self, school):
        view = MaterializedView(
            "pairs", plan=ViewPlan("join", [school.respects, school.respects])
        )
        view.relation()
        school.respects.assert_item(("john", "bill"), truth=True)
        view.relation()
        assert view.refresh_count == 2

    def test_union_plan_delta(self, loves):
        view = MaterializedView(
            "either", plan=ViewPlan("union", [loves.jack_loves, loves.jill_loves])
        )
        view.relation()
        loves.jill_loves.assert_item(("tweety",), truth=True)
        patched = sorted(view.extension())
        assert patched == sorted(
            union(loves.jack_loves, loves.jill_loves).extension()
        )
        assert view.refresh_count == 2


class TestViewRegistry:
    def test_define_and_get(self, flying):
        registry = ViewRegistry()
        view = registry.define("all", everything(flying))
        assert registry.view("all") is view
        assert registry.names() == ["all"]

    def test_duplicate_rejected(self, flying):
        registry = ViewRegistry()
        registry.define("v", everything(flying))
        with pytest.raises(ValueError):
            registry.define("v", everything(flying))

    def test_drop(self, flying):
        registry = ViewRegistry()
        registry.define("v", everything(flying))
        registry.drop("v")
        assert registry.names() == []
