"""Unit tests for the bitset-native algebra engine: the memoised meet
tables, the zero-copy join gating, and the streaming divide."""

import pytest

from repro.errors import SchemaError
from repro.hierarchy import Hierarchy
from repro.core import HRelation, RelationSchema
from repro.core.algebra import (
    difference,
    divide,
    intersection,
    join,
    project,
    select,
    union,
)
from repro.core.bulk import BulkEvaluator, ConeEvaluator, ProjectedEvaluator
from repro.core.preemption import STRATEGIES


def diamond() -> Hierarchy:
    h = Hierarchy("things")
    h.add_class("a")
    h.add_class("b")
    h.add_instance("x", parents=["a", "b"])
    h.add_instance("y", parents=["a"])
    return h


# ----------------------------------------------------------------------
# memoised meet tables
# ----------------------------------------------------------------------


def test_meet_table_is_memoised_per_version():
    h = diamond()
    first = h.maximal_common_descendants("a", "b")
    assert first == ["x"]
    # The memo must hand back an equal list, not expose its cache entry.
    again = h.maximal_common_descendants("a", "b")
    assert again == first
    again.append("tampered")
    assert h.maximal_common_descendants("a", "b") == ["x"]


def test_meet_table_invalidated_by_hierarchy_mutation():
    h = diamond()
    assert h.maximal_common_descendants("a", "b") == ["x"]
    h.add_instance("z", parents=["a", "b"])
    assert set(h.maximal_common_descendants("a", "b")) == {"x", "z"}


def test_meet_closed_values_matches_pairwise_meets():
    h = diamond()
    closed = h.meet_closed_values(["a", "b"])
    assert closed == {"a", "b", "x"}
    # Already-closed pools come back unchanged.
    assert h.meet_closed_values(closed) == closed


# ----------------------------------------------------------------------
# evaluator adaptors
# ----------------------------------------------------------------------


def test_projected_evaluator_requires_sweep_exact_base():
    h = diamond()
    relation = HRelation(RelationSchema([("t", h)]), name="r")
    relation.assert_item(("a",), truth=True)
    on_path = BulkEvaluator(relation, strategy=STRATEGIES["on-path"])
    assert not on_path.sweep_exact
    with pytest.raises(ValueError):
        ProjectedEvaluator(on_path, (0,))
    off_path = BulkEvaluator(relation, strategy=STRATEGIES["off-path"])
    adaptor = ProjectedEvaluator(off_path, (0,))
    assert adaptor.truth(("x",)) is True


def test_cone_evaluator_is_plain_subsumption():
    h = diamond()
    product = RelationSchema([("t", h)]).product
    cone = ConeEvaluator(product, ("a",))
    assert cone.truth(("x",)) is True
    assert cone.truth(("a",)) is True
    assert cone.truth(("b",)) is False


# ----------------------------------------------------------------------
# join gating
# ----------------------------------------------------------------------


def test_join_rejects_mismatched_strategies():
    h = diamond()
    schema = RelationSchema([("t", h)])
    left = HRelation(schema, name="left", strategy=STRATEGIES["off-path"])
    right = HRelation(schema, name="right", strategy=STRATEGIES["on-path"])
    left.assert_item(("a",), truth=True)
    right.assert_item(("b",), truth=True)
    with pytest.raises(SchemaError):
        join(left, right)


def test_join_keeps_right_strategy_on_fallback_path():
    """Non-off-path joins materialise cylinders; each must carry its own
    relation's strategy (historically the right cylinder inherited the
    left strategy)."""
    h = diamond()
    schema = RelationSchema([("t", h)])
    left = HRelation(schema, name="left", strategy=STRATEGIES["none"])
    right = HRelation(schema, name="right", strategy=STRATEGIES["none"])
    left.assert_item(("a",), truth=True)
    right.assert_item(("a",), truth=True)
    result = join(left, right)
    assert result.strategy.name == "none"
    assert result.asserted == {("a",): True}


# ----------------------------------------------------------------------
# streaming divide
# ----------------------------------------------------------------------


def binary_fixture():
    things = diamond()
    colors = Hierarchy("colors")
    colors.add_instance("red")
    colors.add_instance("blue")
    dividend = HRelation(
        RelationSchema([("t", things), ("c", colors)]), name="dividend"
    )
    divisor = HRelation(RelationSchema([("c", colors)]), name="divisor")
    return dividend, divisor


def test_divide_empty_divisor_is_projection():
    dividend, divisor = binary_fixture()
    dividend.assert_item(("a", "red"), truth=True)
    got = divide(dividend, divisor)
    assert got.same_tuples_as(project(dividend, ["t"]))


def test_divide_atom_missing_from_every_slice_gives_empty_result():
    dividend, divisor = binary_fixture()
    dividend.assert_item(("a", "red"), truth=True)
    divisor.assert_item(("red",), truth=True)
    divisor.assert_item(("blue",), truth=True)  # no "blue" tuples at all
    got = divide(dividend, divisor)
    assert len(got) == 0
    assert set(got.extension()) == set()


def test_divide_streams_all_divisor_atoms():
    dividend, divisor = binary_fixture()
    for thing in ("x", "y"):
        dividend.assert_item((thing, "red"), truth=True)
    dividend.assert_item(("x", "blue"), truth=True)
    divisor.assert_item(("red",), truth=True)
    divisor.assert_item(("blue",), truth=True)
    got = divide(dividend, divisor)
    assert set(got.extension()) == {("x",)}


# ----------------------------------------------------------------------
# fused consolidation parity on a non-normal-form product
# ----------------------------------------------------------------------


def test_union_falls_back_to_graph_consolidation_with_redundant_edges():
    from repro.core.consolidate import consolidate

    h = Hierarchy("things")
    h.add_class("a")
    h.add_class("b", parents=["a"])
    h.add_instance("x", parents=["a", "b"])  # a->x is redundant (a->b->x)
    assert not h.is_transitively_reduced()
    schema = RelationSchema([("t", h)])
    left = HRelation(schema, name="left")
    right = HRelation(schema, name="right")
    left.assert_item(("a",), truth=True)
    right.assert_item(("x",), truth=False)
    fused = union(left, right, consolidate=True)
    two_step = consolidate(union(left, right, consolidate=False))
    assert fused.same_tuples_as(two_step)


# ----------------------------------------------------------------------
# trusted emission: a pointwise result is one bulk load
# ----------------------------------------------------------------------


def _pointwise_results(loves):
    jack, jill = loves.jack_loves, loves.jill_loves
    yield "union", union(jack, jill), union(jack, jill, consolidate=False)
    yield "intersection", intersection(jack, jill), intersection(
        jack, jill, consolidate=False
    )
    yield "difference", difference(jack, jill), difference(
        jack, jill, consolidate=False
    )
    yield "select", select(jack, {"creature": "penguin"}), select(
        jack, {"creature": "penguin"}, consolidate=False
    )


def test_pointwise_result_stores_what_per_tuple_asserts_would(loves):
    from repro.core.consolidate import consolidate

    for label, result, unconsolidated in _pointwise_results(loves):
        # Same items and signs as the literal two-step procedure ...
        assert result.same_tuples_as(consolidate(unconsolidated)), label
        # ... in the sweep's emission order (ancestors first) ...
        product = result.schema.product
        assert list(result.asserted) == product.topological_sort(result.asserted), label
        # ... and indistinguishable from asserting the pairs one by one.
        one_by_one = HRelation(result.schema, name=result.name)
        for item, truth in result.asserted.items():
            one_by_one.assert_item(item, truth=truth)
        assert list(one_by_one.asserted.items()) == list(result.asserted.items()), label
        assert result.version == one_by_one.version == len(result), label


def test_pointwise_result_has_no_replayable_history_until_mutated(loves):
    result = union(loves.jack_loves, loves.jill_loves)
    assert len(result) > 0
    assert result.changes_since(0) is None  # not a bogus "nothing changed"
    assert result.changes_since(result.version) == []
    stamp = result.version
    result.assert_item(("tweety",), truth=False)
    assert result.changes_since(stamp) == [("tweety",)]


def test_view_over_a_replaced_pointwise_result_refreshes_in_full(loves):
    from repro.core.views import MaterializedView, ViewPlan

    jack, jill = loves.jack_loves, loves.jill_loves
    slot = {"source": intersection(jack, jill)}
    view = MaterializedView(
        "penguin_lovers",
        plan=ViewPlan(
            "select", [lambda: slot["source"]], conditions={"creature": "penguin"}
        ),
    )
    assert view.relation().same_tuples_as(
        select(slot["source"], {"creature": "penguin"})
    )
    # Rebind the source name to a fresh pointwise result that stores one
    # tuple more, so its version runs past the old source's.
    jill.assert_item(("paul",), truth=False)
    stale_version = slot["source"].version
    slot["source"] = union(jack, jill)
    replaced = slot["source"]
    assert replaced.version > stale_version
    assert view.relation().same_tuples_as(select(replaced, {"creature": "penguin"}))
    assert view.refresh_count == 2


def test_view_over_an_equal_version_replacement_refreshes(loves):
    from repro.core.views import MaterializedView, ViewPlan

    jack, jill = loves.jack_loves, loves.jill_loves
    slot = {"source": intersection(jack, jill)}
    view = MaterializedView(
        "penguin_lovers",
        plan=ViewPlan(
            "select", [lambda: slot["source"]], conditions={"creature": "penguin"}
        ),
    )
    before = view.relation()
    # A fresh object with other tuples that a snapshot restore stamped
    # with the old source's version: only its identity differs.
    replaced = union(jack, jill)
    replaced.load_tuples(list(replaced.asserted.items()), version=slot["source"].version)
    slot["source"] = replaced
    expected = select(replaced, {"creature": "penguin"})
    assert not before.same_tuples_as(expected)
    assert view.is_stale()
    assert view.relation().same_tuples_as(expected)
    assert view.refresh_count == 2


# ----------------------------------------------------------------------
# unary redundancy reads the hierarchy's ancestor table
# ----------------------------------------------------------------------

_UNARY_SCRIPT = """
CREATE HIERARCHY animal;
CREATE CLASS elephant IN animal;
CREATE CLASS royal IN animal UNDER elephant;
CREATE CLASS indian IN animal UNDER elephant;
CREATE INSTANCE clyde IN animal UNDER royal;
CREATE INSTANCE appu IN animal UNDER royal, indian;
CREATE INSTANCE raja IN animal UNDER indian;
CREATE RELATION grey (a: animal);
CREATE RELATION white (a: animal);
ASSERT grey (elephant); ASSERT NOT grey (royal); ASSERT NOT grey (clyde);
ASSERT white (royal); ASSERT NOT white (appu); ASSERT white (raja);
UNION grey WITH white AS u;
INTERSECT grey WITH white AS i;
DIFFERENCE white WITH grey AS d;
SELECT FROM white WHERE a = royal AS s;
CONSOLIDATE grey AS c;
"""


def _unary_results():
    from repro.engine import HierarchicalDatabase

    db = HierarchicalDatabase("zoo")
    db.execute(_UNARY_SCRIPT)
    return {
        name: list(db.relation(name).asserted.items())
        for name in ("u", "i", "d", "s", "c")
    }


def test_unary_sweep_builds_no_postings(monkeypatch):
    from repro.core import bulk

    want = _unary_results()

    def forbidden(*args, **kwargs):
        raise AssertionError("a unary sweep built postings")

    monkeypatch.setattr(bulk, "subsumer_masks", forbidden)
    monkeypatch.setattr(Hierarchy, "ancestor_union", forbidden)
    assert _unary_results() == want
    assert want == {
        "u": [(("elephant",), True), (("appu",), False)],
        "i": [(("raja",), True)],
        "d": [(("royal",), True), (("appu",), False)],
        "s": [(("royal",), True), (("appu",), False)],
        "c": [(("elephant",), True), (("royal",), False)],
    }


def test_binary_combine_still_reads_subsumer_masks(monkeypatch):
    from repro.core import bulk
    from repro.core.algebra import combine

    calls = []
    real = bulk.subsumer_masks

    def spy(schema, items):
        calls.append(len(items))
        return real(schema, items)

    monkeypatch.setattr(bulk, "subsumer_masks", spy)
    schema = binary_fixture()[0].schema
    left = HRelation(schema, name="left")
    right = HRelation(schema, name="right")
    left.assert_item(("a", "red"), truth=True)
    right.assert_item(("x", "red"), truth=False)
    result = combine([left, right], lambda a, b: a or b)
    assert calls == [2]
    assert list(result.asserted.items()) == [(("a", "red"), True)]
