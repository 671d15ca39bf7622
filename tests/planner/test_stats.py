"""RelationStats: incremental maintenance vs from-scratch rebuilds."""

from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.hierarchy.graph import Hierarchy
from repro.planner import RelationStats, stats_for


def _zoo():
    h = Hierarchy("animal")
    h.add_class("bird")
    h.add_class("mammal")
    for i in range(3):
        h.add_instance("b{}".format(i), parents=["bird"])
        h.add_instance("m{}".format(i), parents=["mammal"])
    return h


def _relation(h, name="flies"):
    return HRelation(RelationSchema([("creature", h)]), name=name)


def test_counts_and_coverage():
    h = _zoo()
    r = _relation(h)
    r.assert_item(("bird",), truth=True)
    r.assert_item(("b0",), truth=False)
    stats = stats_for(r)
    assert stats.tuples == 2
    assert stats.positives == 1
    assert stats.negatives == 1
    # Coverage counts leaves under *positive* tuples only: the three
    # bird instances, not the negated exception's single leaf twice.
    assert stats.coverage() == 3
    assert stats.distinct(0) == 2


def test_incremental_patch_equals_rebuild():
    h = _zoo()
    r = _relation(h)
    r.assert_item(("bird",), truth=True)
    stats = stats_for(r)
    first = stats.snapshot()

    r.assert_item(("mammal",), truth=True)
    r.assert_item(("m1",), truth=False)
    r.retract(("bird",))
    patched = stats_for(r)
    assert patched is stats  # cached on the relation, patched in place
    assert patched.snapshot() == RelationStats(r).snapshot()
    assert patched.snapshot() != first


def test_trimmed_delta_log_falls_back_to_rebuild():
    h = Hierarchy("d")
    for i in range(40):
        h.add_class("c{}".format(i))
    r = _relation(h, name="wide")
    r.delta_log_limit = 8  # force the trim path quickly
    stats = stats_for(r)
    for i in range(30):
        r.assert_item(("c{}".format(i),), truth=i % 3 != 0)
    assert r.changes_since(stats._version) is None  # log really trimmed
    assert stats_for(r).snapshot() == RelationStats(r).snapshot()


def test_hierarchy_mutation_forces_rebuild():
    h = _zoo()
    r = _relation(h)
    r.assert_item(("bird",), truth=True)
    stats = stats_for(r)
    assert stats.coverage() == 3
    h.add_instance("b3", parents=["bird"])  # new leaf under the cone
    assert stats_for(r).coverage() == 4
    assert stats_for(r).snapshot() == RelationStats(r).snapshot()


def test_stats_cache_survives_unrelated_lookups():
    h = _zoo()
    r = _relation(h)
    r.assert_item(("bird",), truth=True)
    assert stats_for(r) is stats_for(r)

