"""P6 / section 4: the engine's postings versus the per-item tuple scan.

"The model shows promise of efficient implementation, though some
further work is needed in this direction" — this experiment is that
further work: per-attribute posting bitsets answer "which asserted items
subsume x?" without scanning the relation.  The engine
(:class:`~repro.core.bulk.BulkEvaluator` behind ``HRelation.holds``) is
timed cold (the sweep included) and warm against the per-item reference
(:func:`repro.core.binding.truth_of`, one O(relation) scan per query) on
the same workload; correctness equivalence is asserted (and
property-tested in tests/property/test_bulk_props.py).
"""

import pytest

from repro.core import HRelation, RelationSchema, binding
from repro.workloads.generators import (
    balanced_tree_hierarchy,
    random_consistent_relation,
)

TUPLES = 400


@pytest.fixture(scope="module")
def workload():
    # 1 365 nodes and unstored probes: at depth 4 (341 nodes) 400 tuples
    # fill the hierarchy, every probe is a stored tuple, and neither
    # side binds anything.
    hierarchy = balanced_tree_hierarchy("t", depth=5, fanout=4)
    schema = RelationSchema([("x", hierarchy)])
    relation = random_consistent_relation(schema, tuple_count=TUPLES, seed=17)
    assert len(relation) == TUPLES
    unstored = [leaf for leaf in hierarchy.leaves() if (leaf,) not in relation.asserted]
    return relation, unstored[:150]


def _cold(relation):
    """The same tuples with no evaluator yet (``copy()`` would carry it)."""
    out = HRelation(relation.schema, name=relation.name)
    out.load_tuples(relation.asserted.items())
    return out


def _engine(relation, probes):
    return [relation.holds(p) for p in probes]


def _reference(relation, probes):
    return [binding.truth_of(relation, (p,)) for p in probes]


def test_p6_point_queries_reference_scan(workload, benchmark):
    relation, probes = workload
    answers = benchmark(_reference, relation, probes)
    assert len(answers) == len(probes)


def test_p6_point_queries_engine_cold(workload, benchmark):
    relation, probes = workload
    answers = benchmark.pedantic(
        _engine, setup=lambda: ((_cold(relation), probes), {}), rounds=200
    )
    assert len(answers) == len(probes)


def test_p6_point_queries_engine_warm(workload, benchmark):
    relation, probes = workload
    answers = benchmark(_engine, relation, probes)
    assert len(answers) == len(probes)


def test_p6_paths_agree(workload):
    relation, probes = workload
    assert _engine(_cold(relation), probes) == _reference(relation, probes)
