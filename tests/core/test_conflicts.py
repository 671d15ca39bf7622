"""Unit tests for conflict detection and resolution sets (section 3.1)."""

import pytest

from repro.core import (
    HRelation,
    RelationSchema,
    complete_resolution_set,
    find_conflicts,
    is_consistent,
    minimal_resolution_set,
)
from repro.core.conflicts import conflict_candidates, resolution_tuples
from repro.core.preemption import STRATEGIES
from repro.hierarchy import Hierarchy
from tests.conftest import make_relation


class TestFig3:
    def test_unresolved_is_inconsistent(self, school):
        unresolved = school.unresolved()
        conflicts = find_conflicts(unresolved)
        assert len(conflicts) == 1
        assert conflicts[0].item == ("obsequious_student", "incoherent_teacher")
        assert not is_consistent(unresolved)

    def test_resolved_is_consistent(self, school):
        assert is_consistent(school.respects)
        assert find_conflicts(school.respects, exhaustive=True) == []

    def test_conflict_sides(self, school):
        conflict = find_conflicts(school.unresolved())[0]
        assert [b.item for b in conflict.positive] == [("obsequious_student", "teacher")]
        assert [b.item for b in conflict.negative] == [("student", "incoherent_teacher")]

    def test_conflict_str(self, school):
        text = str(find_conflicts(school.unresolved())[0])
        assert "conflict at" in text and "incoherent_teacher" in text


class TestCandidates:
    def test_candidates_are_meets(self, school):
        candidates = conflict_candidates(school.unresolved())
        assert candidates == [("obsequious_student", "incoherent_teacher")]

    def test_no_negatives_no_candidates(self, flying):
        r = HRelation(flying.flies.schema)
        r.assert_item(("bird",))
        assert conflict_candidates(r) == []

    def test_candidates_agree_with_exhaustive(self, school):
        # The candidate scan reports the *maximal* conflicted items; the
        # exhaustive scan also lists everything below them.  They must
        # agree on whether the relation is consistent, and every
        # candidate witness must be among the exhaustive ones.
        unresolved = school.unresolved()
        by_candidates = {c.item for c in find_conflicts(unresolved)}
        by_exhaustive = {c.item for c in find_conflicts(unresolved, exhaustive=True)}
        assert by_candidates <= by_exhaustive
        assert bool(by_candidates) == bool(by_exhaustive)
        product = unresolved.schema.product
        for witness in by_exhaustive:
            assert any(
                product.subsumes(candidate, witness) for candidate in by_candidates
            )

    def test_flying_dataset_consistent_both_ways(self, flying):
        assert find_conflicts(flying.flies) == []
        assert find_conflicts(flying.flies, exhaustive=True) == []


class TestOptimisticDisjointness:
    """Two classes are disjoint until the hierarchy shows otherwise."""

    def test_no_witness_no_conflict(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        r = make_relation(h, [("a", True), ("b", False)])
        assert is_consistent(r)

    def test_instance_witness_creates_conflict(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        r = make_relation(h, [("a", True), ("b", False)])
        h.add_instance("w", parents=["a", "b"])
        assert not is_consistent(r)

    def test_empty_intersection_class_is_evidence_too(self):
        # "whether or not there exist any instances of this class."
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        h.add_class("ab", parents=["a", "b"])  # declared, empty
        r = make_relation(h, [("a", True), ("b", False)])
        conflicts = find_conflicts(r)
        assert [c.item for c in conflicts] == [("ab",)]


class TestResolutionSets:
    def test_complete_set(self, school):
        complete = complete_resolution_set(
            school.unresolved(), ("obsequious_student", "teacher"),
            ("student", "incoherent_teacher"),
        )
        # Common descendants: {obsequious_student, john} x {incoherent_teacher, bill}
        assert set(complete) == {
            ("obsequious_student", "incoherent_teacher"),
            ("obsequious_student", "bill"),
            ("john", "incoherent_teacher"),
            ("john", "bill"),
        }

    def test_minimal_set(self, school):
        minimal = minimal_resolution_set(
            school.unresolved(), ("obsequious_student", "teacher"),
            ("student", "incoherent_teacher"),
        )
        assert minimal == [("obsequious_student", "incoherent_teacher")]

    def test_minimal_is_maximal_elements_of_complete(self, school):
        rel = school.unresolved()
        a = ("obsequious_student", "teacher")
        b = ("student", "incoherent_teacher")
        complete = set(complete_resolution_set(rel, a, b))
        minimal = set(minimal_resolution_set(rel, a, b))
        product = rel.schema.product
        for m in minimal:
            assert not any(
                other != m and product.strictly_subsumes(other, m) for other in complete
            )

    def test_disjoint_items_empty_sets(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        r = make_relation(h, [("a", True), ("b", False)])
        assert complete_resolution_set(r, ("a",), ("b",)) == []
        assert minimal_resolution_set(r, ("a",), ("b",)) == []

    def test_two_maximal_common_descendants(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        h.add_class("m1", parents=["a", "b"])
        h.add_class("m2", parents=["a", "b"])
        r = make_relation(h, [("a", True), ("b", False)])
        assert set(minimal_resolution_set(r, ("a",), ("b",))) == {("m1",), ("m2",)}
        # Resolving only one of them leaves the other conflicted.
        r.assert_item(("m1",), truth=True)
        remaining = {c.item for c in find_conflicts(r)}
        assert remaining == {("m2",)}
        r.assert_item(("m2",), truth=False)
        assert is_consistent(r)


class TestResolutionTuples:
    def test_planner_resolves(self, school):
        unresolved = school.unresolved()
        conflict = find_conflicts(unresolved)[0]
        plan = resolution_tuples(unresolved, conflict, truth=True)
        assert [t.item for t in plan] == [("obsequious_student", "incoherent_teacher")]
        for t in plan:
            unresolved.assert_item(t.item, truth=t.truth)
        assert is_consistent(unresolved)

    def test_planner_negative_choice(self, school):
        unresolved = school.unresolved()
        conflict = find_conflicts(unresolved)[0]
        plan = resolution_tuples(unresolved, conflict, truth=False)
        for t in plan:
            unresolved.assert_item(t.item, truth=t.truth)
        assert is_consistent(unresolved)
        assert not unresolved.truth_of(("john", "bill"))


class TestCrosswiseConflicts:
    """Incomparable opposite-sign binders over cone pairs of a binary
    relation: one conflict per pair, at the meet neither tuple asserts."""

    def _relation(self, strategy, pairs):
        hierarchy = Hierarchy("dom", root="dom")
        for c in range(2 * pairs):
            hierarchy.add_class("c{}".format(c), parents=["dom"])
            hierarchy.add_instance("c{}i".format(c), parents=["c{}".format(c)])
            hierarchy.add_class("c{}x".format(c), parents=["c{}".format(c)])
            hierarchy.add_instance("c{}xi".format(c), parents=["c{}x".format(c)])
        relation = HRelation(
            RelationSchema([("a", hierarchy), ("b", hierarchy)]),
            name="noisy",
            strategy=STRATEGIES[strategy],
        )
        for k in range(pairs):
            a, b = "c{}".format(2 * k), "c{}".format(2 * k + 1)
            relation.assert_item((a, b), truth=True)
            relation.assert_item((a, b + "x"), truth=True)
            relation.assert_item((a + "x", b), truth=False)
        return relation

    @pytest.mark.parametrize("pairs", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["off-path", "on-path", "none"])
    def test_one_conflict_per_cone_pair(self, strategy, pairs):
        relation = self._relation(strategy, pairs)
        conflicts = find_conflicts(relation)
        assert [c.item for c in conflicts] == [
            ("c{}x".format(2 * k), "c{}x".format(2 * k + 1)) for k in range(pairs)
        ]
        exhaustive = {c.item for c in find_conflicts(relation, exhaustive=True)}
        for conflict in conflicts:
            assert conflict.item in exhaustive
            assert conflict.positive and conflict.negative
