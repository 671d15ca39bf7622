"""Unit tests for the hierarchical relational algebra (section 3.4)."""

import pytest

from repro.errors import InconsistentRelationError, SchemaError
from repro.flat import algebra as flat_algebra
from repro.flat import from_hrelation
from repro.core import (
    HRelation,
    RelationSchema,
    difference,
    intersection,
    join,
    project,
    rename,
    select,
    union,
)
from repro.core.algebra import combine, meet_closure
from repro.core.preemption import STRATEGIES
from repro.hierarchy import Hierarchy


def flat_rows(relation):
    return set(from_hrelation(relation).rows())


class TestFig10SetOperations:
    def test_union_is_all_birds(self, loves):
        result = union(loves.jack_loves, loves.jill_loves)
        assert [t.item for t in result.tuples()] == [("bird",)]
        assert all(t.truth for t in result.tuples())

    def test_union_flat_semantics(self, loves):
        got = flat_rows(union(loves.jack_loves, loves.jill_loves))
        want = flat_algebra.union(
            from_hrelation(loves.jack_loves), from_hrelation(loves.jill_loves)
        ).rows()
        assert got == want

    def test_intersection_is_peter(self, loves):
        result = intersection(loves.jack_loves, loves.jill_loves)
        assert flat_rows(result) == {("peter",)}

    def test_difference_jack_only(self, loves):
        result = difference(loves.jack_loves, loves.jill_loves)
        want = flat_algebra.difference(
            from_hrelation(loves.jack_loves), from_hrelation(loves.jill_loves)
        ).rows()
        assert flat_rows(result) == want

    def test_difference_jill_only(self, loves):
        result = difference(loves.jill_loves, loves.jack_loves)
        # Jill loves penguins; Jack loves Peter among them.
        items = {t.item: t.truth for t in result.tuples()}
        assert items == {("penguin",): True, ("peter",): False}

    def test_set_ops_reject_mismatched_schemas(self, loves, school):
        with pytest.raises(SchemaError):
            union(loves.jack_loves, school.respects)

    def test_unconsolidated_result_still_equivalent(self, loves):
        raw = union(loves.jack_loves, loves.jill_loves, consolidate=False)
        compact = union(loves.jack_loves, loves.jill_loves)
        assert flat_rows(raw) == flat_rows(compact)
        assert len(raw) >= len(compact)


class TestSelection:
    def test_fig7_obsequious_students(self, school):
        result = select(school.respects, {"student": "obsequious_student"})
        assert flat_rows(result) == {
            ("john", "bill"),
            ("john", "tom"),
        }

    def test_fig8_john(self, school):
        result = select(school.respects, {"student": "john"})
        assert [t.item for t in result.tuples()] == [("john", "teacher")]

    def test_select_on_class_value(self, school):
        result = select(school.respects, {"teacher": "incoherent_teacher"})
        assert flat_rows(result) == {("john", "bill")}

    def test_select_two_conditions(self, school):
        result = select(
            school.respects, {"student": "john", "teacher": "incoherent_teacher"}
        )
        assert flat_rows(result) == {("john", "bill")}

    def test_select_no_conditions_is_copy(self, school):
        result = select(school.respects, {})
        assert result.same_tuples_as(school.respects)

    def test_select_unknown_attribute(self, school):
        with pytest.raises(SchemaError):
            select(school.respects, {"nope": "x"})

    def test_select_excludes_exceptions(self, flying):
        result = select(flying.flies, {"creature": "penguin"})
        assert flat_rows(result) == {
            ("pamela",),
            ("patricia",),
            ("peter",),
        }


class TestProjection:
    def test_project_identity_order(self, school):
        result = project(school.respects, ["student", "teacher"])
        assert flat_rows(result) == flat_rows(school.respects)

    def test_project_reorders(self, school):
        result = project(school.respects, ["teacher", "student"])
        assert result.schema.attributes == ("teacher", "student")
        assert flat_rows(result) == {
            (t, s) for s, t in flat_rows(school.respects)
        }

    def test_project_drops_attribute(self, school):
        result = project(school.respects, ["student"])
        want = flat_algebra.project(from_hrelation(school.respects), ["student"]).rows()
        assert flat_rows(result) == want

    def test_project_empty_rejected(self, school):
        with pytest.raises(SchemaError):
            project(school.respects, [])

    def test_fig11_projection_back(self, elephants):
        """Fig. 11c: join then project back loses nothing."""
        joined = join(elephants.enclosure_size, elephants.animal_color)
        back = project(joined, ["animal", "color"])
        assert flat_rows(back) == flat_rows(elephants.animal_color)

    def test_projection_keeps_condensation(self, school):
        result = project(school.respects, ["student"])
        # The answer is representable (and returned) as one class tuple.
        assert [t.item for t in result.tuples()] == [("obsequious_student",)]


class TestJoin:
    def test_fig11_join_flat_semantics(self, elephants):
        joined = join(elephants.enclosure_size, elephants.animal_color)
        want = flat_algebra.join(
            from_hrelation(elephants.enclosure_size),
            from_hrelation(elephants.animal_color),
        ).rows()
        assert flat_rows(joined) == want

    def test_join_schema_order(self, elephants):
        joined = join(elephants.enclosure_size, elephants.animal_color)
        assert joined.schema.attributes == ("animal", "size", "color")

    def test_join_disjoint_schemas_is_product(self, loves, elephants):
        # A join over disjoint attribute sets is a cross product.
        left = loves.jack_loves
        right = HRelation(
            [("shade", elephants.color)], name="shades"
        )
        right.assert_item(("grey",))
        crossed = join(left, right)
        want = flat_algebra.join(from_hrelation(left), from_hrelation(right)).rows()
        assert flat_rows(crossed) == want

    def test_join_appu_rows(self, elephants):
        joined = join(elephants.enclosure_size, elephants.animal_color)
        rows = flat_rows(joined)
        assert ("appu", "2000", "white") in rows
        assert ("clyde", "3000", "dappled") in rows
        assert ("appu", "3000", "white") not in rows
        assert ("appu", "2000", "grey") not in rows

    def test_join_condensed_output(self, elephants):
        joined = join(elephants.enclosure_size, elephants.animal_color)
        # The output stays condensed: class-level values survive the
        # join (Fig. 11b keeps ∀elephant rows) instead of exploding to
        # per-instance tuples only.
        assert any(
            not h.is_leaf(v)
            for t in joined.tuples()
            for h, v in zip(joined.schema.hierarchies, t.item)
        )
        assert len(joined) <= 12


class TestSemijoinAntijoin:
    def test_semijoin_keeps_matched_left_atoms(self, elephants):
        from repro.core import semijoin

        # Every animal with a colour also has an enclosure, so the
        # semijoin of colours against sizes is the colour relation.
        got = semijoin(elephants.animal_color, elephants.enclosure_size)
        assert flat_rows(got) == flat_rows(elephants.animal_color)

    def test_semijoin_filters(self, elephants):
        from repro.core import HRelation, semijoin

        only_clyde = HRelation(
            [("animal", elephants.animal)], name="watch_list"
        )
        only_clyde.assert_item(("clyde",))
        got = semijoin(elephants.animal_color, only_clyde)
        assert flat_rows(got) == {("clyde", "dappled")}

    def test_antijoin_is_complement_of_semijoin(self, elephants):
        from repro.core import HRelation, antijoin, semijoin

        only_clyde = HRelation(
            [("animal", elephants.animal)], name="watch_list"
        )
        only_clyde.assert_item(("clyde",))
        matched = flat_rows(semijoin(elephants.animal_color, only_clyde))
        unmatched = flat_rows(antijoin(elephants.animal_color, only_clyde))
        assert matched | unmatched == flat_rows(elephants.animal_color)
        assert matched & unmatched == set()

    def test_semijoin_flat_oracle(self, elephants):
        from repro.core import semijoin

        got = flat_rows(semijoin(elephants.enclosure_size, elephants.animal_color))
        joined = flat_algebra.join(
            from_hrelation(elephants.enclosure_size),
            from_hrelation(elephants.animal_color),
        )
        want = flat_algebra.project(joined, ["animal", "size"]).rows()
        assert got == want


class TestRename:
    def test_rename_attribute(self, school):
        result = rename(school.respects, {"student": "pupil"})
        assert result.schema.attributes == ("pupil", "teacher")
        assert flat_rows(result) == flat_rows(school.respects)

    def test_rename_unknown(self, school):
        with pytest.raises(SchemaError):
            rename(school.respects, {"zz": "x"})


class TestCombine:
    def test_meet_closure_contains_inputs(self, school):
        product = school.respects.schema.product
        items = set(school.respects.asserted)
        closure = meet_closure(product, items)
        assert items <= closure

    def test_meet_closure_closed(self, school):
        product = school.respects.schema.product
        closure = meet_closure(product, set(school.respects.asserted))
        for a in closure:
            for b in closure:
                for m in product.meet(a, b):
                    assert m in closure

    def test_combine_rejects_non_zero_preserving_fn(self, loves):
        with pytest.raises(SchemaError):
            combine([loves.jack_loves], lambda a: not a)

    def test_combine_rejects_empty(self):
        with pytest.raises(SchemaError):
            combine([], lambda: False)

    def test_combine_raises_on_inconsistent_input(self, school):
        bad = school.unresolved()
        good = school.respects
        with pytest.raises(InconsistentRelationError):
            combine([bad, good], lambda a, b: a and b)

    def test_combine_three_way(self, loves):
        both_and_more = combine(
            [loves.jack_loves, loves.jill_loves, loves.jack_loves],
            lambda a, b, c: (a or b) and c,
            name="threeway",
        )
        want = flat_rows(loves.jack_loves)
        assert flat_rows(both_and_more) == want


#: Positive tuples holding the root as a value, so ``right`` stays
#: consistent under every strategy however many of them it asserts.
ROOT_VALUED = [("dom", "c1"), ("c2", "dom"), ("dom", "c3i1"), ("dom", "dom")]


def _cone_pairs(strategy, roots=1):
    """Two binary relations over a star of disjoint cones; ``right`` also
    asserts the first ``roots`` of ``ROOT_VALUED``."""
    hierarchy = Hierarchy("dom", root="dom")
    for c in range(4):
        hierarchy.add_class("c{}".format(c), parents=["dom"])
        for i in range(2):
            hierarchy.add_instance("c{}i{}".format(c, i), parents=["c{}".format(c)])
    schema = RelationSchema([("a", hierarchy), ("b", hierarchy)])
    left = HRelation(schema, name="left", strategy=STRATEGIES[strategy])
    right = HRelation(schema, name="right", strategy=STRATEGIES[strategy])
    left.assert_item(("c0", "c1"))
    left.assert_item(("c3i0", "c2i0"), truth=False)
    left.assert_item(("c2", "c3"))
    right.assert_item(("c1", "c0"))
    right.assert_item(("c0i1", "c1i1"))
    for item in ROOT_VALUED[:roots]:
        right.assert_item(item)
    return hierarchy, left, right


class TestRootValuedTuples:
    """A hierarchy root asserted as data binds like any class value."""

    @pytest.mark.parametrize("roots", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["off-path", "on-path", "none"])
    def test_set_operations_match_flat(self, strategy, roots):
        _, left, right = _cone_pairs(strategy, roots)
        flat_left, flat_right = from_hrelation(left), from_hrelation(right)
        for op, flat_op in (
            (union, flat_algebra.union),
            (intersection, flat_algebra.intersection),
            (difference, flat_algebra.difference),
        ):
            assert flat_rows(op(left, right)) == flat_op(flat_left, flat_right).rows(), op.__name__

    @pytest.mark.parametrize("strategy", ["off-path", "on-path", "none"])
    def test_extension_below_a_root_tuple(self, strategy):
        hierarchy, _, right = _cone_pairs(strategy)
        rooted = right.copy(name="rooted")
        rooted.clear()
        rooted.assert_item(("dom", "dom"))
        rooted.assert_item(("c0", "c1"))
        leaves = hierarchy.leaves()
        atoms = list(rooted.extension())
        assert len(atoms) == len(set(atoms))
        assert set(atoms) == {(a, b) for a in leaves for b in leaves}
