"""Unit tests for the consolidate operator (section 3.3.1, Fig. 6)."""


from repro.core import HRelation, consolidate
from repro.core.consolidate import redundant_tuples
from repro.hierarchy import Hierarchy
from tests.conftest import make_relation


class TestFig6:
    def test_both_tuples_removed(self, school):
        """The paper's walkthrough: the (student, incoherent) negation is
        redundant under the universal negated tuple; once it is gone the
        conflict-resolving (obsequious, incoherent) tuple becomes
        redundant under (obsequious, teacher)."""
        result = consolidate(school.respects)
        assert [t.item for t in result.tuples()] == [("obsequious_student", "teacher")]

    def test_extension_preserved(self, school):
        before = set(school.respects.extension())
        after = set(consolidate(school.respects).extension())
        assert before == after

    def test_removal_order_matches_paper(self, school):
        removed = redundant_tuples(school.respects)
        assert removed == [
            ("student", "incoherent_teacher"),
            ("obsequious_student", "incoherent_teacher"),
        ]

    def test_result_still_consistent(self, school):
        assert consolidate(school.respects).is_consistent()


class TestBasicRedundancy:
    def test_duplicate_of_parent_removed(self, flying):
        flying.flies.assert_item(("canary",), truth=True)  # bird already says so
        result = consolidate(flying.flies)
        assert ("canary",) not in result

    def test_exception_tuples_kept(self, flying):
        result = consolidate(flying.flies)
        assert ("penguin",) in result
        assert ("amazing_flying_penguin",) in result
        assert ("peter",) in result

    def test_parentless_negated_tuple_removed(self, flying):
        """A negated tuple with no positive predecessor restates the
        universal negated default."""
        flying.flies.assert_item(("animal",), truth=False)
        result = consolidate(flying.flies)
        assert ("animal",) not in result

    def test_negated_under_negated_removed(self, flying):
        flying.flies.assert_item(("paul",), truth=False)  # penguin already says no
        result = consolidate(flying.flies)
        assert ("paul",) not in result

    def test_positive_under_positive_exception_chain_kept(self, flying):
        # +(afp) sits under -(penguin): not redundant.
        result = consolidate(flying.flies)
        assert ("amazing_flying_penguin",) in result


class TestProperties:
    def test_idempotent(self, school, flying):
        for relation in (school.respects, flying.flies):
            once = consolidate(relation)
            twice = consolidate(once)
            assert once.same_tuples_as(twice)

    def test_empty_relation(self, flying):
        empty = HRelation(flying.flies.schema)
        assert len(consolidate(empty)) == 0

    def test_preserves_name_and_strategy(self, flying):
        result = consolidate(flying.flies, name="compact")
        assert result.name == "compact"
        assert result.strategy is flying.flies.strategy

    def test_original_untouched(self, school):
        before = len(school.respects)
        consolidate(school.respects)
        assert len(school.respects) == before

    def test_diamond_resolution_collapses_like_fig6(self, diamond):
        # +(a), -(b), +(d): processed in topological order, -(b) is
        # redundant under the universal negated root; with it gone +(d)
        # is redundant under +(a) — the same cascade as Fig. 6.  The
        # extension is intact and the result still consistent.
        r = make_relation(diamond, [("a", True), ("b", False), ("d", True)])
        result = consolidate(r)
        assert [t.item for t in result.tuples()] == [("a",)]
        assert set(result.extension()) == set(r.extension())
        assert result.is_consistent()

    def test_diamond_negative_resolution_kept(self, diamond):
        # +(a), -(b), -(d): once -(b) is gone, -(d) differs from its
        # remaining predecessor +(a) and must be kept.
        r = make_relation(diamond, [("a", True), ("b", False), ("d", False)])
        result = consolidate(r)
        assert set(t.item for t in result.tuples()) == {("a",), ("d",)}
        assert set(result.extension()) == set(r.extension())

    def test_multi_inheritance_unanimous_parents_removed(self, diamond):
        r = make_relation(diamond, [("a", True), ("b", True), ("d", True)])
        result = consolidate(r)
        assert ("d",) not in result
        assert set(result.extension()) == set(r.extension())


class TestChains:
    def test_alternating_chain_is_already_minimal(self):
        h = Hierarchy("d")
        parent = "d"
        for i in range(6):
            node = "n{}".format(i)
            h.add_class(node, parents=[parent])
            parent = node
        h.add_instance("leaf", parents=[parent])
        pairs = [("n{}".format(i), i % 2 == 0) for i in range(6)]
        r = make_relation(h, pairs)
        assert len(consolidate(r)) == len(r)

    def test_uniform_chain_collapses_to_top(self):
        h = Hierarchy("d")
        parent = "d"
        for i in range(6):
            node = "n{}".format(i)
            h.add_class(node, parents=[parent])
            parent = node
        pairs = [("n{}".format(i), True) for i in range(6)]
        r = make_relation(h, pairs)
        result = consolidate(r)
        assert [t.item for t in result.tuples()] == [("n0",)]


class TestKeptSubsumersOfBothSigns:
    """Fig. 4's shape: Appu is both a royal and an Indian elephant, so
    kept subsumers of both signs meet below them and only the minimal
    ones are predecessors."""

    @staticmethod
    def elephants():
        h = Hierarchy("animal")
        h.add_class("elephant")
        h.add_class("royal", parents=["elephant"])
        h.add_class("indian", parents=["elephant"])
        h.add_instance("clyde", parents=["royal"])
        h.add_instance("appu", parents=["royal", "indian"])
        return h

    def test_both_signs_branch_matches_graph_elimination(self, monkeypatch):
        from repro.core import bulk
        from repro.core.consolidate import _redundant_by_elimination

        scans = []
        real = bulk.mask_union

        def spy(mask, table, keys):
            scans.append(mask)
            return real(mask, table, keys)

        monkeypatch.setattr(bulk, "mask_union", spy)
        r = make_relation(
            self.elephants(),
            [
                ("elephant", True),
                ("royal", False),
                ("indian", False),
                ("clyde", False),  # minimal kept subsumer -royal: redundant
                ("appu", True),  # minimal kept subsumers -royal, -indian: kept
            ],
        )
        removed = redundant_tuples(r)
        assert scans  # the both-signs branch ran
        assert removed == [("clyde",)]
        assert removed == _redundant_by_elimination(r)
        assert set(consolidate(r).extension()) == set(r.extension())
