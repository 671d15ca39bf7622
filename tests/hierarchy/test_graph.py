"""Unit tests for :class:`repro.hierarchy.Hierarchy`."""

import pytest

from repro.errors import (
    CycleError,
    DuplicateNodeError,
    HierarchyError,
    UnknownNodeError,
)
from repro.hierarchy import Hierarchy


@pytest.fixture
def animal():
    h = Hierarchy("animal")
    h.add_class("bird")
    h.add_class("penguin", parents=["bird"])
    h.add_class("canary", parents=["bird"])
    h.add_instance("tweety", parents=["canary"])
    return h


class TestConstruction:
    def test_root_exists(self):
        h = Hierarchy("animal")
        assert "animal" in h
        assert h.root == "animal"

    def test_custom_root(self):
        h = Hierarchy("animals", root="creature")
        assert h.root == "creature"
        assert "creature" in h
        assert "animals" not in h

    def test_empty_name_rejected(self):
        with pytest.raises(HierarchyError):
            Hierarchy("")

    def test_default_parent_is_root(self):
        h = Hierarchy("d")
        h.add_class("a")
        assert h.parents("a") == frozenset({"d"})

    def test_multiple_parents(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        h.add_class("c", parents=["a", "b"])
        assert h.parents("c") == frozenset({"a", "b"})

    def test_duplicate_node_rejected(self, animal):
        with pytest.raises(DuplicateNodeError):
            animal.add_class("bird")

    def test_duplicate_instance_rejected(self, animal):
        with pytest.raises(DuplicateNodeError):
            animal.add_instance("tweety")

    def test_unknown_parent_rejected(self):
        h = Hierarchy("d")
        with pytest.raises(UnknownNodeError):
            h.add_class("a", parents=["nope"])

    def test_empty_parent_list_rejected(self):
        h = Hierarchy("d")
        with pytest.raises(HierarchyError):
            h.add_class("a", parents=[])

    def test_empty_node_name_rejected(self):
        h = Hierarchy("d")
        with pytest.raises(HierarchyError):
            h.add_class("")

    def test_instance_cannot_have_children(self, animal):
        with pytest.raises(HierarchyError):
            animal.add_class("sub", parents=["tweety"])

    def test_instance_cannot_gain_children_by_edge(self, animal):
        animal.add_class("other")
        with pytest.raises(HierarchyError):
            animal.add_edge("tweety", "other")

    def test_len_and_iter(self, animal):
        assert len(animal) == 5
        assert list(animal)[0] == "animal"

    def test_repr(self, animal):
        text = repr(animal)
        assert "animal" in text and "5 nodes" in text


class TestCycles:
    def test_self_edge_rejected(self, animal):
        with pytest.raises(CycleError):
            animal.add_edge("bird", "bird")

    def test_back_edge_rejected(self, animal):
        with pytest.raises(CycleError):
            animal.add_edge("penguin", "bird")

    def test_long_cycle_rejected(self, animal):
        animal.add_class("deep", parents=["penguin"])
        with pytest.raises(CycleError):
            animal.add_edge("deep", "animal")

    def test_forward_edge_allowed(self, animal):
        # A redundant edge is legal (the appendix uses one) ...
        animal.add_edge("bird", "tweety")
        # ... but it is detected.
        assert ("bird", "tweety") in animal.redundant_edges()


class TestSubsumption:
    def test_reflexive(self, animal):
        assert animal.subsumes("bird", "bird")

    def test_transitive(self, animal):
        assert animal.subsumes("animal", "tweety")

    def test_strict_excludes_self(self, animal):
        assert not animal.strictly_subsumes("bird", "bird")
        assert animal.strictly_subsumes("bird", "tweety")

    def test_no_upward(self, animal):
        assert not animal.subsumes("penguin", "bird")

    def test_siblings_unrelated(self, animal):
        assert not animal.subsumes("penguin", "canary")
        assert not animal.subsumes("canary", "penguin")

    def test_unknown_node(self, animal):
        with pytest.raises(UnknownNodeError):
            animal.subsumes("bird", "nope")

    def test_descendants(self, animal):
        assert animal.descendants("bird") == {"bird", "penguin", "canary", "tweety"}
        assert animal.descendants("bird", include_self=False) == {
            "penguin",
            "canary",
            "tweety",
        }

    def test_ancestors(self, animal):
        assert animal.ancestors("tweety") == {"tweety", "canary", "bird", "animal"}
        assert animal.ancestors("tweety", include_self=False) == {
            "canary",
            "bird",
            "animal",
        }

    def test_cones_wider_than_one_mask_word(self):
        """Masks past 64 nodes unpack word by word: a saturated word
        (the root's), a sparse cone and a cone straddling words must all
        equal the plain graph walk."""
        wide = Hierarchy("wide")
        for c in range(5):
            wide.add_class("c{}".format(c))
            for i in range(40):
                wide.add_instance("c{}i{}".format(c, i), parents=["c{}".format(c)])
        wide.add_instance("shared", parents=["c1", "c3"])
        assert len(wide) == 207
        for node in ("wide", "c0", "c3", "c4i39", "shared"):
            assert wide.descendants(node) == wide.downward_closure((node,)), node
        assert wide.ancestors("shared") == {"shared", "c1", "c3", "wide"}
        assert wide.ancestors("c4i39", include_self=False) == {"c4", "wide"}
        assert wide.descendants("c2", include_self=False) == {
            "c2i{}".format(i) for i in range(40)
        }

    def test_cache_invalidation_on_mutation(self, animal):
        assert not animal.subsumes("penguin", "tweety") or True
        assert animal.subsumes("canary", "tweety")
        animal.add_instance("pingu", parents=["penguin"])
        assert animal.subsumes("penguin", "pingu")
        assert animal.subsumes("bird", "pingu")


class TestLeaves:
    def test_leaves(self, animal):
        assert set(animal.leaves()) == {"penguin", "tweety"}

    def test_leaves_under(self, animal):
        assert set(animal.leaves_under("bird")) == {"penguin", "tweety"}
        assert animal.leaves_under("tweety") == ["tweety"]

    def test_childless_class_is_leaf(self, animal):
        assert animal.is_leaf("penguin")
        assert not animal.is_instance("penguin")

    def test_instance_flag(self, animal):
        assert animal.is_instance("tweety")
        assert not animal.is_instance("canary")


class TestMeets:
    def test_comparable_pair(self, animal):
        assert animal.maximal_common_descendants("bird", "canary") == ["canary"]

    def test_identical_pair(self, animal):
        assert animal.maximal_common_descendants("bird", "bird") == ["bird"]

    def test_disjoint_pair(self, animal):
        assert animal.maximal_common_descendants("penguin", "canary") == []

    def test_multiple_inheritance_meet(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        h.add_class("ab", parents=["a", "b"])
        h.add_instance("x", parents=["ab"])
        assert h.maximal_common_descendants("a", "b") == ["ab"]

    def test_two_incomparable_meets(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        h.add_class("m1", parents=["a", "b"])
        h.add_class("m2", parents=["a", "b"])
        assert sorted(h.maximal_common_descendants("a", "b")) == ["m1", "m2"]

    def test_meet_with_instance_witness(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b")
        h.add_instance("x", parents=["a", "b"])
        assert h.maximal_common_descendants("a", "b") == ["x"]


class TestTopology:
    def test_topological_order_respects_edges(self, animal):
        order = animal.topological_order()
        assert order.index("animal") < order.index("bird") < order.index("tweety")

    def test_topological_rank(self, animal):
        assert animal.topological_rank("animal") == 0
        assert animal.topological_rank("bird") < animal.topological_rank("canary")

    def test_order_is_deterministic(self, animal):
        assert animal.topological_order() == animal.topological_order()

    def test_transitively_reduced(self, animal):
        assert animal.is_transitively_reduced()
        animal.add_edge("animal", "tweety")
        assert not animal.is_transitively_reduced()


class TestPreferenceEdges:
    def test_preference_edge_affects_binding_order_only(self, animal):
        animal.add_class("royal", parents=["bird"])
        animal.add_preference_edge("canary", "royal")
        assert animal.binding_subsumes("canary", "royal")
        assert not animal.subsumes("canary", "royal")

    def test_preference_cycle_rejected(self, animal):
        animal.add_preference_edge("penguin", "canary")
        with pytest.raises(CycleError):
            animal.add_preference_edge("canary", "penguin")

    def test_preference_against_class_order_rejected(self, animal):
        with pytest.raises(CycleError):
            # canary already binding-subsumes tweety via class edges.
            animal.add_preference_edge("tweety", "canary")

    def test_preference_edges_listed(self, animal):
        animal.add_preference_edge("penguin", "canary")
        assert animal.preference_edges() == [("penguin", "canary")]
        assert animal.has_preference_edges()

    def test_unknown_nodes_rejected(self, animal):
        with pytest.raises(UnknownNodeError):
            animal.add_preference_edge("nope", "bird")


class TestRemoveNode:
    def test_remove_preserves_reachability(self, animal):
        animal.add_instance("pingu", parents=["penguin"])
        animal.remove_node("penguin")
        assert "penguin" not in animal
        assert animal.subsumes("bird", "pingu")

    def test_remove_does_not_add_redundant_edges(self):
        h = Hierarchy("d")
        h.add_class("a")
        h.add_class("b", parents=["a"])
        h.add_class("c", parents=["b"])
        h.add_class("side", parents=["a"])
        h.add_edge("side", "c")
        h.remove_node("b")
        # a -> c would be redundant iff a path a ->* c exists; a->side->c does.
        assert h.subsumes("a", "c")
        assert h.is_transitively_reduced()

    def test_remove_root_rejected(self, animal):
        with pytest.raises(HierarchyError):
            animal.remove_node("animal")

    def test_remove_unknown_rejected(self, animal):
        with pytest.raises(UnknownNodeError):
            animal.remove_node("nope")

    def test_remove_clears_instance_flag(self, animal):
        animal.remove_node("tweety")
        assert "tweety" not in animal

    def test_remove_clears_preference_edges(self, animal):
        animal.add_preference_edge("penguin", "canary")
        animal.remove_node("canary")
        assert animal.preference_edges() == []


class TestViews:
    def test_edges_listing(self, animal):
        edges = animal.edges()
        assert ("bird", "penguin") in edges
        assert ("animal", "bird") in edges

    def test_class_graph_is_a_copy(self, animal):
        graph = animal.class_graph()
        graph["bird"].add("bogus")
        assert "bogus" not in animal.children("bird")

    def test_binding_graph_merges_preferences(self, animal):
        animal.add_preference_edge("penguin", "canary")
        graph = animal.binding_graph()
        assert "canary" in graph["penguin"]

    def test_version_bumps(self, animal):
        v = animal.version
        animal.add_class("new")
        assert animal.version > v
