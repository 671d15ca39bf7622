"""Unit tests for the database catalog facade."""

import pytest

from repro.errors import (
    CatalogError,
    InconsistentRelationError,
    SchemaError,
    UnknownNodeError,
)
from repro.core import ON_PATH
from repro.engine import HierarchicalDatabase


@pytest.fixture
def db():
    database = HierarchicalDatabase("zoo")
    animal = database.create_hierarchy("animal")
    animal.add_class("bird")
    animal.add_class("penguin", parents=["bird"])
    animal.add_instance("tweety", parents=["bird"])
    database.create_relation("flies", [("creature", "animal")])
    return database


class TestCatalog:
    def test_create_and_get(self, db):
        assert db.hierarchy("animal").name == "animal"
        assert db.relation("flies").name == "flies"

    def test_duplicate_hierarchy(self, db):
        with pytest.raises(CatalogError):
            db.create_hierarchy("animal")

    def test_duplicate_relation(self, db):
        with pytest.raises(CatalogError):
            db.create_relation("flies", [("creature", "animal")])

    def test_unknown_lookup(self, db):
        with pytest.raises(CatalogError):
            db.hierarchy("nope")
        with pytest.raises(CatalogError):
            db.relation("nope")

    def test_unknown_hierarchy_in_relation(self, db):
        with pytest.raises(CatalogError):
            db.create_relation("r", [("x", "nope")])

    def test_strategy_by_name(self, db):
        r = db.create_relation("r", [("x", "animal")], strategy="on-path")
        assert r.strategy is ON_PATH
        with pytest.raises(CatalogError):
            db.create_relation("r2", [("x", "animal")], strategy="bogus")

    def test_register_external(self, db):
        from repro.hierarchy import Hierarchy

        h = Hierarchy("colors")
        db.register_hierarchy(h)
        assert db.hierarchy("colors") is h
        with pytest.raises(CatalogError):
            db.register_hierarchy(h)

    def test_drop_relation(self, db):
        db.drop_relation("flies")
        with pytest.raises(CatalogError):
            db.relation("flies")
        with pytest.raises(CatalogError):
            db.drop_relation("flies")

    def test_drop_hierarchy_in_use_rejected(self, db):
        with pytest.raises(CatalogError):
            db.drop_hierarchy("animal")
        db.drop_relation("flies")
        db.drop_hierarchy("animal")
        assert "animal" not in db.hierarchies

    def test_repr(self, db):
        assert "zoo" in repr(db)


class TestDML:
    def test_insert_and_query(self, db):
        db.insert("flies", ("bird",))
        assert db.relation("flies").holds("tweety")

    def test_insert_conflict_rejected(self, db):
        animal = db.hierarchy("animal")
        animal.add_class("swimmer")  # incomparable with bird
        animal.add_instance("both", parents=["bird", "swimmer"])
        db.insert("flies", ("bird",))
        with pytest.raises(InconsistentRelationError):
            db.insert("flies", ("swimmer",), truth=False)
        # Nothing half-applied:
        assert len(db.relation("flies")) == 1

    def test_delete(self, db):
        db.insert("flies", ("bird",))
        db.delete("flies", ("bird",))
        assert len(db.relation("flies")) == 0

    def test_delete_that_creates_conflict_rejected(self, db):
        animal = db.hierarchy("animal")
        animal.add_class("afp", parents=["penguin"])
        animal.add_instance("pam", parents=["afp"])
        animal.add_instance("gal", parents=["penguin", "afp"])
        db.insert("flies", ("bird",))
        db.insert("flies", ("penguin",), truth=False)
        db.insert("flies", ("afp",))
        # afp's tuple shields gal from the bird/penguin pair; removing a
        # tuple can create a conflict... here removing penguin's negation
        # is safe, but removing afp while keeping a finer contradiction:
        db.insert("flies", ("pam",))  # redundant but legal
        db.delete("flies", ("pam",))  # safe delete works
        assert ("pam",) not in db.relation("flies")

    def test_consolidate_in_place(self, db):
        db.insert("flies", ("bird",))
        db.insert("flies", ("tweety",))  # redundant
        removed = db.consolidate_in_place("flies")
        assert removed == 1
        assert len(db.relation("flies")) == 1

    def test_explicate_in_place(self, db):
        db.insert("flies", ("bird",))
        delta = db.explicate_in_place("flies")
        relation = db.relation("flies")
        assert all(
            relation.schema.hierarchies[0].is_leaf(t.item[0]) for t in relation.tuples()
        )
        assert delta == len(relation) - 1


class TestDatabaseViews:
    def test_define_and_query(self, db):
        db.insert("flies", ("bird",))
        view = db.define_view(
            "birds_that_fly", "select", ["flies"], {"creature": "bird"}
        )
        assert db.view("birds_that_fly") is view
        assert ("tweety",) in set(view.extension())

    def test_view_tracks_drop_and_recreate(self, db):
        db.insert("flies", ("bird",))
        view = db.define_view(
            "birds_that_fly", "select", ["flies"], {"creature": "bird"}
        )
        assert len(list(view.extension())) > 0
        db.drop_relation("flies")
        db.create_relation("flies", [("creature", "animal")])
        assert list(view.extension()) == []  # resolved by name, not object

    def test_view_follows_a_recreate_at_an_equal_version(self, db):
        """The recreated source reaches the dropped one's version, so
        only the object's identity tells the view its cache is stale."""
        db.hierarchy("animal").add_instance("polly", parents=["bird"])
        db.insert("flies", ("bird",))
        view = db.define_view(
            "birds_that_fly", "select", ["flies"], {"creature": "bird"}
        )
        assert sorted(view.extension()) == [("penguin",), ("polly",), ("tweety",)]
        db.drop_relation("flies")
        db.create_relation("flies", [("creature", "animal")])
        db.insert("flies", ("tweety",))
        assert db.relation("flies").version == 1
        assert view.is_stale()
        assert sorted(view.extension()) == [("tweety",)]

    @pytest.mark.parametrize(
        "conditions, error, message",
        [
            ({"zz": "bird"}, SchemaError, "unknown attributes"),
            ({"creature": "nope"}, UnknownNodeError, "unknown node 'nope'"),
        ],
        ids=["attribute", "node"],
    )
    def test_select_over_unknown_names_rejected_at_definition(
        self, db, conditions, error, message
    ):
        with pytest.raises(error, match="view 'v': " + message):
            db.define_view("v", "select", ["flies"], conditions)
        assert "v" not in db.views
        assert db.view_definitions == {}

    def test_define_requires_existing_sources(self, db):
        with pytest.raises(CatalogError):
            db.define_view("v", "select", ["nope"], {"creature": "bird"})

    def test_unknown_view(self, db):
        with pytest.raises(CatalogError):
            db.view("nope")
        with pytest.raises(CatalogError):
            db.drop_view("nope")

    def test_drop_view(self, db):
        db.define_view("v", "select", ["flies"], {"creature": "bird"})
        db.drop_view("v")
        with pytest.raises(CatalogError):
            db.view("v")
