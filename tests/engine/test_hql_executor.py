"""Integration tests: HQL scripts end to end."""

import pytest

from repro.errors import CatalogError, HQLError, InconsistentRelationError
from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE CLASS amazing_flying_penguin IN animal UNDER penguin;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE INSTANCE pamela IN animal UNDER amazing_flying_penguin;
CREATE RELATION flies (creature: animal);
ASSERT flies (bird);
ASSERT NOT flies (penguin);
ASSERT flies (amazing_flying_penguin);
"""


@pytest.fixture
def db():
    database = HierarchicalDatabase("zoo")
    database.execute(SETUP)
    return database


class TestBasicFlow:
    def test_truth_results(self, db):
        results = db.execute("TRUTH flies (tweety); TRUTH flies (paul);")
        assert [r.payload for r in results] == [True, False]

    def test_justify_result(self, db):
        (result,) = db.execute("JUSTIFY flies (pamela);")
        assert result.kind == "justification"
        assert result.payload.truth is True
        assert "amazing_flying_penguin" in result.message

    def test_select_with_alias_stores_relation(self, db):
        db.execute("SELECT FROM flies WHERE creature = penguin AS pf;")
        stored = db.relation("pf")
        assert sorted(x[0] for x in stored.extension()) == ["pamela"]

    def test_extension_result(self, db):
        (result,) = db.execute("EXTENSION flies;")
        assert ("tweety",) in result.payload
        assert ("paul",) not in result.payload

    def test_conflicts_result(self, db):
        (result,) = db.execute("CONFLICTS flies;")
        assert result.payload == []
        assert "consistent" in result.message

    def test_show(self, db):
        relations, hierarchies = db.execute("SHOW RELATIONS; SHOW HIERARCHIES;")
        assert any("flies" in row for row in relations.payload)
        assert any("animal" in row for row in hierarchies.payload)

    def test_consolidate_in_place(self, db):
        db.execute("ASSERT flies (tweety);")  # redundant
        (result,) = db.execute("CONSOLIDATE flies;")
        assert result.payload == 1

    def test_consolidate_with_alias_keeps_original(self, db):
        db.execute("ASSERT flies (tweety);")
        db.execute("CONSOLIDATE flies AS compact;")
        assert len(db.relation("compact")) < len(db.relation("flies"))

    def test_explicate_alias(self, db):
        db.execute("EXPLICATE flies AS flat;")
        flat = db.relation("flat")
        assert all(t.truth for t in flat.tuples())

    def test_set_ops_and_join(self, db):
        db.execute(
            """
            CREATE RELATION likes (creature: animal);
            ASSERT likes (penguin);
            UNION flies WITH likes AS either;
            INTERSECT flies WITH likes AS both;
            DIFFERENCE flies WITH likes AS only_flies;
            """
        )
        either = db.relation("either")
        assert sorted(x[0] for x in either.extension()) == ["pamela", "paul", "tweety"]
        both = db.relation("both")
        assert sorted(x[0] for x in both.extension()) == ["pamela"]

    def test_select_where_expression(self, db):
        db.execute(
            "SELECT FROM flies WHERE creature = penguin AND NOT "
            "creature = amazing_flying_penguin AS plain_flyers;"
        )
        assert sorted(x[0] for x in db.relation("plain_flyers").extension()) == []

    def test_select_where_neq(self, db):
        db.execute("SELECT FROM flies WHERE creature != penguin AS no_penguins;")
        assert sorted(x[0] for x in db.relation("no_penguins").extension()) == ["tweety"]

    def test_select_where_or(self, db):
        db.execute(
            "SELECT FROM flies WHERE creature = tweety OR creature = pamela AS pair;"
        )
        assert sorted(x[0] for x in db.relation("pair").extension()) == [
            "pamela",
            "tweety",
        ]

    def test_count_where_expression(self, db):
        (result,) = db.execute("COUNT flies WHERE creature != penguin;")
        assert result.payload == 1  # tweety

    def test_select_projection_list(self, db):
        db.execute(
            "CREATE RELATION pairs (creature: animal, friend: animal);"
        )
        db.execute("ASSERT pairs (penguin, tweety);")
        db.execute("SELECT creature FROM pairs AS lefts;")
        assert db.relation("lefts").schema.attributes == ("creature",)
        assert sorted(x[0] for x in db.relation("lefts").extension()) == [
            "pamela",
            "paul",
        ]

    def test_select_star_is_everything(self, db):
        db.execute("SELECT * FROM flies AS everything;")
        assert db.relation("everything").schema.attributes == ("creature",)

    def test_explain_select(self, db):
        (result,) = db.execute("EXPLAIN SELECT FROM flies WHERE creature = penguin;")
        assert result.kind == "plan"
        assert "meet-closure candidates" in result.message
        assert "wall time" in result.message
        assert "strategy=off-path, posting sweep\n" in result.message

    def test_explain_count(self, db):
        (result,) = db.execute("EXPLAIN COUNT flies;")
        assert "result: 2" in result.message

    def test_explain_binary_op(self, db):
        db.execute("CREATE RELATION likes (creature: animal); ASSERT likes (penguin);")
        (result,) = db.execute("EXPLAIN UNION flies WITH likes;")
        assert "input flies" in result.message
        assert "input likes" in result.message

    def test_explain_reports_binding_path(self, db):
        (result,) = db.execute("EXPLAIN COUNT flies;")
        assert "strategy=off-path, posting sweep\n" in result.message
        db.execute("CREATE RELATION likes (creature: animal) WITH STRATEGY on-path;")
        (result,) = db.execute("EXPLAIN COUNT likes;")
        assert (
            "strategy=on-path, posting sweep + node elimination for "
            "strategy-sensitive items\n"
        ) in result.message

    def test_explain_rejects_ddl(self, db):
        from repro.errors import HQLSyntaxError

        with pytest.raises(HQLSyntaxError):
            db.execute("EXPLAIN CREATE HIERARCHY x;")

    def test_prefer_statement(self, db):
        db.execute("CREATE CLASS galapagos IN animal UNDER penguin;")
        db.execute("PREFER amazing_flying_penguin OVER galapagos IN animal;")
        assert db.hierarchy("animal").preference_edges() == [
            ("galapagos", "amazing_flying_penguin")
        ]

    def test_drop(self, db):
        db.execute("DROP RELATION flies;")
        with pytest.raises(CatalogError):
            db.relation("flies")

    def test_save(self, db, tmp_path):
        path = str(tmp_path / "zoo.json")
        db.execute("SAVE '{}';".format(path))
        loaded = HierarchicalDatabase.load(path)
        assert loaded.relation("flies").holds("tweety")


class TestTransactionsViaHQL:
    def test_session_transaction(self, db):
        session = HQLExecutor(db)
        session.run("CREATE RELATION r2 (creature: animal);")
        session.run("BEGIN;")
        session.run("ASSERT r2 (bird);")
        # Not yet visible outside the session's transaction:
        assert len(db.relation("r2")) == 0
        session.run("COMMIT;")
        assert len(db.relation("r2")) == 1

    def test_rollback_via_hql(self, db):
        session = HQLExecutor(db)
        session.run("BEGIN; ASSERT flies (paul); ROLLBACK;")
        assert ("paul",) not in db.relation("flies")

    def test_conflicting_commit_fails(self, db):
        session = HQLExecutor(db)
        session.run("CREATE CLASS swimmer IN animal;")
        session.run("CREATE INSTANCE pingo IN animal UNDER swimmer, penguin;")
        session.run("BEGIN;")
        # +(swimmer) vs the stored -(penguin) conflict at pingo.
        session.run("ASSERT flies (swimmer);")
        with pytest.raises(InconsistentRelationError):
            session.run("COMMIT;")

    def test_double_begin_rejected(self, db):
        session = HQLExecutor(db)
        session.run("BEGIN;")
        with pytest.raises(HQLError):
            session.run("BEGIN;")

    def test_commit_without_begin_rejected(self, db):
        session = HQLExecutor(db)
        with pytest.raises(HQLError):
            session.run("COMMIT;")


class TestAutocommitIntegrity:
    def test_single_statement_conflict_rejected(self, db):
        # Build a diamond: duck under water_bird(+) and penguin(-).
        db.hierarchy("animal").add_class("water_bird", parents=["bird"])
        db.execute("CREATE INSTANCE duck IN animal UNDER water_bird;")
        db.execute("ASSERT flies (water_bird);")  # consistent so far
        db.hierarchy("animal").add_edge("penguin", "duck")
        # The hierarchy edge made the relation inconsistent at duck; any
        # autocommitted write is now refused until the conflict is
        # resolved within one transaction.
        with pytest.raises(InconsistentRelationError):
            db.execute("ASSERT flies (tweety);")
        # Resolving and writing in one transaction goes through.
        db.execute("BEGIN; ASSERT flies (duck); ASSERT flies (tweety); COMMIT;")
        assert db.relation("flies").holds("duck")
