"""Round-trip tests: parse(to_hql(stmt)) == [stmt] for every statement
kind, plus the COUNT/LOAD executor behaviour added with the oplog."""

import pytest

from repro.engine import HierarchicalDatabase
from repro.engine.hql import ast, parse
from repro.engine.hql.ast import to_hql
from repro.errors import HQLSyntaxError

STATEMENTS = [
    ast.CreateHierarchy("animal"),
    ast.CreateHierarchy("animals", root="creature"),
    ast.CreateNode("penguin", "animal", ("bird",), instance=False),
    ast.CreateNode("tweety", "animal", ("canary", "pet"), instance=True),
    ast.CreateNode("orphan", "animal", (), instance=False),
    ast.Prefer("a", "b", "h"),
    ast.CreateRelation("r", (("a", "h1"), ("b", "h2"))),
    ast.CreateRelation("r", (("a", "h1"),), strategy="on-path"),
    ast.Assert("r", ("x", "y"), truth=True),
    ast.Assert("r", ("x",), truth=False),
    ast.Retract("r", ("x",)),
    ast.Truth("r", ("x",)),
    ast.Justify("r", ("x", "y")),
    ast.Select("r"),
    ast.Select("r", ast.conjunction([("a", "x"), ("b", "y")]), alias="out"),
    ast.Select("r", None, None, ("a", "b")),
    ast.Select("r", ast.WhereTest("a", "x"), "out", ("b",)),
    ast.Select("r", ast.WhereTest("a", "x", negated=True)),
    ast.Select(
        "r",
        ast.WhereOr(
            (
                ast.WhereAnd((ast.WhereTest("a", "x"), ast.WhereTest("b", "y"))),
                ast.WhereNot(ast.WhereTest("a", "z")),
            )
        ),
    ),
    ast.Project("r", ("a", "b"), alias="out"),
    ast.BinaryOp("JOIN", "r1", "r2", alias="out"),
    ast.BinaryOp("UNION", "r1", "r2"),
    ast.BinaryOp("INTERSECT", "r1", "r2"),
    ast.BinaryOp("DIFFERENCE", "r1", "r2", alias="d"),
    ast.BinaryOp("DIVIDE", "r1", "r2", alias="q"),
    ast.BinaryOp("SEMIJOIN", "r1", "r2"),
    ast.BinaryOp("ANTIJOIN", "r1", "r2"),
    ast.Consolidate("r"),
    ast.Consolidate("r", alias="compact"),
    ast.Explicate("r"),
    ast.Explicate("r", ("a",), alias="flat"),
    ast.Conflicts("r"),
    ast.Extension("r"),
    ast.Count("r"),
    ast.Count("r", ast.WhereTest("a", "x")),
    ast.Show("RELATIONS"),
    ast.Show("HIERARCHIES"),
    ast.Begin(),
    ast.Commit(),
    ast.Rollback(),
    ast.Drop("RELATION", "r"),
    ast.Drop("HIERARCHY", "h"),
    ast.Save("db.json"),
    ast.Load("db.json"),
    ast.Explain(ast.Select("r", ast.WhereTest("a", "x"))),
    ast.Explain(ast.BinaryOp("UNION", "r1", "r2"), analyze=True),
    ast.Explain(ast.Count("r"), analyze=True),
    ast.Stats(),
]


@pytest.mark.parametrize("statement", STATEMENTS, ids=lambda s: to_hql(s)[:40])
def test_roundtrip(statement):
    assert parse(to_hql(statement)) == [statement]


def test_set_does_not_parse():
    # There is no execution knob to set, so there is no SET statement.
    with pytest.raises(HQLSyntaxError, match="unknown statement 'set'"):
        parse("set frobnicate 4;")
    assert not hasattr(ast, "Set")


def test_quoting_of_odd_names():
    statement = ast.Assert("my relation", ("a value", "plain"), truth=True)
    assert parse(to_hql(statement)) == [statement]


class TestCountStatement:
    @pytest.fixture
    def db(self):
        database = HierarchicalDatabase("zoo")
        database.execute(
            """
            CREATE HIERARCHY animal;
            CREATE CLASS bird IN animal;
            CREATE CLASS penguin IN animal UNDER bird;
            CREATE INSTANCE tweety IN animal UNDER bird;
            CREATE INSTANCE paul IN animal UNDER penguin;
            CREATE INSTANCE peter IN animal UNDER penguin;
            CREATE RELATION flies (creature: animal);
            ASSERT flies (bird);
            ASSERT NOT flies (penguin);
            ASSERT flies (peter);
            """
        )
        return database

    def test_count(self, db):
        (result,) = db.execute("COUNT flies;")
        assert result.payload == 2  # tweety + peter

    def test_count_where(self, db):
        (result,) = db.execute("COUNT flies WHERE creature = penguin;")
        assert result.payload == 1  # peter only


class TestLoadStatement:
    def test_load_replaces_catalog(self, tmp_path):
        source = HierarchicalDatabase("origin")
        source.execute(
            "CREATE HIERARCHY h; CREATE RELATION r (x: h); ASSERT r (h);"
        )
        path = str(tmp_path / "db.json")
        source.save(path)

        target = HierarchicalDatabase("empty")
        target.execute("LOAD '{}';".format(path))
        assert target.relation("r").holds("h")
        assert target.name == "origin"

    def test_load_inside_transaction_rejected(self, tmp_path):
        from repro.errors import HQLError
        from repro.engine.hql import HQLExecutor

        source = HierarchicalDatabase("origin")
        path = str(tmp_path / "db.json")
        source.save(path)
        session = HQLExecutor(HierarchicalDatabase("t"))
        session.run("BEGIN;")
        with pytest.raises(HQLError):
            session.run("LOAD '{}';".format(path))
