"""Unit tests for the HQL shell, driven over StringIO streams."""

import io

from repro.engine import HierarchicalDatabase
from repro.engine.repl import HQLRepl


def run_session(script: str, database=None) -> str:
    stdin = io.StringIO(script)
    stdout = io.StringIO()
    repl = HQLRepl(database=database, stdin=stdin, stdout=stdout)
    repl.run()
    return stdout.getvalue()


class TestRepl:
    def test_basic_session(self):
        out = run_session(
            "CREATE HIERARCHY h;\n"
            "CREATE CLASS c IN h;\n"
            "CREATE RELATION r (x: h);\n"
            "ASSERT r (c);\n"
            "TRUTH r (c);\n"
            "\\q\n"
        )
        assert "hierarchy h created" in out
        assert "(c) is true" in out
        assert out.rstrip().endswith("bye")

    def test_multiline_statement(self):
        out = run_session(
            "CREATE HIERARCHY\n"
            "h;\n"
            "\\q\n"
        )
        assert "hierarchy h created" in out
        assert "...>" in out  # continuation prompt was shown

    def test_error_keeps_session_alive(self):
        out = run_session(
            "FROBNICATE x;\n"
            "CREATE HIERARCHY h;\n"
            "\\q\n"
        )
        assert "error:" in out
        assert "hierarchy h created" in out

    def test_help(self):
        out = run_session("\\h\n\\q\n")
        assert "CONSOLIDATE" in out

    def test_eof_terminates(self):
        out = run_session("CREATE HIERARCHY h;\n")  # no \q: EOF
        assert out.rstrip().endswith("bye")

    def test_blank_lines_ignored(self):
        out = run_session("\n\n\\q\n")
        assert "error" not in out

    def test_session_shares_database(self):
        db = HierarchicalDatabase("shared")
        run_session(
            "CREATE HIERARCHY h;\nCREATE RELATION r (x: h);\nASSERT r (h);\n\\q\n",
            database=db,
        )
        assert db.relation("r").holds("h")

    def test_transactions_span_lines(self):
        db = HierarchicalDatabase("txn")
        out = run_session(
            "CREATE HIERARCHY h;\n"
            "CREATE CLASS c IN h;\n"
            "CREATE RELATION r (x: h);\n"
            "BEGIN;\n"
            "ASSERT r (c);\n"
            "COMMIT;\n"
            "\\q\n",
            database=db,
        )
        assert "committed" in out
        assert db.relation("r").holds("c")


class TestPersistenceMetaCommands:
    def test_save_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "session.db")
        out = run_session(
            "CREATE HIERARCHY h;\n"
            "CREATE RELATION r (x: h);\n"
            "ASSERT r (h);\n"
            ".save {}\n\\q\n".format(path)
        )
        assert "saved" in out
        out = run_session(".load {}\nCOUNT r;\n\\q\n".format(path))
        assert "1 atom(s)" in out

    def test_save_without_path_prints_usage(self):
        out = run_session("\\save\n\\q\n")
        assert "usage: \\save <file>" in out
        assert "Traceback" not in out

    def test_save_to_unwritable_path_is_one_line_error(self):
        out = run_session(".save /nonexistent-dir/x.db\n\\q\n")
        assert "error:" in out
        assert "Traceback" not in out
        assert out.rstrip().endswith("bye")  # session survived

    def test_load_missing_file_is_one_line_error(self):
        out = run_session(".load /no/such/file.db\n\\q\n")
        assert "error: no such database file" in out
        assert "Traceback" not in out

    def test_hql_save_statement_error_also_surfaced(self):
        """The quoted HQL flavour goes through execute(), which catches
        OSError too."""
        out = run_session("SAVE '/nonexistent-dir/x.db';\n\\q\n")
        assert "error:" in out
        assert "Traceback" not in out
