"""Unit tests for the command-line interface."""

import io
import sys


from repro import __version__
from repro.cli import main
from repro.engine import HierarchicalDatabase


class TestVersion:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestRun:
    def test_run_script(self, tmp_path, capsys):
        script = tmp_path / "build.hql"
        script.write_text(
            "CREATE HIERARCHY h;\n"
            "CREATE CLASS c IN h;\n"
            "CREATE RELATION r (x: h);\n"
            "ASSERT r (c);\n"
            "TRUTH r (c);\n"
        )
        assert main(["run", str(script)]) == 0
        out = capsys.readouterr().out
        assert "(c) is true" in out

    def test_run_quiet(self, tmp_path, capsys):
        script = tmp_path / "q.hql"
        script.write_text("CREATE HIERARCHY h;")
        assert main(["run", str(script), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_with_save_and_reload(self, tmp_path, capsys):
        script = tmp_path / "build.hql"
        script.write_text(
            "CREATE HIERARCHY h; CREATE RELATION r (x: h); ASSERT r (h);"
        )
        out_db = tmp_path / "out.db"
        assert main(["run", str(script), "--save", str(out_db), "--quiet"]) == 0
        loaded = HierarchicalDatabase.load(str(out_db))
        assert loaded.relation("r").holds("h")

    def test_run_against_loaded_db(self, tmp_path, capsys):
        base = HierarchicalDatabase("base")
        base.execute("CREATE HIERARCHY h; CREATE RELATION r (x: h); ASSERT r (h);")
        db_path = tmp_path / "base.db"
        base.save(str(db_path))
        script = tmp_path / "query.hql"
        script.write_text("COUNT r;")
        assert main(["run", str(script), "--db", str(db_path)]) == 0
        assert "1 atom(s)" in capsys.readouterr().out


class TestShippedScript:
    def test_zoo_hql_runs(self, capsys):
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "examples" / "zoo.hql"
        assert main(["run", str(script)]) == 0
        out = capsys.readouterr().out
        assert "(tweety) is true" in out
        assert "(paul) is false" in out
        assert "plan for: count" in out


class TestRepl:
    def test_repl_over_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("CREATE HIERARCHY h;\n\\q\n"))
        assert main(["repl"]) == 0
        assert "hierarchy h created" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestServeAndConnect:
    def test_serve_rejects_db_plus_data_dir(self, tmp_path, capsys):
        db = tmp_path / "x.db"
        HierarchicalDatabase("x").save(str(db))
        code = main(
            ["serve", "--db", str(db), "--data-dir", str(tmp_path / "d")]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_connect_to_dead_port_fails_cleanly(self, capsys):
        assert main(["connect", "--port", "1"]) == 1
        assert "error: cannot connect" in capsys.readouterr().out

    def test_repl_load_error_is_user_message(self, capsys):
        assert main(["repl", "/no/such/db.db"]) == 1
        out = capsys.readouterr().out
        assert "error: no such database file" in out
