"""An interactive HQL shell.

``python -m repro.engine.repl [FILE]`` starts a session; every
line is parsed as HQL (statements may span lines until the terminating
``;``).  Meta-commands: ``\\q`` quits, ``\\h`` prints help.  Errors are
reported and the session continues.  The class is stream-parameterised
so tests can drive it with ``io.StringIO``.
"""

from __future__ import annotations

import sys
from typing import IO, Optional

from repro.engine.database import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.errors import ReproError

HELP = """\
HQL quick reference:
  CREATE HIERARCHY h;              CREATE CLASS c IN h UNDER p;
  CREATE INSTANCE i IN h UNDER c;  CREATE RELATION r (a: h, ...);
  ASSERT r (v, ...);               ASSERT NOT r (v, ...);
  RETRACT r (v, ...);              TRUTH r (v, ...);
  JUSTIFY r (v, ...);              SELECT FROM r WHERE a = v AS out;
  PROJECT r ON a, b AS out;        JOIN/UNION/INTERSECT/DIFFERENCE x WITH y AS out;
  CONSOLIDATE r;  EXPLICATE r;     CONFLICTS r;  EXTENSION r;  COUNT r;
  SHOW RELATIONS; SHOW HIERARCHIES;
  EXPLAIN [ANALYZE] <query>;       STATS;
  BEGIN; COMMIT; ROLLBACK;         SAVE 'file'; LOAD 'file';
Meta: \\h help, \\q quit, \\stats (or .stats) metrics, \\slowlog (or
      .slowlog) the slow-query log, \\timing toggle per-statement times,
      \\save <file> / \\load <file> (or .save/.load) persistence without
      HQL quoting."""


class HQLRepl:
    """A line-oriented HQL session over input/output streams."""

    def __init__(
        self,
        database: Optional[HierarchicalDatabase] = None,
        stdin: IO[str] | None = None,
        stdout: IO[str] | None = None,
        prompt: str = "hql> ",
        continuation: str = "...> ",
    ) -> None:
        self.database = database if database is not None else HierarchicalDatabase()
        self.session = HQLExecutor(self.database)
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.prompt = prompt
        self.continuation = continuation
        #: When on, every printed result is followed by its wall time —
        #: the same ``hql.statement`` span number EXPLAIN reports.
        self.timing = False

    # ------------------------------------------------------------------

    def _write(self, text: str) -> None:
        self.stdout.write(text)
        if not text.endswith("\n"):
            self.stdout.write("\n")

    def run(self) -> None:
        """Read-eval-print until EOF or ``\\q``."""
        self._write("repro HQL shell — \\h for help, \\q to quit")
        buffered = ""
        while True:
            self.stdout.write(self.continuation if buffered else self.prompt)
            self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffered and stripped in ("\\q", "\\quit", "exit", "quit"):
                break
            if not buffered and stripped in ("\\h", "\\help", "help"):
                self._write(HELP)
                continue
            if not buffered and stripped in ("\\stats", ".stats"):
                self.execute("STATS;")
                continue
            if not buffered and stripped in ("\\slowlog", ".slowlog"):
                log = self.database.slow_query_log
                self._write(
                    log.render() if log is not None
                    else "slow-query log: not enabled "
                    "(db.enable_slow_query_log(threshold_ms))"
                )
                continue
            if not buffered and stripped in ("\\timing", ".timing"):
                self.timing = not self.timing
                self._write("timing {}".format("on" if self.timing else "off"))
                continue
            first_word = stripped.split(None, 1)[0] if stripped else ""
            if not buffered and first_word in ("\\save", ".save", "\\load", ".load"):
                self._meta_persist(stripped)
                continue
            if not stripped:
                continue
            buffered = (buffered + "\n" + line) if buffered else line
            if not stripped.endswith(";"):
                continue  # statement not finished; keep buffering
            script, buffered = buffered, ""
            self.execute(script)
        self._write("bye")

    def _meta_persist(self, stripped: str) -> None:
        """``\\save <file>`` / ``\\load <file>`` — persistence meta
        commands that bypass HQL string quoting.  Storage problems
        (:class:`~repro.errors.StorageError`, raw ``OSError``) surface
        as one-line user messages, never tracebacks."""
        from repro.engine.hql import ast as hql_ast

        parts = stripped.split(None, 1)
        command = parts[0].lstrip("\\.")
        path = parts[1].strip() if len(parts) > 1 else ""
        if not path:
            self._write("usage: \\{} <file>".format(command))
            return
        statement = (
            hql_ast.Save(path=path) if command == "save" else hql_ast.Load(path=path)
        )
        try:
            self._write(str(self.session.execute_statement(statement)))
        except (ReproError, OSError) as exc:
            self._write("error: {}".format(exc))

    def execute(self, script: str) -> None:
        """Run one buffered script, printing results or the error.
        ``OSError`` is included for the persistence statements — a
        full-disk or permission failure during ``SAVE``/``LOAD`` is a
        user message, not a traceback."""
        try:
            for result in self.session.run(script):
                self._write(str(result))
                if self.timing and result.elapsed_ms is not None:
                    self._write("time: {:.3f} ms".format(result.elapsed_ms))
        except (ReproError, OSError) as exc:
            self._write("error: {}".format(exc))


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args:
        database = HierarchicalDatabase.load(args[0])
    else:
        database = HierarchicalDatabase("session")
    HQLRepl(database).run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
