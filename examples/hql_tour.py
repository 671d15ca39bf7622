#!/usr/bin/env python3
"""A tour of HQL, the engine's statement language, plus persistence.

Builds the flying-creatures database purely from HQL, queries it,
demonstrates a transaction that must resolve its own conflict, and
saves/reloads the database.

Run:  python examples/hql_tour.py
"""

import os
import tempfile

from repro import InconsistentRelationError
from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS canary IN animal UNDER bird;
CREATE CLASS penguin IN animal UNDER bird;
CREATE CLASS amazing_flying_penguin IN animal UNDER penguin;
CREATE INSTANCE tweety IN animal UNDER canary;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE INSTANCE pamela IN animal UNDER amazing_flying_penguin;

CREATE RELATION flies (creature: animal);
ASSERT flies (bird);                      -- all birds fly
ASSERT NOT flies (penguin);               -- except penguins
ASSERT flies (amazing_flying_penguin);    -- except these penguins
"""

QUERIES = """
TRUTH flies (tweety);
TRUTH flies (paul);
JUSTIFY flies (pamela);
SELECT FROM flies WHERE creature = penguin AS flying_penguins;
EXTENSION flies;
SHOW RELATIONS;
"""


def main() -> None:
    db = HierarchicalDatabase("zoo")
    session = HQLExecutor(db)

    session.run(SETUP)
    for result in session.run(QUERIES):
        print(result)
        print()

    print("A transaction that must resolve its own conflict:")
    session.run("CREATE CLASS swimmer IN animal;")
    session.run("CREATE INSTANCE pingo IN animal UNDER swimmer, penguin;")
    try:
        session.run("BEGIN; ASSERT flies (swimmer); COMMIT;")
    except InconsistentRelationError as exc:
        print("  rejected:", exc.conflicts[0])
    session.run("BEGIN; ASSERT flies (swimmer); ASSERT NOT flies (pingo); COMMIT;")
    print("  committed once pingo's conflict was resolved explicitly")
    print("  pingo flies?", db.relation("flies").holds("pingo"))
    print()

    path = os.path.join(tempfile.gettempdir(), "repro_zoo.db")
    session.run("SAVE '{}';".format(path))
    reloaded = HierarchicalDatabase.load(path)
    print("reloaded from {}: tweety flies? {}".format(
        path, reloaded.relation("flies").holds("tweety")
    ))
    os.unlink(path)


if __name__ == "__main__":
    main()
