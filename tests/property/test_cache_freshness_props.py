"""Property: a cached derived relation is never stale.

The query cache and materialized views decide freshness by one stamp,
``HRelation.stamp()``, and nothing invalidates either of them.  After
random DML, DROP + CREATE at an equal version, an ``AS`` alias rebind,
in-place CONSOLIDATE / EXPLICATE, hierarchy growth and ``LOAD``, a
statement answered through the cache must equal the same statement run
uncached (inside a transaction, which bypasses the cache) and the
answer the flat model gives (:mod:`repro.flat`), for SELECT, UNION and
COUNT; and every materialized view must equal its plan computed now.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flat
from repro.core.views import ViewPlan
from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor

SETUP = """
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS fish IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE INSTANCE peter IN animal UNDER penguin;
CREATE INSTANCE nemo IN animal UNDER fish;
CREATE RELATION r (creature: animal);
CREATE RELATION s (creature: animal);
ASSERT r (bird); ASSERT NOT r (penguin); ASSERT s (penguin);
SELECT FROM r AS a;
"""
#: A tree: under off-path preemption no write can leave a unary
#: relation ambiguous, so every drawn write commits.
NODES = ["animal", "bird", "fish", "penguin", "tweety", "paul", "peter", "nemo"]
CLASSES = ["bird", "fish", "penguin"]
OPS = ("toggle", "recreate", "alias", "consolidate", "explicate", "grow", "load")


def _run(session, hql):
    return [result.payload for result in session.run(hql)]


def _toggle(session, db, name, node, truth):
    """Retract ``node`` from ``name`` when stored, else assert it."""
    if (node,) in db.relation(name).asserted:
        _run(session, "RETRACT {} ({});".format(name, node))
    else:
        _run(session, "ASSERT {}{} ({});".format("" if truth else "NOT ", name, node))


def _recreate_at_equal_version(session, db, name, data):
    """DROP + CREATE ``name`` and write other tuples until the new
    object reaches the old one's version."""
    target = db.relation(name).version
    _run(session, "DROP RELATION {0}; CREATE RELATION {0} (creature: animal);".format(name))
    fresh = data.draw(st.lists(st.sampled_from(NODES), unique=True, max_size=min(target, 4)))
    for node in fresh:
        _toggle(session, db, name, node, data.draw(st.booleans()))
    spare = next(node for node in NODES if node not in fresh)
    while db.relation(name).version < target:
        stored = sorted(db.relation(name).asserted)
        if target - db.relation(name).version >= 2 or not stored:
            _toggle(session, db, name, spare, True)
        else:
            _run(session, "RETRACT {} ({});".format(name, stored[0][0]))
    assert db.relation(name).version == target


def _check(session, db, node):
    hierarchy = db.hierarchy("animal")
    below = hierarchy.descendants(node)
    flat_of = {name: flat.from_hrelation(db.relation(name)) for name in ("r", "s", "a")}
    expected = {
        "SELECT FROM r WHERE creature = {};".format(node): flat.algebra.select(
            flat_of["r"], lambda row: row["creature"] in below
        ),
        "SELECT FROM a WHERE creature = {};".format(node): flat.algebra.select(
            flat_of["a"], lambda row: row["creature"] in below
        ),
        "UNION r WITH s;": flat.algebra.union(flat_of["r"], flat_of["s"]),
        "UNION a WITH s;": flat.algebra.union(flat_of["a"], flat_of["s"]),
        "COUNT r;": len(flat_of["r"].rows()),
        "COUNT a;": len(flat_of["a"].rows()),
    }
    for hql, answer in expected.items():
        (cached,) = _run(session, hql)
        _, uncached, _ = _run(session, "BEGIN; {} ROLLBACK;".format(hql))
        if isinstance(answer, int):
            assert cached == uncached == answer, hql
        else:
            assert cached.same_tuples_as(uncached), hql
            assert flat.from_hrelation(cached).rows() == answer.rows(), hql

    r, s = db.relation("r"), db.relation("s")
    fresh = {
        "both": ViewPlan("union", [r, s]).compute([r, s], "ref"),
        "picked": ViewPlan("select", [r], {"creature": node}).compute([r], "ref"),
    }
    for name, answer in fresh.items():
        assert db.view(name).relation().same_tuples_as(answer), name


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cached_answers_are_never_stale(data):
    db = HierarchicalDatabase("zoo")
    session = HQLExecutor(db)
    session.run(SETUP)
    node = data.draw(st.sampled_from(NODES))
    db.define_view("both", "union", ["r", "s"])
    db.define_view("picked", "select", ["r"], {"creature": node})
    _check(session, db, node)
    with tempfile.TemporaryDirectory() as scratch:
        for step in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(OPS))
            name = data.draw(st.sampled_from(["r", "s", "a"]))
            if op == "toggle":
                target = data.draw(st.sampled_from(NODES))
                _toggle(session, db, name, target, data.draw(st.booleans()))
            elif op == "recreate":
                _recreate_at_equal_version(session, db, name, data)
            elif op == "alias":
                source = data.draw(st.sampled_from(["r", "s"]))
                where = data.draw(st.sampled_from(NODES))
                _run(session, "SELECT FROM {} WHERE creature = {} AS a;".format(source, where))
            elif op == "consolidate":
                _run(session, "CONSOLIDATE {};".format(name))
            elif op == "explicate":
                _run(session, "EXPLICATE {};".format(name))
            elif op == "grow":
                parent = data.draw(st.sampled_from(CLASSES))
                _run(session, "CREATE INSTANCE x{} IN animal UNDER {};".format(step, parent))
            else:
                path = os.path.join(scratch, "zoo{}.rdb".format(step))
                _run(session, "SAVE '{0}'; LOAD '{0}';".format(path))
            _check(session, db, node)
