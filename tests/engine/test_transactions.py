"""Unit tests for the conflict-refusing transactions (section 3.1)."""

import pytest

from repro.core import HRelation, bulk
from repro.core.conflicts import find_conflicts
from repro.engine import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.errors import InconsistentRelationError, TransactionError
from repro.obs import default_registry, trace


@pytest.fixture
def db():
    database = HierarchicalDatabase("school")
    student = database.create_hierarchy("student")
    student.add_class("obsequious")
    student.add_instance("john", parents=["obsequious"])
    teacher = database.create_hierarchy("teacher")
    teacher.add_class("incoherent")
    teacher.add_instance("bill", parents=["incoherent"])
    database.create_relation("respects", [("s", "student"), ("t", "teacher")])
    return database


class TestCommitRules:
    def test_conflicting_batch_rejected_atomically(self, db):
        with pytest.raises(InconsistentRelationError):
            with db.transaction() as txn:
                txn.assert_item("respects", ("obsequious", "teacher"))
                txn.assert_item("respects", ("student", "incoherent"), truth=False)
        assert len(db.relation("respects")) == 0

    def test_resolved_batch_commits(self, db):
        with db.transaction() as txn:
            txn.assert_item("respects", ("obsequious", "teacher"))
            txn.assert_item("respects", ("student", "incoherent"), truth=False)
            txn.assert_item("respects", ("obsequious", "incoherent"))
        assert len(db.relation("respects")) == 3
        assert db.relation("respects").truth_of(("john", "bill"))

    def test_intermediate_conflict_is_fine(self, db):
        """Section 3.1: the conflict may exist mid-transaction as long
        as it is resolved before commit."""
        txn = db.transaction()
        txn.assert_item("respects", ("obsequious", "teacher"))
        txn.assert_item("respects", ("student", "incoherent"), truth=False)
        assert txn.pending_conflicts()  # visible mid-flight
        txn.assert_item("respects", ("obsequious", "incoherent"))
        assert not txn.pending_conflicts()
        txn.commit()

    def test_reads_see_staged_writes(self, db):
        txn = db.transaction()
        txn.assert_item("respects", ("obsequious", "teacher"))
        assert txn.relation("respects").truth_of(("john", "bill"))
        assert len(db.relation("respects")) == 0  # not yet committed
        txn.rollback()

    def test_rollback_discards(self, db):
        txn = db.transaction()
        txn.assert_item("respects", ("obsequious", "teacher"))
        txn.rollback()
        assert len(db.relation("respects")) == 0

    def test_exception_in_block_rolls_back(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.assert_item("respects", ("obsequious", "teacher"))
                raise RuntimeError("boom")
        assert len(db.relation("respects")) == 0


class TestLifecycle:
    def test_double_commit_rejected(self, db):
        txn = db.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_use_after_rollback_rejected(self, db):
        txn = db.transaction()
        txn.rollback()
        with pytest.raises(TransactionError):
            txn.assert_item("respects", ("obsequious", "teacher"))

    def test_retract_in_transaction(self, db):
        db.insert("respects", ("obsequious", "teacher"))
        with db.transaction() as txn:
            txn.retract("respects", ("obsequious", "teacher"))
        assert len(db.relation("respects")) == 0


class TestAutoResolution:
    def test_resolve_conflicts_in_favour(self, db):
        with db.transaction() as txn:
            txn.assert_item("respects", ("obsequious", "teacher"))
            txn.assert_item("respects", ("student", "incoherent"), truth=False)
            resolved = txn.resolve_conflicts("respects", truth=True)
            assert len(resolved) == 1
        relation = db.relation("respects")
        assert relation.truth_of(("john", "bill"))
        assert relation.truth_of_stored(("obsequious", "incoherent")) is True

    def test_resolve_conflicts_against(self, db):
        with db.transaction() as txn:
            txn.assert_item("respects", ("obsequious", "teacher"))
            txn.assert_item("respects", ("student", "incoherent"), truth=False)
            txn.resolve_conflicts("respects", truth=False)
        assert not db.relation("respects").truth_of(("john", "bill"))


class TestConcurrentCommits:
    """Two overlapping transactions must merge at commit, not clobber.

    The second commit re-forks from the live catalog and replays its
    operations (a *rebase*) whenever the relation changed under it —
    the invariant the network server relies on, and the same final
    state replaying the operation log produces at recovery.
    """

    def test_interleaved_commits_merge(self, db):
        first = db.transaction()
        second = db.transaction()
        first.assert_item("respects", ("john", "teacher"))
        second.assert_item("respects", ("obsequious", "bill"))
        first.commit()
        second.commit()  # rebases: first's write must survive
        relation = db.relation("respects")
        assert relation.truth_of_stored(("john", "teacher")) is True
        assert relation.truth_of_stored(("obsequious", "bill")) is True

    def test_rebase_counts_in_metrics(self, db):
        first = db.transaction()
        second = db.transaction()
        first.assert_item("respects", ("john", "teacher"))
        second.assert_item("respects", ("obsequious", "bill"))
        first.commit()
        second.commit()
        assert db.metrics.counter("txn.rebases").value == 1

    def test_sequential_commits_do_not_rebase(self, db):
        with db.transaction() as txn:
            txn.assert_item("respects", ("john", "teacher"))
        assert db.metrics.counter("txn.rebases").value == 0

    def test_rebased_commit_still_validates(self, db):
        """A rebase can surface a conflict created by the other
        transaction; the commit must refuse it, changing nothing."""
        first = db.transaction()
        second = db.transaction()
        first.assert_item("respects", ("obsequious", "teacher"))
        second.assert_item("respects", ("student", "incoherent"), truth=False)
        first.commit()
        with pytest.raises(InconsistentRelationError):
            second.commit()
        relation = db.relation("respects")
        assert relation.truth_of_stored(("obsequious", "teacher")) is True
        assert relation.truth_of_stored(("student", "incoherent")) is None

    def test_interleaved_retract_merges(self, db):
        db.insert("respects", ("john", "teacher"))
        db.insert("respects", ("obsequious", "bill"))
        first = db.transaction()
        second = db.transaction()
        first.retract("respects", ("john", "teacher"))
        second.assert_item("respects", ("john", "bill"))
        first.commit()
        second.commit()
        relation = db.relation("respects")
        assert relation.truth_of_stored(("john", "teacher")) is None
        assert relation.truth_of_stored(("john", "bill")) is True
        assert relation.truth_of_stored(("obsequious", "bill")) is True


def _cones_db(classes=8, instances=6):
    """The benchmark's ``cones`` shape, small: disjoint classes asserted
    positively, one instance of each negatively."""
    database = HierarchicalDatabase("cones")
    h = database.create_hierarchy("h")
    left = database.create_relation("left", [("value", "h")])
    for c in range(classes):
        h.add_class("c{}".format(c))
        for i in range(instances):
            h.add_instance("c{}i{}".format(c, i), ["c{}".format(c)])
    for c in range(classes):
        left.assert_item(("c{}".format(c),))
        left.assert_item(("c{}i0".format(c),), truth=False)
    return database


def _commit_span(run):
    with trace.collect("test") as root:
        run()
    (commit,) = [s for s in root.walk() if s.name == "txn.commit"]
    return commit


class TestConeScopedCommit:
    """A commit probes the cones it wrote once the relation it forked
    from is known conflict-free, and the evaluator is advanced by the
    write instead of swept again."""

    def test_first_commit_scans_the_relation_then_cones_only(self):
        db = _cones_db()
        first = _commit_span(lambda: db.delete("left", ("c1",)))
        assert first.attrs["check"] == "relation"
        second = _commit_span(lambda: db.insert("left", ("c1",)))
        assert second.attrs["check"] == "cone"
        # c1 itself is an exact hit; only c1i0 has both signs applicable.
        assert second.attrs["candidates"] == 1

    def test_hierarchy_edit_between_commits_forces_the_whole_check(self):
        db = _cones_db()
        db.delete("left", ("c4",))
        db.insert("left", ("c4",), truth=False)
        # c4i1 (under the negative c4) becomes a member of the positive
        # c3 as well: a conflict far from anything the next write touches.
        db.hierarchy("h").add_edge("c3", "c4i1")
        with pytest.raises(InconsistentRelationError) as caught:
            db.delete("left", ("c5",))
        assert [c.item for c in caught.value.conflicts] == [("c4i1",)]
        commit = _commit_span(
            lambda: db.execute("BEGIN; ASSERT left (c4i1); RETRACT left (c5); COMMIT;")
        )
        assert commit.attrs["check"] == "relation"
        assert _commit_span(lambda: db.insert("left", ("c5",))).attrs["check"] == "cone"

    def test_rejected_write_is_the_whole_scans_report(self):
        db = _cones_db()
        db.hierarchy("h").add_instance("both", parents=["c1", "c2"])
        db.delete("left", ("c2",))  # the whole scan: verifies the relation
        with pytest.raises(InconsistentRelationError) as scoped:
            db.insert("left", ("c2",), truth=False)
        assert [c.item for c in scoped.value.conflicts] == [("both",)]
        staged = db.relation("left").copy()
        staged.assert_item(("c2",), truth=False)
        cold = HRelation(staged.schema, name="left")
        cold.assert_all(staged.asserted.items())
        assert str(scoped.value) == str(InconsistentRelationError(find_conflicts(cold)))

    def test_staged_advance_leaves_the_base_evaluator_alone(self):
        db = _cones_db()
        base = db.relation("left")
        reader = bulk.evaluator_for(base)  # what a concurrent session holds
        probes = list(base.schema.product.all_items())
        before = [reader.truth_and_binders(item) for item in probes]
        postings = [dict(table) for table in reader._postings]
        session = HQLExecutor(db)
        session.run("BEGIN; RETRACT left (c1); ASSERT NOT left (c2i3);")
        session.run("TRUTH left (c1i2);")  # reads (and advances) the staged copy
        staged = session._transaction.relation("left")
        assert bulk.evaluator_for(staged) is not reader
        assert staged._bulk_eval is bulk.evaluator_for(staged)  # memoised on the copy
        assert bulk.evaluator_for(staged).truth(("c1i2",)) is False
        assert bulk.evaluator_for(base) is reader
        assert [reader.truth_and_binders(item) for item in probes] == before
        assert reader._postings == postings
        session.run("ROLLBACK;")
        assert db.relation("left") is base
        assert bulk.evaluator_for(base) is reader
        assert [reader.truth_and_binders(item) for item in probes] == before

    def test_toggle_writes_never_sweep_again(self):
        db = _cones_db(classes=16, instances=8)
        session = HQLExecutor(db)
        builds = default_registry().counter("bulk.evaluator.builds")
        advances = default_registry().counter("bulk.evaluator.advances")
        session.run("RETRACT left (c0); TRUTH left (c0i1);")  # the one sweep
        swept, advanced = builds.value, advances.value
        for j in range(1, 201):
            c = "c{}".format((j // 2) % 16)
            session.run(
                "ASSERT left ({});".format(c) if j % 2 else "RETRACT left ({});".format(c)
            )
            session.run("TRUTH left ({}i1);".format(c))
        assert builds.value == swept
        assert advances.value == advanced + 200
        fresh = bulk.BulkEvaluator(db.relation("left"))
        current = bulk.evaluator_for(db.relation("left"))
        for item in db.relation("left").schema.product.all_items():
            assert current.truth(item) == fresh.truth(item)

    def test_pending_conflicts_scans_each_relation_once(self, db, monkeypatch):
        from repro.engine import transactions

        calls = []
        real = transactions.find_conflicts
        monkeypatch.setattr(
            transactions,
            "find_conflicts",
            lambda relation: calls.append(relation.name) or real(relation),
        )
        txn = db.transaction()
        txn.assert_item("respects", ("obsequious", "teacher"))
        txn.assert_item("respects", ("student", "incoherent"), truth=False)
        assert list(txn.pending_conflicts()) == ["respects"]
        assert calls == ["respects"]
        txn.rollback()
