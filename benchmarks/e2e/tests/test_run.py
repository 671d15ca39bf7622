"""What makes a run fail, and what does not."""

import threading

from benchmarks.e2e import config, loadgen
from benchmarks.e2e.run import RunResult, _Phases


def test_a_generator_behind_schedule_is_a_note_not_a_failed_operation():
    """A stall of the shared box at the end of one slice must not turn
    into exit code 1: every answer was right."""
    result = RunResult("point_read", 1, 24.0, False)
    phases = _Phases(result, plan=None, datasets=None)
    phases.schedule_kept = {
        "read": [(200, 200, 0.1), (120, 200, 400.0)],  # (on time, scheduled, backlog ms)
        "mixed": [(100, 100, 0.2), (99, 100, 1.0)],
    }
    phases._check_schedule()
    assert result.tally.failed == 0 and result.correct
    assert len(result.notes) == 1 and "read fell behind" in result.notes[0]


class _FakeClient:
    """Acknowledges writes until ``dead`` is set; a slow one sleeps first."""

    def __init__(self, dead: threading.Event, delay: float) -> None:
        self.dead, self.delay = dead, delay

    def execute(self, statement):
        if self.delay:
            self.dead.wait(self.delay)
        if self.dead.is_set():
            raise OSError("connection reset")


def test_the_kill_waits_for_every_connection():
    """The fast connection finishes all its writes and the kill still
    waits for the slow one, so both journals pass their checkpoint."""
    dead = threading.Event()
    statements = ["ASSERT left (c0);"] * config.CRASH_WRITES
    clients = [_FakeClient(dead, 0.0), _FakeClient(dead, 0.0005)]
    acked = loadgen.crash_under_writes(clients, statements, dead.set)
    assert acked[0] == config.CRASH_WRITES
    assert config.CRASH_AFTER_ACKS <= acked[1] <= config.CRASH_WRITES


def test_a_connection_that_dies_early_still_releases_the_killer():
    dead = threading.Event()
    dead.set()
    killed = []
    acked = loadgen.crash_under_writes(
        [_FakeClient(dead, 0.0)], ["ASSERT left (c0);"] * config.CRASH_WRITES,
        lambda: killed.append(True),
    )
    assert acked == [0] and killed == [True]
