"""The plan is a pure function of the seed, and no planned write can fail."""

from benchmarks.e2e import config
from benchmarks.e2e.datasets import build_cones, class_name, cones_truth, grid_truth
from benchmarks.e2e.plan import build_plan, retracted_after, toggle_write

DURATIONS = {"read": 1.0, "mixed": 1.0, "churn": 1.0, "scan": 1.0}


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = build_plan(5, cones_truth(5), DURATIONS, 2)
    again = build_plan(5, cones_truth(5), DURATIONS, 2)
    other = build_plan(6, cones_truth(6), DURATIONS, 2)
    assert first.plan_hash == again.plan_hash
    assert first.hashes == again.hashes
    assert first.plan_hash != other.plan_hash


def test_request_and_write_counts_do_not_depend_on_the_seed():
    plans = [build_plan(seed, cones_truth(seed), DURATIONS, 2) for seed in (1, 2, 3)]
    assert len({tuple(p.mixed.writes_open) for p in plans}) == 1
    assert len({tuple(len(s) for r in p.read.open_loop for s in r) for p in plans}) == 1
    # two rounds of half a second each, 300 req/s over two connections
    per_conn_and_round = int(config.MIXED_RATE * 0.5) // config.CONNECTIONS
    writes = 2 * round(per_conn_and_round * config.WRITE_SHARE)
    assert plans[0].mixed.writes_open == [writes] * config.CONNECTIONS


def test_toggle_stream_never_fails_and_tracks_its_state():
    truth = cones_truth(9)
    left = build_cones(truth).relation("left")
    for j in range(40):
        text, retracted = toggle_write(j, truth.toggle_classes)
        c = truth.toggle_classes[(j // 2) % len(truth.toggle_classes)]
        if text.startswith("RETRACT"):
            left.retract((class_name(c),))  # raises if absent
            assert retracted == c
        else:
            assert (class_name(c),) not in left
            left.assert_item((class_name(c),), True)
            assert retracted is None
        assert retracted_after(j + 1, truth.toggle_classes) == retracted
    assert retracted_after(0, truth.toggle_classes) is None


def test_mixed_reads_expect_the_state_their_connection_left():
    truth = cones_truth(4)
    plan = build_plan(4, truth, DURATIONS, 3)
    for conn in range(config.CONNECTIONS):
        retracted = None  # carried from round to round
        written = 0
        for schedules in plan.mixed.open_loop:
            for _, text, kind, expect in schedules[conn]:
                if kind == "write":
                    _, retracted = toggle_write(written, truth.toggle_classes)
                    written += 1
                else:
                    key = text[len("TRUTH left (c"):-2].split("i")
                    key = (int(key[0]), int(key[1]))
                    assert expect is truth.truth("left", key, retracted)
        assert written == plan.mixed.writes_open[conn]


def test_dataset_sizes_are_the_documented_ones():
    cones = cones_truth(1)
    assert all(
        len(keys) == config.CONES_CLASSES * config.CONES_EXCEPTIONS
        for keys in cones.exceptions.values()
    )
    assert len(cones.flat_rows("left")) == 3072
    assert len(cones.flat_rows("left", cones.toggle_classes[0])) == 3072 - 24
    grid = grid_truth(1)
    assert len(grid.cells) + len(grid.class_positives) == config.GRID_TUPLES
