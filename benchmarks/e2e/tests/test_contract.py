"""``BENCHMARK.json`` against the limits of the benchmark contract."""

import os
import re

from benchmarks.e2e import config

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys_and_sizes():
    spec = config.load_benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert os.path.getsize(config.BENCHMARK_JSON) <= 64 * 1024
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert not any(a.startswith("/") or ".." in a.split("/") for a in spec["command"])
    assert spec["paths"] == ["benchmarks/e2e"]
    assert all(PATH.match(p) for p in spec["paths"])


def test_run_budget_fits_the_drivers_cap():
    spec = config.load_benchmark_json()
    runs = 4 + 22 * len(spec["workloads"])
    # A run is its window plus three set-ups, the crash with three
    # restarts, slice overruns and oracle checks: 8-13 s measured.
    assert runs * (spec["run_seconds"] + 13) <= 3420


def test_workloads():
    spec = config.load_benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(config.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200


def test_metrics():
    spec = config.load_benchmark_json()
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "every name is used once"
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])
