"""The benchmark end to end, tiny: names, failure on a wrong oracle, reaping.

These start real ``repro serve`` subprocesses; run them with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q`` from the
repository root.  They are deliberately outside tier-1 ``testpaths``.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import cli, config, oracle
from benchmarks.e2e.serverproc import Reaper

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _leftovers():
    """Server processes and scratch directories a run left behind."""
    marker = os.path.join("benchmarks", "e2e", "results", "run-")
    servers = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/{}/cmdline".format(pid), "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        if marker in cmdline and " serve " in cmdline:
            servers.append((pid, cmdline))
    scratch = []
    if os.path.isdir(config.RESULTS_DIR):
        scratch = [n for n in os.listdir(config.RESULTS_DIR) if n.startswith("run-")]
    return servers, scratch


def _assert_reaped():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        servers, scratch = _leftovers()
        if not servers and not scratch:
            return
        time.sleep(0.1)
    raise AssertionError("left behind: servers {}, scratch {}".format(servers, scratch))


@pytest.fixture(autouse=True)
def _clean_before_and_after():
    _assert_reaped()
    yield
    _assert_reaped()


def test_smoke_output_matches_benchmark_json_names():
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--seed", "23"],
        cwd=config.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - began
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["ok"] is True
    assert summary["claim"] is None and done.stdout.rstrip().endswith('"claim": null}')
    smoke = summary["workloads"]["smoke"]
    assert smoke["ops_failed"] == 0 and smoke["acked_writes_lost"] == 0
    assert smoke["ops_attempted"] > 0 and len(smoke["plan_hash"]) == 64
    spec = config.load_benchmark_json()
    assert set(summary["end_to_end"]) == {e["name"] for e in spec["end_to_end"]}
    assert {e["name"] for e in spec["per_layer"]} <= set(summary["per_layer"])
    assert len(summary["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert all(NAME.match(n) for n in summary["end_to_end"] + summary["per_layer"])
    assert elapsed <= 15.0, "smoke took {:.1f}s".format(elapsed)
    assert os.path.exists(os.path.join(config.RESULTS_DIR, "trace-23.json"))


def test_a_wrong_oracle_answer_fails_the_run(monkeypatch, capsys):
    honest = oracle.FlatOracle.expected

    def flipped(self, kind, arg, retracted):
        rows = set(honest(self, kind, arg, retracted))
        if kind == "union":
            rows.pop()  # one flat row fewer than the truth
        return rows

    monkeypatch.setattr(oracle.FlatOracle, "expected", flipped)
    code = cli.main(["--smoke", "--seed", "23"])
    out = capsys.readouterr().out
    summary = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert summary["ok"] is False
    assert summary["workloads"]["smoke"]["ops_failed"] >= 1
    assert "union" in out


def test_a_wrong_point_answer_fails_the_run(monkeypatch, capsys):
    from benchmarks.e2e import datasets

    honest = datasets.ConesTruth.truth
    flipped_key = []

    def lying(self, relation, key, retracted=None):
        if not flipped_key:
            flipped_key.append(key)
        answer = honest(self, relation, key, retracted)
        return (not answer) if key == flipped_key[0] else answer

    monkeypatch.setattr(datasets.ConesTruth, "truth", lying)
    assert cli.main(["--smoke", "--seed", "23"]) != 0
    assert '"ok": false' in capsys.readouterr().out


def test_timeout_reaps_server_and_scratch(monkeypatch):
    monkeypatch.setattr(cli, "RUN_DEADLINE_S", 1)
    with pytest.raises(cli.Timeout):
        cli.main(["--smoke", "--seed", "23"])


def test_failure_inside_a_run_reaps_server_and_scratch():
    with pytest.raises(RuntimeError):
        with Reaper() as reaper:
            data_dir = reaper.new_data_dir()
            server = reaper.spawn(data_dir)
            assert server.alive and _leftovers()[0]
            raise RuntimeError("boom")


def test_driver_line_has_exactly_the_contract_keys():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "cursor_scan",
         "--seed", "7", "--seconds", "5", "--trace", "0"],
        cwd=config.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = config.load_benchmark_json()
    assert list(line["metrics"]) == [e["name"] for e in spec["end_to_end"]]
    for entry in spec["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == entry["unit"]
        assert metric["value"] > 0
