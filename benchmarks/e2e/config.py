"""Frozen parameters of the benchmark.

Everything a later PR must not be able to tune lives here: dataset
sizes, offered rates, the share of ``--seconds`` each traffic kind gets
in each workload, and the server flags.  Rates are absolute, never a
fraction of measured capacity.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 17

# -- datasets ----------------------------------------------------------
CONES_CLASSES = 128
CONES_INSTANCES = 32  # per class -> 4096 leaf keys, 16x the 256-entry query cache
CONES_EXCEPTIONS = 8  # negative instance tuples per class and relation (25 %)
TOGGLE_CLASSES = 8  # classes whose class-level tuple the write streams flip
GRID_INSTANCES = 340  # per hierarchy
GRID_C0 = 246  # instances under class c0 of hierarchy ga (the scanned cone)
GRID_B_CLASSES = 10
GRID_TUPLES = 20_000
GRID_NEGATIVE_EVERY = 7

# -- traffic -----------------------------------------------------------
CONNECTIONS = 2  # = nproc of the reference box; never more threads than this
READ_RATE = 600.0  # requests/s, open loop, point reads
MIXED_RATE = 300.0  # requests/s, open loop, 80 % reads / 20 % writes
WRITE_SHARE = 0.2
ZIPF_S = 1.1
PAGE_SIZE = 1000
CRASH_WRITES = 130  # closed-loop writes per connection before and around the kill -9
CRASH_AFTER_ACKS = 125  # acks on every connection before the kill: one checkpoint, ~25 to replay
PING_SAMPLES = 2000
TRACED_STATEMENTS = 2000  # statements of each stream the in-process replay takes

# -- server ------------------------------------------------------------
SNAPSHOT_INTERVAL = 100  # journalled statements per checkpoint
WIRE_FORMAT = "binary"
FSYNC = True
TENANT_CONES = "default"
TENANT_GRID = "grid"
TENANTS_MIXED = ("t0", "t1")

ROUNDS = 5  # slices every traffic kind is cut into, interleaved; see run._Phases.fold
MIN_SLICE_S = 0.5  # a shorter mixed slice has too few writes for a p50
SETUP_REPEATS = 3  # median of this many full set-ups is ``setup_s``
RESTART_REPEATS = 3  # median of this many kill -9 / restart cycles is ``restart_s``
WARMUP_SHARE = 0.12  # head of every phase that is driven but not measured
TAIL_SEGMENTS = 5
MIN_CLOSED_SAMPLES = 20  # a closed-loop slice runs on until it has this many: a p50's minimum

KINDS = ("read", "mixed", "churn", "scan")

#: Share of ``--seconds`` each traffic kind gets.  The workload's own
#: kind takes most of the window; the other three run as short probes
#: so that every end-to-end metric exists on every workload.
PRIMARY_SHARE = 0.40
PROBE_SHARE = 0.20
WORKLOADS: Dict[str, str] = {
    "point_read": "read",
    "mixed_rw": "mixed",
    "analytic_churn": "churn",
    "cursor_scan": "scan",
}


def phase_seconds(workload: str, seconds: float) -> Dict[str, float]:
    """``--seconds`` split over the traffic kinds (``smoke``: evenly)."""
    if workload == "smoke":
        return {kind: seconds / len(KINDS) for kind in KINDS}
    primary = WORKLOADS[workload]
    return {
        kind: seconds * (PRIMARY_SHARE if kind == primary else PROBE_SHARE)
        for kind in KINDS
    }


def rounds_for(durations: Dict[str, float]) -> int:
    """``ROUNDS``, or fewer when ``--seconds`` is too small to cut."""
    shortest = min(durations.values())
    if shortest < MIN_SLICE_S:
        raise ValueError(
            "--seconds gives a traffic kind only {:.2f} s; it needs {} s".format(
                shortest, MIN_SLICE_S
            )
        )
    return min(ROUNDS, int(shortest / MIN_SLICE_S))


def load_benchmark_json() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def metric_names(section: str) -> List[str]:
    return [entry["name"] for entry in load_benchmark_json()[section]]
