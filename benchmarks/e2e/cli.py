"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1``
    One run, the contract's form: a table for people, then — as the last
    line of standard output — one JSON object with exactly ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (every end-to-end metric
    with ``--trace 0``, every per-layer metric with ``--trace 1``).
without ``--workload``
    All four workloads one after the other; the last line is a summary
    object that ends with ``"claim": null`` — this benchmark claims no gain.
``--repeat K``
    The whole suite K times on the same code: median and quartiles per
    metric, non-zero exit if an end-to-end spread exceeds its bound.
``--smoke``
    One tiny pass over every traffic kind (numbers mean nothing) whose
    metric names are checked against ``BENCHMARK.json``.

Exit code 0 only when every operation was correct (``ops_failed`` = 0
and ``acked_writes_lost`` = 0).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.e2e import config, stats
from benchmarks.e2e.run import RunResult, run_workload
from benchmarks.e2e.serverproc import cpu_split

RUN_DEADLINE_S = 170  # the contract allows 180 s per run
SMOKE_SECONDS = 4.0


class Timeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: int):
    """Turn a hung run into an exception on the main thread, so the
    ``with Reaper()`` around it still reaps the server and its files."""

    def expired(signum, frame):
        raise Timeout("run exceeded {} s".format(seconds))

    def terminated(signum, frame):
        raise SystemExit(143)

    old_alarm = signal.signal(signal.SIGALRM, expired)
    old_term = signal.signal(signal.SIGTERM, terminated)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_alarm)
        signal.signal(signal.SIGTERM, old_term)


def environment(seed: int, seconds: float) -> Dict[str, object]:
    """The stamp every result file carries."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=config.ROOT, capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        sha = "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "mp_start_method": multiprocessing.get_start_method(allow_none=True) or "default",
        "fsync": "every committed write (--fsync)" if config.FSYNC else "off",
        "wire_format": config.WIRE_FORMAT,
        "snapshot_interval": config.SNAPSHOT_INTERVAL,
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "offered_rates_per_s": {"read": config.READ_RATE, "mixed": config.MIXED_RATE},
        "connections": config.CONNECTIONS,
        "rounds": config.ROUNDS,
        "cpu_split": dict(zip(("server", "generator"), map(sorted, cpu_split()))),
    }


def _units() -> Dict[str, str]:
    spec = config.load_benchmark_json()
    return {
        entry["name"]: entry["unit"] for section in ("end_to_end", "per_layer")
        for entry in spec[section]
    }


def contract_metrics(result: RunResult) -> Dict[str, Dict[str, object]]:
    """Exactly the metrics ``BENCHMARK.json`` lists for this kind of
    run; a missing one is an error, an unlisted one stays in the result
    file only."""
    section = "per_layer" if result.trace else "end_to_end"
    source = result.layers if result.trace else result.metrics
    units = _units()
    out = {}
    for name in config.metric_names(section):
        if name not in source:
            raise KeyError("run produced no value for {} metric {!r}".format(section, name))
        out[name] = {"value": source[name], "unit": units[name]}
    return out


def write_result(result: RunResult, env: Dict[str, object]) -> str:
    os.makedirs(config.RESULTS_DIR, exist_ok=True)
    path = os.path.join(
        config.RESULTS_DIR,
        "{}-seed{}-trace{}.json".format(result.workload, result.seed, int(result.trace)),
    )
    env = dict(env)
    env["floor.ping_p50_us"] = result.layers.get("floor.ping_p50_us")
    payload = {
        "workload": result.workload,
        "environment": env,
        "plan_hash": result.plan_hash,
        "plan_hashes": result.plan_hashes,
        "end_to_end": result.metrics,
        "per_layer": result.layers,
        "samples": result.samples,
        "slices": result.slices,
        "phase_counters": result.phase_counters,
        "ops_attempted": result.tally.attempted,
        "ops_failed": result.tally.failed,
        "acked_writes_lost": result.acked_writes_lost,
        "failures": result.tally.examples,
        "notes": result.notes,
        "claim": None,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


def print_result(result: RunResult, out=sys.stdout) -> None:
    units = _units()
    print(
        "== {} seed={} seconds={:g} trace={} plan_hash={}".format(
            result.workload, result.seed, result.seconds, int(result.trace),
            result.plan_hash[:16],
        ),
        file=out,
    )
    if not result.trace:
        for name, value in result.metrics.items():
            print("  {:<28s} {:>14.4f} {}".format(name, value, units.get(name, "")), file=out)
    for name in sorted(result.layers):
        print(
            "  {:<38s} {:>14.4f} {}".format(name, result.layers[name], units.get(name, "")),
            file=out,
        )
    print("  samples: {}".format(json.dumps(result.samples, sort_keys=True)), file=out)
    print(
        "  ops_attempted={} ops_failed={} acked_writes_lost={}".format(
            result.tally.attempted, result.tally.failed, result.acked_writes_lost
        ),
        file=out,
    )
    for line in result.tally.examples + result.notes:
        print("  ! {}".format(line), file=out)


def run_one(workload: str, seed: int, seconds: float, trace: bool, **kwargs) -> RunResult:
    with deadline(RUN_DEADLINE_S):
        result = run_workload(workload, seed, seconds, trace, **kwargs)
    write_result(result, environment(seed, seconds))
    print_result(result)
    return result


def driver_mode(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    line = {
        "correct": result.correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed + result.acked_writes_lost,
        "metrics": contract_metrics(result),
    }
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if result.correct else 1


def print_summary(ok: bool, results: List[RunResult], **extra) -> int:
    """The last line of a suite or smoke run.  It ends with
    ``"claim": null``: this benchmark measures, it claims nothing."""
    summary: Dict[str, object] = {
        "ok": ok,
        "workloads": {
            r.workload: {
                "ops_attempted": r.tally.attempted,
                "ops_failed": r.tally.failed,
                "acked_writes_lost": r.acked_writes_lost,
                "plan_hash": r.plan_hash,
            }
            for r in results
        },
    }
    summary.update(extra)
    summary["claim"] = None
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0 if ok else 1


def suite_mode(args) -> int:
    bounds = {e["name"]: e["bound"] for e in config.load_benchmark_json()["end_to_end"]}
    runs: List[List[RunResult]] = []
    for _ in range(args.repeat):
        runs.append(
            [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in config.WORKLOADS]
        )
    ok = all(r.correct for results in runs for r in results)

    def reported(result: RunResult) -> Dict[str, float]:
        return result.layers if args.trace else result.metrics

    if args.repeat > 1:
        print("== repeatability over {} runs (median, q1, q3, spread, bound)".format(args.repeat))
        for index, workload in enumerate(config.WORKLOADS):
            for name in reported(runs[0][index]):
                spread = stats.quartile_spread([reported(r[index])[name] for r in runs])
                bound = bounds.get(name)
                wide = bound is not None and name != "setup_s" and spread["spread"] > bound
                print(
                    "  {:<16s} {:<28s} {:>12.4f} {:>12.4f} {:>12.4f} {:>7.2%} {}{}".format(
                        workload, name, spread["median"], spread["q1"], spread["q3"],
                        spread["spread"], "" if bound is None else "{:.2f}".format(bound),
                        "  EXCEEDS BOUND" if wide else "",
                    )
                )
                ok = ok and not wide
    return print_summary(ok, runs[-1])


def smoke_mode(args) -> int:
    """One traced pass with equal shares: every end-to-end and every
    per-layer metric is produced once, cheaply."""
    result = run_one(
        "smoke", args.seed, SMOKE_SECONDS, True, setup_repeats=1, restart_repeats=1
    )
    missing = [
        name
        for section, source in (("end_to_end", result.metrics), ("per_layer", result.layers))
        for name in config.metric_names(section)
        if name not in source
    ]
    for name in missing:
        print("  ! BENCHMARK.json names {!r} but the run produced no such metric".format(name))
    return print_summary(
        result.correct and not missing,
        [result],
        end_to_end=sorted(result.metrics),
        per_layer=sorted(result.layers),
    )


def main(argv: Optional[List[str]] = None) -> int:
    spec = config.load_benchmark_json()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(config.WORKLOADS))
    parser.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke_mode(args)
    if args.workload:
        return driver_mode(args)
    return suite_mode(args)
