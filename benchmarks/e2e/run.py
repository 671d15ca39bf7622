"""One run of one workload against a real server subprocess.

Order of a run (every workload runs every traffic kind; its own kind
gets most of ``--seconds``, the others run as probes; every kind is cut
into ``ROUNDS`` slices, interleaved with the other kinds' slices):

1. set-up, ``SETUP_REPEATS`` times: build datasets, checkpoint them into
   a fresh data directory, start ``repro serve``, first ping;
2. crash — 130 closed-loop writes per mixed tenant (one checkpoint
   each), ``kill -9`` with writes in flight, restart on the same data
   directory ``RESTART_REPEATS`` times, durability audit, repair;
3. ``ROUNDS`` times: a ``read`` slice (open-loop Zipf point reads, then
   closed-loop saturation), a ``mixed`` slice (open-loop 80/20
   read/write over tenants ``t0``/``t1``), a ``churn`` slice
   (closed-loop write + cache-miss algebra query) and a ``scan`` slice
   (closed-loop cursor drains of the cached 12 k-row cone);
4. flat-oracle checks of everything kept, outside every timed window.

The crash comes first so that the journal a restart replays has a fixed
length — not whatever the closed loops happened to leave behind.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from benchmarks.e2e import config, loadgen, stats
from benchmarks.e2e.datasets import (
    Datasets,
    class_name,
    key_name,
    make_datasets,
    write_data_dir,
)
from benchmarks.e2e.loadgen import Tally
from benchmarks.e2e.oracle import FlatOracle
from benchmarks.e2e.plan import Plan, build_plan, retracted_after
from benchmarks.e2e.serverproc import Reaper, ServerProcess
from repro.client import HQLClient

#: Counters summed over every tenant's registry.
_TENANT_COUNTERS = (
    "querycache.hits",
    "querycache.misses",
    "querycache.evictions",
    "querycache.invalidations",
    "querycache.rejected",
)
#: Counters that repeat exactly for a seed only over the open-loop
#: windows (closed-loop iteration counts depend on speed).
_EXACT_COUNTERS = ("server.statements", "server.errors", "recovery.checkpoints")


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    trace: bool
    plan_hash: str = ""
    plan_hashes: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)  # end to end
    layers: Dict[str, float] = field(default_factory=dict)  # per layer
    samples: Dict[str, int] = field(default_factory=dict)
    slices: Dict[str, List[float]] = field(default_factory=dict)  # per-slice values
    phase_counters: Dict[str, Dict[str, float]] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    acked_writes_lost: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and self.acked_writes_lost == 0


def read_counters(client: HQLClient) -> Dict[str, float]:
    """A flat view of the server's public ``stats`` and ``metrics``
    verbs: per-tenant cache counters summed, core and planner counters,
    checkpoint generations summed over tenants."""
    payload = client.stats()
    engine = payload.get("engine") or {}
    core = payload.get("core") or {}
    out: Dict[str, float] = {name: float(engine.get(name, 0)) for name in _TENANT_COUNTERS}
    for line in client.metrics_text().splitlines():
        if not line.startswith("repro_tenant_"):
            continue
        name, _, value = line.partition(" ")
        for counter in _TENANT_COUNTERS:
            if name.endswith("_" + counter.replace(".", "_")):
                out[counter] += float(value)
    out["server.statements"] = float(engine.get("server.statements", 0))
    out["server.errors"] = float(engine.get("server.errors", 0))
    out["bulk.evaluator.builds"] = float(core.get("bulk.evaluator.builds", 0))
    out["parallel.ops"] = float(core.get("parallel.ops", 0))
    out["parallel.fallbacks"] = float(core.get("parallel.fallbacks", 0))
    out["planner.reorders"] = float((payload.get("planner") or {}).get("reorders", 0))
    out["recovery.checkpoints"] = float(
        sum(int(row.get("checkpoint") or 0) for row in payload.get("tenants") or ())
    )
    out["server.max_concurrent_readers"] = float(
        (payload.get("server") or {}).get("max_concurrent_readers", 0)
    )
    return out


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    out = {name: after[name] - before[name] for name in after}
    out["server.max_concurrent_readers"] = after["server.max_concurrent_readers"]
    return out


def _accumulate(total: Dict[str, float], counters: Dict[str, float]) -> None:
    """Add ``counters`` into ``total``; the one gauge among them keeps its maximum."""
    for name, value in counters.items():
        if name == "server.max_concurrent_readers":
            total[name] = max(total.get(name, 0.0), value)
        else:
            total[name] = total.get(name, 0.0) + value


def _pooled(slices: List[List[Tuple[float, float]]], width: float) -> List[Tuple[float, float]]:
    """``(time, value)`` samples of consecutive slices on one time axis,
    as if the slices had run back to back."""
    return [
        (index * width + when, value)
        for index, samples in enumerate(slices)
        for when, value in samples
    ]


class _Phases:
    """Drives the traffic kinds, one slice at a time, and folds the
    slices into metrics (see :meth:`fold`)."""

    def __init__(self, result: RunResult, plan: Plan, datasets: Datasets) -> None:
        self.result = result
        self.plan = plan
        self.datasets = datasets
        self.per_slice: Dict[str, List[float]] = {}
        self.pools: Dict[str, List[List[Tuple[float, float]]]] = {}
        self.late_ms: Dict[str, List[float]] = {}  # open-loop send lateness per phase
        #: per phase and slice: (answered in window, scheduled in window, backlog ms)
        self.schedule_kept: Dict[str, List[Tuple[int, int, float]]] = {}
        self.scans: List[loadgen.ScanResult] = []
        self.kept: list = []
        self.churned = 0  # churn iterations so far: the toggle stream goes on

    @contextlib.contextmanager
    def _connected(self, server: ServerProcess, tenants) -> Iterator[List[HQLClient]]:
        """One open connection per entry of ``tenants``, closed on exit."""
        clients = [server.client(db=tenant) for tenant in tenants]
        try:
            for client in clients:
                client.connect()
            yield clients
        finally:
            for client in clients:
                client.close()

    def _counted(self, server: ServerProcess, phase: str, body):
        """Run ``body`` between two snapshots of the server's counters
        and add the difference to the phase's running total."""
        with server.client() as admin:
            before = read_counters(admin)
            outcome = body()
            delta = _delta(before, read_counters(admin))
        _accumulate(self.result.phase_counters.setdefault(phase, {}), delta)
        return outcome

    def _note(self, name: str, value: float) -> None:
        self.per_slice.setdefault(name, []).append(value)

    def _count(self, name: str, samples: int) -> None:
        self.result.samples[name] = self.result.samples.get(name, 0) + samples

    def calibrate(self) -> None:
        """``floor.cpu_ms``: a fixed pure-Python loop on the generator's
        CPU, once per round.  The reference box's raw speed drifts by
        10 % and more with its neighbours; this says how fast it was."""
        began = time.perf_counter()
        sum(i * i for i in range(200_000))
        self._note("floor.cpu_ms", (time.perf_counter() - began) * 1e3)

    def read(self, server: ServerProcess, round_: int) -> None:
        plan = self.plan
        open_s = plan.read_open_s
        sat_s = plan.slices["read"] - open_s
        with self._connected(server, [None] * config.CONNECTIONS) as clients:
            opened = self._counted(
                server,
                "read_open",
                lambda: loadgen.open_loop(clients, plan.read.open_loop[round_], open_s),
            )
            saturated = self._counted(
                server,
                "read_sat",
                lambda: loadgen.saturate(clients, plan.read.saturation, sat_s),
            )
        self.result.tally.merge(opened.tally)
        self.result.tally.merge(saturated.tally)
        reads = opened.latencies["read"]
        self._count("read_open", len(reads))
        self._count("read_sat", saturated.completed)
        self._note("read_p50_ms", stats.percentile([v for _, v in reads], 50))
        self._note("read_ops_per_s", saturated.ops_per_s)
        self._note("client.read_sat_p50_us", stats.percentile(saturated.latencies_ms, 50) * 1e3)
        self.pools.setdefault("read", []).append(reads)
        self._loadgen("read", opened)

    def _loadgen(self, phase: str, opened: loadgen.OpenLoopResult) -> None:
        """Keep what :meth:`fold` needs to judge whether the generator
        kept its schedule."""
        self._note("loadgen.{}_achieved_rate".format(phase), opened.achieved_rate)
        self.late_ms.setdefault(phase, []).extend(opened.late_ms)
        self.schedule_kept.setdefault(phase, []).append(
            (opened.on_time, opened.scheduled, opened.backlog_ms)
        )

    def _check_schedule(self) -> None:
        """The generator's own validity, over all slices of a phase: a
        twentieth of the offered requests not answered inside their
        windows, or a slice whose last sends went out a quarter second
        late (a queue still growing), is noted in the result.  It is not
        a failed operation: every answer was right, and on a shared box
        one 100 ms stall of the host at the end of a slice is enough —
        a run that failed for it would report the neighbours, not the
        program.  ``loadgen.*_achieved_rate`` and ``loadgen.*_late_ms``
        carry the same facts as numbers."""
        for phase, slices in self.schedule_kept.items():
            on_time = sum(s[0] for s in slices)
            scheduled = sum(s[1] for s in slices)
            backlog = max(s[2] for s in slices)
            if on_time < 0.95 * scheduled or backlog > 250.0:
                self.result.notes.append(
                    "open-loop {} fell behind: {} of {} scheduled requests answered inside "
                    "their windows, last sends of a slice {:.1f} ms late".format(
                        phase, on_time, scheduled, backlog
                    )
                )

    def mixed(self, server: ServerProcess, round_: int) -> None:
        plan = self.plan
        with self._connected(server, config.TENANTS_MIXED) as clients:
            opened = self._counted(
                server,
                "mixed_open",
                lambda: loadgen.open_loop(
                    clients, plan.mixed.open_loop[round_], plan.slices["mixed"]
                ),
            )
        self.result.tally.merge(opened.tally)
        writes = opened.latencies["write"]
        reads = opened.latencies["read"]
        self._count("mixed_write", len(writes))
        self._count("mixed_read", len(reads))
        self._note("write_p50_ms", stats.percentile([v for _, v in writes], 50))
        self._note("client.mixed_read_p50_ms", stats.percentile([v for _, v in reads], 50))
        self.pools.setdefault("write", []).append(writes)
        self._loadgen("mixed", opened)

    def churn(self, server: ServerProcess) -> None:
        with server.client() as client:
            done = self._counted(
                server,
                "churn",
                lambda: loadgen.churn(
                    client, self.plan.churn, self.plan.slices["churn"], self.churned
                ),
            )
        self.churned += done.iterations
        self.result.tally.merge(done.tally)
        self._count("churn_query", len(done.latencies))
        self._note("query_p50_ms", stats.percentile([v for _, v in done.latencies], 50))
        self.pools.setdefault("query", []).append(done.latencies)
        self.kept.extend(done.kept)

    def scan(self, server: ServerProcess) -> None:
        with server.client(db=config.TENANT_GRID) as client:
            done = self._counted(
                server, "scan", lambda: loadgen.scan(client, self.plan.slices["scan"])
            )
        self.result.tally.merge(done.tally)
        self._count("scan_drains", done.drains)
        self._count("scan_rows", done.rows)
        self._note("scan_rows_per_s", done.rows_per_s)
        self._note("scan_first_page_ms", stats.percentile(done.first_page_ms, 50))
        self.scans.append(done)

    def fold(self) -> None:
        """Slices -> metrics.  An end-to-end timing or rate is the mean
        of its two best slices (:func:`stats.quiet_slices`), so the
        slices a neighbour of the box slowed down do not own it; the
        generator's own per-layer numbers (lateness, achieved rate,
        ``floor.cpu_ms``) are diagnostics of exactly that disturbance
        and stay plain slice medians; tails are taken over all slices
        laid end to end."""
        result = self.result
        better = {e["name"]: e["better"] for e in config.load_benchmark_json()["end_to_end"]}
        result.slices = self.per_slice
        for name, values in self.per_slice.items():
            if name in better:
                result.metrics[name] = stats.quiet_slices(values, better[name])
            else:
                result.layers[name] = statistics.median(values)
        widths = {
            "read": self.plan.read_open_s,
            "write": self.plan.slices["mixed"],
            "query": self.plan.slices["churn"],
        }
        for kind, width in widths.items():
            samples = _pooled(self.pools[kind], width)
            q, value = stats.tail(samples, 0.0, width * len(self.pools[kind]), config.TAIL_SEGMENTS)
            result.layers["client.{}_tail_ms".format(kind)] = value
            result.layers["client.{}_tail_pct".format(kind)] = q
        for phase, late in self.late_ms.items():
            q = stats.highest_supported_tail(len(late))
            result.layers["loadgen.{}_late_ms".format(phase)] = stats.percentile(late, q)
        self._check_schedule()

    def check_kept(self, oracle: FlatOracle) -> None:
        """Flat-oracle checks of what the closed loops kept, after the
        last timed window."""
        tally = self.result.tally
        for _, kind, arg, retracted, answer in self.kept:
            tally.attempted += 1
            problem = oracle.check_query(kind, arg, retracted, answer)
            if problem is not None:
                tally.fail(problem)
        tally.attempted += 1
        problem = oracle.check_scan(self.scans[0].first_rows)
        fingerprints = {f for done in self.scans for f in done.fingerprints}
        if problem is None and len(fingerprints) != 1:
            problem = "scan drains disagree: {} distinct fingerprints".format(len(fingerprints))
        if problem is not None:
            tally.fail(problem)

    def crash_and_restart(
        self, reaper: Reaper, server: ServerProcess, repeats: int
    ) -> ServerProcess:
        """``kill -9`` under write load, restart ``repeats`` times on the
        same data directory, audit, repair; returns the server that is
        left running."""
        with self._connected(server, config.TENANTS_MIXED) as clients:
            acked = loadgen.crash_under_writes(
                clients, self.plan.mixed.crash_writes, server.kill
            )
        restarts = []
        for _ in range(repeats):
            server.kill()
            server = reaper.spawn(server.data_dir)
            restarts.append(server.ready_s)
        self.result.metrics["restart_s"] = statistics.median(restarts)
        self.result.samples["restart"] = len(restarts)
        self.result.samples["crash_acked_writes"] = sum(acked)
        for tenant, count in zip(config.TENANTS_MIXED, acked):
            self._audit(server, tenant, count)
        return server

    def _audit(self, server: ServerProcess, tenant: str, acked: int) -> None:
        """Every acknowledged write must be visible and nothing
        unacknowledged invented: the tenant's toggle state must be the
        one after its acknowledged writes, or after one more when a
        write was in flight at the kill.  Then the one retracted class,
        if any, is re-asserted, so the run goes on from the initial
        state whichever way the in-flight write went."""
        result = self.result
        truth = self.datasets.cones
        toggles = truth.toggle_classes
        legal = [retracted_after(acked, toggles)]
        if acked < config.CRASH_WRITES:
            legal.append(retracted_after(acked + 1, toggles))
        witnesses = {
            c: next(
                i for i in range(config.CONES_INSTANCES)
                if (c, i) not in truth.exceptions["left"]
            )
            for c in toggles
        }
        with server.client(db=tenant) as client:
            seen = {
                c for c, i in witnesses.items() if not client.truth("left", [key_name((c, i))])
            }
            states = [state for state in legal if seen == ({state} - {None})]
            if not states:
                result.acked_writes_lost += len(seen ^ ({legal[0]} - {None}))
                result.notes.append(
                    "tenant {}: after {} acked writes classes {} read retracted, "
                    "legal states {}".format(tenant, acked, sorted(seen), legal)
                )
                return
            # The recovered relation as a whole, not just the toggles.
            for c in range(config.CONES_CLASSES):
                key = (c, c % config.CONES_INSTANCES)
                result.tally.attempted += 1
                got = client.truth("left", [key_name(key)])
                if got is not truth.truth("left", key, states[0]):
                    result.tally.fail(
                        "tenant {} after restart: TRUTH left ({}) -> {}".format(
                            tenant, key_name(key), got
                        )
                    )
            if states[0] is not None:
                client.execute("ASSERT left ({});".format(class_name(states[0])))


def _setup(reaper: Reaper, seed: int) -> Tuple[ServerProcess, float]:
    """Load-to-query-ready: dataset build, snapshot write, server start,
    first ping.  Returns the server and the seconds all of it took."""
    began = time.perf_counter()
    data_dir = reaper.new_data_dir()
    write_data_dir(make_datasets(seed), data_dir)
    server = reaper.spawn(data_dir)
    return server, time.perf_counter() - began


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    setup_repeats: int = config.SETUP_REPEATS,
    restart_repeats: int = config.RESTART_REPEATS,
) -> RunResult:
    """One measured run.  With ``trace`` the wire phases take half the
    window (for the counters and the wire side of the ledger) and the
    other half goes to the in-process traced replay; end-to-end numbers
    are never taken from a traced run."""
    result = RunResult(workload, seed, seconds, trace)
    datasets = make_datasets(seed)
    durations = config.phase_seconds(workload, seconds / 2.0 if trace else seconds)
    rounds = config.rounds_for(durations)
    plan = build_plan(seed, datasets.cones, durations, rounds)
    result.plan_hash, result.plan_hashes = plan.plan_hash, dict(plan.hashes)
    oracle = FlatOracle(datasets)
    result.tally.attempted += 1
    problem = oracle.self_check()
    if problem is not None:
        result.tally.fail(problem)
        return result

    with Reaper() as reaper:
        setups = []
        server = None
        for _ in range(1 if trace else setup_repeats):
            if server is not None:
                server.kill()
            server, elapsed = _setup(reaper, seed)
            setups.append(elapsed)
        result.metrics["setup_s"] = statistics.median(setups)
        result.samples["setup"] = len(setups)

        phases = _Phases(result, plan, datasets)
        with server.client() as client:
            pings = loadgen.ping_floor(client, config.PING_SAMPLES)
        result.layers["floor.ping_p50_us"] = stats.percentile(pings, 50)
        server = phases.crash_and_restart(reaper, server, 1 if trace else restart_repeats)
        for round_ in range(rounds):
            phases.calibrate()
            phases.read(server, round_)
            phases.mixed(server, round_)
            phases.churn(server)
            phases.scan(server)
        if trace:
            with server.client() as client:
                wire_us, tally = loadgen.closed_loop_latencies(client, plan.read.traced)
            result.tally.merge(tally)
            result.layers["wire.read_closed_p50_us"] = stats.percentile(wire_us, 50)
        result.metrics["server_rss_mb"] = server.peak_rss_mib()
        phases.fold()
        phases.check_kept(oracle)
        _counter_layers(result, plan, _data_dir_bytes(server.data_dir))

        if trace:
            from benchmarks.e2e import layers

            layers.measure(result, datasets, plan, reaper.scratch)
    return result


def _data_dir_bytes(data_dir: str) -> Dict[str, int]:
    """Snapshot size per mixed tenant, for the write-amplification count."""
    return {
        tenant: os.path.getsize(os.path.join(data_dir, tenant, "snapshot.bin"))
        for tenant in config.TENANTS_MIXED
    }


def _counter_layers(result: RunResult, plan: Plan, snapshot_bytes: Dict[str, int]) -> None:
    """Per-layer counts from the ``stats`` deltas of the wire phases."""
    phases = result.phase_counters
    total: Dict[str, float] = {}
    for phase, counters in phases.items():
        if not phase.endswith("_open"):
            counters = {n: v for n, v in counters.items() if n not in _EXACT_COUNTERS}
        _accumulate(total, counters)
    layers = result.layers
    lookups = total["querycache.hits"] + total["querycache.misses"]
    layers["querycache.hit_rate"] = total["querycache.hits"] / lookups if lookups else 0.0
    for name in (
        "querycache.evictions",
        "querycache.invalidations",
        "querycache.rejected",
        "bulk.evaluator.builds",
        "planner.reorders",
        "parallel.ops",
        "parallel.fallbacks",
        "recovery.checkpoints",
        "server.max_concurrent_readers",
        "server.statements",
        "server.errors",
    ):
        layers[name] = total[name]
    # Bytes the mixed phase made the server write per byte of write
    # statement it was sent: every journalled line plus every snapshot.
    writes = sum(plan.mixed.writes_open)
    # A toggle is journalled exactly as it was sent, plus a newline.
    journal = plan.mixed.user_bytes + writes
    snapshots = phases["mixed_open"]["recovery.checkpoints"] * statistics.mean(
        snapshot_bytes.values()
    )
    layers["recovery.bytes_written_per_user_byte"] = (
        (journal + snapshots) / plan.mixed.user_bytes if plan.mixed.user_bytes else 0.0
    )
