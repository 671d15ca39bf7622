"""The load generator: one process, at most ``CONNECTIONS`` threads.

Open-loop phases replay a fixed schedule and stamp every latency from
the *scheduled* arrival, so a stall is charged to the requests that
waited behind it; the generator's own lateness is recorded beside it.
Closed-loop phases send the next request when the previous one returns.
Every answer is checked where it is received; a wrong answer, a refused
request or an exception is a failed operation.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import config
from benchmarks.e2e.plan import SCAN_STATEMENT, ChurnPlan, Request
from repro.errors import ServerError

clock = time.perf_counter
BACKLOG_SENDS = 20


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures kept."""

    attempted: int = 0
    failed: int = 0
    examples: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.examples.extend(other.examples[: 5 - len(self.examples)])


@dataclass
class OpenLoopResult:
    #: kind -> [(scheduled offset s, latency ms)] inside the measured window
    latencies: Dict[str, List[Tuple[float, float]]]
    late_ms: List[float]  # send-time lateness of measured requests, schedule order
    on_time: int  # measured requests answered before the window closed
    scheduled: int  # requests the schedule puts inside the measured window
    window: Tuple[float, float]  # measured [start, end) in schedule time
    tally: Tally

    @property
    def offered_rate(self) -> float:
        return self.scheduled / (self.window[1] - self.window[0])

    @property
    def achieved_rate(self) -> float:
        """Measured requests answered inside the window, per second."""
        return self.on_time / (self.window[1] - self.window[0])

    @property
    def backlog_ms(self) -> float:
        """How late the last sends of each connection went out: near
        zero unless a queue was still growing when the window closed."""
        return statistics.median(self.late_ms[-BACKLOG_SENDS:]) if self.late_ms else 0.0


def _check(request: Request, results) -> Optional[str]:
    _, text, kind, expect = request
    if len(results) != 1:
        return "{} -> {} results".format(text, len(results))
    result = results[0]
    if kind == "read":
        if result.kind != "truth" or result.payload is not expect:
            return "{} -> {!r}, expected {!r}".format(text, result.payload, expect)
    elif result.kind != "ok":
        return "{} -> kind {!r}".format(text, result.kind)
    return None


def _attempt(client, request: Request) -> Optional[str]:
    """Send one planned request; ``None`` when the answer is right."""
    try:
        return _check(request, client.execute(request[1]))
    except (ServerError, OSError) as exc:
        return "{} -> {}: {}".format(request[1], type(exc).__name__, exc)


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run one thread per target and re-raise the first exception."""
    errors: List[BaseException] = []

    def guard(target):
        try:
            target()
        except BaseException as exc:  # re-raised on the caller's thread below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(t,), daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(
    clients, schedules: Sequence[Sequence[Request]], duration: float
) -> OpenLoopResult:
    """Replay ``schedules[k]`` on ``clients[k]``.  Never sleeps when
    behind schedule; the first ``WARMUP_SHARE`` of the window is driven
    and checked but not measured."""
    warm = duration * config.WARMUP_SHARE
    tally_lock = threading.Lock()
    total = Tally()
    latencies: Dict[str, List[Tuple[float, float]]] = {"read": [], "write": []}
    late: List[Tuple[float, float]] = []
    on_time = [0]
    barrier = threading.Barrier(len(clients))
    epoch = [0.0]

    def worker(client, schedule):
        mine = Tally()
        my_lat: Dict[str, List[Tuple[float, float]]] = {"read": [], "write": []}
        my_late: List[Tuple[float, float]] = []
        answered_in_window = 0
        if barrier.wait() == 0:
            epoch[0] = clock() + 0.05
        barrier.wait()
        start = epoch[0]
        for request in schedule:
            at = request[0]
            delay = start + at - clock()
            if delay > 0:
                time.sleep(delay)
            sent_at = clock() - start
            mine.attempted += 1
            problem = _attempt(client, request)
            done = clock() - start
            if problem is not None:
                mine.fail(problem)
            elif at >= warm:
                my_lat[request[2]].append((at, (done - at) * 1e3))
                my_late.append((at, (sent_at - at) * 1e3))
                answered_in_window += done <= duration
        with tally_lock:
            total.merge(mine)
            for kind, values in my_lat.items():
                latencies[kind].extend(values)
            late.extend(my_late)
            on_time[0] += answered_in_window

    _run_threads([lambda c=c, s=s: worker(c, s) for c, s in zip(clients, schedules)])
    scheduled = sum(1 for schedule in schedules for request in schedule if request[0] >= warm)
    late_ms = [value for _, value in sorted(late)]
    return OpenLoopResult(latencies, late_ms, on_time[0], scheduled, (warm, duration), total)


@dataclass
class SaturationResult:
    ops_per_s: float
    completed: int
    latencies_ms: List[float]
    tally: Tally


def saturate(clients, cycles: Sequence[Sequence[Request]], duration: float) -> SaturationResult:
    """Closed loop, one back-to-back stream per connection, for
    ``duration`` seconds; throughput is counted after the warm-up."""
    warm = duration * config.WARMUP_SHARE
    lock = threading.Lock()
    total = Tally()
    counted = [0]
    latencies: List[float] = []
    barrier = threading.Barrier(len(clients))
    epoch = [0.0]

    def worker(client, cycle):
        mine = Tally()
        mine_lat: List[float] = []
        if barrier.wait() == 0:
            epoch[0] = clock()
        barrier.wait()
        start = epoch[0]
        index = 0
        while True:
            began = clock() - start
            if began >= duration:
                break
            request = cycle[index % len(cycle)]
            index += 1
            mine.attempted += 1
            problem = _attempt(client, request)
            ended = clock() - start
            if problem is not None:
                mine.fail(problem)
            elif began >= warm and ended <= duration:
                mine_lat.append((ended - began) * 1e3)
        with lock:
            total.merge(mine)
            counted[0] += len(mine_lat)
            latencies.extend(mine_lat)

    _run_threads([lambda c=c, s=s: worker(c, s) for c, s in zip(clients, cycles)])
    return SaturationResult(counted[0] / (duration - warm), counted[0], latencies, total)


@dataclass
class ChurnResult:
    #: (offset s, latency ms) of every timed query inside the window
    latencies: List[Tuple[float, float]]
    #: (iteration, query kind, select class, retracted class, wire payload)
    #: for every result kept for the flat oracle
    kept: List[Tuple[int, str, int, Optional[int], object]]
    iterations: int
    tally: Tally


def churn(client, plan: ChurnPlan, duration: float, start_iteration: int = 0) -> ChurnResult:
    """Closed loop on one connection: a toggle write (untimed) that
    invalidates every cached answer over ``left``, then one timed query."""
    warm = duration * config.WARMUP_SHARE
    tally = Tally()
    latencies: List[Tuple[float, float]] = []
    kept = []
    start = clock()
    i = start_iteration
    while clock() - start < duration or len(latencies) < config.MIN_CLOSED_SAMPLES:
        write, query, kind, arg, retracted = plan.iteration(i)
        tally.attempted += 2
        try:
            results = client.execute(write)
            if len(results) != 1 or results[0].kind != "ok":
                tally.fail("{} -> {!r}".format(write, results))
            began = clock()
            results = client.execute(query)
            ended = clock()
        except (ServerError, OSError) as exc:
            tally.fail("{} / {} -> {}: {}".format(write, query, type(exc).__name__, exc))
            break  # the toggle state is unknown from here on
        if len(results) != 1:
            tally.fail("{} -> {} results".format(query, len(results)))
        else:
            if began - start >= warm:
                latencies.append((began - start, (ended - began) * 1e3))
            if i % 10 == 0:
                kept.append((i, kind, arg, retracted, results[0]))
        i += 1
    if i % 2 and not tally.failed:
        # Stopped between a RETRACT and its ASSERT: finish the pair, so
        # the point reads that share this tenant find the initial state.
        client.execute(plan.iteration(i)[0])
        i += 1
    return ChurnResult(latencies, kept, i - start_iteration, tally)


@dataclass
class ScanResult:
    rows_per_s: float
    first_page_ms: List[float]
    drains: int
    rows: int
    #: (row count, order-insensitive hash) of every drain, first included
    fingerprints: List[Tuple[int, int]]
    first_rows: list  # the first (discarded) drain, for the flat oracle
    tally: Tally


def fingerprint(rows) -> Tuple[int, int]:
    """Row count and an order-insensitive hash of wire rows
    ``[[a, b], truth]``.  Python's string hash is salted per process;
    fingerprints only ever compare within one."""
    acc = 0
    for item, truth in rows:
        acc ^= hash((tuple(item), bool(truth)))
    return len(rows), acc


def scan(client, duration: float) -> ScanResult:
    """Closed loop on one connection: drain the scanned cone through a
    cursor over and over.  The first drain fills the query cache and is
    not measured; fingerprints are taken outside the timed region."""
    warm = duration * config.WARMUP_SHARE
    tally = Tally()
    first_page: List[float] = []
    fingerprints: List[Tuple[int, int]] = []
    first_rows: list = []
    rows_total = 0
    busy = 0.0
    start = clock()
    while clock() - start < duration or len(first_page) < config.MIN_CLOSED_SAMPLES:
        tally.attempted += 1
        began = clock()
        try:
            cursor = client.cursor(SCAN_STATEMENT, page_size=config.PAGE_SIZE)
            paged = clock()
            rows = list(cursor)
            ended = clock()
        except (ServerError, OSError) as exc:
            tally.fail("{} -> {}: {}".format(SCAN_STATEMENT, type(exc).__name__, exc))
            break
        if not fingerprints:
            first_rows = rows
        elif began - start >= warm:
            first_page.append((paged - began) * 1e3)
            rows_total += len(rows)
            busy += ended - began
        fingerprints.append(fingerprint(rows))
    rate = rows_total / busy if busy > 0 else 0.0
    return ScanResult(
        rate, first_page, len(first_page), rows_total, fingerprints, first_rows, tally
    )


def crash_under_writes(clients, statements: Sequence[str], kill: Callable[[], None]) -> List[int]:
    """Every connection sends ``statements`` to its own tenant, closed
    loop; once every connection has ``CRASH_AFTER_ACKS`` acknowledgements
    the server is killed, with the slowest connection's writes still in
    flight.  Waiting for all of them keeps the journal a restart replays
    the same length whichever connection the box favoured.  Errors
    after the kill are the crash, not failed operations.  Returns the
    writes acknowledged per connection."""
    acked = [0] * len(clients)
    trigger = threading.Event()

    def worker(index, client):
        try:
            for statement in statements:
                client.execute(statement)
                acked[index] += 1
                if min(acked) >= config.CRASH_AFTER_ACKS:
                    trigger.set()
        except (ServerError, OSError):
            pass  # the crash
        finally:
            if acked[index] < len(statements):
                trigger.set()  # stopped early: never leave the killer waiting

    def killer():
        trigger.wait()
        kill()

    _run_threads([lambda i=i, c=c: worker(i, c) for i, c in enumerate(clients)] + [killer])
    return acked


def ping_floor(client, samples: int) -> List[float]:
    """Round-trip times of ``samples`` pings, in microseconds."""
    out = []
    for _ in range(samples):
        began = clock()
        client.ping()
        out.append((clock() - began) * 1e6)
    return out


def closed_loop_latencies(client, requests: Sequence[Request]) -> Tuple[List[float], Tally]:
    """One connection, back to back, over a fixed statement list (the
    wire side of ``server.overhead_us``); microseconds."""
    tally = Tally()
    out = []
    for request in requests:
        tally.attempted += 1
        began = clock()
        problem = _attempt(client, request)
        ended = clock()
        if problem is not None:
            tally.fail(problem)
        else:
            out.append((ended - began) * 1e6)
    return out, tally
