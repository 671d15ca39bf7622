"""The per-layer ledger: a traced in-process replay plus direct timings.

Nothing here touches the wire.  :class:`RequestModel` is the
benchmark's model of the server's request path, assembled from the
layers' public functions in the order the server calls them — frame
decode, parse, execute, serialise, frame encode — with a span around
each call.  What the model cannot see (socket, asyncio, the worker
thread hop, lock wait, the client's own codec) is not guessed: it is
the explicit residual ``server.overhead_us`` = wire closed-loop p50
minus the model's request p50 over the same statements.

The remaining metrics time one public function of one layer on the
workload's own relations (median of a few repetitions).
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from typing import Callable, Dict, List

from benchmarks.e2e import config
from benchmarks.e2e.datasets import Datasets, build_cones, build_grid, class_name, key_name
from benchmarks.e2e.plan import SCAN_STATEMENT, Plan, toggle_write
from benchmarks.e2e.spans import Recorder
from repro.core import algebra, bulk
from repro.core.conflicts import find_conflicts
from repro.core.where import member, select_where
from repro.engine import codec
from repro.engine.hql import HQLExecutor
from repro.engine.hql.parser import parse
from repro.engine.oplog import OperationLog
from repro.planner.stats import stats_for
from repro.server import protocol
from repro.server.recovery import RecoveryManager

_clock = time.perf_counter

CHURN_TRACED_ITERATIONS = 60  # ~15 ms each in process; 2000 would take the whole window
SCAN_TRACED_DRAINS = 10
BINARY = codec.FORMAT_BINARY


class RequestModel:
    """One tenant's request path, spanned."""

    def __init__(self, database, recorder: Recorder, journal_path: str) -> None:
        self.recorder = recorder
        self.database = database
        self.executor = HQLExecutor(
            database, log=OperationLog(journal_path, fsync=config.FSYNC)
        )

    def _execute(self, request_id, body: bytes):
        span = self.recorder.span
        with span("protocol.decode", request_id):
            message = protocol.decode_body(body)
        with span("hql.parse", request_id):
            statements = parse(message["hql"])
        cache = self.database.query_cache
        results = []
        for statement in statements:
            hits = cache.hits
            with span("hql.execute", request_id) as executed:
                result = self.executor.execute_statement(statement)
            executed.tag = "hit" if cache.hits > hits else "miss"
            results.append(result)
        return results

    def query(self, request_id, hql: str) -> bytes:
        """A plain query request; returns the response frame."""
        span = self.recorder.span
        body = protocol.encode_body(
            {"id": 1, "op": "query", "hql": hql, "render": False, "format": BINARY}
        )
        with span("request", request_id):
            wires = []
            for result in self._execute(request_id, body):
                with span("protocol.serialize", request_id):
                    wires.append(protocol.serialize_result(result, render=False, binary=True))
            response = protocol.ok_response(1, wires)
            response["txn"] = False
            with span("protocol.encode", request_id):
                frame = protocol.encode_frame(response, BINARY)
        return frame

    def drain(self, request_id, hql: str, page_size: int) -> int:
        """A paged query drained to the end, the way the server pages a
        relation result: materialise wire rows once, then one columnar
        page per request.  Returns rows delivered."""
        span = self.recorder.span
        body = protocol.encode_body(
            {"id": 1, "op": "query", "hql": hql, "render": False, "format": BINARY,
             "page_size": page_size}
        )
        with span("request", request_id):
            (result,) = self._execute(request_id, body)
            relation = result.payload
            with span("cursor.materialise", request_id):
                asserted = relation.asserted
                rows = list(map(list, zip(map(list, asserted.keys()), asserted.values())))
            width = len(relation.schema.attributes)
            frame = self._page(request_id, rows[:page_size], width)
        delivered = self._receive(request_id, frame)
        for offset in range(page_size, len(rows), page_size):
            fetch = protocol.encode_body(
                {"id": 1, "op": "fetch", "cursor": 1, "max_rows": 0, "format": BINARY}
            )
            with span("request", request_id):
                with span("protocol.decode", request_id):
                    protocol.decode_body(fetch)
                frame = self._page(request_id, rows[offset:offset + page_size], width)
            delivered += self._receive(request_id, frame)
        return delivered

    def _page(self, request_id, page, width: int) -> bytes:
        span = self.recorder.span
        with span("protocol.serialize", request_id):
            response = protocol.cursor_response(
                1, 1, codec.columnar_pairs(page, width=width), False, 0
            )
        with span("protocol.encode", request_id):
            return protocol.encode_frame(response, BINARY)

    def _receive(self, request_id, frame: bytes) -> int:
        """The client's half of a page: unpack the columnar block."""
        with self.recorder.span("client.decode", request_id):
            decoded = protocol.decode_body(frame[4:])
        return len(decoded["cursor"]["rows"])


def replay_read(datasets: Datasets, plan: Plan, recorder: Recorder, scratch: str) -> float:
    """Replay the head of the ``read`` stream on a fresh database;
    returns the seconds it took."""
    model = RequestModel(build_cones(datasets.cones), recorder, os.path.join(scratch, "read.hql"))
    began = _clock()
    for n, request in enumerate(plan.read.traced):
        model.query(("read", n), request[1])
    return _clock() - began


def replay(datasets: Datasets, plan: Plan, recorder: Recorder, scratch: str) -> None:
    """Replay the head of every stream on fresh databases."""

    def model(database, name):
        return RequestModel(database, recorder, os.path.join(scratch, name + ".hql"))

    replay_read(datasets, plan, recorder, scratch)
    tenants = [
        model(build_cones(datasets.cones, tenant), tenant) for tenant in config.TENANTS_MIXED
    ]
    for n, (conn, request) in enumerate(plan.mixed.traced):
        tenants[conn].query(("mixed", n), request[1])
    churned = model(build_cones(datasets.cones), "churn")
    for i in range(CHURN_TRACED_ITERATIONS):
        write, query, _, _, _ = plan.churn.iteration(i)
        churned.query(("churn_write", i), write)
        churned.query(("churn", i), query)
    grid = model(build_grid(datasets.grid), "grid")
    grid.drain(("scan_fill", 0), SCAN_STATEMENT, config.PAGE_SIZE)  # fills the cache
    for n in range(SCAN_TRACED_DRAINS):
        grid.drain(("scan", n), SCAN_STATEMENT, config.PAGE_SIZE)


def trace_overhead(datasets: Datasets, plan: Plan, scratch: str) -> float:
    """Traced over untraced time of the ``read`` stream, alternating,
    median of three each.  That stream has the most spans per unit of
    work and no fsync, so it bounds the overhead and is not drowned in
    disk noise."""
    times = {True: [], False: []}
    for _ in range(3):
        for enabled in (False, True):
            times[enabled].append(replay_read(datasets, plan, Recorder(enabled), scratch))
    return statistics.median(times[True]) / statistics.median(times[False])


def _p50_us(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e6 if seconds else 0.0


def _median_ms(fn: Callable[[], object], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        began = _clock()
        fn()
        times.append(_clock() - began)
    return statistics.median(times) * 1e3


def ledger(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """Per stream: total self seconds by span name plus the number of
    requests, so the shares of a request add up to one."""
    self_times = recorder.self_times()
    out: Dict[str, Dict[str, float]] = {}
    for span, self_time in zip(recorder.spans, self_times):
        name = span.name
        if name == "hql.execute":
            name = "hql.execute[{}]".format(span.tag)
        bucket = out.setdefault(span.request[0], {"requests": 0})
        if name == "request":
            bucket["requests"] += 1
        bucket[name] = bucket.get(name, 0.0) + self_time
    return out


EVALUATE = ("hql.execute[hit]", "hql.execute[miss]")
ENCODE = ("cursor.materialise", "protocol.serialize", "protocol.encode")
DECODE = ("client.decode",)


def _share(bucket: Dict[str, float], names, overhead_s: float) -> float:
    """Self time of ``names`` over the whole request as a closed-loop
    client sees it: everything the model spans plus the wire residual."""
    requests = bucket["requests"]
    total = sum(v for k, v in bucket.items() if k != "requests") + requests * overhead_s
    return sum(bucket.get(name, 0.0) for name in names) / total if total else 0.0


def span_layers(recorder: Recorder, layers: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Ledger metrics that come from the spans."""
    durations = recorder.durations
    layers["protocol.decode_us"] = _p50_us(durations("protocol.decode", stream="read"))
    layers["protocol.serialize_us"] = _p50_us(durations("protocol.serialize", stream="read"))
    layers["protocol.encode_us"] = _p50_us(durations("protocol.encode", stream="read"))
    layers["hql.parse_us"] = _p50_us(durations("hql.parse", stream="read"))
    layers["hql.execute_hit_us"] = _p50_us(durations("hql.execute", tag="hit", stream="read"))
    layers["hql.execute_miss_us"] = _p50_us(durations("hql.execute", tag="miss", stream="churn"))
    layers["hql.execute_write_us"] = _p50_us(durations("hql.execute", stream="churn_write"))
    layers["model.read_request_us"] = _p50_us(durations("request", stream="read"))
    layers["model.churn_request_us"] = _p50_us(durations("request", stream="churn"))
    layers["server.overhead_us"] = (
        layers["wire.read_closed_p50_us"] - layers["model.read_request_us"]
    )
    named = sum(
        layers[name]
        for name in (
            "protocol.decode_us",
            "hql.parse_us",
            "hql.execute_hit_us",
            "protocol.serialize_us",
            "protocol.encode_us",
            "server.overhead_us",
        )
    )
    layers["ledger.read_residual_us"] = layers["wire.read_closed_p50_us"] - named
    by_stream = ledger(recorder)
    overhead_s = max(0.0, layers["server.overhead_us"]) * 1e-6
    layers["ledger.read_evaluate_share"] = _share(by_stream["read"], EVALUATE, overhead_s)
    layers["ledger.churn_evaluate_share"] = _share(by_stream["churn"], EVALUATE, overhead_s)
    layers["ledger.scan_encode_share"] = _share(by_stream["scan"], ENCODE, overhead_s)
    layers["ledger.scan_decode_share"] = _share(by_stream["scan"], DECODE, overhead_s)
    layers["ledger.scan_evaluate_share"] = _share(by_stream["scan"], EVALUATE, overhead_s)
    return by_stream


def direct_layers(datasets: Datasets, layers: Dict[str, float], scratch: str) -> None:
    """One public function of one layer at a time."""
    toggles = datasets.cones.toggle_classes
    cones = build_cones(datasets.cones)
    left, right = cones.relation("left"), cones.relation("right")
    flips = itertools.count()

    def timed_ms(fn, repeats: int = 6) -> float:
        """Median milliseconds of ``fn``, each run right after one
        toggle write, as ``churn`` does.  An even ``repeats`` leaves
        ``left`` in its initial state."""
        times = []
        for _ in range(repeats):
            j = next(flips)
            item = (class_name(toggles[(j // 2) % len(toggles)]),)
            if j % 2 == 0:
                left.retract(item)
            else:
                left.assert_item(item, True)
            began = _clock()
            fn()
            times.append(_clock() - began)
        return statistics.median(times) * 1e3

    keys = [
        (key_name((c, i)),)
        for c in range(config.CONES_CLASSES)
        for i in range(config.CONES_INSTANCES)
    ]
    layers["bulk.build_ms"] = timed_ms(lambda: bulk.evaluator_for(left))
    bulk.evaluator_for(left)
    layers["bulk.truths_us_per_item"] = (
        _median_ms(lambda: bulk.truths(left, keys)) * 1e3 / len(keys)
    )
    layers["algebra.union_ms"] = timed_ms(lambda: algebra.union(left, right))
    layers["algebra.intersection_ms"] = timed_ms(lambda: algebra.intersection(left, right))
    layers["algebra.difference_ms"] = timed_ms(lambda: algebra.difference(left, right))
    cone = member("value", class_name(toggles[0]))
    layers["algebra.select_ms"] = timed_ms(lambda: select_where(left, cone))
    layers["explicate.extension_ms"] = timed_ms(lambda: sorted(left.extension()))
    layers["conflicts.find_ms"] = timed_ms(lambda: find_conflicts(left))
    stats_for(left)
    layers["planner.stats_refresh_us"] = timed_ms(lambda: stats_for(left)) * 1e3

    # -- one 1000-row page of the scanned cone -------------------------
    grid = build_grid(datasets.grid)
    selected = HQLExecutor(grid).run(SCAN_STATEMENT)[0].payload
    asserted = selected.asserted
    items = list(asserted.keys())[: config.PAGE_SIZE]
    pairs = [[list(item), asserted[item]] for item in items]
    block = codec.pack_rows(items, 2)
    krows = len(items) / 1000.0
    layers["codec.pack_us_per_krow"] = _median_ms(lambda: codec.pack_rows(items, 2)) * 1e3 / krows
    layers["codec.unpack_us_per_krow"] = (
        _median_ms(lambda: codec.unpack_row_tuples(block)) * 1e3 / krows
    )
    page = protocol.cursor_response(1, 1, codec.columnar_pairs(pairs, width=2), False, 0)
    layers["protocol.serialize_us_per_krow"] = (
        _median_ms(lambda: codec.columnar_pairs(pairs, width=2)) * 1e3 / krows
    )
    layers["protocol.page_bytes_per_row"] = len(protocol.encode_frame(page, BINARY)) / len(items)
    point = protocol.ok_response(
        1,
        [protocol.serialize_result(HQLExecutor(cones).run("TRUTH left (c0i0);")[0], False, True)],
    )
    layers["protocol.response_bytes"] = float(len(protocol.encode_frame(point, BINARY)))

    # -- journal -------------------------------------------------------
    os.makedirs(scratch, exist_ok=True)
    statements = [toggle_write(j, toggles)[0] for j in range(200)]
    for label, fsync in (("fsync", True), ("nofsync", False)):
        path = os.path.join(scratch, "oplog-{}.hql".format(label))
        log = OperationLog(path, fsync=fsync)
        times = []
        for statement in statements:
            began = _clock()
            log.append(statement)
            times.append(_clock() - began)
        layers["oplog.append_{}_us".format(label)] = _p50_us(times)
        layers["oplog.bytes_per_write"] = os.path.getsize(path) / len(statements)

    # -- checkpoint, snapshot codec, recovery --------------------------
    tenant_dir = os.path.join(scratch, "recovery")
    manager = RecoveryManager(
        tenant_dir, fsync=config.FSYNC, snapshot_interval=config.SNAPSHOT_INTERVAL
    )
    layers["recovery.checkpoint_ms"] = _median_ms(lambda: manager.checkpoint(cones))
    data = codec.encode_snapshot(grid)
    layers["codec.snapshot_encode_ms"] = _median_ms(lambda: codec.encode_snapshot(grid), 3)
    layers["codec.snapshot_decode_ms"] = _median_ms(lambda: codec.decode_snapshot(data), 3)
    layers["codec.snapshot_bytes_per_tuple"] = len(data) / len(grid.relation("r"))

    def recover_ms() -> float:
        fresh = RecoveryManager(
            tenant_dir, fsync=config.FSYNC, snapshot_interval=config.SNAPSHOT_INTERVAL
        )
        return _median_ms(fresh.recover, 3)

    bare = recover_ms()
    entries = config.SNAPSHOT_INTERVAL // 2
    for statement in statements[:entries]:
        manager.journal.append(statement)
    replayed = recover_ms()
    layers["recovery.recover_ms"] = replayed
    layers["recovery.replay_us_per_entry"] = max(0.0, replayed - bare) * 1e3 / entries


def measure(result, datasets: Datasets, plan: Plan, scratch: str) -> None:
    """Fill ``result.layers`` with the ledger and write the span file."""
    layers = result.layers
    traced = Recorder(enabled=True)
    replay(datasets, plan, traced, scratch)
    layers["trace.overhead_ratio"] = trace_overhead(datasets, plan, scratch)
    by_stream = span_layers(traced, layers)
    direct_layers(datasets, layers, os.path.join(scratch, "direct"))

    path = os.path.join(config.RESULTS_DIR, "trace-{}.json".format(result.seed))
    traced.write(
        path,
        {
            "workload": result.workload,
            "seed": result.seed,
            "plan_hash": result.plan_hash,
            "ledger_self_seconds": by_stream,
        },
    )
    result.notes.append("spans written to {}".format(os.path.relpath(path, config.ROOT)))
