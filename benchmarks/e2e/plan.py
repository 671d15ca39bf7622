"""The seeded statement plan: every byte the generator will send.

The whole plan is built before the server starts.  ``plan_hash`` is the
SHA-256 over every statement, its scheduled offset and its connection,
so two runs can prove they sent identical inputs and a claim can be
re-checked on an unseen seed.

Open-loop arrivals are a Poisson process conditioned on its count: the
number of arrivals in a window is fixed at ``rate x duration`` and their
times are sorted uniform draws.  That keeps the journal length at the
crash — and with it ``restart_s`` — the same for every seed.

Every traffic kind is driven in ``rounds`` slices interleaved over the
run, so that some seconds of noise cannot own a number; an open-loop
plan is therefore one schedule per round and connection, with the
toggle state carried from round to round.

Writes toggle: the j-th write of a stream retracts (j even) or
re-asserts (j odd) the class-level tuple of ``left`` for one of the
eight toggle classes, so a relation is only ever one class away from
its initial state and no write can fail.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import config
from benchmarks.e2e.datasets import ConesTruth, Key, class_name, key_name

#: (scheduled offset s, statement, kind, expectation).  ``kind`` is
#: ``read`` or ``write``; a read expects its boolean answer.
Request = Tuple[float, str, str, Optional[bool]]

READ_OPEN_SHARE = 0.65  # of a read slice; the rest is closed-loop saturation
QUERY_ROTATION = ("union", "intersection", "difference", "select", "extension", "conflicts")
CHURN_CYCLE = 1024  # select arguments repeat after this many iterations
SCAN_STATEMENT = "SELECT FROM r WHERE a = c0;"


class ZipfKeys:
    """Zipf(s) over all 4096 cone keys; rank -> key by a seeded shuffle."""

    def __init__(self, rng: random.Random) -> None:
        keys: List[Key] = [
            (c, i)
            for c in range(config.CONES_CLASSES)
            for i in range(config.CONES_INSTANCES)
        ]
        rng.shuffle(keys)
        self.keys = keys
        weights = [1.0 / (rank ** config.ZIPF_S) for rank in range(1, len(keys) + 1)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)
        self.cdf[-1] = 1.0

    def draw(self, rng: random.Random) -> Key:
        return self.keys[bisect.bisect_left(self.cdf, rng.random())]


def toggle_write(j: int, toggles: Sequence[int]) -> Tuple[str, Optional[int]]:
    """The j-th write of a toggle stream and the class left retracted
    after it (``None``: everything asserted again)."""
    c = toggles[(j // 2) % len(toggles)]
    if j % 2 == 0:
        return "RETRACT left ({});".format(class_name(c)), c
    return "ASSERT left ({});".format(class_name(c)), None


def retracted_after(writes: int, toggles: Sequence[int]) -> Optional[int]:
    """Which class a stream leaves retracted after ``writes`` writes."""
    return toggle_write(writes - 1, toggles)[1] if writes else None


def read_statement(key: Key) -> str:
    return "TRUTH left ({});".format(key_name(key))


def arrivals(count: int, duration: float, rng: random.Random) -> List[float]:
    return sorted(rng.random() * duration for _ in range(count))


@dataclass
class ReadPlan:
    open_loop: List[List[List[Request]]]  # [round][connection]
    saturation: List[List[Request]]  # per connection, cycled
    traced: List[Request]  # first statements of the stream, for the ledger


@dataclass
class MixedPlan:
    open_loop: List[List[List[Request]]]  # [round][connection]; connection k = tenant k
    crash_writes: List[str]  # every connection's closed-loop writes up to the kill -9
    writes_open: List[int]  # writes per connection over all rounds
    user_bytes: int  # bytes of write statements sent in the open loop
    traced: List[Tuple[int, Request]]  # (connection, request)


@dataclass
class ChurnPlan:
    toggles: Tuple[int, ...]
    select_args: List[int]

    def iteration(self, i: int) -> Tuple[str, str, str, int, Optional[int]]:
        """``(write, query, query kind, select class, retracted after)``."""
        write, retracted = toggle_write(i, self.toggles)
        kind = QUERY_ROTATION[i % len(QUERY_ROTATION)]
        arg = self.select_args[i % CHURN_CYCLE]
        return write, query_statement(kind, arg), kind, arg, retracted


def query_statement(kind: str, arg: int) -> str:
    if kind == "union":
        return "UNION left WITH right;"
    if kind == "intersection":
        return "INTERSECT left WITH right;"
    if kind == "difference":
        return "DIFFERENCE left WITH right;"
    if kind == "select":
        return "SELECT FROM left WHERE value = {};".format(class_name(arg))
    if kind == "extension":
        return "EXTENSION left;"
    return "CONFLICTS left;"


@dataclass
class Plan:
    seed: int
    rounds: int
    read: ReadPlan
    mixed: MixedPlan
    churn: ChurnPlan
    slices: Dict[str, float]  # seconds one round gives each traffic kind
    hashes: Dict[str, str] = field(default_factory=dict)

    @property
    def read_open_s(self) -> float:
        """Open-loop part of one read slice; the rest is saturation."""
        return self.slices["read"] * READ_OPEN_SHARE

    @property
    def plan_hash(self) -> str:
        digest = hashlib.sha256()
        for kind in sorted(self.hashes):
            digest.update(self.hashes[kind].encode("ascii"))
        return digest.hexdigest()


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _head(rounds_of_schedules, limit: int) -> List[Tuple[int, Request]]:
    """The first ``limit`` requests in send order, with their connection."""
    merged: List[Tuple[int, Request]] = []
    for schedules in rounds_of_schedules:
        ordered = sorted(
            (request, conn) for conn, requests in enumerate(schedules) for request in requests
        )
        merged.extend((conn, request) for request, conn in ordered)
    return merged[:limit]


def build_read_plan(seed: int, truth: ConesTruth, duration: float, rounds: int) -> ReadPlan:
    rng = random.Random("read:{}".format(seed))
    zipf = ZipfKeys(rng)

    def reads(times) -> List[Request]:
        out = []
        for at in times:
            key = zipf.draw(rng)
            out.append((at, read_statement(key), "read", truth.truth("left", key)))
        return out

    per_conn = int(round(config.READ_RATE * duration)) // config.CONNECTIONS
    open_loop = [
        [reads(arrivals(per_conn, duration, rng)) for _ in range(config.CONNECTIONS)]
        for _ in range(rounds)
    ]
    keys = config.CONES_CLASSES * config.CONES_INSTANCES
    saturation = [reads([0.0] * keys) for _ in range(config.CONNECTIONS)]
    traced = [request for _, request in _head(open_loop, config.TRACED_STATEMENTS)]
    return ReadPlan(open_loop, saturation, traced)


def build_mixed_plan(seed: int, truth: ConesTruth, duration: float, rounds: int) -> MixedPlan:
    rng = random.Random("mixed:{}".format(seed))
    zipf = ZipfKeys(rng)
    per_conn = int(round(config.MIXED_RATE * duration)) // config.CONNECTIONS
    writes_per_conn = int(round(per_conn * config.WRITE_SHARE))
    retracted: List[Optional[int]] = [None] * config.CONNECTIONS
    written = [0] * config.CONNECTIONS
    user_bytes = 0
    open_loop = []
    for _ in range(rounds):
        schedules = []
        for conn in range(config.CONNECTIONS):
            times = arrivals(per_conn, duration, rng)
            kinds = ["write"] * writes_per_conn + ["read"] * (per_conn - writes_per_conn)
            rng.shuffle(kinds)
            requests = []
            for at, kind in zip(times, kinds):
                if kind == "write":
                    text, retracted[conn] = toggle_write(written[conn], truth.toggle_classes)
                    written[conn] += 1
                    user_bytes += len(text)
                    requests.append((at, text, "write", None))
                else:
                    key = zipf.draw(rng)
                    expect = truth.truth("left", key, retracted[conn])
                    requests.append((at, read_statement(key), "read", expect))
            schedules.append(requests)
        open_loop.append(schedules)
    # The crash comes first and is repaired to the initial state, so
    # its writes and the open loop's both start a fresh toggle stream.
    crash_writes = [
        toggle_write(j, truth.toggle_classes)[0] for j in range(config.CRASH_WRITES)
    ]
    traced = _head(open_loop, config.TRACED_STATEMENTS)
    return MixedPlan(open_loop, crash_writes, written, user_bytes, traced)


def build_churn_plan(seed: int, truth: ConesTruth) -> ChurnPlan:
    rng = random.Random("churn:{}".format(seed))
    args = [rng.randrange(config.CONES_CLASSES) for _ in range(CHURN_CYCLE)]
    return ChurnPlan(truth.toggle_classes, args)


def build_plan(seed: int, truth: ConesTruth, durations: Dict[str, float], rounds: int) -> Plan:
    """``durations`` are the seconds each traffic kind gets in total;
    every kind is cut into ``rounds`` equal slices."""
    slices = {kind: seconds / rounds for kind, seconds in durations.items()}
    plan = Plan(
        seed=seed,
        rounds=rounds,
        read=build_read_plan(seed, truth, slices["read"] * READ_OPEN_SHARE, rounds),
        mixed=build_mixed_plan(seed, truth, slices["mixed"], rounds),
        churn=build_churn_plan(seed, truth),
        slices=slices,
    )
    plan.hashes = {
        "read": _digest([plan.read.open_loop, plan.read.saturation]),
        "mixed": _digest([plan.mixed.open_loop, plan.mixed.crash_writes]),
        "churn": _digest([plan.churn.iteration(i) for i in range(CHURN_CYCLE)]),
        "scan": _digest([SCAN_STATEMENT, config.PAGE_SIZE]),
    }
    return plan
