"""Percentiles that refuse to guess, and the spread rule of the contract."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
CANDIDATE_TAILS = (99.0, 95.0, 90.0, 75.0, 50.0)


class InsufficientSamples(ValueError):
    """Fewer than :data:`MIN_BEYOND` samples lie beyond the percentile."""


def supported(count: int, q: float) -> bool:
    beyond = count * min(q, 100.0 - q) / 100.0
    return beyond >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation between ranks).  Raises
    :class:`InsufficientSamples` unless at least ten samples lie beyond
    it on its thinner side — a p99 of 300 samples is three numbers."""
    count = len(values)
    if not supported(count, q):
        raise InsufficientSamples(
            "p{:g} needs {} samples beyond it; {} samples give {:.1f}".format(
                q, MIN_BEYOND, count, count * min(q, 100.0 - q) / 100.0
            )
        )
    ordered = sorted(values)
    pos = (q / 100.0) * (count - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, count - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def highest_supported_tail(count: int) -> float:
    """The highest of p99/p95/p90/p75/p50 that ``count`` samples support."""
    for q in CANDIDATE_TAILS:
        if supported(count, q):
            return q
    raise InsufficientSamples("{} samples support no tail percentile".format(count))


def segmented_tail(
    samples: Sequence[Tuple[float, float]], q: float, start: float, end: float, segments: int
) -> float:
    """Median of the per-segment q-th percentiles of ``(time, value)``
    samples over ``segments`` equal slices of ``[start, end)``, so that
    one scheduler hiccup cannot own the number.  Falls back to fewer
    segments until each supports the percentile."""
    for parts in range(segments, 0, -1):
        width = (end - start) / parts
        buckets: List[List[float]] = [[] for _ in range(parts)]
        for when, value in samples:
            index = min(parts - 1, max(0, int((when - start) / width)))
            buckets[index].append(value)
        if all(supported(len(bucket), q) for bucket in buckets):
            return statistics.median(percentile(bucket, q) for bucket in buckets)
    raise InsufficientSamples(
        "{} samples do not support p{:g}".format(len(samples), q)
    )


def tail(samples: Sequence[Tuple[float, float]], start: float, end: float, segments: int):
    """``(q, value)``: the highest supported tail percentile of the
    window, taken as the median of segment tails."""
    q = highest_supported_tail(len(samples))
    return q, segmented_tail(samples, q, start, end, segments)


def quiet_slices(values: Sequence[float], better: str) -> float:
    """Mean of the two best of a metric's slice values (``better`` is
    ``lower`` or ``higher``).  A neighbour on the shared box can only
    slow a slice down, never speed it up, so the undisturbed slices are
    the ones that measure the program; with five slices this is their
    first quartile on the good side."""
    ordered = sorted(values, reverse=(better == "higher"))
    return statistics.mean(ordered[:2])


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median — the contract's spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "n": len(values),
    }
