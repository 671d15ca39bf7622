"""The cost model: one set of priced decisions.

Every decision below compares alternatives priced in the calibration
constants of :class:`~repro.planner.config.PlannerConfig` — no decision
carries its own magic threshold.  The decisions:

* **combine order** (:func:`plan_combine`) — for a symmetric n-ary
  combine, sort the input evaluators so the pointwise engine's
  short-circuit stops as early as possible.  OR-like functions
  (``or``/``any``) are settled by the first *true*, so the inputs go
  widest-coverage first; AND-like (``and``/``all``) are settled by the
  first *false*, so narrowest-coverage first.  The candidate set, the
  emitted truths and the emission order are untouched — only the number
  of truth probes per candidate changes — which is what makes the
  reorder bit-identity-safe under every preemption strategy.
  ``andnot`` is not symmetric and is never reordered.
* **cache admission** (:class:`CacheAdmission`) — under eviction
  pressure, reject payloads cheaper to recompute than to look up, and
  pin hot expensive entries against eviction.

Estimates are audited: :func:`observe_estimate` keeps an EWMA of the
actual/estimated candidate ratio per operator (fed by EXPLAIN and the
traced pointwise spans) and :func:`estimate_candidates` applies it, so
systematic bias in the sweep-free overlap heuristic decays instead of
compounding.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.obs import default_registry

from repro.planner.config import config
from repro.planner.stats import overlap_estimate, stats_for

#: Symmetric combining-function tokens and the short-circuit kind the
#: pointwise engine applies ("or": stop at first true; "and": stop at
#: first false).  ``andnot`` is order-sensitive and absent on purpose.
SYMMETRIC_TOKENS: Dict[str, str] = {
    "or": "or",
    "any": "or",
    "and": "and",
    "all": "and",
}

_ewma_lock = threading.Lock()
_ewma: Dict[str, float] = {}
_EWMA_ALPHA = 0.2


def reset_feedback() -> None:
    """Drop the observed-actuals corrections (test fixtures)."""
    with _ewma_lock:
        _ewma.clear()


class CombinePlan:
    """The planner's verdict for one n-ary combine."""

    __slots__ = ("order", "shortcircuit", "reordered")

    def __init__(self, order: List[int], shortcircuit: str, reordered: bool) -> None:
        self.order = order
        self.shortcircuit = shortcircuit
        self.reordered = reordered


def plan_combine(relations: Sequence, fn_token: Optional[str]) -> Optional[CombinePlan]:
    """Order ``relations`` for short-circuit evaluation, or ``None``
    when the combine must run exactly as written (too few inputs, or
    an order-sensitive or anonymous function)."""
    kind = SYMMETRIC_TOKENS.get(fn_token)
    if kind is None or len(relations) < config().min_inputs:
        return None
    weights = [stats_for(relation).coverage() for relation in relations]
    # Widest first settles OR fastest; narrowest first settles AND.
    # The sort is stable, so equal-coverage inputs keep syntax order
    # and an all-equal workload degrades to the identity permutation.
    order = sorted(
        range(len(relations)),
        key=(lambda i: -weights[i]) if kind == "or" else (lambda i: weights[i]),
    )
    reordered = order != list(range(len(relations)))
    registry = default_registry()
    registry.counter("planner.combine.plans").inc()
    if reordered:
        registry.counter("planner.reorders").inc()
    return CombinePlan(order, kind, reordered)


# ----------------------------------------------------------------------
# candidate estimation + feedback
# ----------------------------------------------------------------------


def _correction(op: str) -> float:
    with _ewma_lock:
        return _ewma.get(op, 1.0)


def observe_estimate(op: str, estimated: int, actual: int) -> None:
    """Feed an estimated-vs-actual pair back into the model.

    Updates the per-operator EWMA correction and counts gross misses
    (>10x either way) under ``planner.estimate.off10x`` — the number
    EXPLAIN ANALYZE flags and future stats refinement will chase."""
    registry = default_registry()
    registry.counter("planner.estimate.checks").inc()
    if estimated <= 0:
        return
    ratio = actual / estimated
    if ratio > 10.0 or (actual and ratio < 0.1):
        registry.counter("planner.estimate.off10x").inc()
    with _ewma_lock:
        previous = _ewma.get(op, 1.0)
        _ewma[op] = previous + _EWMA_ALPHA * (ratio - previous)


def estimate_candidates(relations: Sequence, op: str = "pointwise") -> int:
    """Estimated meet-closure candidate count for combining
    ``relations``: every stored tuple seeds a candidate, plus one
    candidate per estimated cross-input meet pair, scaled by the
    operator's observed-actuals correction."""
    stats = [stats_for(relation) for relation in relations]
    base = sum(s.tuples for s in stats)
    meets = 0
    for i in range(len(stats)):
        for j in range(i + 1, len(stats)):
            meets += overlap_estimate(stats[i], stats[j])
    return max(1, int(round((base + meets) * _correction(op))))


# ----------------------------------------------------------------------
# cache admission
# ----------------------------------------------------------------------


class CacheAdmission:
    """The query cache's admission + pinning policy.

    ``registry`` is the owning database's metrics registry: the
    admission floor adapts to the observed ``hql.statement.ms``
    distribution once enough statements have been timed (a deployment
    whose cheapest statements take 5 ms should not hoard 0.1 ms
    entries just because the default floor is lower).  A payload
    stored without a measured cost fails open: always admitted, never
    pinned.
    """

    def __init__(self, registry=None) -> None:
        self.registry = registry

    def _floor_ms(self) -> float:
        floor = config().cache_min_cost_ms
        if self.registry is not None:
            histogram = self.registry.histogram("hql.statement.ms")
            if histogram.count >= 200:
                floor = min(max(floor, 0.02 * histogram.mean), 10.0 * floor)
        return floor

    def admit(self, cost_ms: Optional[float]) -> bool:
        """Called only under eviction pressure: is this payload worth
        evicting something for?"""
        if cost_ms is None:
            return True
        return cost_ms >= self._floor_ms()

    def pin(self, cost_ms: Optional[float], hits: int) -> bool:
        """Hot (hit at least once) *and* expensive entries survive
        eviction scans while any unpinned victim exists."""
        if cost_ms is None:
            return False
        return hits >= 1 and cost_ms >= config().cache_pin_cost_ms


def cache_admission(registry=None) -> CacheAdmission:
    """The admission policy for a database's query cache."""
    return CacheAdmission(registry)


# ----------------------------------------------------------------------
# state reporting
# ----------------------------------------------------------------------


def describe() -> Dict[str, object]:
    """The planner state block for ``STATS;`` payloads and the server
    ``stats`` admin verb."""
    cfg = config()
    registry = default_registry()
    with _ewma_lock:
        corrections = dict(_ewma)
    return {
        "min_inputs": cfg.min_inputs,
        "cache_min_cost_ms": cfg.cache_min_cost_ms,
        "cache_pin_cost_ms": cfg.cache_pin_cost_ms,
        "reorders": registry.counter("planner.reorders").value,
        "combine_plans": registry.counter("planner.combine.plans").value,
        "estimate_checks": registry.counter("planner.estimate.checks").value,
        "estimate_off10x": registry.counter("planner.estimate.off10x").value,
        "corrections": corrections,
    }
