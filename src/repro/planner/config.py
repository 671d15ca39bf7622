"""Planner configuration: one process-wide, thread-safe config object.

``configure()`` overrides calibration fields at runtime and ``reset()``
restores the defaults — test fixtures rely on it.  There is no off
switch: the planner is the only implementation of its decisions.

The fields are the *calibration constants* every cost-based decision
shares (see docs/PLANNER.md for the gate matrix).  They are
micro-costs of the primitive operations the model prices, expressed in
microseconds / milliseconds, not tuning thresholds: the thresholds fall
out of comparing priced alternatives.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PlannerConfig:
    """Immutable snapshot of the planner's calibration.

    min_inputs:
        Smallest n-ary combine worth planning.  Binary operators gain
        nothing from reordering (the short-circuit saves at most one
        probe) and run hot, so they skip the planner entirely.
    cache_min_cost_ms:
        A query cheaper than this produced its answer in about the time
        a cache lookup + payload copy takes — storing it can only evict
        something more valuable.  Applied only under eviction pressure.
    cache_pin_cost_ms:
        An entry at least this expensive that has also *hit* at least
        once is pinned: eviction passes over it while any unpinned
        victim exists.
    """

    min_inputs: int = 3
    cache_min_cost_ms: float = 0.05
    cache_pin_cost_ms: float = 1.0


_lock = threading.Lock()
_config = PlannerConfig()


def config() -> PlannerConfig:
    """The current config."""
    with _lock:
        return _config


def configure(**overrides) -> PlannerConfig:
    """Override fields at runtime; returns the new snapshot."""
    global _config
    with _lock:
        _config = replace(_config, **overrides)
        return _config


def reset() -> PlannerConfig:
    """Back to the defaults (test fixtures call this)."""
    global _config
    with _lock:
        _config = PlannerConfig()
        return _config
