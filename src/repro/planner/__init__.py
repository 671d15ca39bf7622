"""Cost-based planner: statistics-driven operator ordering, adaptive
gates, and cache admission.

The algebra is declarative — the paper's pointwise combinator admits
many evaluation orders with identical output — so every ordering and
gating decision is a pure performance choice.  This package centralises
those choices in one priced model fed by per-relation statistics:

* :mod:`repro.planner.stats` — per-relation tuple counts, per-attribute
  distinct-value multisets and cone-coverage estimates, patched
  incrementally from the relations' delta logs;
* :mod:`repro.planner.cost` — the decisions: symmetric n-ary combine
  ordering (with short-circuit evaluation in the pointwise engine)
  and query-cache admission — plus the
  estimated-vs-actual feedback loop EXPLAIN audits;
* :mod:`repro.planner.config` — the calibration constants.

Everything the planner changes is bit-identity-safe: reordering only
touches how many truth probes a candidate needs, never the candidate
set, the truths, or the emission order.
"""

from repro.planner.config import PlannerConfig, config, configure, reset
from repro.planner.cost import (
    SYMMETRIC_TOKENS,
    CacheAdmission,
    CombinePlan,
    cache_admission,
    describe,
    estimate_candidates,
    observe_estimate,
    plan_combine,
    reset_feedback,
)
from repro.planner.stats import RelationStats, overlap_estimate, stats_for

__all__ = [
    "PlannerConfig",
    "config",
    "configure",
    "reset",
    "SYMMETRIC_TOKENS",
    "CacheAdmission",
    "CombinePlan",
    "cache_admission",
    "describe",
    "estimate_candidates",
    "observe_estimate",
    "plan_combine",
    "reset_feedback",
    "RelationStats",
    "overlap_estimate",
    "stats_for",
]
