"""Per-relation statistics, kept only because the benchmark measures them.

No module under ``repro`` imports this package: the algebra's one
evaluation-order rule (short-circuit a symmetric combine of three or
more inputs, in input order) is a constant in :mod:`repro.core.algebra`,
and the query cache is a plain LRU with no policy to feed.
:class:`RelationStats` and
:func:`stats_for` stay because ``benchmarks/e2e/layers.py`` times
:func:`stats_for` for its ``planner.stats_refresh_us`` metric; they go
with the next change allowed to edit ``BENCHMARK.json``.
"""

from repro.planner.stats import RelationStats, stats_for

__all__ = ["RelationStats", "stats_for"]
