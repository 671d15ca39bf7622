"""Runtime configuration for the parallel execution layer.

One process-global :class:`ParallelConfig` governs every entry point
(the algebra hooks, ``extension``, ``explicate``, ``find_conflicts``).
It is seeded from the environment at import time —

* ``REPRO_PARALLEL`` — worker count (``0`` disables the layer);
* ``REPRO_PARALLEL_MIN_TUPLES`` — ``0`` forces dispatch; any positive
  value leaves the decision to the planner's priced gate;
* ``REPRO_PARALLEL_FANOUT`` — shards per worker (decomposition degree);
* ``REPRO_PARALLEL_START`` — multiprocessing start method override
  (``fork`` / ``forkserver`` / ``spawn``);

— and updated at runtime by :func:`configure` (HQL ``SET PARALLEL n``
and ``repro serve --workers n`` both land here).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for the cone-partitioned execution layer.

    Attributes
    ----------
    workers:
        Shard / process budget.  ``0`` disables parallel execution
        entirely; ``1`` runs the full shard pipeline inline (no
        subprocess, no pickling) — useful for measuring decomposition
        overhead and for deterministic tests.
    min_tuples:
        ``0`` forces dispatch regardless of size (``tests/parallel``
        and the forced-parallel CI leg rely on it).  Any positive value
        means the same thing: :func:`repro.planner.parallel_gate` — the
        priced serial-vs-dispatch comparison — decides; the number
        itself is not a threshold.
    fanout:
        Shards per worker.  Shards are units of *decomposition* —
        a shard's bitset sweeps run over its own cone's width, so k
        equal shards cost roughly 1/k of the full-width sweep in total
        — while workers are units of *execution*; oversubscribing
        shards both shrinks total sweep work and smooths load skew
        across the pool.
    residual_limit:
        Maximum fraction of items allowed in the cross-cone residual
        shard before the partition is judged unprofitable.
    start_method:
        Optional :mod:`multiprocessing` start method; ``None`` picks
        ``fork`` where available (cheapest on POSIX) else the platform
        default.
    """

    workers: int = 0
    min_tuples: int = 2048
    residual_limit: float = 0.5
    fanout: int = 4
    start_method: Optional[str] = None


def _int_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _from_env() -> ParallelConfig:
    return ParallelConfig(
        workers=max(0, _int_env("REPRO_PARALLEL", 0)),
        min_tuples=max(0, _int_env("REPRO_PARALLEL_MIN_TUPLES", 2048)),
        fanout=max(1, _int_env("REPRO_PARALLEL_FANOUT", 4)),
        start_method=os.environ.get("REPRO_PARALLEL_START") or None,
    )


_CONFIG: ParallelConfig = _from_env()


def config() -> ParallelConfig:
    """The live configuration."""
    return _CONFIG


def configure(**overrides) -> ParallelConfig:
    """Update the global configuration; unknown keys raise ``TypeError``.

    Returns the new configuration.  ``configure(workers=4)`` is what
    ``SET PARALLEL 4`` and ``--workers 4`` call.
    """
    global _CONFIG
    _CONFIG = replace(_CONFIG, **overrides)
    return _CONFIG


def reset() -> ParallelConfig:
    """Re-read the configuration from the environment (tests)."""
    global _CONFIG
    _CONFIG = _from_env()
    return _CONFIG
