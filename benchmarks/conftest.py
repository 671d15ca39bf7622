"""Shared fixtures for the benchmark suite.

Each ``test_figNN_*`` module reproduces one figure of the paper: it
asserts the figure's qualitative content (who wins, which tuples
appear, which items conflict) and times the operation that produces it.
``test_perf_*`` modules realise the paper's quantitative claims (P1–P7)
on synthetic workloads, each against the baseline the paper names.
``python -m benchmarks.report`` prints every reproduced figure as text;
EXPERIMENTS.md records the outcome.  System performance is measured by
``benchmarks/e2e`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import pytest

from repro.workloads import (
    elephant_dataset,
    flying_dataset,
    loves_dataset,
    school_dataset,
)


@pytest.fixture
def flying():
    return flying_dataset()


@pytest.fixture
def school():
    return school_dataset()


@pytest.fixture
def elephants():
    return elephant_dataset()


@pytest.fixture
def loves():
    return loves_dataset()


def extension_set(relation):
    return set(relation.extension())
