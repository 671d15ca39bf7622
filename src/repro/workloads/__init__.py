"""Datasets and workload generators.

``animals`` / ``school`` / ``loves`` rebuild the paper's own running
examples (Figures 1–11); ``generators`` produces synthetic hierarchies
and relations for the performance experiments.  (The load generator
that produces numbers is ``benchmarks/e2e/loadgen.py``.)
"""

from repro.workloads import generators
from repro.workloads.animals import flying_dataset, elephant_dataset
from repro.workloads.loves import loves_dataset
from repro.workloads.school import school_dataset
from repro.workloads.taxonomy import biology_dataset, biology_hierarchy

__all__ = [
    "flying_dataset",
    "elephant_dataset",
    "school_dataset",
    "loves_dataset",
    "biology_dataset",
    "biology_hierarchy",
    "generators",
]
