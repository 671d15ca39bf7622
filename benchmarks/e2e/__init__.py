"""The repo's one end-to-end benchmark (see README.md in this directory).

Run from the repository root::

    python -m benchmarks.e2e --seed 17            # all four workloads
    python -m benchmarks.e2e --workload point_read --seed 17 --seconds 24 --trace 0

Importing this package starts nothing; ``__main__`` is the entry point.
"""
