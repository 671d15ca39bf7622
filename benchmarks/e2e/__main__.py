"""Entry point: ``python -m benchmarks.e2e`` or ``python benchmarks/e2e/__main__.py``.

Puts the checkout root and ``src/`` on ``sys.path`` (the benchmark
command may not name ``src`` itself), then hands over to
:func:`benchmarks.e2e.cli.main`.  In a directory that holds only the
benchmark, ``import repro`` fails here and the process exits non-zero
without printing a result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
