"""Script entry point: ``python3 benchmarks/ledger/run.py --workload ...``.

``BENCHMARK.json`` names this file as the command, so it has to work
from a bare checkout with no ``PYTHONPATH``: it puts the repo root and
``src/`` on ``sys.path`` itself, then hands over to the package.
``python -m benchmarks.ledger`` (with ``PYTHONPATH=src``) is the same
program.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    root = here.parents[1]
    # The script's own directory must not shadow top-level modules.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.ledger.cli import main

    raise SystemExit(main())
