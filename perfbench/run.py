"""Seeded end-to-end benchmark for PEPO.

Run from the repository root:

    python3 perfbench/run.py --workload cold-project --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pepobench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
