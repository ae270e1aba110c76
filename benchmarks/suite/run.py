"""Entry point of one benchmark run, from the repository root::

    python3 benchmarks/suite/run.py --workload fleet_skyscraper_64 \
        --seed 1 --seconds 15 --trace 0

See :mod:`benchmarks.suite.bench` for what a run does and prints.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, this directory would shadow standard-library modules;
# import the suite as a package from the repository root instead.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from benchmarks.suite.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
