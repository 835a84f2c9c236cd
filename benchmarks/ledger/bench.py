#!/usr/bin/env python3
"""Entry point of the ``BENCHMARK.json`` contract: one workload, one seed.

``python3 benchmarks/ledger/bench.py --workload W --seed N --seconds S
--trace 0|1`` prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["driver", *sys.argv[1:]]))
