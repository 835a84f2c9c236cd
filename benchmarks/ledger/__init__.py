"""The HGS perf ledger: one seeded workload matrix, both clocks, every layer.

``python -m benchmarks.ledger run`` measures every workload end to end,
``run --trace`` makes the separate traced run that yields the per-layer
numbers, ``compare`` judges two result sets against the bounds, and
``benchmarks/ledger/bench.py`` is the one-workload entry point the
``BENCHMARK.json`` contract drives.  See ``README.md`` next to this file.

The package imports ``repro``'s public API only; everything it writes
lands under the git-ignored ``benchmarks/out/ledger/``.
"""

import os
import sys
from pathlib import Path
from typing import Dict

#: Version of the result-file schema (``run`` output, ``compare`` input).
SCHEMA_VERSION = 1

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
#: Index files, job files and traces; ``benchmarks/out/`` is git-ignored.
OUT_DIR = REPO_ROOT / "benchmarks" / "out" / "ledger"

# ``bench.py`` is started without PYTHONPATH; the program lives in src/.
if SRC_DIR.is_dir() and str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


def child_env() -> Dict[str, str]:
    """Environment of every process the ledger starts: the program on
    the path, hash seed pinned so set/dict order repeats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(REPO_ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env
