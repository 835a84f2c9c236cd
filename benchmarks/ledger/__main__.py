"""``python -m benchmarks.ledger <run|compare|driver|pass> ...``."""

import sys
import time

_START = time.perf_counter()  # before the program is imported: import cost

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], started=_START))
