"""One fresh interpreter's set-up: import glmavg, then build a workload's inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED SECONDS WORKDIR

Prints ``ready <wall-clock time when import glmavg finished>`` once the
inputs exist; the parent times the process from spawn to that line.
"""

import sys
import time

import glmavg  # noqa: F401  (timed: the import is part of set-up)

IMPORTED = time.time()

from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, seconds, workdir = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4])
    WORKLOADS[name].build(seed, seconds, workdir)
    print(f"ready {IMPORTED!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
