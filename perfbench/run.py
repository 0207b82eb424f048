"""posinv benchmark: one closed-loop client driving the public library API.

    python3 perfbench/run.py --workload rag_prefill --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; posinv is imported from
``src/``.  This file pins BLAS to one thread, parses the arguments and
times the import of numpy and posinv; ``bench.py`` does the rest.  See
``README.md`` for the workloads and metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics listed in BENCHMARK.json.  The exit code is 0 only when no
check failed, and 2 when the posinv sources are missing.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "posinv" / "__init__.py").is_file():
        print(f"error: posinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import posinv  # noqa: F401

    import_s = time.perf_counter() - t0
    import bench

    return bench.run(args, ROOT, import_s)


if __name__ == "__main__":
    sys.exit(main())
