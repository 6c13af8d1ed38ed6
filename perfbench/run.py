"""Benchmark for the cvsqi package.

Run from the repository root:

    python3 perfbench/run.py --workload {train,assess,gen} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout.  Each workload
sets itself up three times (the median is ``setup_s``), then repeats one
operation in a closed loop with one client until ``--seconds`` have passed,
checking every operation's outputs; ``op_wall_s`` is the median operation.
Both times are scaled to a reference machine speed by a gauge that runs
around every set-up and operation (see gauge.py); the unscaled medians are
printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json and the program runs
unpatched; with ``--trace 1`` they are the per-layer metrics, taken from
operations run with wrappers around each module's entry points.  Earlier
lines record the environment and each workload's named figures.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "assess", "gen")

# One BLAS thread keeps the process on a single thread, which keeps timings
# steady on a small shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvsqi" / "__init__.py").is_file():
        print(f"error: no cvsqi package under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the thread settings when it is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CVSQI_CONFIG", None)   # the CLI must see only its flags
    sys.path.insert(0, str(SRC))

    import harness
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
