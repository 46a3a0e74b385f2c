"""bracketflow benchmark: CLI workloads timed end to end, and a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Each run sets up its workload (imports, seeded inputs, warm-up), then runs
whole passes over the workload's fixed operation list through
``bracketflow.cli.main`` until ``--seconds`` have elapsed, and checks every
artifact against ``reference``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are end to end; with ``--trace 1`` the run goes
through every workload, each operation untraced and then traced, and reports
the per-layer metrics of ``tracing``.  Results and traces go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

_T0 = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("algebra", "steer", "convex"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(_SRC, "bracketflow", "cli.py")):
        print(f"error: no bracketflow sources at {_SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # read when numpy loads its BLAS
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [_SRC, _HERE]
    import harness  # imports numpy, scipy and bracketflow
    import_s = time.perf_counter() - _T0
    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
