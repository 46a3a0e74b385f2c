"""Median latency of each benchmark operation over repeated in-process passes.

Builds a workload's inputs with ``bench/workloads.py`` and times its
operations through ``bracketflow.cli.main`` with the benchmark's own
``harness.Workload``: the same warm-up, then ``--passes`` timed passes
in one process. It prints each operation's median latency, fastest first,
then the sum of those medians and the median of all latencies, which is the
figure a benchmark run reports as ``op_p50_s``:

    <workload> <seed> <operation> <median ms>
    <workload> <seed> sum <sum of the medians, ms>
    <workload> <seed> op_p50 <median of all latencies, ms>

So the operations around the middle of the list are the ones that set
``op_p50_s``. Run from the repository root; ``--src`` picks the bracketflow
sources to run (see ``tools/artifact_digests.py``):

    python3 tools/op_times.py --workload convex --seed 5 --passes 20
    python3 tools/op_times.py --workload convex --seed 5 --passes 20 --src ../parent/src

Each run is its own process, so run one tree per command.
"""
from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

from artifact_digests import bench_modules, parser


def main(argv=None) -> int:
    p = parser(__doc__.split("\n")[0])
    p.add_argument("--passes", type=int, default=20, help="timed passes per seed")
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be >= 1")
    harness, _ = bench_modules(args)
    with tempfile.TemporaryDirectory(prefix="bench-ops-") as tmp:
        for workload in args.workload:
            for seed in args.seed:
                w = harness.Workload(workload, seed, Path(tmp) / f"{workload}-{seed}")
                w.set_up()
                for _ in range(args.passes):
                    w.run_pass()
                k = len(w.ops)  # latencies run op after op, pass after pass
                medians = [statistics.median(w.latencies[i::k]) for i in range(k)]
                for median, op in sorted(zip(medians, (op.name for op in w.ops))):
                    print(workload, seed, op, f"{median * 1e3:.3f}")
                print(workload, seed, "sum", f"{sum(medians) * 1e3:.3f}")
                print(workload, seed, "op_p50",
                      f"{statistics.median(w.latencies) * 1e3:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
