"""sha256 of every benchmark artifact, for byte-identity checks between two trees.

Builds a workload's inputs with ``bench/workloads.py``, runs each operation
once through ``bracketflow.cli.main`` and prints one line per operation:

    <seed> <operation> <exit code> <sha256 of the artifact, then the trajectory>

Run from the repository root; ``--src`` picks the bracketflow sources to run
(default: this tree's ``src``), so the same script checks another checkout:

    python3 tools/artifact_digests.py --workload steer --seed 5 6 7 > change.txt
    python3 tools/artifact_digests.py --workload steer --seed 5 6 7 \\
        --src ../parent/src > parent.txt
    diff parent.txt change.txt

Each operation runs and is hashed by the same ``bench/harness.py`` functions
as in a benchmark pass (a missing file hashes as ``<missing>``); an operation
that raises prints ``raised`` as its exit code.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def parser(description: str) -> argparse.ArgumentParser:
    """The options shared with ``tools/op_rss.py`` and ``tools/op_times.py``."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--workload", nargs="+", default=["algebra", "steer", "convex"],
                   choices=("algebra", "steer", "convex"))
    p.add_argument("--seed", nargs="+", type=int, required=True)
    p.add_argument("--src", default=str(ROOT / "src"), help="bracketflow sources to run")
    return p


def bench_modules(args):
    """The benchmark's ``harness`` and ``workloads`` modules, with bracketflow
    imported from ``args.src`` under the benchmark's thread caps."""
    sys.path[:0] = [str(BENCH)]
    from run import THREAD_VARS  # the benchmark's thread caps, set before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(Path(args.src).resolve())]
    import harness  # imports bracketflow from --src
    import workloads
    return harness, workloads


def run_operations(args):
    """Yield ``(seed, operation, exit code, harness)`` for each benchmark
    operation, run once, in order, in this process, as a benchmark pass runs
    it; an operation that raises has the exit code ``raised``.  After each
    seed's last operation it yields ``(seed, None, None, harness)``, while
    that seed's artifacts still exist."""
    harness, workloads = bench_modules(args)
    with tempfile.TemporaryDirectory(prefix="bench-ops-") as tmp:
        for workload in args.workload:
            for seed in args.seed:
                workdir = Path(tmp) / f"{workload}-{seed}"
                for op in workloads.build(workload, seed, workdir):
                    with harness._quiet():
                        code = harness._invoke(op)
                    if not isinstance(code, int):  # the traceback of a raised operation
                        code = "raised"
                    yield seed, op, code, harness
                yield seed, None, None, harness


def main(argv=None) -> int:
    args = parser(__doc__.split("\n")[0]).parse_args(argv)
    for seed, op, code, harness in run_operations(args):
        if op is not None:
            print(seed, op.name, code, harness._digest(op), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
