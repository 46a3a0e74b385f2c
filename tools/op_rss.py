"""Peak RSS after each benchmark operation, run once in order in one process.

Builds a workload's inputs with ``bench/workloads.py`` and runs each
operation once through ``bracketflow.cli.main``, as a benchmark pass does
(see ``tools/artifact_digests.py``). After each operation it prints the
process's ``ru_maxrss`` high-water mark and how far that operation raised it:

    <seed> <operation> <exit code> <peak RSS MB> <rise MB>

After a seed's operations it hashes every artifact with ``harness._digest``,
as a benchmark pass does after its operations (each file is read whole), and
prints that mark as the seed's last line, so that line predicts the
workload's ``peak_rss_mb``:

    <seed> digests - <peak RSS MB> <rise MB>

So the operation that sets a workload's ``peak_rss_mb`` shows in seconds,
without a 38-s benchmark run. Run from the repository root; ``--src`` picks
the bracketflow sources to run, so two trees compare side by side:

    python3 tools/op_rss.py --workload convex --seed 5
    python3 tools/op_rss.py --workload convex --seed 5 --src ../parent/src

The first operation's mark includes the imports of numpy and bracketflow.
Each run is its own process, so run one tree per command.
"""
from __future__ import annotations

import resource
import sys

from artifact_digests import parser, run_operations


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parser(__doc__.split("\n")[0]).parse_args(argv)
    last, ops = _peak_mb(), []
    for seed, op, code, harness in run_operations(args):
        if op is None:  # the seed's end
            for done in ops:
                harness._digest(done)
            ops, name, code = [], "digests", "-"
        else:
            ops.append(op)
            name = op.name
        peak = _peak_mb()
        print(seed, name, code, f"{peak:.1f}", f"{peak - last:+.1f}", flush=True)
        last = peak
    return 0


if __name__ == "__main__":
    sys.exit(main())
