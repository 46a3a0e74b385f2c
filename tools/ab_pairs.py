"""Alternating parent/change pairs of benchmark runs, summarised per end-to-end metric.

Runs ``bench/run.py`` of two trees in ``--pairs`` pairs per workload, every
run as long as ``run_seconds`` in ``BENCHMARK.json`` on both sides. Both runs
of pair k use seed ``--seed`` + k; the parent runs first in even pairs and the
change first in odd ones, so a drift in the machine's load favours neither
side. Each run is a process in its own tree and writes only that
tree's ``bench/out/`` (``result-<workload>-seed<seed>.json``, as any
benchmark run does). Run from the repository root:

    python3 tools/ab_pairs.py --parent ../parent --workload convex --pairs 10

It prints one line per run, flagged ``!`` when the run is not ``correct`` or
reports failed operations, then one line per metric of ``BENCHMARK.json``:
both medians, both interquartile ranges, the change in the medians, the
number of pairs in which the change is better, whether the medians
differ by more than the parent's IQR, and the no-regression verdict: whether
the change's median is worse than the parent's by no more than the metric's
relative ``bound``.  When the parent's IQR is wider than that bound, the
runs cannot tell such a difference from noise, and the verdict reads
``unresolved`` unless every change run is better than every parent run.

A run that exits nonzero is printed flagged ``!`` with its exit code and the
last lines of its stderr; that workload stops there, its summary covers the
pairs completed before it, and the script exits 1 after all workloads.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_run(tree: Path, workload: str, seed: int,
              seconds: float) -> subprocess.CompletedProcess:
    """One ``bench/run.py`` process; its result object is the last line of stdout."""
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent tree")
    p.add_argument("--change", default=str(ROOT), help="root of the change tree (default: this one)")
    p.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]],
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=8801, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    status = 0
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed + k
            pair = {}
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                out = bench_run(trees[side], workload, seed, spec["run_seconds"])
                if out.returncode:
                    tail = "".join(f"\n    {line}" for line in out.stderr.splitlines()[-5:])
                    print(f"! {workload} pair {k} seed {seed} {side}: exit {out.returncode}"
                          f"{tail}", flush=True)
                    break
                r = pair[side] = json.loads(out.stdout.strip().splitlines()[-1])
                flag = "!" if not r["correct"] or r["failed"] else " "
                values = " ".join(f"{name} {m['value']:.6g}" for name, m in r["metrics"].items())
                print(f"{flag} {workload} pair {k} seed {seed} {side}: {values} "
                      f"failed {r['failed']}/{r['attempted']} correct {r['correct']}", flush=True)
            if len(pair) < 2:
                status = 1
                break
            for side, r in pair.items():
                runs[side].append(r)
        done = len(runs["parent"])
        if done < 2:
            print(f"{workload}: {done} complete pair(s), too few to summarise", flush=True)
            continue
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in runs["parent"]]
            cv = [r["metrics"][name]["value"] for r in runs["change"]]
            wins = sum((c < q) if lower else (c > q) for q, c in zip(pv, cv))
            pm, cm = statistics.median(pv), statistics.median(cv)
            worse = (cm - pm) if lower else (pm - cm)
            bound = metric["bound"] * abs(pm)
            dominates = max(cv) < min(pv) if lower else min(cv) > max(pv)
            verdict = "unresolved" if iqr(pv) > bound and not dominates else worse <= bound
            print(f"{workload} {name}: parent {pm:.6g} (IQR {iqr(pv):.3g}) "
                  f"change {cm:.6g} (IQR {iqr(cv):.3g}) {100 * (cm / pm - 1):+.1f}%, "
                  f"change better in {wins}/{done}, "
                  f"|median difference| > parent IQR: {abs(cm - pm) > iqr(pv)}, "
                  f"within bound {100 * metric['bound']:g}%: {verdict}", flush=True)
        for side in ("parent", "change"):
            failed = sum(r["failed"] for r in runs[side])
            attempted = sum(r["attempted"] for r in runs[side])
            print(f"{workload} {side}: {sum(r['correct'] for r in runs[side])}/{done} "
                  f"correct, failed share {failed / attempted:.4f}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
