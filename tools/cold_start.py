"""Wall time, peak RSS and heavy imports of each CLI command in a fresh interpreter.

Runs every ``bracketflow.cli`` command once per new Python process on small
fixed inputs (a two-mode bracket, a four-field closure, one flow, one
residual, a 128-sample steer, and a gauge, separation, cone and Mackey
prefix against the unit square), ``--runs`` times each. With two ``--src``
trees the runs alternate between them, the first tree first in even runs
and the second first in odd ones, so a drift in the machine's load favours
neither. For each command and tree it prints the median wall time of the
whole process (interpreter start to exit), the median of the process's
``ru_maxrss``, and which of ``numpy``, ``scipy.optimize`` and
``scipy.spatial`` the process had imported by its exit:

    <command> <tree> <wall s> <peak RSS MB> numpy=<0|1> scipy.optimize=<0|1> scipy.spatial=<0|1>

An import flag that differs between the runs of one tree prints as ``?``.
Run from the repository root:

    python3 tools/cold_start.py
    python3 tools/cold_start.py --src src ../parent/src --runs 9
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STACKS = ("numpy", "scipy.optimize", "scipy.spatial")

# one fresh process: put --src first on the path, run one command, report
CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from bracketflow import cli
code = cli.main(json.loads(sys.argv[2]))
loaded = {s: int(any(m == s or m.startswith(s + ".") for m in sys.modules)) for s in %r}
print(json.dumps({"code": code, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0, "loaded": loaded}))
""" % (STACKS,)


def _poly(cos=("0",), sin=("0",)) -> dict:
    return {"c0": "0", "cos": list(cos), "sin": list(sin)}


def inputs(workdir: Path) -> dict[str, list[str]]:
    """Each command's argument list, its input written under ``workdir``."""
    sin1, cos1 = _poly(sin=("1",)), _poly(cos=("1",))
    square = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    payloads = {
        "bracket": {"v": sin1, "w": _poly(cos=("0", "1"), sin=("0", "0"))},
        "closure": {"fields": [{"label": "cos1", "field": cos1},
                               {"label": "sin1", "field": sin1},
                               {"label": "cos2", "field": _poly(cos=("0", "1"), sin=("0", "0"))},
                               {"label": "sin2", "field": _poly(cos=("0", "0"), sin=("0", "1"))}],
                    "cap": 3},
        "flow": {"field": sin1, "t": 0.5, "grid": 128},
        "residual": {"x": sin1, "y": cos1, "theta": 0.7, "t": 0.05},
        "steer": {"target": {"kind": "rotation", "angle": 0.25}, "grid": 128, "budget": 150,
                  "epsilon": 0.05},
        "minkowski": {"body": square, "x": [2.0, 0.5]},
        "separate": {"A": [[3.0, 0.0], [4.0, 1.0], [3.5, -1.0]], "B": {"body": square}},
        "cone": {"B": [[0.0, 0.0], [0.0, 0.5], [0.3, 0.2]], "a1": [0.0, 0.0],
                 "x0": [0.0, 1.0], "D": square},
        "mackey": {"prefix": [[2.0 ** -k, 0.0] for k in range(20)], "M": square},
    }
    commands = {}
    for name, payload in payloads.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        commands[name] = [name, "--input", str(path), "--output", str(workdir / f"{name}.out")]
    return commands


def run_once(src: str, argv: list[str]) -> tuple[float, dict]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["code"] != 0:
        raise SystemExit(f"{argv[0]} exited {report['code']} under {src}: {proc.stderr}")
    return wall, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", nargs="+", default=[str(ROOT / "src")],
                   help="one or two bracketflow source trees (default: this tree's src)")
    p.add_argument("--runs", type=int, default=9, help="fresh processes per command and tree")
    args = p.parse_args(argv)
    if len(args.src) > 2:
        p.error("--src takes one or two trees")
    if args.runs < 1:
        p.error("--runs must be >= 1")
    srcs = [str(Path(s).resolve()) for s in args.src]
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        for name, command in inputs(Path(tmp)).items():
            runs: dict[str, list] = {src: [] for src in srcs}
            for k in range(args.runs):
                for src in srcs if k % 2 == 0 else srcs[::-1]:
                    runs[src].append(run_once(src, command))
            for label, src in zip(args.src, srcs):
                walls = [wall for wall, _ in runs[src]]
                reports = [report for _, report in runs[src]]
                rss = statistics.median(r["rss_mb"] for r in reports)
                flags = []
                for stack in STACKS:
                    seen = {r["loaded"][stack] for r in reports}
                    flags.append(f"{stack}={seen.pop() if len(seen) == 1 else '?'}")
                print(f"{name} {label} {statistics.median(walls):.3f} {rss:.1f}",
                      *flags, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
