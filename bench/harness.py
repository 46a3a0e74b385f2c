"""Timed passes, checks and the result line; imported by run.py after the path set-up."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import bracketflow
from bracketflow import cli

import reference as ref
import tracing
import workloads as wl

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


class Workload:
    """One workload's operations in its own work directory, and what its passes saw."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.ops: list = []
        self.walls: list = []  # seconds per untraced pass
        self.latencies: list = []  # seconds per operation, pass after pass
        self.codes: list = []  # exit codes of the first pass
        self.digests: list = []  # artifact digests of the first pass
        self.passes = 0
        self.problems: list = []  # exit codes or artifacts that changed between passes

    def set_up(self) -> float:
        """Write the inputs afresh and warm up with the first op of each command."""
        start = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.ops = wl.build(self.name, self.seed, self.workdir)
        first = {}
        for op in self.ops:
            first.setdefault(op.command, op)
        with _quiet():
            for op in first.values():
                _invoke(op)
        return time.perf_counter() - start

    def run_pass(self, tracer=None) -> list:
        """One pass over the operations.

        With a tracer every operation runs untraced and then traced, back to
        back so that both see the same machine, and the pass returns the
        traced over untraced latency of each; the traced run must write the
        same artifact."""
        codes, lats, ratios = [], [], []
        with _quiet():
            start = time.perf_counter()
            for op in self.ops:
                t = time.perf_counter()
                codes.append(_invoke(op))
                lats.append(time.perf_counter() - t)
                if tracer is not None:
                    ratios.append(self._traced_call(op, tracer, codes[-1]) / lats[-1])
            wall = time.perf_counter() - start
        digests = [_digest(op) for op in self.ops]
        if self.passes == 0:
            self.codes, self.digests = codes, digests
        elif codes != self.codes or digests != self.digests:
            changed = [op.name for op, c, d, c1, d1 in
                       zip(self.ops, codes, digests, self.codes, self.digests)
                       if c != c1 or d != d1]
            self.problems.append(f"pass {self.passes + 1}: output changed for {changed}")
        self.passes += 1
        if tracer is None:
            self.walls.append(wall)
            self.latencies.extend(lats)
        return ratios

    def _traced_call(self, op, tracer, code) -> float:
        digest = _digest(op)
        tracer.install()
        try:
            index = tracer.begin("cli.op")
            t = time.perf_counter()
            traced_code = _invoke(op)
            latency = time.perf_counter() - t
            tracer.end(index)
        finally:
            tracer.uninstall()
        if traced_code != code or _digest(op) != digest:
            self.problems.append(f"{op.name}: output changed under tracing")
        return latency

    def artifact_bytes(self) -> int:
        return sum(os.path.getsize(p) for op in self.ops
                   for p in (op.output, op.trajectory) if p is not None and p.exists())

    def check(self) -> dict:
        """Check the artifacts of the last pass; every pass wrote the same bytes."""
        report = {"failed_ops": {}, "check_errors": {}, "kept": {}}
        for op, code in zip(self.ops, self.codes):
            if code != 0:
                report["failed_ops"][op.name] = code if isinstance(code, str) else \
                    f"exit code {code}"
                continue
            try:
                ok = op.check(op) is not False
            except (ref.CheckFailed, OSError, KeyError, ValueError, TypeError) as exc:
                report["check_errors"][op.name] = f"{type(exc).__name__}: {exc}"
                continue
            if op.kept is not None:
                art = op.artifact()
                report["kept"][op.name] = {
                    "converged": ok, "steps": len(art["word"]),
                    "achieved_error": art["achieved_error"],
                    "stopped_before_budget": len(art["word"]) < wl.BUDGET}
            if not ok:
                report["failed_ops"][op.name] = "did not converge" + \
                    (f" (kept: {op.kept})" if op.kept else " (not a kept target)")
        report["correct"] = not report["check_errors"] and not self.problems
        report["failed_per_pass"] = len(report["failed_ops"])
        return report


def _invoke(op):
    """Exit status of one CLI call, or the traceback it raised (a failed operation)."""
    try:
        return cli.main(op.argv())
    except Exception:  # the pass goes on; the failure is reported
        return "raised " + traceback.format_exc()


@contextlib.contextmanager
def _quiet():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def _digest(op) -> str:
    h = hashlib.sha256()
    for p in (op.output, op.trajectory):
        if p is not None:
            h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "bracketflow": bracketflow.__version__,
            "cpus": len(os.sched_getaffinity(0))}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _emit(result: dict, details: dict, path: Path):
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**details, "result": result}, indent=1) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    print(json.dumps(result))


def run(args, import_s: float) -> int:
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            return _traced(args, workdir)
        return _timed(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(args, import_s: float, workdir: Path) -> int:
    w = Workload(args.workload, args.seed, workdir)
    setups = [w.set_up() for _ in range(SETUP_REPEATS)]
    # Another pass starts only if it should end within half a pass of
    # --seconds, so that a run overshoots by half a pass at most.
    start = time.perf_counter()
    while w.passes == 0 or time.perf_counter() - start + statistics.median(w.walls) / 2 \
            <= args.seconds:
        w.run_pass()
    peak = _peak_rss_mb()
    report = w.check()
    n = len(w.ops)
    op_medians = [statistics.median(w.latencies[i::n]) for i in range(n)]
    result = {
        "correct": report["correct"],
        "attempted": n * w.passes,
        "failed": report["failed_per_pass"] * w.passes,
        "metrics": {
            "setup_s": _metric(import_s + statistics.median(setups), "s"),
            # one pass, each operation at its median over the passes: a
            # slow spell in one pass moves none of the medians
            "wall_s": _metric(math.fsum(op_medians), "s"),
            "op_p50_s": _metric(statistics.median(w.latencies), "s"),
            "peak_rss_mb": _metric(peak, "MB"),
        },
    }
    details = {"workload": w.name, "seed": w.seed, "seconds": args.seconds,
               "environment": _environment(), "import_s": import_s, "setups_s": setups,
               "pass_walls_s": w.walls, "op_names": [op.name for op in w.ops],
               "latencies_s": w.latencies,
               "op_median_s": {op.name: m for op, m in zip(w.ops, op_medians)},
               "checks": report, "problems": w.problems}
    _report_problems(w.name, report, w.problems)
    _emit(result, details, OUT / f"result-{w.name}-seed{w.seed}.json")
    return 0


def _traced(args, workdir: Path) -> int:
    """Rounds of one traced pass of every workload, named workload first.

    A round takes longer than the timed runs' passes, so another round
    starts only if it should end within --seconds."""
    names = [args.workload] + [n for n in wl.WORKLOADS if n != args.workload]
    ws = [Workload(n, args.seed, workdir / n) for n in names]
    for w in ws:
        w.set_up()
    rounds, overhead = [], {n: [] for n in names}
    spans = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) \
            <= args.seconds:
        tracer = tracing.Tracer()
        nbytes = 0
        for w in ws:
            overhead[w.name].extend(r - 1.0 for r in w.run_pass(tracer))
            nbytes += w.artifact_bytes()
        rounds.append(tracing.layer_metrics(tracer, nbytes))
        spans = tracer.spans
    reports = {w.name: w.check() for w in ws}
    named = ws[0]
    metrics = {name: _metric(statistics.median(r[name] for r in rounds), unit)
               for name, unit in tracing.LAYER_METRICS}
    result = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": 2 * len(named.ops) * named.passes,  # untraced and traced
        "failed": 2 * reports[named.name]["failed_per_pass"] * named.passes,
        "metrics": metrics,
    }
    overhead_pct = {n: 100.0 * statistics.median(v) for n, v in overhead.items()}
    for w in ws:
        _report_problems(w.name, reports[w.name], w.problems)
    for n, pct in overhead_pct.items():
        print(f"tracing overhead on {n}: {pct:+.1f}% (median over operations "
              "of traced over untraced latency)")
    details = {"workloads": names, "seed": args.seed, "seconds": args.seconds,
               "environment": _environment(), "rounds": len(rounds),
               "round_metrics": rounds, "tracing_overhead_pct": overhead_pct,
               "checks": reports, "span_fields": ["name", "start", "end", "parent"],
               "last_round_spans": spans}
    _emit(result, details, OUT / f"trace-{args.workload}-seed{args.seed}.json")
    return 0


def _report_problems(name: str, report: dict, problems: list):
    for op, reason in {**report["check_errors"], **report["failed_ops"]}.items():
        print(f"{name}: {op}: {reason}", file=sys.stderr)
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)
