"""Batch command-line runner: one subcommand per operation.

Reads JSON (and CSV for sampled diffeomorphisms and point sets), writes
JSON/CSV artifacts, prints a one-line summary.  Exit status: 0 on
success, 2 on domain errors (non-generating family, intersecting sets,
invalid seeds, contract violations, malformed point CSV), 1 on I/O or
parse errors.  Runs are deterministic: the same config and inputs give
byte-identical output.  JSON artifacts are the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, with every
scalar written by the C encoder.  The argument parser is built once per
process.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .closure import FieldFamily, closure, spanning_test
from .convex import (ConvexBody, InvalidCertificate, InvalidSeed, SetsIntersect,
                     cone_extremal_point, mackey_cauchy_diagnostic, minkowski, separate,
                     symmetrize)
from .flows import CircleDiffeo, FlowWord, IntegrationError, apply_word, \
    commutator_flow_residual
from .steering import NotBracketGenerating, SteeringProblem, default_family, steer
from .trig_fields import TrigPoly, bracket, evaluate

COMMANDS = ("bracket", "closure", "flow", "residual", "steer",
            "minkowski", "separate", "cone", "mackey")


@dataclass
class RunConfig:
    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    trajectory_path: Optional[str] = None
    cap: Optional[int] = None
    depth: Optional[int] = None
    epsilon: Optional[float] = None
    budget: Optional[int] = None
    tol: Optional[float] = None


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: Optional[str], text: str):
    if path:
        Path(path).write_text(text, encoding="utf-8")


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent, ``json`` runs its pure-Python encoder.  Here only the
    nesting is written in Python: a list of scalars is one C-encoder call,
    and a float matrix one call for its distinct values.
    """
    return _encode(obj, "") + "\n"


def _encode(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):  # json's own key coercion
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
        return _block([f"{json.dumps(key)}: {_encode(obj[key], inner)}" for key in sorted(obj)],
                      pad, "{}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(isinstance(v, (list, tuple, dict)) for v in obj):
            return _block(_float_rows(obj, inner) or [_encode(v, inner) for v in obj], pad)
        return _block([json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]], pad)
    return json.dumps(obj)


def _block(items, pad: str, brackets: str = "[]") -> str:
    """Encoded items one per line, one level deeper than ``pad``, in brackets."""
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _float_rows(rows, pad: str):
    """Encoded rows of a rectangular list of Python-float rows, each distinct
    float (by bit pattern, so -0.0 and 0.0 differ) formatted once; None for
    any other list."""
    width = len(rows[0]) if isinstance(rows[0], (list, tuple)) else 0
    if not width or not all(isinstance(row, (list, tuple)) and len(row) == width
                            and set(map(type, row)) == {float} for row in rows):
        return None
    bits = np.array(rows, dtype=np.float64).view(np.int64).ravel()
    distinct, index = np.unique(bits, return_inverse=True)
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    cells = np.array(text, dtype=object)[index].reshape(len(rows), width)
    return [_block(row, pad) for row in cells.tolist()]


def _load_points(spec) -> np.ndarray:
    """Point set: inline list of rows, or {"csv": path} with one row per line.

    The first line of a CSV is a header when one of its cells is not a
    number; every other line must be numbers.  A non-numeric line or a
    non-finite coordinate raises ``ValueError``.
    """
    if isinstance(spec, dict) and "csv" in spec:
        source = spec["csv"]
        lines = [ln for ln in Path(source).read_text(encoding="utf-8").splitlines() if ln.strip()]
        rows = []
        for number, line in enumerate(lines):
            try:
                rows.append([float(cell) for cell in line.split(",")])
            except ValueError:
                if number:
                    raise ValueError(f"{source}: not a row of numbers: {line!r}") from None
        points = np.array(rows)
    else:
        source, points = "inline point set", np.array(spec, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError(f"{source}: non-finite coordinate")
    return points


def _load_diffeo(spec, grid: int) -> CircleDiffeo:
    """Target/diffeo spec: identity, rotation, flow of a word, or CSV."""
    if spec is None or spec == "identity":
        return CircleDiffeo.identity(grid)
    kind = spec.get("kind", "csv")
    if kind == "identity":
        return CircleDiffeo.identity(grid)
    if kind == "rotation":
        return CircleDiffeo.rotation(float(spec["angle"]), grid)
    if kind == "word":
        word = FlowWord.from_json_list(spec["steps"])
        return apply_word(word, CircleDiffeo.identity(grid))
    if kind == "csv":
        return CircleDiffeo.from_csv(Path(spec["path"]).read_text(encoding="utf-8"))
    raise ValueError(f"unknown diffeo kind {kind!r}")


# ---------------------------------------------------------------------------
# command handlers (each returns the one-line summary)

def _cmd_bracket(cfg: RunConfig, data: dict) -> str:
    v = TrigPoly.from_json_dict(data["v"])
    w = TrigPoly.from_json_dict(data["w"])
    result = bracket(v, w)
    _write_text(cfg.output_path, _dump_json({"bracket": result.to_json_dict()}))
    return f"bracket: [{v.pretty()}, {w.pretty()}] = {result.pretty()}"


def _cmd_closure(cfg: RunConfig, data: dict) -> str:
    family = FieldFamily.from_json_dict(data)
    cap = cfg.cap if cfg.cap is not None else int(data.get("cap", 8))
    depth = cfg.depth if cfg.depth is not None else int(data.get("depth", 8))
    report = closure(family, max_depth=depth, max_mode_cap=cap)
    _write_text(cfg.output_path, _dump_json(report.to_json_dict()))
    return (f"closure: rank {report.rank}, depth {report.depth_used}, "
            f"spanning(N={cap}) = {spanning_test(report, cap)} "
            f"[truncation surrogate, not a density proof]")


def _cmd_flow(cfg: RunConfig, data: dict) -> str:
    field = TrigPoly.from_json_dict(data["field"])
    t = float(data["t"])
    grid = int(data.get("grid", 256))
    phi = _load_diffeo(data.get("diffeo"), grid)
    rtol = cfg.tol if cfg.tol is not None else float(data.get("tol", 1e-10))
    out = apply_word(FlowWord.of([(field, t)]), phi, rtol=rtol)
    _write_text(cfg.output_path, out.to_csv())
    sup = float(np.max(np.abs(out.lift - phi.lift)))
    return f"flow: advanced {out.grid_size} samples by t={t}, sup displacement {sup:.6g}"


def _cmd_residual(cfg: RunConfig, data: dict) -> str:
    x = TrigPoly.from_json_dict(data["x"])
    y = TrigPoly.from_json_dict(data["y"])
    theta = float(data["theta"])
    t = float(data["t"])
    rtol = cfg.tol if cfg.tol is not None else float(data.get("tol", 1e-10))
    res = commutator_flow_residual(x, y, theta, t, rtol=rtol)
    bval = evaluate(bracket(x, y), theta)
    _write_text(cfg.output_path, _dump_json(
        {"residual": res, "bracket_value": bval, "theta": theta, "t": t}))
    return f"residual: {res:.9g} vs bracket {bval:.9g} at theta={theta}, t={t}"


def _cmd_steer(cfg: RunConfig, data: dict) -> str:
    grid = int(data.get("grid", 256))
    target = _load_diffeo(data["target"], grid)
    family = FieldFamily.from_json_dict(data["family"]) if "family" in data else default_family()
    problem = SteeringProblem(
        target=target,
        family=family,
        epsilon=cfg.epsilon if cfg.epsilon is not None else float(data.get("epsilon", 1e-2)),
        budget=cfg.budget if cfg.budget is not None else int(data.get("budget", 400)),
        primitive_depth=int(data.get("primitive_depth", 3)),
    )
    result = steer(problem)
    _write_text(cfg.output_path, _dump_json(result.to_json_dict()))
    if cfg.trajectory_path:
        lines = ["step,distance"]
        lines.extend(f"{i + 1},{d!r}" for i, d in enumerate(result.trace))
        _write_text(cfg.trajectory_path, "\n".join(lines) + "\n")
    return (f"steer: error {result.achieved_error:.6g} with {len(result.word)} steps, "
            f"converged={result.converged}")


def _cmd_minkowski(cfg: RunConfig, data: dict) -> str:
    body = ConvexBody.from_json_dict(data["body"])
    x = np.array(data["x"], dtype=float)
    value = minkowski(body, x)
    _write_text(cfg.output_path, _dump_json({"value": value}))
    return f"minkowski: gauge({x.tolist()}) = {value:.9g}"


def _cmd_separate(cfg: RunConfig, data: dict) -> str:
    a = _load_points(data["A"])
    if "body" in data["B"]:
        b = ConvexBody.from_json_dict(data["B"]["body"])
    else:
        b = _load_points(data["B"]["points"])
    cert = separate(a, b)
    _write_text(cfg.output_path, _dump_json(cert.to_json_dict()))
    return f"separate: alpha {cert.alpha:.9g} < beta {cert.beta:.9g}"


def _cmd_cone(cfg: RunConfig, data: dict) -> str:
    b_points = _load_points(data["B"])
    a1 = np.array(data["a1"], dtype=float)
    x0 = np.array(data["x0"], dtype=float)
    body = symmetrize(ConvexBody.from_json_dict(data["D"]))
    result = cone_extremal_point(b_points, a1, x0, body)
    _write_text(cfg.output_path, _dump_json(result.to_json_dict()))
    return (f"cone: vertex {result.vertex.tolist()} after {len(result.iterates)} iterate(s), "
            f"isolated={result.isolates(b_points)}")


def _cmd_mackey(cfg: RunConfig, data: dict) -> str:
    prefix = _load_points(data["prefix"])
    body = ConvexBody.from_json_dict(data["M"])
    report = mackey_cauchy_diagnostic(prefix, body)
    _write_text(cfg.output_path, _dump_json(report.to_json_dict()))
    return f"mackey: is_cauchy_prefix={report.is_cauchy_prefix}, rate={report.rate}"


_HANDLERS = {
    "bracket": _cmd_bracket,
    "closure": _cmd_closure,
    "flow": _cmd_flow,
    "residual": _cmd_residual,
    "steer": _cmd_steer,
    "minkowski": _cmd_minkowski,
    "separate": _cmd_separate,
    "cone": _cmd_cone,
    "mackey": _cmd_mackey,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        data = _read_json(cfg.input_path) if cfg.input_path else {}
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    try:
        summary = _HANDLERS[cfg.command](cfg, data)
    except (NotBracketGenerating, SetsIntersect, InvalidSeed, InvalidCertificate,
            IntegrationError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracketflow",
        description="Bracket closure, circle flows, steering, and convex gauges.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} operation")
        p.add_argument("--input", required=True, help="JSON input file")
        p.add_argument("--output", default=None, help="artifact output path")
        p.add_argument("--trajectory", default=None,
                       help="per-step distance CSV (steer only)")
        p.add_argument("--cap", type=int, default=None, help="mode cap override")
        p.add_argument("--depth", type=int, default=None, help="depth override")
        p.add_argument("--epsilon", type=float, default=None, help="tolerance override")
        p.add_argument("--budget", type=int, default=None, help="budget override")
        p.add_argument("--tol", type=float, default=None,
                       help="Dormand-Prince relative tolerance; single-mode "
                            "(sl(2)-form) fields flow in closed form and ignore it")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input_path=args.input,
        output_path=args.output,
        trajectory_path=args.trajectory,
        cap=args.cap,
        depth=args.depth,
        epsilon=args.epsilon,
        budget=args.budget,
        tol=args.tol,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
