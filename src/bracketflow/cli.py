"""Batch command-line runner: one subcommand per operation.

Reads JSON (and CSV for sampled diffeomorphisms and point sets), writes
JSON/CSV artifacts, prints a one-line summary.  Exit status: 0 on
success, 2 on domain errors (non-generating family, intersecting sets,
invalid seeds, contract violations, malformed point CSV or diffeo spec)
and on usage errors, 1 on I/O or parse errors.  Runs are deterministic:
the same arguments and inputs give byte-identical output.  JSON artifacts
are the bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.
They are streamed to the output file a dict key or a float64-array row at
a time, so an artifact is never one string in memory, and a float64 array
with two axes (Mackey's gauges) is written from the array itself, one
C-encoder call per row.  When it equals its transpose bit for bit, as the
gauge matrix does, each row formats only its entries from the diagonal on
and takes the others from the rows above it, so each value is formatted
once and its text is dropped once its mirror is written.  Any other value
is one ``json.dumps`` call.  The argument parser is built once per process.

Every subcommand takes ``--input`` (required) and ``--output``.  Beyond
those, each accepts only the flags it reads; any other flag is a usage
error:

    closure           --cap, --depth
    steer             --epsilon, --budget, --trajectory
    flow, residual    --tol

A setting is its flag, else the input's JSON field of the same name, else
the library default: ``grid`` and ``tol`` from ``flows.DEFAULT_GRID`` and
``flows.DEFAULT_RTOL``; ``epsilon`` and ``budget`` from the
``SteeringProblem`` fields; closure's ``cap`` and ``depth`` in
``_cmd_closure``.  A JSON ``true``/``false`` for any setting or real number
(a duration ``t``, ``theta``, a rotation's ``angle``) or inside an array of
reals (an inline point set, ``x``, ``a1``, ``x0``, a body's ``halfspaces``),
a fractional number for an integer setting, a ``tol`` that is negative or
not finite and an ``epsilon`` that is not finite and positive are domain
errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .closure import FieldFamily, closure
from .convex import (ConvexBody, InvalidCertificate, InvalidSeed, SetsIntersect, _real_array,
                     cone_extremal_point, mackey_cauchy_diagnostic, minkowski, separate,
                     symmetrize)
from .flows import DEFAULT_GRID, DEFAULT_RTOL, CircleDiffeo, FlowWord, IntegrationError, \
    apply_word, commutator_flow_residual
from .steering import NotBracketGenerating, SteeringProblem, default_family, steer
from .trig_fields import TrigPoly, bracket, evaluate


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: Optional[str], text: str):
    if path:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(path: Optional[str], obj):
    """Write ``_dump_json(obj)`` to ``path`` piece by piece, so the whole
    artifact is never one string; nothing without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_pieces(obj, ""))
            fh.write("\n")


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte:
    the pieces that ``_write_json`` writes, joined.

    A numpy array reached from ``obj`` through dict values alone is written
    as its ``tolist()``, and a float64 one with two axes row by row (see
    ``_pieces``).  Every other value is one ``json.dumps`` call (see
    ``_encode``).
    """
    return "".join(_pieces(obj, "")) + "\n"


def _pieces(obj, pad: str):
    """The text of ``obj`` at nesting ``pad``, in pieces: a dict with string
    keys goes key by key and a nonempty float64 array with two axes row by
    row; any other value is one piece, from ``_encode``.

    Row i of an array that equals its transpose bit for bit (so -0.0 and
    0.0 differ, and NaNs match by payload) formats only its entries j >= i
    and takes each entry j < i from the text row j kept of it, dropping that
    text; at most about a quarter of the entries' texts are alive at once.
    Any other array formats each row whole.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        for n, key in enumerate(sorted(obj)):
            yield f"{',' if n else '{'}\n{inner}{json.dumps(key)}: "
            yield from _pieces(obj[key], inner)
        yield f"\n{pad}}}"
        return
    if not (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 2
            and obj.size):
        yield _encode(obj.tolist() if isinstance(obj, np.ndarray) else obj, pad)
        return
    bits = obj.view(np.int64)
    symmetric = obj.shape[0] == obj.shape[1] and np.array_equal(bits, bits.T)
    kept = []  # kept[j]: row j's text for the columns after the current row, last first
    for i, row in enumerate(obj):
        if symmetric:
            upper = _floats(row[i:])
            text = list(map(list.pop, kept)) + upper  # each pop drops a mirrored entry
            kept.append(upper[:0:-1])
        else:
            text = _floats(row)
        yield f"{',' if i else '['}\n{inner}" + _block(text, inner)
    yield f"\n{pad}]"


def _floats(values: np.ndarray) -> list:
    """The JSON text of each float in a nonempty 1-d array, from one
    C-encoder call (``float.__repr__``, with ``NaN`` and ``Infinity``)."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _encode(obj, pad: str) -> str:
    """The text of a value at nesting ``pad`` in one string:
    ``json.dumps(obj, indent=2, sort_keys=True)`` with every line after the
    first indented by ``pad``."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _block(items, pad: str) -> str:
    """Encoded items one per line, one level deeper than ``pad``, in brackets."""
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _load_points(spec) -> np.ndarray:
    """Point set: inline list of rows, or {"csv": path} with one row per line.

    The first line of a CSV is a header when one of its cells is not a
    number; every other line must be numbers.  A non-numeric line, a
    non-finite coordinate and a JSON ``true``/``false`` in an inline set
    raise ``ValueError``.
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
        source = "inline point set"
        points = _real_array(spec, source)
    if not np.isfinite(points).all():
        raise ValueError(f"{source}: non-finite coordinate")
    return points


def _load_diffeo(spec, grid: int) -> CircleDiffeo:
    """Target/diffeo spec: identity, rotation, flow of a word, or CSV."""
    if spec is None or spec == "identity":
        return CircleDiffeo.identity(grid)
    if not isinstance(spec, dict):
        raise ValueError(f'diffeo spec must be null, "identity" or an object with a "kind" '
                         f'(identity, rotation, word or csv), not {spec!r}')
    kind = spec.get("kind", "csv")
    if kind == "identity":
        return CircleDiffeo.identity(grid)
    if kind == "rotation":
        return CircleDiffeo.rotation(_real(spec, "angle"), grid)
    if kind == "word":
        word = FlowWord.from_json_list(spec["steps"])
        return apply_word(word, CircleDiffeo.identity(grid))
    if kind == "csv":
        return CircleDiffeo.from_csv(Path(spec["path"]).read_text(encoding="utf-8"))
    raise ValueError(f"unknown diffeo kind {kind!r}")


def _real(data: dict, name: str) -> float:
    """The input's ``name`` field as a float; a JSON ``true``/``false``
    raises ``ValueError`` rather than reading as 1.0 or 0.0."""
    value = data[name]
    if isinstance(value, bool):
        raise ValueError(f"{name!r} must be a number, not {value!r}")
    return float(value)


def _setting(args: argparse.Namespace, data: dict, name: str, default):
    """The flag ``--name`` if given, else the input's ``name`` field, else
    ``default``, as the type of ``default``.

    A bool, a fractional number for an int setting (``400.0`` reads as
    400) and an integer too large for a float setting raise ``ValueError``
    rather than being coerced.
    """
    value = getattr(args, name, None)
    if value is None:
        value = data.get(name, default)
    kind = type(default)
    lossy = isinstance(value, bool) or (kind is int and isinstance(value, float)
                                        and not value.is_integer())
    if not lossy:
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ValueError(f"setting {name!r} must be {kind.__name__}, not {value!r}")


# ---------------------------------------------------------------------------
# command handlers (each returns the one-line summary)

def _cmd_bracket(args: argparse.Namespace, data: dict) -> str:
    v = TrigPoly.from_json_dict(data["v"])
    w = TrigPoly.from_json_dict(data["w"])
    result = bracket(v, w)
    _write_json(args.output, {"bracket": result.to_json_dict()})
    return f"bracket: [{v.pretty()}, {w.pretty()}] = {result.pretty()}"


def _cmd_closure(args: argparse.Namespace, data: dict) -> str:
    family = FieldFamily.from_json_dict(data)
    cap = _setting(args, data, "cap", 8)
    depth = _setting(args, data, "depth", 8)
    report = closure(family, max_depth=depth, max_mode_cap=cap)
    _write_json(args.output, report.to_json_dict())
    return (f"closure: rank {report.rank}, depth {report.depth_used}, "
            f"spanning(N={cap}) = {report.spanning} "
            f"[truncation surrogate, not a density proof]")


def _cmd_flow(args: argparse.Namespace, data: dict) -> str:
    field = TrigPoly.from_json_dict(data["field"])
    t = _real(data, "t")
    phi = _load_diffeo(data.get("diffeo"), _setting(args, data, "grid", DEFAULT_GRID))
    rtol = _setting(args, data, "tol", DEFAULT_RTOL)
    out = apply_word(FlowWord.of([(field, t)]), phi, rtol=rtol)
    _write_text(args.output, out.to_csv())
    sup = float(np.max(np.abs(out.lift - phi.lift)))
    return f"flow: advanced {out.grid_size} samples by t={t}, sup displacement {sup:.6g}"


def _cmd_residual(args: argparse.Namespace, data: dict) -> str:
    x = TrigPoly.from_json_dict(data["x"])
    y = TrigPoly.from_json_dict(data["y"])
    theta = _real(data, "theta")
    t = _real(data, "t")
    rtol = _setting(args, data, "tol", DEFAULT_RTOL)
    res = commutator_flow_residual(x, y, theta, t, rtol=rtol)
    bval = evaluate(bracket(x, y), theta)
    _write_json(args.output, {"residual": res, "bracket_value": bval, "theta": theta, "t": t})
    return f"residual: {res:.9g} vs bracket {bval:.9g} at theta={theta}, t={t}"


def _cmd_steer(args: argparse.Namespace, data: dict) -> str:
    target = _load_diffeo(data["target"], _setting(args, data, "grid", DEFAULT_GRID))
    family = FieldFamily.from_json_dict(data["family"]) if "family" in data else default_family()
    problem = SteeringProblem(
        target=target,
        family=family,
        epsilon=_setting(args, data, "epsilon", SteeringProblem.epsilon),
        budget=_setting(args, data, "budget", SteeringProblem.budget),
    )
    result = steer(problem)
    _write_json(args.output, result.to_json_dict())
    if args.trajectory:
        lines = ["step,distance"]
        lines.extend(f"{i + 1},{d!r}" for i, d in enumerate(result.trace))
        _write_text(args.trajectory, "\n".join(lines) + "\n")
    return (f"steer: error {result.achieved_error:.6g} with {len(result.word)} steps, "
            f"converged={result.converged}")


def _cmd_minkowski(args: argparse.Namespace, data: dict) -> str:
    body = ConvexBody.from_json_dict(data["body"])
    x = _real_array(data["x"], "x")
    value = minkowski(body, x)
    _write_json(args.output, {"value": value})
    return f"minkowski: gauge({x.tolist()}) = {value:.9g}"


def _cmd_separate(args: argparse.Namespace, data: dict) -> str:
    a = _load_points(data["A"])
    if "body" in data["B"]:
        b = ConvexBody.from_json_dict(data["B"]["body"])
    else:
        b = _load_points(data["B"]["points"])
    cert = separate(a, b)
    _write_json(args.output, vars(cert))  # its fields are the JSON keys
    return f"separate: alpha {cert.alpha:.9g} < beta {cert.beta:.9g}"


def _cmd_cone(args: argparse.Namespace, data: dict) -> str:
    b_points = _load_points(data["B"])
    a1 = _real_array(data["a1"], "a1")
    x0 = _real_array(data["x0"], "x0")
    body = symmetrize(ConvexBody.from_json_dict(data["D"]))
    result = cone_extremal_point(b_points, a1, x0, body)
    _write_json(args.output, result.to_json_dict())
    return (f"cone: vertex {result.vertex.tolist()} after {len(result.iterates)} iterate(s), "
            f"isolated={result.isolates(b_points)}")


def _cmd_mackey(args: argparse.Namespace, data: dict) -> str:
    prefix = _load_points(data["prefix"])
    body = ConvexBody.from_json_dict(data["M"])
    report = mackey_cauchy_diagnostic(prefix, body)
    # the report's fields are its JSON keys; mu and tail_max go to the
    # writer as arrays, never as lists of Python floats
    _write_json(args.output, vars(report))
    return f"mackey: is_cauchy_prefix={report.is_cauchy_prefix}, rate={report.rate}"


COMMANDS = {
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


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status."""
    try:
        data = _read_json(args.input)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    try:
        summary = COMMANDS[args.command](args, data)
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
    table = (  # flag, the subcommands that read it, argparse keywords
        ("--input", COMMANDS, dict(required=True, help="JSON input file")),
        ("--output", COMMANDS, dict(help="artifact output path")),
        ("--cap", ("closure",), dict(type=int, help="mode cap")),
        ("--depth", ("closure",), dict(type=int, help="bracket rounds")),
        ("--epsilon", ("steer",), dict(type=float, help="distance to reach")),
        ("--budget", ("steer",), dict(type=int, help="word length budget")),
        ("--trajectory", ("steer",), dict(help="per-step distance CSV")),
        ("--tol", ("flow", "residual"),
         dict(type=float, help="Dormand-Prince relative tolerance; single-mode "
                               "(sl(2)-form) fields flow in closed form and ignore it")),
    )
    parser = argparse.ArgumentParser(
        prog="bracketflow",
        description="Bracket closure, circle flows, steering, and convex gauges.",
        epilog="A setting is its flag, else the input's JSON field of the same name, "
               "else the library default.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=f"run the {name} operation")
                for name in COMMANDS}
    for flag, names, keywords in table:
        for name in names:
            commands[name].add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
