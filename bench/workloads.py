"""Seeded inputs for the three workloads, as CLI operations with their checks.

Every workload is a fixed list of operations; the seed only draws the
numbers inside the input files, and some inputs do not depend on it (the
kept steer targets, the 1500-point clouds).  Each operation writes its
input under the work directory, names the artifact it expects, and carries
a check that compares the artifact with ``reference`` (never with a stored
copy of an earlier output).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

WORKLOADS = ("algebra", "steer", "convex")
GRID = 256


@dataclass
class Op:
    """One CLI invocation: ``bracketflow <command> --input ... --output ...``."""

    name: str
    command: str
    input: Path
    output: Path
    check: Callable[["Op"], bool]  # raises CheckFailed; False means the op failed
    flags: list = field(default_factory=list)
    trajectory: Optional[Path] = None
    kept: Optional[str] = None  # the named fault behind a kept failure

    def argv(self) -> list:
        out = [self.command, "--input", str(self.input), "--output", str(self.output)]
        if self.trajectory is not None:
            out += ["--trajectory", str(self.trajectory)]
        return out + self.flags

    def artifact(self) -> dict:
        return ref.read_json(self.output)


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs under workdir and return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2 ** 63, WORKLOADS.index(workload)])
    return {"algebra": _algebra, "steer": _steer, "convex": _convex}[workload](rng, workdir)


def _op(workdir: Path, name: str, command: str, payload: dict, check, **kw) -> Op:
    path = workdir / f"{name}.in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return Op(name, command, path, workdir / f"{name}.out.json", check, **kw)


# ---------------------------------------------------------------------------
# algebra: exact brackets, closures and commutator residuals

def _rational(rng, lo=-9, hi=9, den=9) -> Fraction:
    num = 0
    while num == 0:
        num = int(rng.integers(lo, hi + 1))
    return Fraction(num, int(rng.integers(1, den + 1)))


def _random_field(rng, modes: int, **kw):
    return (_rational(rng, **kw), tuple(_rational(rng, **kw) for _ in range(modes)),
            tuple(_rational(rng, **kw) for _ in range(modes)))


def _family_json(labels, fields) -> dict:
    return {"fields": [{"label": l, "field": ref.field_to_json(f)}
                       for l, f in zip(labels, fields)]}


def _unit(kind: str, n: int):
    one = tuple(Fraction(int(k == n)) for k in range(1, n + 1))
    zero = (Fraction(0),) * n
    return (Fraction(0), one, zero) if kind == "cos" else (Fraction(0), zero, one)


DEFAULT_LABELS = ("cos1", "sin1", "cos2", "sin2")
DEFAULT_FIELDS = tuple(_unit(l[:3], int(l[3])) for l in DEFAULT_LABELS)
RESIDUAL_TS = (0.1, 0.05, 0.025, 0.0125)


def _algebra(rng, workdir: Path) -> list:
    ops = []
    for modes in (2, 6, 12):
        for i in range(2):
            v, w = _random_field(rng, modes), _random_field(rng, modes)
            ops.append(_op(workdir, f"bracket.m{modes}.{i}", "bracket",
                           {"v": ref.field_to_json(v), "w": ref.field_to_json(w)},
                           lambda op, v=v, w=w: ref.check_bracket(op.artifact(), v, w)))

    def closure_op(name, labels, fields, cap, expected_rank=None):
        return _op(workdir, name, "closure", _family_json(labels, fields),
                   lambda op: ref.check_closure(op.artifact(), labels, fields, cap, expected_rank),
                   flags=["--cap", str(cap), "--depth", "32"])

    for cap in (8, 12, 16):
        ops.append(closure_op(f"closure.default.{cap}", DEFAULT_LABELS, DEFAULT_FIELDS,
                              cap, 2 * cap + 1))
    for cap in (6, 8, 10):
        v = (_rational(rng), (_rational(rng),), (_rational(rng),))
        w = (_rational(rng), (Fraction(0), _rational(rng)), (Fraction(0), _rational(rng)))
        ops.append(closure_op(f"closure.pair.{cap}", ("v", "w"), (v, w), cap))
    for k in (1, 3, 5):
        ops.append(closure_op(f"closure.cossin{k}", (f"cos{k}", f"sin{k}"),
                              (_unit("cos", k), _unit("sin", k)), 2 * k, 3))
    for i in range(2):
        x = _random_field(rng, 3, lo=-2, hi=2, den=4)
        y = _random_field(rng, 2, lo=-2, hi=2, den=4)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        cache = []  # reference loops, computed on the first check of the pair

        def check(op, x=x, y=y, theta=theta, cache=cache):
            if not cache:
                cache.append(ref.residual_reference(x, y, theta, RESIDUAL_TS))
            ref.check_residual(op.artifact(), theta, cache[0])

        for t in RESIDUAL_TS:
            ops.append(_op(workdir, f"residual.{i}.t{t}", "residual",
                           {"x": ref.field_to_json(x), "y": ref.field_to_json(y),
                            "theta": theta, "t": t}, check))
    return ops


# ---------------------------------------------------------------------------
# steer: targets reachable by construction, given as closed-form CSV lifts

def _field_of(label: str, coeff="1"):
    kind, n = label[:3], int(label[3:])
    c0, cos, sin = _unit(kind, n)
    c = Fraction(coeff)
    return (c0, tuple(c * a for a in cos), tuple(c * b for b in sin))


# (name, word as (label, coefficient, duration), epsilon); the seed scales
# each duration of a seeded target by a factor in [0.9, 1.1].  The four
# rotations cost about the same, so the median operation latency is taken
# among them rather than at a single operation.
SEEDED_TARGETS = (
    ("rotation.p30", [("rot", "1", 0.3)], 1e-2),
    ("rotation.m20", [("rot", "1", -0.2)], 1e-2),
    ("rotation.p25", [("rot", "1", 0.25)], 1e-2),
    ("rotation.m25", [("rot", "1", -0.25)], 1e-2),
    ("word1", [("sin2", "1", 0.17)], 1e-2),
    ("word2", [("cos2", "1", 0.18), ("sin2", "1", 0.09)], 1e-2),
    ("word3", [("sin1", "1", -0.18), ("sin2", "1", -0.07), ("sin1", "1", 0.26)], 1e-2),
    ("word4", [("cos2", "1", 0.06), ("sin1", "1", 0.28), ("sin2", "1", 0.27),
               ("cos1", "1", 0.11)], 1e-2),
    ("mode3", [("cos3", "1/4", 0.097)], 1e-2),
)

# Reachable targets on which the planner stops early without converging:
# it ends silently after a rolled-back spectral sweep, a non-monotone
# residual lift or a greedy stall.  Inputs do not depend on the seed.
KEPT_FAULT = "planner stops early without converging (rolled-back sweep or greedy stall)"
KEPT_TARGETS = (
    ("kept.sin1-cos2", [("sin1", "1", 0.9), ("cos2", "1", 0.4)], 1e-2),
    ("kept.half-cos3", [("cos3", "1/2", 0.2)], 1e-2),
    ("kept.cos1-sin2.eps1e-3", [("cos1", "1", 0.4), ("sin2", "1", 0.3)], 1e-3),
    ("kept.quarter-cos4", [("cos4", "1/4", 0.3)], 1e-2),
)
BUDGET = 400


def _word_lift(word) -> np.ndarray:
    steps = [((Fraction(c), (), ()) if l == "rot" else _field_of(l, c), t) for l, c, t in word]
    return ref.replay(steps, GRID)


def _steer(rng, workdir: Path) -> list:
    ops = []
    targets = [(n, [(l, c, t * float(rng.uniform(0.9, 1.1))) for l, c, t in w], e, None)
               for n, w, e in SEEDED_TARGETS]
    targets += [(n, w, e, KEPT_FAULT) for n, w, e in KEPT_TARGETS]
    for name, word, eps, kept in targets:
        lift = _word_lift(word)
        csv = workdir / f"steer.{name}.target.csv"
        csv.write_text(ref.lift_csv(lift), encoding="utf-8")

        def check(op, lift=lift, eps=eps):
            return ref.check_steer(op.artifact(), op.trajectory.read_text(encoding="utf-8"),
                                   lift, eps, BUDGET)

        op = _op(workdir, f"steer.{name}", "steer",
                 {"target": {"kind": "csv", "path": str(csv)}, "grid": GRID}, check,
                 flags=["--epsilon", repr(eps), "--budget", str(BUDGET)],
                 trajectory=workdir / f"steer.{name}.trajectory.csv", kept=kept)
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# convex: separation, gauges, cones and Mackey prefixes

def _cloud(rng, count: int, dim: int, centre, radius: float) -> np.ndarray:
    x = rng.normal(size=(count, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.asarray(centre) + radius * x * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dim)


def _body_normals(rng, dim: int, extra: int, symmetric: bool) -> np.ndarray:
    """Box facets plus random unit normals: bounded, 0 inside, within the unit box."""
    h = rng.normal(size=(extra, dim))
    h /= np.linalg.norm(h, axis=1)[:, None]
    h = np.vstack([np.eye(dim), h * rng.uniform(0.5, 1.5, size=(extra, 1))])
    return np.vstack([h, -h]) if symmetric else np.vstack([h, -np.eye(dim)])


def _body_json(normals: np.ndarray) -> dict:
    return {"dim": int(normals.shape[1]), "halfspaces": normals.tolist()}


def _direction(rng, dim: int) -> np.ndarray:
    d = rng.normal(size=dim)
    return d / np.linalg.norm(d)


def _csv_points(path: Path, points: np.ndarray) -> dict:
    cols = ",".join(f"x{i}" for i in range(points.shape[1]))
    path.write_text(cols + "\n" + "\n".join(",".join(repr(float(v)) for v in row)
                                             for row in points) + "\n", encoding="utf-8")
    return {"csv": str(path)}


def _convex(rng, workdir: Path) -> list:
    ops = []
    # The 1500-point pair comes from a fixed seed: the number of Wolfe
    # iterations it takes decides whether one or two 18 MB temporaries
    # coexist, which moved peak_rss_mb by 18 MB from one draw to another.
    for count, draw in ((300, rng), (1500, np.random.default_rng([0, 1500]))):
        u = _direction(draw, 3)
        a = _cloud(draw, count, 3, -1.6 * u, 1.0)
        b = _cloud(draw, count, 3, 1.6 * u, 1.0)
        spec_a = _csv_points(workdir / f"separate.{count}.a.csv", a)
        spec_b = _csv_points(workdir / f"separate.{count}.b.csv", b)
        ops.append(_op(workdir, f"separate.clouds.{count}", "separate",
                       {"A": spec_a, "B": {"points": spec_b}},
                       lambda op, a=a, b=b: ref.check_separate(op.artifact(), a, b_points=b)))
    bodies = {dim: _body_normals(rng, dim, 4 * dim, symmetric=False) for dim in (3, 6)}
    # against a body in n = 3 only: Wolfe's algorithm in the program stalls
    # on some seeded n = 6 clouds (see FOUND in CHANGES.md)
    a = _cloud(rng, 300, 3, (math.sqrt(3) + 1.5) * _direction(rng, 3), 0.5)
    ops.append(_op(workdir, "separate.body.n3", "separate",
                   {"A": a.tolist(), "B": {"body": _body_json(bodies[3])}},
                   lambda op, a=a, n=bodies[3]: ref.check_separate(op.artifact(), a,
                                                                    b_normals=n)))
    for dim, normals in bodies.items():
        for i in range(3):
            x = rng.normal(size=dim) * 2.0
            ops.append(_op(workdir, f"minkowski.n{dim}.{i}", "minkowski",
                           {"body": _body_json(normals), "x": x.tolist()},
                           lambda op, n=normals, x=x: ref.check_minkowski(op.artifact(), n, x)))
    for count in (200, 2000):
        d = _body_normals(rng, 3, 6, symmetric=False)
        b = _cloud(rng, count, 3, np.zeros(3), 1.0)
        a1 = b[int(rng.integers(0, count))]
        x0 = 3.0 * _direction(rng, 3)
        ops.append(_op(workdir, f"cone.{count}", "cone",
                       {"B": b.tolist(), "a1": a1.tolist(), "x0": x0.tolist(),
                        "D": _body_json(d)},
                       lambda op, b=b, a1=a1, x0=x0, d=d:
                       ref.check_cone(op.artifact(), b, a1, x0, d)))
    m = _body_normals(rng, 3, 6, symmetric=True)
    u = _direction(rng, 3)
    ratio = float(rng.uniform(0.93, 0.97))
    prefixes = (("alternating", np.array([(-1.0) ** k * u for k in range(100)]), False),
                ("geometric", np.array([ratio ** k * u for k in range(400)]), True))
    for name, prefix, expect in prefixes:
        ops.append(_op(workdir, f"mackey.{name}", "mackey",
                       {"prefix": prefix.tolist(), "M": _body_json(m)},
                       lambda op, p=prefix, e=expect:
                       ref.check_mackey(op.artifact(), p, m, e)))
    return ops
