"""Computations made apart from bracketflow, and the artifact checks built on them.

Nothing here imports the package under test.  Fields are read from the JSON
form the CLI writes (``{"c0": "p/q", "cos": [...], "sin": [...]}``) and every
check raises ``CheckFailed`` with a reason when an artifact is wrong.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckFailed(AssertionError):
    """An artifact disagrees with the independent computation."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# exact fields: (c0, cos tuple, sin tuple) of Fractions, trailing zeros trimmed

def field_from_json(data: dict):
    c0 = Fraction(data.get("c0", 0))
    cos = [Fraction(a) for a in data.get("cos", ())]
    sin = [Fraction(b) for b in data.get("sin", ())]
    n = max(len(cos), len(sin))
    cos += [Fraction(0)] * (n - len(cos))
    sin += [Fraction(0)] * (n - len(sin))
    while n and cos[n - 1] == 0 and sin[n - 1] == 0:
        n -= 1
    return c0, tuple(cos[:n]), tuple(sin[:n])


def field_to_json(field) -> dict:
    c0, cos, sin = field
    return {"c0": str(c0), "cos": [str(a) for a in cos], "sin": [str(b) for b in sin]}


def field_mode(field) -> int:
    return len(field[1])


def is_zero_field(field) -> bool:
    return field[0] == 0 and not field[1]


def _scaled_modes(field):
    """(d, g) with g[k] = 2 d f_k, a Gaussian integer (re, im), where
    v = sum_k f_k e^{ik theta} and d is the common denominator of v."""
    c0, cos, sin = field
    d = math.lcm(*(x.denominator for x in (c0, *cos, *sin)))
    g = {0: (int(2 * d * c0), 0)} if c0 else {}
    for n, (a, b) in enumerate(zip(cos, sin), start=1):
        if a or b:
            g[n] = (int(d * a), -int(d * b))
            g[-n] = (int(d * a), int(d * b))
    return d, g


def mode_law_bracket(v, w):
    """[v, w] = (v'w - w'v) d/dtheta through [e_k, e_l] = i(k - l) e_{k+l}.

    The sum runs over Gaussian integers scaled by 4 d_v d_w and is divided
    back at the end, so the result is exact."""
    dv, gv = _scaled_modes(v)
    dw, gw = _scaled_modes(w)
    out: dict = {}
    for k, (vr, vi) in gv.items():
        for l, (wr, wi) in gw.items():
            if k != l:
                c = k - l  # i c (vr + i vi)(wr + i wi)
                acc = out.setdefault(k + l, [0, 0])
                acc[0] -= c * (vr * wi + vi * wr)
                acc[1] += c * (vr * wr - vi * wi)
    scale = 4 * dv * dw
    top = max((k for k, (re, im) in out.items() if re or im), default=0)
    zero = (0, 0)
    return (Fraction(out.get(0, zero)[0], scale),
            tuple(Fraction(2 * out.get(n, zero)[0], scale) for n in range(1, top + 1)),
            tuple(Fraction(-2 * out.get(n, zero)[1], scale) for n in range(1, top + 1)))


def coefficient_vector(field, cap: int) -> list:
    c0, cos, sin = field
    pad = [Fraction(0)] * (cap - len(cos))
    return [c0, *cos, *pad, *sin, *pad]


def field_value(field, theta: float) -> float:
    c0, cos, sin = field
    n = np.arange(1, len(cos) + 1)
    return float(c0) + float(np.dot([float(a) for a in cos], np.cos(n * theta))) \
        + float(np.dot([float(b) for b in sin], np.sin(n * theta)))


def field_rhs(field):
    c0, cos, sin = field
    a = np.array([float(x) for x in cos])
    b = np.array([float(x) for x in sin])
    n = np.arange(1, len(cos) + 1, dtype=float)
    return lambda y: float(c0) + a @ np.cos(np.multiply.outer(n, y)) + \
        b @ np.sin(np.multiply.outer(n, y))


# ---------------------------------------------------------------------------
# flows: closed form for c0 + c cos(n theta) or c sin(n theta), else solve_ivp

def single_mode(field):
    """(kind, n, c) for a rotation or a one-term mode-n field, else None."""
    c0, cos, sin = field
    terms = [("cos", n, a) for n, a in enumerate(cos, 1) if a] + \
        [("sin", n, b) for n, b in enumerate(sin, 1) if b]
    if not terms:
        return ("rot", 0, c0)
    if c0 == 0 and len(terms) == 1:
        return terms[0]
    return None


def flow(field, t: float, lift: np.ndarray) -> np.ndarray:
    """Time-t flow of the field applied to every lift sample."""
    lift = np.asarray(lift, dtype=float)
    form = single_mode(field)
    if form is None:
        return _flow_ivp(field, t, lift)
    kind, n, c = form
    c = float(c)
    if kind == "rot":
        return lift + c * t
    # with psi = n theta (+ pi/2 for cos) the equation is psi' = n c sin psi,
    # solved by tan(psi/2) = tan(psi0/2) e^{n c t} on each branch between zeros
    shift = 0.5 * math.pi if kind == "cos" else 0.0
    psi = n * lift + shift
    k = np.floor((psi + math.pi) / TWO_PI)
    r = psi - TWO_PI * k
    moved = 2.0 * np.arctan(np.tan(0.5 * r) * math.exp(n * c * t))
    moved = np.where(r == -math.pi, r, moved)
    return (TWO_PI * k + moved - shift) / n


def _flow_ivp(field, t: float, lift: np.ndarray) -> np.ndarray:
    from scipy.integrate import solve_ivp
    if t == 0.0:
        return lift.copy()
    f = field_rhs(field)
    sol = solve_ivp(lambda _, y: f(y), (0.0, t), lift, method="DOP853",
                    rtol=1e-13, atol=1e-13)
    require(sol.success, f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def replay(steps, grid: int) -> np.ndarray:
    lift = TWO_PI * np.arange(grid) / grid
    for field, t in steps:
        lift = flow(field, t, lift)
    return lift


def lift_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup distance of two lifts, minimized over whole-period shifts."""
    delta = np.asarray(a) - np.asarray(b)
    k0 = round(0.5 * (delta.max() + delta.min()) / TWO_PI)
    return min(float(np.abs(delta - TWO_PI * k).max()) for k in (k0 - 1, k0, k0 + 1))


def loop_residual(x, y, theta: float, t: float) -> float:
    """(loop(theta) - theta)/t^2 for the loop y(-t), x(-t), y(t), x(t)."""
    state = np.array([theta])
    for field, dt in ((y, -t), (x, -t), (y, t), (x, t)):
        state = _flow_ivp(field, dt, state)
    return float((state[0] - theta) / (t * t))


def lift_csv(lift: np.ndarray) -> str:
    grid = lift.size
    rows = ["theta,lift"]
    rows += [f"{TWO_PI * i / grid!r},{float(v)!r}" for i, v in enumerate(lift)]
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# checks, one per operation kind

def check_bracket(artifact: dict, v, w):
    got = field_from_json(artifact["bracket"])
    require(got == mode_law_bracket(v, w), "bracket differs from the mode-law reference")


def _qq_matrix(rows: list, width: int):
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                        (len(rows), width), QQ)


def check_closure(artifact: dict, labels, fields, cap: int, expected_rank=None):
    require(artifact["cap"] == cap, "cap not echoed")
    require(artifact["fixed_point"] is True, "closure did not reach a fixed point")
    gen = artifact["generated"]
    gfields = [field_from_json(g["field"]) for g in gen]
    require([g["label"] for g in gen[:len(fields)]] == list(labels),
            "seeds missing from the generated list")
    for g, f in zip(gen, gfields):
        require(field_mode(f) <= cap, f"{g['label']} exceeds the cap")
        if g["parents"] is None:
            require(f == fields[list(labels).index(g["label"])], "seed field altered")
            require(g["depth"] == 1, "seed depth is not 1")
            continue
        i, j = g["parents"]
        require(0 <= i < j < len(gen), "parents out of order")
        pi, pj = gen[i], gen[j]
        require(g["label"] == f"[{pi['label']},{pj['label']}]", "label breaks provenance")
        require(g["depth"] == pi["depth"] + pj["depth"], "depth breaks provenance")
        require(f == mode_law_bracket(gfields[i], gfields[j]),
                f"{g['label']} is not the bracket of its parents")
    width = 2 * cap + 1
    vectors = [coefficient_vector(f, cap) for f in gfields]
    rref, pivots = _qq_matrix(vectors, width).rref()
    require(len(pivots) == len(gfields) == artifact["rank"],
            f"generated fields are not independent (sympy rank {len(pivots)}, "
            f"{len(gfields)} fields, reported rank {artifact['rank']})")
    in_cap = [coefficient_vector(w, cap) for j in range(len(gfields)) for i in range(j)
              for w in [mode_law_bracket(gfields[i], gfields[j])]
              if field_mode(w) <= cap and not is_zero_field(w)]
    require(_qq_matrix(vectors + in_cap, width).rank() == len(pivots),
            "a bracket of generated fields leaves their span")
    # a unit vector lies in the row space iff its column has a pivot whose
    # reduced row is that unit vector
    rows = rref.to_Matrix()
    units = {p for r, p in enumerate(pivots)
             if all(rows[r, c] == (c == p) for c in range(width))}
    spanned = [m for m in range(cap + 1)
               if all(i in units for i in ((0,) if m == 0 else (m, cap + m)))]
    require(artifact["spanned_modes"] == spanned, "spanned modes misreported")
    require(artifact["spanning"] == (len(spanned) == cap + 1), "spanning flag misreported")
    if expected_rank is not None:
        require(artifact["rank"] == expected_rank,
                f"rank {artifact['rank']}, expected {expected_rank}")


def residual_reference(x, y, theta: float, ts) -> tuple:
    """Bracket value at theta and the reference loop residual at each t."""
    return (field_value(mode_law_bracket(x, y), theta),
            {t: loop_residual(x, y, theta, t) for t in ts})


def check_residual(artifact: dict, theta: float, reference: tuple):
    """Within O(t) of the bracket value, and equal to the reference loop.

    The O(t) constant is twice the largest |residual - bracket| / t of the
    reference loops; the loop comparison allows 1e-9 / t^2, the integrator
    tolerance seen through the division by t^2."""
    b, loops = reference
    t = artifact["t"]
    require(artifact["theta"] == theta and t in loops, "theta or t not echoed")
    require(abs(artifact["bracket_value"] - b) <= 1e-12 * max(1.0, abs(b)),
            "bracket value differs from the mode-law reference")
    slope = 2.0 * max(abs(r - b) / s for s, r in loops.items())
    res = artifact["residual"]
    require(abs(res - b) <= slope * t,
            f"residual {res!r} is not within {slope * t:.3g} of the bracket {b!r}")
    require(abs(res - loops[t]) <= 1e-9 / (t * t),
            f"residual {res!r} differs from the reference loop {loops[t]!r}")


def check_steer(artifact: dict, trajectory: str, target: np.ndarray,
                epsilon: float, budget: int):
    """Replay the word apart from the program; returns True when converged."""
    word = [(field_from_json(s["field"]), float(s["t"])) for s in artifact["word"]]
    err = artifact["achieved_error"]
    replayed = lift_distance(replay(word, target.size), target)
    require(abs(replayed - err) <= 1e-6,
            f"replayed error {replayed!r} disagrees with achieved_error {err!r}")
    require(artifact["converged"] == (err <= epsilon), "converged flag contradicts the error")
    require(len(word) <= budget, "word exceeds the budget")
    require(len(artifact["trace"]) == len(word), "trace length differs from the word length")
    rows = trajectory.strip().splitlines()
    require(rows[0] == "step,distance" and len(rows) - 1 == len(word),
            "trajectory length differs from the word length")
    require([float(r.split(",")[1]) for r in rows[1:]] == artifact["trace"],
            "trajectory differs from the trace")
    return artifact["converged"]


def check_minkowski(artifact: dict, normals: np.ndarray, x: np.ndarray):
    want = max(0.0, float(np.max(normals @ x)))
    require(abs(artifact["value"] - want) <= 1e-12 * max(1.0, want), "gauge value is wrong")


def _body_min(normals: np.ndarray, ell: np.ndarray) -> float:
    from scipy.optimize import linprog
    res = linprog(ell, A_ub=normals, b_ub=np.ones(len(normals)),
                  bounds=[(None, None)] * ell.size, method="highs")
    require(res.status == 0, "reference LP failed")
    return float(res.fun)


def check_separate(artifact: dict, a: np.ndarray, b_points=None, b_normals=None,
                   tol: float = 1e-6):
    ell = np.array(artifact["functional"])
    alpha, beta = artifact["alpha"], artifact["beta"]
    scale = max(1.0, abs(alpha), abs(beta))
    require(abs(float(np.max(a @ ell)) - alpha) <= 1e-9 * scale, "alpha is not max ell(A)")
    if b_points is not None:
        beta_ref = float(np.min(b_points @ ell))
    else:
        beta_ref = _body_min(b_normals, ell)
    require(abs(beta_ref - beta) <= 1e-7 * scale, "beta is not min ell(B)")
    require(alpha < beta, "alpha is not below beta")
    require(beta - alpha >= float(ell @ ell) * (1.0 - tol),
            "gap below |ell|^2: not the minimum-distance functional")


def _feasible(c: np.ndarray, g: np.ndarray, rho: float, s_min: float, tol: float):
    """Rows of g for which some s >= s_min has c + s g <= rho + tol everywhere."""
    bound = rho + tol - c
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bound[None, :] / g
    hi = np.where(g > 1e-300, ratio, np.inf).min(axis=1)
    lo = np.maximum(s_min, np.where(g < -1e-300, ratio, -np.inf).max(axis=1))
    flat_ok = np.all((np.abs(g) > 1e-300) | (bound[None, :] >= 0), axis=1)
    return (lo <= hi) & flat_ok


def check_cone(artifact: dict, b: np.ndarray, a1: np.ndarray, x0: np.ndarray,
               d_normals: np.ndarray, tol: float = 1e-9):
    n_sym = np.vstack([d_normals, -d_normals])
    require(np.array_equal(np.array(artifact["body"]["halfspaces"]), n_sym),
            "gauge body is not the symmetrization of D")
    vertex = np.array(artifact["vertex"])
    require(np.any(np.all(b == vertex, axis=1)), "vertex is not a point of B")
    require(artifact["a1"] == a1.tolist() and artifact["x0"] == x0.tolist(), "seeds not echoed")
    alpha = 0.5 * float(np.maximum(0.0, (b - x0) @ n_sym.T).max(axis=1).min())
    require(abs(artifact["alpha"] - alpha) <= 1e-12 * max(1.0, alpha), "alpha is wrong")
    axis, eps = np.array(artifact["axis"]), artifact["epsilon"]
    others = b[np.any(b != vertex, axis=1)]
    in_cone = _feasible(n_sym @ (a1 - x0), (others - vertex) @ n_sym.T, alpha / 4.0, 1e-12, tol)
    centre = x0 + eps * axis
    pts = np.vstack([vertex, others])
    near = np.linalg.norm(pts - a1, axis=1) <= 1e-12
    in_nbhd = near | _feasible(n_sym @ (a1 - centre), (pts - a1) @ n_sym.T, alpha / 3.0, 1.0, tol)
    require(in_nbhd[0], "vertex lies outside its neighborhood")
    require(not np.any(in_cone & in_nbhd[1:]),
            "another point of B lies in the cone and neighborhood")


def check_mackey(artifact: dict, prefix: np.ndarray, normals: np.ndarray, expect: bool):
    diffs = prefix[:, None, :] - prefix[None, :, :]
    mu = np.maximum(0.0, (diffs @ normals.T).max(axis=2))
    np.fill_diagonal(mu, 0.0)
    got = np.array(artifact["mu"])
    require(np.allclose(got, mu, rtol=1e-12, atol=1e-300), "pairwise gauges are wrong")
    tail = np.maximum.accumulate(np.triu(mu).max(axis=1)[::-1])[::-1]
    require(np.allclose(artifact["tail_max"], tail, rtol=1e-12, atol=1e-300),
            "tail maxima are wrong")
    ok = True
    for before, after in zip(tail, tail[1:]):
        if before == 0.0:
            break
        if not after < before:
            ok = False
            break
    require(artifact["is_cauchy_prefix"] == ok, "verdict contradicts the tail maxima")
    require(ok == expect, f"prefix verdict {ok}, expected {expect}")
