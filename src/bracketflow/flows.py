"""Flows of circle fields and sampled circle diffeomorphisms.

Diffeomorphisms are kept as monotone lifts sampled on a uniform grid;
lifts live on the real line, so monotonicity and sup distances are
well defined and there are no branch cuts.  ``flow_states`` advances a
batch of lift samples to one time, or to each of an array of times, one
row per time: a single-mode field c0 + a cos n theta + b sin n theta
flows in closed form (its span with 1 is a copy of sl(2, R), so its flow
is the n-fold lift of a Moebius map; the closed form is built once per
field instance and turns all the times together), and every other field
through an adaptive Dormand-Prince integrator that steps the whole batch
together, one time after another; a batch of one start steps as a Python
float, in math.cos/math.sin arithmetic with no numpy call per stage.
The float and array evaluators are also built once per field instance.
Either way a row is bitwise the one-time call, and repeated applications
of the same word are bitwise reproducible; ``apply_steps`` is the one loop
that applies a word.  A diffeomorphism is only ever known at its samples:
words compose and invert exactly (``FlowWord.concat``, ``FlowWord.inverse``)
and are replayed on any grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .trig_fields import TrigPoly

TWO_PI = 2.0 * math.pi

DEFAULT_GRID = 256
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    """Step-size underflow or a broken invariant after a flow step."""


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with batch max-norm error control

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
# The seventh stage is f(y_new) (first same as last), so its row of the
# tableau is these weights and its own weight is 0.
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_ERR = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)

_MAX_STEPS = 1_000_000


def _per_field(field: TrigPoly, name: str, build):
    """``build(field)``, built once per field instance and kept on it
    (TrigPoly hashes by value, so a dict cannot key it by instance)."""
    try:
        return field.__dict__[name]
    except KeyError:
        value = build(field)
        object.__setattr__(field, name, value)
        return value


def _rhs(field: TrigPoly, single: bool):
    """The field as a function of the state: an array of samples, or with
    ``single`` one Python float, evaluated with math.cos and math.sin and
    no numpy call (an infinite angle gives NaN, as np.cos does)."""
    v = field.trimmed()
    n = v.max_mode
    c0 = float(v.c0)
    if single:
        terms = [(float(k), float(a), float(b))
                 for k, a, b in zip(range(1, n + 1), v.cos_coeffs, v.sin_coeffs)]

        def f_single(y: float) -> float:
            cos_sum = sin_sum = 0.0
            try:
                for k, a, b in terms:
                    cos_sum += a * math.cos(k * y)
                    sin_sum += b * math.sin(k * y)
            except ValueError:  # math.cos(inf) raises
                return math.nan
            return c0 + cos_sum + sin_sum

        return f_single
    a = np.array([float(x) for x in v.cos_coeffs])
    b = np.array([float(x) for x in v.sin_coeffs])
    modes = np.arange(1, n + 1, dtype=float)

    def f(y: np.ndarray) -> np.ndarray:
        ang = np.multiply.outer(modes, y)
        return c0 + a @ np.cos(ang) + b @ np.sin(ang)

    return f


def _combine(coeffs: tuple, ks: list):
    """Sum of c * k over the nonzero coefficients, added in order, so one
    expression serves float and array states alike."""
    total = None
    for c, k in zip(coeffs, ks):
        if c:
            total = c * k if total is None else total + c * k
    return total


def _dormand_prince(field: TrigPoly, duration: float, y, rtol: float):
    """y(duration) by Dormand-Prince 5(4); raises IntegrationError, also
    at the first NaN error estimate (a NaN state), which no step size mends.

    The state is an array of samples, stepped together under their
    max-norm error, or a single start as a Python float, which steps in
    float arithmetic with no numpy call.
    """
    single = isinstance(y, float)
    f = _per_field(field, "_float_rhs" if single else "_array_rhs", lambda v: _rhs(v, single))
    direction = 1.0 if duration > 0 else -1.0
    t = 0.0
    h = direction * min(0.05, abs(duration) / 10.0)
    k1 = f(y)
    n_steps = 0
    while (duration - t) * direction > 0.0:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            raise IntegrationError("step budget exhausted")
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow")
        clipped = False
        if (t + h - duration) * direction > 0.0:
            h = duration - t
            clipped = True
        ks = [k1]
        for row in _DP_A[1:]:
            ks.append(f(y + h * _combine(row, ks)))
        y_new = y + h * _combine(_DP_B5, ks)
        ks.append(f(y_new))
        err_est = h * _combine(_DP_ERR, ks)
        if single:
            err = abs(err_est) / (DEFAULT_ATOL + rtol * max(abs(y), abs(y_new)))
        else:
            scale = DEFAULT_ATOL + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.max(np.abs(err_est) / scale))
        if math.isnan(err):
            raise IntegrationError("NaN error estimate")
        if err <= 1.0:
            t = duration if clipped else t + h
            y = y_new
            k1 = ks[6]  # FSAL
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return y


def _sl2_flow(field: TrigPoly):
    """Closed-form flow (times, y, single) -> rows y(t) of c0 + a cos n theta
    + b sin n theta, one row per time.

    Returns None when a mode below the top one is nonzero.  With
    phi = n theta / 2, the vector u = (cos phi, sin phi) follows the
    linear flow of M = (n/2) [[-b, a - c0], [a + c0, b]].  As M^2 =
    -det(M) I, exp(hM) = C(h) I + S(h) M: cos/sin if det M > 0,
    cosh/sinh if det M < 0 (divided by cosh, which keeps the direction
    of exp(hM) u), and I + hM if det M = 0; the sign of det M is taken
    from the exact coefficients.  The lift is the continuous angle of
    exp(hM) u0, summed over sub-steps on which phi turns by less than
    pi / 2, so arctan2 of successive vectors cannot skip a branch.
    cos/sin of u0 and M u0 are computed once for all the times; C and S
    are math scalars per time, and the times that take the same number
    of sub-steps turn together as one (times, samples) block.  A time
    past the step budget raises IntegrationError if it is the only one
    (``single``) and is a NaN row otherwise.
    """
    v = field.trimmed()
    if any(v.cos_coeffs[:-1]) or any(v.sin_coeffs[:-1]):
        return None
    c0 = float(v.c0)
    if v.max_mode == 0:
        return lambda times, y, single: y + c0 * np.array(times)[:, None]
    a, b = v.mode(v.max_mode)
    disc = v.c0 * v.c0 - a * a - b * b  # (2/n)^2 det M
    a, b = float(a), float(b)
    half = v.max_mode / 2.0
    rate = half * math.sqrt(abs(float(disc)))
    m11, m12, m21 = -half * b, half * (a - c0), half * (a + c0)
    turn_rate = half * (abs(c0) + math.hypot(a, b))  # bounds |dphi/dt|

    def coefficients(h: float) -> tuple[float, float]:
        if disc > 0:
            return math.cos(rate * h), math.sin(rate * h) / rate
        if disc < 0:
            return 1.0, math.tanh(rate * h) / rate
        return 1.0, h

    def flow(times: list, y: np.ndarray, single: bool) -> np.ndarray:
        groups: dict[int, list[int]] = {}
        for i, t in enumerate(times):
            groups.setdefault(int(turn_rate * abs(t) / (math.pi / 2)) + 1, []).append(i)
        ux, uy = np.cos(half * y), np.sin(half * y)
        mx, my = m11 * ux + m12 * uy, m21 * ux - m11 * uy
        rows = np.empty((len(times), y.size))
        for substeps, index in groups.items():
            if substeps > _MAX_STEPS:
                if single:
                    raise IntegrationError("step budget exhausted")
                rows[index] = np.nan
                continue
            px, py, turn = ux, uy, 0.0
            for k in range(1, substeps + 1):
                cs = [coefficients(times[i] * (k / substeps)) for i in index]
                # a lone time keeps C and S scalar: multiplying by a (1, 1)
                # column costs twice as much
                c, s = cs[0] if len(cs) == 1 else np.array(cs).T[:, :, None]
                qx, qy = c * ux + s * mx, c * uy + s * my
                turn = turn + np.arctan2(px * qy - py * qx, px * qx + py * qy)
                px, py = qx, qy
            if len(groups) == 1:  # skip the copy into rows
                return (y + turn / half).reshape(rows.shape)
            rows[index] = y + turn / half
        return rows

    return flow


def flow_states(field: TrigPoly, duration, y0: np.ndarray, *,
                rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Flow dy/ds = v(y) from 0 to duration for a 1-d batch of starts.

    ``duration`` is a number, or a 1-d array of durations from the same
    starts; an array gives one row per duration, each bitwise equal to
    the call with that duration alone.  A single-mode field c0 + a cos n
    theta + b sin n theta flows in closed form and ``rtol`` is not used;
    every other field goes through adaptive Dormand-Prince with absolute
    tolerance DEFAULT_ATOL, one duration at a time, and a single start
    steps as a Python float rather than a one-element array.  Past the step
    budget, or on Dormand-Prince step-size underflow or a NaN state, a number
    raises IntegrationError and an array gives that duration a NaN row.  An
    ``rtol`` that is negative or not finite raises ValueError.
    """
    if not 0 <= rtol < math.inf:
        raise ValueError("rtol must be finite and >= 0")
    times = np.asarray(duration, dtype=float)
    if times.ndim > 1:
        raise ValueError("duration must be a number or a 1-d array")
    single = times.ndim == 0
    times = times.ravel().tolist()
    if not all(map(math.isfinite, times)):
        raise ValueError("duration must be finite")
    y = np.array(y0, dtype=float)
    exact = _per_field(field, "_sl2_flow", _sl2_flow)
    if exact is not None:
        rows = exact(times, y, single)
    else:
        rows = np.empty((len(times), y.size))
        start = float(y[0]) if y.size == 1 else y
        for i, t in enumerate(times):
            try:
                rows[i] = _dormand_prince(field, t, start, rtol)
            except IntegrationError:
                if single:
                    raise
                rows[i] = np.nan
    if 0.0 in times:  # a zero duration returns the starts as they are
        rows[[i for i, t in enumerate(times) if t == 0.0]] = y
    return rows[0] if single else rows


def apply_steps(steps: Iterable[tuple[TrigPoly, float]], lift: np.ndarray, *,
                rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Advance lift samples through each (field, duration) step in order.

    Flows of smooth fields preserve monotone lifts, so a violation after
    a step means the tolerance was breached and is raised as
    IntegrationError rather than silently accepted.
    """
    for field, t in steps:
        lift = flow_states(field, t, lift, rtol=rtol)
        if not is_monotone_lift(lift):
            raise IntegrationError("flow step broke lift monotonicity")
    return lift


def integrate_flow(field: TrigPoly, t: float, theta0: float, *,
                   rtol: float = DEFAULT_RTOL) -> float:
    """Lift value theta(t) of the flow of ``field`` started at theta0."""
    return float(flow_states(field, t, np.array([theta0], dtype=float), rtol=rtol)[0])


# ---------------------------------------------------------------------------
# monotone lifts

def grid_angles(m: int) -> np.ndarray:
    """The m sample angles theta_i = 2 pi i / m."""
    return TWO_PI * np.arange(m) / m


def is_monotone_lift(lift: np.ndarray):
    """Strictly increasing samples, also across the wrap to lift[0] + 2 pi.

    A 2-d array is checked row by row, giving a boolean per row; a row
    with a NaN is not monotone.
    """
    ok = (lift[..., 1:] > lift[..., :-1]).all(-1) & (lift[..., -1] < lift[..., 0] + TWO_PI)
    return ok if ok.ndim else bool(ok)


# ---------------------------------------------------------------------------
# sampled circle diffeomorphisms

@dataclass(frozen=True, eq=False)
class CircleDiffeo:
    """Orientation-preserving circle diffeomorphism as a sampled lift.

    ``lift[i]`` is the lift value at theta_i = 2 pi i / m.  Strict
    monotonicity across the samples and across the wrap (lift[m-1] <
    lift[0] + 2 pi) is enforced at construction.
    """

    lift: np.ndarray

    def __post_init__(self):
        arr = np.array(self.lift, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "lift", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("lift must be a 1-d array with at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("lift values must be finite")
        if not is_monotone_lift(arr):
            raise ValueError("lift must be strictly monotone over one period")

    @property
    def grid_size(self) -> int:
        return int(self.lift.size)

    @property
    def thetas(self) -> np.ndarray:
        return grid_angles(self.grid_size)

    @staticmethod
    def identity(grid_size: int = DEFAULT_GRID) -> "CircleDiffeo":
        return CircleDiffeo(grid_angles(grid_size))

    @staticmethod
    def rotation(angle: float, grid_size: int = DEFAULT_GRID) -> "CircleDiffeo":
        return CircleDiffeo(grid_angles(grid_size) + angle)

    def to_csv(self) -> str:
        lines = ["theta,lift"]
        for th, lf in zip(self.thetas, self.lift):
            lines.append(f"{float(th)!r},{float(lf)!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "CircleDiffeo":
        rows = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("theta")]
        lift = np.array([float(r.split(",")[1]) for r in rows])
        return CircleDiffeo(lift)


# ---------------------------------------------------------------------------
# flow words

@dataclass(frozen=True)
class FlowWord:
    """Finite sequence of (field, duration) steps, applied in list order."""

    steps: tuple[tuple[TrigPoly, float], ...]

    def __post_init__(self):
        for _, t in self.steps:
            if not math.isfinite(t):
                raise ValueError("durations must be finite")

    @staticmethod
    def of(steps: Iterable[tuple[TrigPoly, float]]) -> "FlowWord":
        return FlowWord(tuple((f, float(t)) for f, t in steps))

    def __len__(self) -> int:
        return len(self.steps)

    def concat(self, other: "FlowWord") -> "FlowWord":
        return FlowWord(self.steps + other.steps)

    def inverse(self) -> "FlowWord":
        return FlowWord(tuple((f, -t) for f, t in reversed(self.steps)))

    def to_json_list(self) -> list:
        return [{"field": f.to_json_dict(), "t": t} for f, t in self.steps]

    @staticmethod
    def from_json_list(data: list) -> "FlowWord":
        """The word of ``to_json_list``.  A step without an inline ``field``,
        or whose ``t`` is a JSON ``true``/``false``, raises ``ValueError``."""
        steps = []
        for entry in data:
            if "field" not in entry:
                raise ValueError("word step needs an inline field")
            t = entry["t"]
            if isinstance(t, bool):
                raise ValueError(f"word step duration must be a number, not {t!r}")
            steps.append((TrigPoly.from_json_dict(entry["field"]), float(t)))
        return FlowWord.of(steps)


def apply_word(word: FlowWord, phi: CircleDiffeo, *,
               rtol: float = DEFAULT_RTOL) -> CircleDiffeo:
    """Advance every lift sample of phi through each step of the word.

    Each step post-composes the flow of its field with the current
    diffeomorphism; see ``apply_steps``.
    """
    return CircleDiffeo(apply_steps(word.steps, phi.lift, rtol=rtol))


def commutator_word(x: TrigPoly, y: TrigPoly, s: float) -> FlowWord:
    """Four-step loop whose net displacement approximates s^2 [x, y].

    Steps run in list order: y backward, x backward, y forward, x
    forward.  With the right-translation bracket convention of
    ``trig_fields.bracket``, the second-order term of this loop is the
    bracket itself (the reversed order would flip its sign).
    """
    return FlowWord.of([(y, -s), (x, -s), (y, s), (x, s)])


def commutator_flow_residual(x: TrigPoly, y: TrigPoly, theta: float, t: float, *,
                             rtol: float = DEFAULT_RTOL) -> float:
    """(loop(theta) - theta) / t^2 for the commutator loop at scale t.

    A theta that is not finite raises ValueError before any flow.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if t == 0:
        raise ValueError("t must be nonzero")
    state = apply_steps(commutator_word(x, y, t).steps, np.array([theta], dtype=float),
                        rtol=rtol)
    return float((state[0] - theta) / (t * t))
