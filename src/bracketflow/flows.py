"""Flows of circle fields and sampled circle diffeomorphisms.

Diffeomorphisms are kept as monotone lifts sampled on a uniform grid;
lifts live on the real line, so monotonicity and sup distances are
well defined and there are no branch cuts.  ``flow_states`` advances a
batch of lift samples to one time: a single-mode field c0 + a cos n
theta + b sin n theta flows in closed form (its span with 1 is a copy
of sl(2, R), so its flow is the n-fold lift of a Moebius map; the
closed form is built once per field instance), and every other field
through an adaptive Dormand-Prince integrator that steps the whole
batch together.  Either way repeated applications of the same word are
bitwise reproducible; ``apply_steps`` is the one loop that applies a
word.  Between samples a lift is the trigonometric interpolant of its
displacement, spectrally accurate for smooth diffeomorphisms.  It is
evaluated from a power table of exp(i x): for m queries and K modes,
O(m K) multiplies and one complex exp per query.  Its Newton inverse
converges or raises ValueError.
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

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)

_MAX_STEPS = 1_000_000


def _rhs(field: TrigPoly):
    v = field.trimmed()
    n = v.max_mode
    c0 = float(v.c0)
    a = np.array([float(x) for x in v.cos_coeffs])
    b = np.array([float(x) for x in v.sin_coeffs])
    modes = np.arange(1, n + 1, dtype=float)

    def f(y: np.ndarray) -> np.ndarray:
        ang = np.multiply.outer(modes, y)
        return c0 + a @ np.cos(ang) + b @ np.sin(ang)

    return f


def _sl2_flow(field: TrigPoly):
    """Closed-form flow (t, y) -> y(t) of c0 + a cos n theta + b sin n theta.

    Returns None when a mode below the top one is nonzero.  With
    phi = n theta / 2, the vector u = (cos phi, sin phi) follows the
    linear flow of M = (n/2) [[-b, a - c0], [a + c0, b]].  As M^2 =
    -det(M) I, exp(hM) = C(h) I + S(h) M: cos/sin if det M > 0,
    cosh/sinh if det M < 0 (divided by cosh, which keeps the direction
    of exp(hM) u), and I + hM if det M = 0; the sign of det M is taken
    from the exact coefficients.  The lift is the continuous angle of
    exp(hM) u0, summed over sub-steps on which phi turns by less than
    pi / 2, so arctan2 of successive vectors cannot skip a branch.
    """
    v = field.trimmed()
    if any(v.cos_coeffs[:-1]) or any(v.sin_coeffs[:-1]):
        return None
    c0 = float(v.c0)
    if v.max_mode == 0:
        return lambda t, y: y + c0 * t
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

    def flow(t: float, y: np.ndarray) -> np.ndarray:
        substeps = int(turn_rate * abs(t) / (math.pi / 2)) + 1
        if substeps > _MAX_STEPS:
            raise IntegrationError("step budget exhausted")
        ux, uy = np.cos(half * y), np.sin(half * y)
        mx, my = m11 * ux + m12 * uy, m21 * ux - m11 * uy
        px, py = ux, uy
        turn = np.zeros_like(y)
        for k in range(1, substeps + 1):
            c, s = coefficients(t * (k / substeps))
            qx, qy = c * ux + s * mx, c * uy + s * my
            turn += np.arctan2(px * qy - py * qx, px * qx + py * qy)
            px, py = qx, qy
        return y + turn / half

    return flow


def flow_states(field: TrigPoly, duration: float, y0: np.ndarray, *,
                rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Flow dy/ds = v(y) from 0 to duration for a batch of starts.

    A single-mode field c0 + a cos n theta + b sin n theta flows in
    closed form and ``rtol`` is not used; every other field goes
    through adaptive Dormand-Prince with absolute tolerance
    DEFAULT_ATOL.  Raises IntegrationError when either runs past the
    step budget, or on Dormand-Prince step-size underflow.
    """
    if not math.isfinite(duration):
        raise ValueError("duration must be finite")
    y = np.array(y0, dtype=float)
    if duration == 0.0:
        return y
    try:
        exact = field.__dict__["_sl2_flow"]
    except KeyError:  # built once; TrigPoly hashes by value, so not in a dict
        exact = _sl2_flow(field)
        object.__setattr__(field, "_sl2_flow", exact)
    if exact is not None:
        return exact(duration, y)

    f = _rhs(field)
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
        for i in range(1, 7):
            yi = y + h * sum(c * k for c, k in zip(_DP_A[i], ks))
            ks.append(f(yi))
        y_new = y + h * sum(c * k for c, k in zip(_DP_B5, ks) if c)
        err_vec = h * sum(c * k for c, k in zip(_DP_ERR, ks) if c)
        scale = DEFAULT_ATOL + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(np.abs(err_vec) / scale))
        if err <= 1.0:
            t = duration if clipped else t + h
            y = y_new
            k1 = ks[6]  # FSAL
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return y


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
# monotone lifts and their trigonometric interpolant

def grid_angles(m: int) -> np.ndarray:
    """The m sample angles theta_i = 2 pi i / m."""
    return TWO_PI * np.arange(m) / m


def is_monotone_lift(lift: np.ndarray) -> bool:
    """Strictly increasing samples, also across the wrap to lift[0] + 2 pi."""
    return bool(np.all(np.diff(lift) > 0) and lift[-1] < lift[0] + TWO_PI)


def _displacement_spectrum(lift: np.ndarray) -> np.ndarray:
    m = lift.size
    return np.fft.rfft(lift - grid_angles(m))


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """Rows w^0, ..., w^(count - 1), by repeated multiplication."""
    out = np.empty((count, w.size), dtype=complex)
    out[0] = 1.0
    for j in range(1, count):
        np.multiply(out[j - 1], w, out=out[j])
    return out


def _eval_spectrum(spec: np.ndarray, m: int, queries: np.ndarray) -> np.ndarray:
    """Displacement interpolant at arbitrary angles, plus the angles.

    The interpolant is Re sum_k c_k z^k with z = exp(i x), for the
    scaled rfft coefficients c_k (1/m at k = 0 and at the even-m Nyquist
    mode, 2/m elsewhere).  With B = ceil(sqrt(K + 1)) and L = ceil((K +
    1) / B), the coefficients reshaped to an L x B matrix C give the sum
    as sum_l (z^B)^l (C @ [z^0, ..., z^(B-1)])_l: one complex exp per
    query and O(K) multiplies, with no argument k x to round.
    """
    n = spec.size
    factors = np.full(n, 2.0 / m)
    factors[0] = 1.0 / m
    if m % 2 == 0 and n - 1 == m // 2:
        factors[-1] = 1.0 / m
    baby_size = math.isqrt(n - 1) + 1
    giant_size = -(-n // baby_size)
    coeffs = np.zeros(giant_size * baby_size, dtype=complex)
    coeffs[:n] = factors * spec
    z = np.exp(1j * queries)
    baby = _powers(z, baby_size)
    giant = _powers(baby[-1] * z, giant_size)
    partial = coeffs.reshape(giant_size, baby_size) @ baby
    return queries + (giant * partial).sum(axis=0).real


def eval_lift(lift: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Interpolated lift at 1-d query angles (any real values)."""
    return _eval_spectrum(_displacement_spectrum(lift), lift.size, queries)


def invert_lift(lift: np.ndarray) -> np.ndarray:
    """Grid samples of the inverse lift, by Newton on the interpolant.

    Newton starts from 2 theta - lift (the displacement inverted to first
    order) and, if that does not converge, once more from the
    piecewise-linear inverse of the samples.  Raises ValueError if
    neither start brings the residual below 1e-13.
    """
    m = lift.size
    thetas = grid_angles(m)
    spec = _displacement_spectrum(lift)
    dspec = spec * 1j * np.arange(spec.size)  # derivative of the displacement
    linear = thetas + np.interp(thetas, lift, thetas - lift, period=TWO_PI)
    for x in (2.0 * thetas - lift, linear):
        for _ in range(60):
            fx = _eval_spectrum(spec, m, x) - thetas
            slope = 1.0 + (_eval_spectrum(dspec, m, x) - x)
            x = x - fx / np.maximum(slope, 0.05)
            if float(np.max(np.abs(fx))) < 1e-13:
                return x
    raise ValueError("inverse lift did not converge")


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

    def displacement(self) -> np.ndarray:
        return self.lift - self.thetas

    def __call__(self, x) -> np.ndarray:
        """Evaluate the lift at arbitrary points (vectorized, periodic)."""
        x = np.asarray(x, dtype=float)
        return eval_lift(self.lift, x.ravel()).reshape(x.shape)

    def compose(self, inner: "CircleDiffeo") -> "CircleDiffeo":
        """self after inner: the diffeomorphism theta -> self(inner(theta))."""
        if inner.grid_size != self.grid_size:
            raise ValueError("grid mismatch")
        return CircleDiffeo(self(inner.lift))

    def inverse(self) -> "CircleDiffeo":
        """Inverse diffeomorphism, sampled on the same grid; raises
        ValueError if Newton on the interpolant does not converge."""
        return CircleDiffeo(invert_lift(self.lift))

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
    def from_json_list(data: list, resolve_label=None) -> "FlowWord":
        steps = []
        for entry in data:
            if "field" in entry:
                f = TrigPoly.from_json_dict(entry["field"])
            elif "label" in entry and resolve_label is not None:
                f = resolve_label(entry["label"])
            else:
                raise ValueError("word step needs an inline field or a resolvable label")
            steps.append((f, float(entry["t"])))
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
    """(loop(theta) - theta) / t^2 for the commutator loop at scale t."""
    if t == 0:
        raise ValueError("t must be nonzero")
    state = apply_steps(commutator_word(x, y, t).steps, np.array([theta], dtype=float),
                        rtol=rtol)
    return float((state[0] - theta) / (t * t))
