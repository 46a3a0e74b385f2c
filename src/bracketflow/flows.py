"""Flows of circle fields and sampled circle diffeomorphisms.

Diffeomorphisms are kept as monotone lifts sampled on a uniform grid;
lifts live on the real line, so monotonicity and sup distances are
well defined and there are no branch cuts.  Flows advance every lift
sample through an adaptive Dormand-Prince integrator that steps the
whole sample batch together, which keeps repeated applications of the
same word bitwise reproducible; ``apply_steps`` is the one loop that
does so.  Between samples a lift is the trigonometric interpolant of its
displacement, spectrally accurate for smooth diffeomorphisms, and its
Newton inverse converges or raises ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
    if n == 0:
        return lambda y: np.full_like(y, c0)
    a = np.array([float(x) for x in v.cos_coeffs])
    b = np.array([float(x) for x in v.sin_coeffs])
    modes = np.arange(1, n + 1, dtype=float)

    def f(y: np.ndarray) -> np.ndarray:
        ang = np.multiply.outer(modes, y)
        return c0 + a @ np.cos(ang) + b @ np.sin(ang)

    return f


def flow_states(field: TrigPoly, duration: float, y0: np.ndarray, *,
                checkpoints: Optional[Sequence[float]] = None,
                rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL):
    """Integrate dy/ds = v(y) from 0 to duration for a batch of starts.

    ``checkpoints`` must be strictly increasing in magnitude, share the
    sign of ``duration`` and not exceed it; the state at each is
    recorded on the way.  Returns (list of checkpoint states, final
    state).  Raises IntegrationError on step-size underflow.
    """
    if not math.isfinite(duration):
        raise ValueError("duration must be finite")
    y = np.array(y0, dtype=float)
    cps = list(checkpoints) if checkpoints else []
    if duration == 0.0:
        return [y.copy() for _ in cps], y

    f = _rhs(field)
    direction = 1.0 if duration > 0 else -1.0
    for cp in cps:
        if cp * direction <= 0 or abs(cp) > abs(duration) + 1e-30:
            raise ValueError("checkpoints must lie strictly between 0 and duration")

    targets = cps + [duration]
    states: list[np.ndarray] = []
    t = 0.0
    h = direction * min(0.05, abs(duration) / 10.0)
    k1 = f(y)
    n_steps = 0
    for target in targets:
        while (target - t) * direction > 0.0:
            n_steps += 1
            if n_steps > _MAX_STEPS:
                raise IntegrationError("step budget exhausted")
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step size underflow")
            clipped = False
            if (t + h - target) * direction > 0.0:
                h = target - t
                clipped = True
            ks = [k1]
            for i in range(1, 7):
                yi = y + h * sum(c * k for c, k in zip(_DP_A[i], ks))
                ks.append(f(yi))
            y_new = y + h * sum(c * k for c, k in zip(_DP_B5, ks) if c)
            err_vec = h * sum(c * k for c, k in zip(_DP_ERR, ks) if c)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.max(np.abs(err_vec) / scale))
            if err <= 1.0:
                t = target if clipped else t + h
                y = y_new
                k1 = ks[6]  # FSAL
            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
        states.append(y.copy())
    return states[:-1], states[-1]


def apply_steps(steps: Iterable[tuple[TrigPoly, float]], lift: np.ndarray, *,
                rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Advance lift samples through each (field, duration) step in order.

    Flows of smooth fields preserve monotone lifts, so a violation after
    a step means the tolerance was breached and is raised as
    IntegrationError rather than silently accepted.
    """
    for field, t in steps:
        _, lift = flow_states(field, t, lift, rtol=rtol, atol=atol)
        if not is_monotone_lift(lift):
            raise IntegrationError("flow step broke lift monotonicity")
    return lift


def integrate_flow(field: TrigPoly, t: float, theta0: float, *,
                   rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> float:
    """Lift value theta(t) of the flow of ``field`` started at theta0."""
    _, final = flow_states(field, t, np.array([theta0], dtype=float),
                           rtol=rtol, atol=atol)
    return float(final[0])


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


def _eval_spectrum(spec: np.ndarray, m: int, queries: np.ndarray) -> np.ndarray:
    """Displacement interpolant at arbitrary angles, plus the angles."""
    ks = np.arange(1, spec.size)
    factors = np.full(ks.size, 2.0 / m)
    if m % 2 == 0 and spec.size - 1 == m // 2:
        factors[-1] = 1.0 / m
    ang = np.multiply.outer(ks.astype(float), queries)
    out = (spec[0].real / m
           + (factors * spec[1:].real) @ np.cos(ang)
           - (factors * spec[1:].imag) @ np.sin(ang))
    return queries + out


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
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> CircleDiffeo:
    """Advance every lift sample of phi through each step of the word.

    Each step post-composes the flow of its field with the current
    diffeomorphism; see ``apply_steps``.
    """
    return CircleDiffeo(apply_steps(word.steps, phi.lift, rtol=rtol, atol=atol))


def commutator_word(x: TrigPoly, y: TrigPoly, s: float) -> FlowWord:
    """Four-step loop whose net displacement approximates s^2 [x, y].

    Steps run in list order: y backward, x backward, y forward, x
    forward.  With the right-translation bracket convention of
    ``trig_fields.bracket``, the second-order term of this loop is the
    bracket itself (the reversed order would flip its sign).
    """
    return FlowWord.of([(y, -s), (x, -s), (y, s), (x, s)])


def commutator_flow_residual(x: TrigPoly, y: TrigPoly, theta: float, t: float, *,
                             rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> float:
    """(loop(theta) - theta) / t^2 for the commutator loop at scale t."""
    if t == 0:
        raise ValueError("t must be nonzero")
    state = apply_steps(commutator_word(x, y, t).steps, np.array([theta], dtype=float),
                        rtol=rtol, atol=atol)
    return float((state[0] - theta) / (t * t))
