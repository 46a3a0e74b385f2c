"""Approximate steering on the circle-diffeomorphism group.

Given a target diffeomorphism and a generating family of fields, build a
flow word driving the identity to within a sup-distance goal.  Phase 1
decomposes the logarithm profile of (what remains of) the target into
Fourier modes and realizes each mode either as a direct flow step or as
commutator motion primitives taken from a bracket-closure certificate.
Phase 2 polishes greedily with single family steps over a geometric
duration grid.  The returned word is a checkable certificate: replaying
it reproduces the reported error bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .closure import (ClosureReport, FieldFamily, GeneratedField, closure,
                      solve_combination, _basis_vector)
from .flows import (TWO_PI, CircleDiffeo, FlowWord, IntegrationError, apply_steps,
                    apply_word, eval_lift, flow_states, grid_angles, invert_lift,
                    is_monotone_lift)
from .trig_fields import TrigPoly


_MAX_SWEEPS = 3  # spectral sweeps of phase 1
_MAX_CERTIFICATE_MODE = 12  # highest target mode checked against the closure
_TAU_MAX = 2.0  # longest greedy step duration
_S_CAP = 0.2  # largest commutator-loop scale
_MAX_CHUNKS = 16  # most commutator loops per bracket-field flow


class NotBracketGenerating(Exception):
    """The family closure fails to span a mode the target needs."""


def default_family() -> FieldFamily:
    """The four-field generating family: modes 1 and 2, cos and sin."""
    return FieldFamily.of_trig([
        ("cos1", TrigPoly.cosine(1)),
        ("sin1", TrigPoly.sine(1)),
        ("cos2", TrigPoly.cosine(2)),
        ("sin2", TrigPoly.sine(2)),
    ])


# ---------------------------------------------------------------------------
# metric

def _sup_shift_distance(lift_a: np.ndarray, lift_b: np.ndarray) -> float:
    # rounding is monotone, so max_i |fl(delta_i - c)| is attained at
    # the largest or the smallest delta_i
    delta = lift_a - lift_b
    hi, lo = float(delta.max()), float(delta.min())
    k0 = round(0.5 * (hi + lo) / TWO_PI)
    return min(
        max(abs(hi - TWO_PI * k), abs(lo - TWO_PI * k))
        for k in (k0 - 1, k0, k0 + 1)
    )


def diffeo_distance(phi: CircleDiffeo, psi: CircleDiffeo) -> float:
    """Sup distance of lifts over the grid, minimized over 2-pi shifts."""
    if phi.grid_size != psi.grid_size:
        raise ValueError("grid mismatch")
    return _sup_shift_distance(phi.lift, psi.lift)


# ---------------------------------------------------------------------------
# logarithm profile of a diffeomorphism

def _sqrt_lift(lift_phi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Functional square root: psi with psi(psi(x)) = phi(x) on the grid."""
    psi = 0.5 * (thetas + lift_phi)
    damping = 1.0
    best = math.inf
    for _ in range(200):
        residual = lift_phi - eval_lift(psi, psi)
        res = float(np.max(np.abs(residual)))
        if res < 1e-13 or best - res < 1e-16:
            break
        if res > best and damping > 1 / 16:
            damping *= 0.5
        best = min(best, res)
        candidate = psi + 0.5 * damping * residual
        if is_monotone_lift(candidate):
            psi = candidate
        else:
            damping *= 0.5
            if damping < 1e-4:
                break
    return psi


def flow_logarithm(phi: CircleDiffeo) -> np.ndarray:
    """Field profile u on the grid whose time-1 flow approximates phi.

    Repeated functional square roots bring the diffeomorphism close to
    the identity, where displacement and generator agree to first
    order; a two-level Richardson step removes that first-order error.
    Exact for rotations, spectrally accurate for smooth targets.
    """
    lift = np.array(phi.lift)
    m = lift.size
    thetas = grid_angles(m)
    disp = float(np.max(np.abs(lift - thetas)))
    if disp == 0.0:
        return np.zeros(m)
    levels = min(30, max(2, math.ceil(math.log2(max(disp, 1e-12) / 2e-3))))
    history = [lift - thetas]  # 2^j (psi_j - id), level 0 first
    for j in range(1, levels + 1):
        lift = _sqrt_lift(lift, thetas)
        history.append((lift - thetas) * (2.0 ** j))
    u2, u1, u0 = history[-3], history[-2], history[-1]
    # eliminate the 2^-j and 4^-j error terms of the halving sequence
    return (8.0 * u0 - 6.0 * u1 + u2) / 3.0


def fourier_profile(u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(c0, cos coeffs a_1.., sin coeffs b_1..) of samples on the grid."""
    m = u.size
    spec = np.fft.rfft(u) / m
    c0 = float(spec[0].real)
    a = 2.0 * spec[1:].real
    b = -2.0 * spec[1:].imag
    return c0, a, b


# ---------------------------------------------------------------------------
# certificates: realizing basis fields through bracket provenance

class _Certificate:
    """Exact combinations of closure-generated fields for basis modes."""

    def __init__(self, report: ClosureReport, primitive_depth: int):
        self.report = report
        self.indices = [i for i, g in enumerate(report.generated) if g.depth <= primitive_depth]
        self.columns = [report.generated[i].field.coefficient_vector(report.cap)
                        for i in self.indices]
        self._cache: dict = {}

    def combination(self, mode: int, kind: str) -> Optional[list[tuple[int, Fraction]]]:
        key = (mode, kind)
        if key not in self._cache:
            target = _basis_vector(self.report.cap, mode, kind)
            sol = solve_combination(self.columns, target)
            if sol is None:
                self._cache[key] = None
            else:
                self._cache[key] = [(self.indices[i], c) for i, c in enumerate(sol) if c != 0]
        return self._cache[key]


def _realize_flow(generated: Sequence[GeneratedField], idx: int,
                  amount: float) -> list[tuple[TrigPoly, float]]:
    """Steps approximating the time-`amount` flow of generated[idx].

    Seeds flow directly.  A bracket field [X, Y] flows through the
    four-step commutator loop at s = sqrt(amount); negative amounts swap
    the pair instead of using a negative s.  The loop is only accurate
    to second order, so amounts are split into at most _MAX_CHUNKS
    chunks keeping each s at or below _S_CAP.
    """
    if abs(amount) < 1e-12:
        return []
    g = generated[idx]
    if g.parents is None:
        return [(g.field, float(amount))]
    i, j = g.parents
    if amount >= 0:
        left, right = i, j
    else:
        left, right = j, i
    chunks = min(_MAX_CHUNKS, max(1, math.ceil(abs(amount) / (_S_CAP * _S_CAP))))
    s = math.sqrt(abs(amount) / chunks)
    loop = (
        _realize_flow(generated, right, -s)
        + _realize_flow(generated, left, -s)
        + _realize_flow(generated, right, s)
        + _realize_flow(generated, left, s)
    )
    return loop * chunks


# ---------------------------------------------------------------------------
# problem / result

@dataclass(frozen=True)
class SteeringProblem:
    target: CircleDiffeo
    family: FieldFamily = dc_field(default_factory=default_family)
    epsilon: float = 1e-2
    budget: int = 400
    primitive_depth: int = 3

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.primitive_depth < 1:
            raise ValueError("primitive_depth must be >= 1")


@dataclass
class SteeringResult:
    word: FlowWord
    achieved_error: float
    iterations: int
    converged: bool
    trace: list[float]  # distance to target after each appended step

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.to_json_list(),
            "achieved_error": self.achieved_error,
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": list(self.trace),
        }


# ---------------------------------------------------------------------------
# planner

def steer(problem: SteeringProblem) -> SteeringResult:
    """Plan a flow word from the identity to within epsilon of the target."""
    target = problem.target
    m = target.grid_size
    family = problem.family
    identity = CircleDiffeo.identity(m)
    target_lift = np.array(target.lift)

    current = np.array(identity.lift)
    steps: list[tuple[TrigPoly, float]] = []
    trace: list[float] = []
    iterations = 0
    cur_dist = _sup_shift_distance(current, target_lift)

    if cur_dist > 0.0:
        # mode content of the target displacement, at tolerance epsilon
        u0 = flow_logarithm(target)
        c0, a, b = fourier_profile(u0)
        weights = np.abs(a) + np.abs(b)
        n_needed = 0
        for n in range(weights.size, 0, -1):
            if weights[n - 1:].sum() > problem.epsilon / 8.0:
                n_needed = n
                break
        n_check = min(n_needed, _MAX_CERTIFICATE_MODE)

        seed_mode = max(f.effective_max_mode() for f in family.fields)
        cap = max(n_check, seed_mode)
        report = closure(family, max_depth=cap + 2, max_mode_cap=cap)
        missing = [n for n in range(n_check + 1) if n not in report.spanned_modes]
        if missing:
            raise NotBracketGenerating(
                f"family closure does not span modes {missing} needed by the target")
        certificate = _Certificate(report, problem.primitive_depth)
        coeff_floor = max(1e-10, problem.epsilon / (8.0 * (2 * n_check + 2)))

        # phase 1: spectral sweeps
        for _ in range(_MAX_SWEEPS):
            if cur_dist <= 0.5 * problem.epsilon:
                break
            if steps:
                # what remains: rel with rel(current(x)) = target(x)
                try:
                    rel = CircleDiffeo(eval_lift(target_lift, invert_lift(current)))
                except ValueError:  # no converged inverse, or a non-monotone remainder
                    break
                u = flow_logarithm(rel)
            else:
                u = u0
            c0, a, b = fourier_profile(u)
            sweep_steps: list[tuple[TrigPoly, float]] = []
            for n in range(n_check + 1):
                if n == 0:
                    pairs = [("cos", c0)]
                else:
                    pairs = [("cos", float(a[n - 1])), ("sin", float(b[n - 1]))]
                for kind, coef in pairs:
                    if abs(coef) <= coeff_floor:
                        continue
                    combo = certificate.combination(n, kind)
                    if combo is None:
                        continue  # not reachable within primitive_depth
                    for idx, c in combo:
                        sweep_steps.extend(
                            _realize_flow(report.generated, idx, coef * float(c)))
            if not sweep_steps or len(steps) + len(sweep_steps) > problem.budget:
                break
            saved_lift, saved_len = np.array(current), len(steps)
            for f, t in sweep_steps:
                current = apply_steps([(f, t)], current)
                steps.append((f, t))
                trace.append(_sup_shift_distance(current, target_lift))
            new_dist = trace[-1]
            if new_dist >= cur_dist:  # sweep stopped helping; roll it back
                current = saved_lift
                del steps[saved_len:], trace[saved_len:]
                break
            cur_dist = new_dist
            iterations += 1

    # phase 2: greedy polish with single family steps
    durations = []
    d = problem.epsilon / 4.0
    while d <= _TAU_MAX:
        durations.append(d)
        d *= 2.0
    if not durations:
        durations = [problem.epsilon]

    while cur_dist > problem.epsilon and len(steps) < problem.budget:
        best = None  # (dist, field, signed duration, state); ties keep the first
        for f in family.fields:
            for sign in (1.0, -1.0):
                for t in durations:
                    try:
                        state = flow_states(f, sign * t, current)
                    except IntegrationError:
                        continue
                    if not is_monotone_lift(state):
                        continue
                    dist = _sup_shift_distance(state, target_lift)
                    if dist < cur_dist and (best is None or dist < best[0]):
                        best = (dist, f, sign * t, state)
        if best is None:
            break
        cur_dist, f, t, current = best
        steps.append((f, t))
        trace.append(cur_dist)
        iterations += 1

    word = FlowWord.of(steps)
    # the certificate property: the reported error is the replayed error
    reached = apply_word(word, identity)
    achieved = diffeo_distance(reached, target)
    return SteeringResult(
        word=word,
        achieved_error=achieved,
        iterations=iterations,
        converged=achieved <= problem.epsilon,
        trace=trace,
    )
