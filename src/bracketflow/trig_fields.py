"""Exact trigonometric vector fields on the circle.

A field is v(theta) d/dtheta with v a truncated Fourier series held with
rational coefficients.  The bracket applies the complex mode law
[e_k, e_l] = i(k - l) e_{k+l} to Gaussian-integer mode coefficients over a
common denominator, so bracket identities can be checked coefficient by
coefficient; nothing in this module rounds.  The integer kernel forms the
output modes from the top mode down and, given a mode cap, stops at the
first nonzero mode above it, so a bracket over the cap is found without
forming the rest of it or any Fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Union

import numpy as np

Rational = Union[int, str, Fraction]

_ZERO = Fraction(0)


def _frac(value: Rational) -> Fraction:
    """The coefficient as a Fraction; a bool, which is an int, raises too."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Truncated Fourier series c0 + sum_n (a_n cos nt + b_n sin nt).

    Coefficient tuples hold exactly ``max_mode`` entries each.  Trailing
    zero modes are legal; equality and hashing compare the coefficients
    with trailing zero modes dropped, so the same field in two lengths is
    one value.
    """

    c0: Fraction
    cos_coeffs: tuple[Fraction, ...]
    sin_coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "c0", _frac(self.c0))
        object.__setattr__(self, "cos_coeffs", tuple(_frac(a) for a in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(_frac(b) for b in self.sin_coeffs))
        if len(self.cos_coeffs) != len(self.sin_coeffs):
            raise ValueError("cos and sin coefficient tuples must have equal length")

    # ---- constructors ----

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly(_ZERO, (), ())

    @staticmethod
    def constant(coeff: Rational = 1) -> "TrigPoly":
        """The rigid-rotation field coeff * d/dtheta."""
        return TrigPoly(_frac(coeff), (), ())

    @staticmethod
    def cosine(mode: int, coeff: Rational = 1) -> "TrigPoly":
        if mode < 0:
            raise ValueError("mode must be >= 0")
        if mode == 0:
            return TrigPoly.constant(coeff)
        cos = [_ZERO] * mode
        cos[mode - 1] = _frac(coeff)
        return TrigPoly(_ZERO, tuple(cos), (_ZERO,) * mode)

    @staticmethod
    def sine(mode: int, coeff: Rational = 1) -> "TrigPoly":
        if mode < 1:
            raise ValueError("mode must be >= 1")
        sin = [_ZERO] * mode
        sin[mode - 1] = _frac(coeff)
        return TrigPoly(_ZERO, (_ZERO,) * mode, tuple(sin))

    @staticmethod
    def from_coeffs(c0: Rational, cos, sin) -> "TrigPoly":
        cos = tuple(_frac(a) for a in cos)
        sin = tuple(_frac(b) for b in sin)
        n = max(len(cos), len(sin))
        cos = cos + (_ZERO,) * (n - len(cos))
        sin = sin + (_ZERO,) * (n - len(sin))
        return TrigPoly(_frac(c0), cos, sin)

    # ---- structure ----

    @property
    def max_mode(self) -> int:
        return len(self.cos_coeffs)

    def effective_max_mode(self) -> int:
        """Highest mode with a nonzero coefficient (0 for constant fields)."""
        for n in range(self.max_mode, 0, -1):
            if self.cos_coeffs[n - 1] != 0 or self.sin_coeffs[n - 1] != 0:
                return n
        return 0

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.effective_max_mode() == 0

    def mode(self, n: int) -> tuple[Fraction, Fraction]:
        """(cos, sin) coefficient pair of mode n; mode 0 returns (c0, 0)."""
        if n == 0:
            return self.c0, _ZERO
        if n <= self.max_mode:
            return self.cos_coeffs[n - 1], self.sin_coeffs[n - 1]
        return _ZERO, _ZERO

    def _key(self) -> tuple:
        """(c0, cos, sin) without trailing zero modes: the field's identity."""
        n = self.effective_max_mode()
        return self.c0, self.cos_coeffs[:n], self.sin_coeffs[:n]

    def trimmed(self) -> "TrigPoly":
        return TrigPoly(*self._key())

    def coefficient_vector(self, cap: int) -> list[Fraction]:
        """(c0, a_1..a_cap, b_1..b_cap), zero-extended; needs cap >= content."""
        if self.effective_max_mode() > cap:
            raise ValueError("coefficient_vector cap below field content")
        vec = [self.c0]
        vec.extend(self.cos_coeffs[n] if n < self.max_mode else _ZERO for n in range(cap))
        vec.extend(self.sin_coeffs[n] if n < self.max_mode else _ZERO for n in range(cap))
        return vec

    # ---- equality ----

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # ---- linear structure ----

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        cos = tuple(a + b for a, b in zip_longest(self.cos_coeffs, other.cos_coeffs, fillvalue=_ZERO))
        sin = tuple(a + b for a, b in zip_longest(self.sin_coeffs, other.sin_coeffs, fillvalue=_ZERO))
        return TrigPoly(self.c0 + other.c0, cos, sin)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return self.scale(-1)

    def scale(self, factor: Rational) -> "TrigPoly":
        f = _frac(factor)
        return TrigPoly(
            f * self.c0,
            tuple(f * a for a in self.cos_coeffs),
            tuple(f * b for b in self.sin_coeffs),
        )

    # ---- presentation / serialization ----

    def pretty(self) -> str:
        parts = []
        if self.c0:
            parts.append(str(self.c0))
        for n in range(1, self.max_mode + 1):
            a, b = self.mode(n)
            if a:
                parts.append(f"{a} cos{n}")
            if b:
                parts.append(f"{b} sin{n}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TrigPoly({self.pretty()!r})"

    def to_json_dict(self) -> dict:
        return {
            "c0": str(self.c0),
            "cos": [str(a) for a in self.cos_coeffs],
            "sin": [str(b) for b in self.sin_coeffs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TrigPoly":
        """The field of ``to_json_dict``: ``cos`` and ``sin`` are lists (a
        missing one is empty) of integers or strings, as ``c0`` is one; any
        other value, a bool or a float too, raises ``TypeError``."""
        cos, sin = data.get("cos", []), data.get("sin", [])
        if not (isinstance(cos, list) and isinstance(sin, list)):
            raise TypeError(f"cos and sin must be lists of coefficients, not {cos!r}, {sin!r}")
        return TrigPoly.from_coeffs(data.get("c0", 0), cos, sin)


def _gaussian_modes(v: TrigPoly) -> tuple[int, dict[int, tuple[int, int]]]:
    """(d, P) with v = sum_k P[k] e^{ikt} / (2d), P over nonzero modes only.

    d is the common denominator of the coefficients; each P[k] is a
    Gaussian integer (re, im), with P[0] = 2 d c0, P[n] = d (a_n - i b_n)
    and P[-n] its conjugate.
    """
    d = math.lcm(v.c0.denominator, *(a.denominator for a in v.cos_coeffs),
                 *(b.denominator for b in v.sin_coeffs))
    modes = {0: (2 * d // v.c0.denominator * v.c0.numerator, 0)} if v.c0 else {}
    for n, (a, b) in enumerate(zip(v.cos_coeffs, v.sin_coeffs), start=1):
        if a or b:
            re = d // a.denominator * a.numerator
            im = d // b.denominator * b.numerator
            modes[n] = (re, -im)
            modes[-n] = (re, im)
    return d, modes


def _mode_law(p: dict, q: dict, cap: Optional[int] = None):
    """(re, im) with re[m] + i im[m] = S_m = sum_{k+l=m} (k - l) P_k Q_l.

    p and q are ``_gaussian_modes`` tables.  The sums run from the top
    output mode max(p) + max(q) down to 0, and the lists stop at that top
    mode.  With a cap, the first nonzero S_m with m > cap returns None, so
    a bracket over the cap usually costs one or two output modes.
    """
    if not p or not q:
        return [0], [0]
    top = max(p) + max(q)
    re = [0] * (top + 1)
    im = [0] * (top + 1)
    pairs = list(p.items())
    for m in range(top, -1, -1):
        sr = si = 0
        for k, (pr, pi) in pairs:
            c = 2 * k - m  # k - l for l = m - k
            if c:
                ql = q.get(m - k)
                if ql is not None:
                    qr, qi = ql
                    sr += c * (pr * qr - pi * qi)
                    si += c * (pr * qi + pi * qr)
        if cap is not None and m > cap and (sr or si):
            return None
        re[m], im[m] = sr, si
    return re, im


def _mode_row(sums, cap: int) -> dict:
    """4D times the coefficient_vector(cap) of the bracket with these sums.

    sums are ``_mode_law``'s (re, im) for tables with denominators dv and dw.
    With S_m = re[m] + i im[m] and D = dv dw, [v, w] = sum_m i S_m e^{imt} / 4D,
    so 4D (c0, a_m, b_m) = (-Im S_0, -2 Im S_m, -2 Re S_m), keyed by
    coefficient_vector index (0, m, cap + m).  Modes above the cap are left
    out: they must be zero, as ``_mode_law`` checks when given the cap.
    """
    re, im = sums
    row = {0: -im[0]}
    for m in range(1, min(len(re), cap + 1)):
        row[m], row[cap + m] = -2 * im[m], -2 * re[m]
    return row


def bracket(v: TrigPoly, w: TrigPoly) -> TrigPoly:
    """Circle bracket [v, w] = (v' w - w' v) d/dtheta.

    Note the sign: this is the right-translation convention, the negative
    of the commutator that a left-action convention would give.  All
    closure and steering code in this package uses it consistently.

    Computed by the mode law [e_k, e_l] = i(k - l) e_{k+l} on Gaussian
    integers over the product of the two common denominators
    (``_mode_law``), so the only rational arithmetic is one Fraction per
    output coefficient.  The result has max_mode v.max_mode + w.max_mode,
    trailing zeros included.
    """
    dv, p = _gaussian_modes(v)
    dw, q = _gaussian_modes(w)
    n = v.max_mode + w.max_mode
    den = 4 * dv * dw
    vec = [_ZERO] * (2 * n + 1)  # coefficient_vector(n) of the result
    for k, x in _mode_row(_mode_law(p, q), n).items():
        if x:
            vec[k] = Fraction(x, den)
    return TrigPoly(vec[0], tuple(vec[1:n + 1]), tuple(vec[n + 1:]))


def evaluate(v: TrigPoly, theta: float) -> float:
    """Float value of v at a single angle."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    total = float(v.c0)
    for n in range(1, v.max_mode + 1):
        a, b = v.mode(n)
        if a:
            total += float(a) * math.cos(n * theta)
        if b:
            total += float(b) * math.sin(n * theta)
    return total


def sample(v: TrigPoly, thetas: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an array of angles."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.full_like(thetas, float(v.c0))
    for n in range(1, v.max_mode + 1):
        a, b = v.mode(n)
        if a:
            out += float(a) * np.cos(n * thetas)
        if b:
            out += float(b) * np.sin(n * thetas)
    return out
