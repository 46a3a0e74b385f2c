"""Exact bracket algebra on trigonometric fields."""
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from bracketflow.trig_fields import (TrigPoly, _gaussian_modes, _mode_law, _mode_row, bracket,
                                     evaluate, sample)

SIN1, COS1 = TrigPoly.sine(1), TrigPoly.cosine(1)
SIN2, COS2 = TrigPoly.sine(2), TrigPoly.cosine(2)
SIN3, COS3 = TrigPoly.sine(3), TrigPoly.cosine(3)

fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def trig_polys(max_modes=4):
    return st.builds(
        TrigPoly.from_coeffs,
        fractions,
        st.lists(fractions, max_size=max_modes),
        st.lists(fractions, max_size=max_modes),
    )


def to_sympy(p: TrigPoly, th):
    expr = sp.Rational(p.c0)
    for n in range(1, p.max_mode + 1):
        a, b = p.mode(n)
        expr += sp.Rational(a) * sp.cos(n * th) + sp.Rational(b) * sp.sin(n * th)
    return expr


# ---- reference: product-to-sum expansion of v'w - w'v ----

def reference_product(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Pointwise product, expanded exactly via product-to-sum identities."""
    half = Fraction(1, 2)
    n_out = p.max_mode + q.max_mode
    cos = [Fraction(0)] * (n_out + 1)  # index 0 carries the constant term
    sin = [Fraction(0)] * (n_out + 1)

    def add_sin(k, amount):
        if k > 0:
            sin[k] += amount
        elif k < 0:
            sin[-k] -= amount

    a = (p.c0,) + p.cos_coeffs
    b = (Fraction(0),) + p.sin_coeffs
    c = (q.c0,) + q.cos_coeffs
    d = (Fraction(0),) + q.sin_coeffs
    for m in range(len(a)):
        for n in range(len(c)):
            s, diff = m + n, m - n
            # cos*cos = (cos(m-n) + cos(m+n)) / 2, sin*sin = (cos(m-n) - cos(m+n)) / 2
            cos[abs(diff)] += (a[m] * c[n] + b[m] * d[n]) * half
            cos[s] += (a[m] * c[n] - b[m] * d[n]) * half
            # cos(m)*sin(n) = (sin(m+n) - sin(m-n)) / 2, sin(m)*cos(n) = (sin(m+n) + sin(m-n)) / 2
            add_sin(s, (a[m] * d[n] + b[m] * c[n]) * half)
            add_sin(diff, (b[m] * c[n] - a[m] * d[n]) * half)
    return TrigPoly(cos[0], tuple(cos[1:]), tuple(sin[1:]))


def reference_derivative(p: TrigPoly) -> TrigPoly:
    return TrigPoly(Fraction(0), tuple(n * b for n, b in enumerate(p.sin_coeffs, start=1)),
                    tuple(-n * a for n, a in enumerate(p.cos_coeffs, start=1)))


def reference_bracket(v: TrigPoly, w: TrigPoly) -> TrigPoly:
    return (reference_product(reference_derivative(v), w)
            - reference_product(reference_derivative(w), v))


def test_bracket_matches_product_to_sum_reference():
    """Same coefficients and the same tuple length as the expansion of
    v'w - w'v, on constant, sparse and dense fields of unequal modes."""
    rng = np.random.default_rng(2024)

    def rand_field(n_modes, density):
        def coeff():
            if rng.uniform() >= density:
                return Fraction(0)
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        return TrigPoly.from_coeffs(coeff(), [coeff() for _ in range(n_modes)],
                                    [coeff() for _ in range(n_modes)])

    pairs = [(TrigPoly.constant(3), TrigPoly.constant("-1/2")),
             (TrigPoly.constant("2/3"), rand_field(5, 1.0)),
             (TrigPoly.zero(), rand_field(3, 1.0)),
             (TrigPoly.cosine(16, "1/7"), TrigPoly.sine(1, 5))]
    for _ in range(60):
        n, m = int(rng.integers(0, 17)), int(rng.integers(0, 17))
        pairs.append((rand_field(n, rng.choice([0.2, 0.6, 1.0])),
                      rand_field(m, rng.choice([0.2, 0.6, 1.0]))))
    for v, w in pairs:
        got, expected = bracket(v, w), reference_bracket(v, w)
        assert got.max_mode == v.max_mode + w.max_mode
        assert got.to_json_dict() == expected.to_json_dict()


def test_mode_law_cap_rejects_exactly_the_over_cap_brackets():
    """With a cap, the kernel returns None exactly when [v, w] has content
    above it, and otherwise the uncapped sums, whose row at that cap is
    4 dv dw times the bracket's coefficient_vector.  The pairs include top
    modes that cancel: [cos2, sin2] is constant, [v, v] = 0,
    [cos2, sin2 + 1] = -2 (sin2 + 1) has sine content at mode 2, and in
    [cos1 + cos2, cos2] mode 4 cancels while mode 3 does not."""
    rng = np.random.default_rng(29)

    def rand_field(n_modes, density):
        def coeff():
            if rng.uniform() >= density:
                return Fraction(0)
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        return TrigPoly.from_coeffs(coeff(), [coeff() for _ in range(n_modes)],
                                    [coeff() for _ in range(n_modes)])

    v = rand_field(3, 1.0)
    pairs = [(COS2, SIN2), (v, v), (COS2, SIN2 + TrigPoly.constant(1)),
             (COS1 + COS2, COS2), (TrigPoly.zero(), v), (TrigPoly.constant(2), COS3)]
    for _ in range(60):
        pairs.append((rand_field(int(rng.integers(0, 6)), rng.choice([0.3, 1.0])),
                      rand_field(int(rng.integers(0, 6)), rng.choice([0.3, 1.0]))))
    for v, w in pairs:
        (dv, p), (dw, q) = _gaussian_modes(v), _gaussian_modes(w)
        full = _mode_law(p, q)
        vw = bracket(v, w)
        content = vw.effective_max_mode()
        for cap in range(v.max_mode + w.max_mode + 1):
            expected = None if content > cap else full
            assert _mode_law(p, q, cap) == expected, (v, w, cap)
            if expected is not None:
                row = {k: x for k, x in _mode_row(full, cap).items() if x}
                vec = vw.coefficient_vector(cap)
                assert row == {k: 4 * dv * dw * c for k, c in enumerate(vec) if c}, (v, w, cap)


# ---- pinned examples ----

def test_bracket_sin_cos_is_rotation():
    assert bracket(SIN1, COS1) == TrigPoly.constant(1)


def test_bracket_self_is_zero():
    v = TrigPoly.from_coeffs("1/3", ["1/2", "-2"], ["0", "5/7"])
    assert bracket(v, v).is_zero()


def test_bracket_cos1_cos2_expansion():
    # frozen from the symbolic product-to-sum oracle below
    expected = TrigPoly.from_coeffs(0, [0, 0, 0], ["3/2", 0, "1/2"])
    assert bracket(COS1, COS2) == expected


def test_mode_ladder_identities():
    assert bracket(COS1, COS2) - bracket(SIN1, SIN2) == SIN3
    assert (bracket(SIN1, COS2) + bracket(COS1, SIN2)).scale(-1) == COS3
    assert (bracket(COS1, COS3) - bracket(SIN1, SIN3)).scale(Fraction(1, 2)) == TrigPoly.sine(4)


def test_evaluate_examples():
    assert evaluate(TrigPoly.constant(1), 2.1) == 1.0
    assert evaluate(SIN1, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    mixed = TrigPoly.from_coeffs(0, [0, 0, 0], ["3/2", 0, "1/2"])
    assert evaluate(mixed, math.pi / 6) == pytest.approx(1.25, abs=1e-12)


def test_sample_matches_evaluate():
    v = TrigPoly.from_coeffs("1/4", ["1", "-1/2"], ["1/3", "2"])
    thetas = np.linspace(0.0, 7.0, 23)
    vals = sample(v, thetas)
    for th, got in zip(thetas, vals):
        assert got == pytest.approx(evaluate(v, float(th)), abs=1e-14)


# ---- symbolic oracle ----

def test_bracket_against_symbolic_oracle():
    """Independent check: sympy builds v'w - w'v; the difference must
    vanish identically.  Zero is decided exactly by the tan-half-angle
    substitution, which turns a trig polynomial into a rational function
    whose numerator must be the zero polynomial."""
    rng = np.random.default_rng(7)
    th, t = sp.symbols("theta t")
    for _ in range(8):
        def rand_poly():
            c0 = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
            cos = [Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4))) for _ in range(3)]
            sin = [Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4))) for _ in range(3)]
            return TrigPoly.from_coeffs(c0, cos, sin)
        v, w = rand_poly(), rand_poly()
        vx, wx = to_sympy(v, th), to_sympy(w, th)
        oracle = sp.diff(vx, th) * wx - sp.diff(wx, th) * vx
        mine = to_sympy(bracket(v, w), th)
        diff = sp.expand_trig(oracle - mine)
        half = diff.subs({sp.cos(th): (1 - t ** 2) / (1 + t ** 2),
                          sp.sin(th): 2 * t / (1 + t ** 2)})
        numerator, _ = sp.fraction(sp.cancel(sp.together(half)))
        assert sp.expand(numerator) == 0


# ---- algebra laws ----

@settings(max_examples=60, deadline=None)
@given(trig_polys(), trig_polys())
def test_antisymmetry(v, w):
    assert bracket(v, w) == bracket(w, v).scale(-1)


@settings(max_examples=60, deadline=None)
@given(trig_polys(2), trig_polys(2), trig_polys(2), fractions, fractions)
def test_bilinearity(u, v, w, a, b):
    left = bracket(u.scale(a) + v.scale(b), w)
    right = bracket(u, w).scale(a) + bracket(v, w).scale(b)
    assert left == right


@settings(max_examples=40, deadline=None)
@given(trig_polys(2), trig_polys(2), trig_polys(2))
def test_jacobi_identity(u, v, w):
    total = (bracket(u, bracket(v, w))
             + bracket(v, bracket(w, u))
             + bracket(w, bracket(u, v)))
    assert total.is_zero()


def test_complex_mode_law():
    """For pure modes the bracket follows the (m - n) coefficient rule.

    With i e^{i n t} = -sin(nt) + i cos(nt), the bracket of two such
    fields must equal (m - n) i e^{i (m+n) t}, checked on real and
    imaginary parts separately.
    """
    def parts(n):
        if n == 0:
            return TrigPoly.zero(), TrigPoly.constant(1)
        return TrigPoly.sine(n, -1), TrigPoly.cosine(n)

    for n in range(0, 5):
        for m in range(0, 5):
            vr, vi = parts(n)
            wr, wi = parts(m)
            got_re = bracket(vr, wr) - bracket(vi, wi)
            got_im = bracket(vr, wi) + bracket(vi, wr)
            k = m + n
            er, ei = parts(k)
            assert got_re == er.scale(m - n)
            assert got_im == ei.scale(m - n)


def test_bracket_max_mode_bound():
    v = TrigPoly.from_coeffs(1, [1, 1, 1], [1, 1, 1])
    w = TrigPoly.from_coeffs(1, [1, 1], [1, 1])
    assert bracket(v, w).effective_max_mode() <= v.max_mode + w.max_mode


def test_evaluate_bracket_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(10):
        v = TrigPoly.from_coeffs(
            Fraction(int(rng.integers(-2, 3)), 2),
            [Fraction(int(rng.integers(-2, 3)), 2) for _ in range(3)],
            [Fraction(int(rng.integers(-2, 3)), 2) for _ in range(3)])
        w = TrigPoly.from_coeffs(
            Fraction(int(rng.integers(-2, 3)), 2),
            [Fraction(int(rng.integers(-2, 3)), 2) for _ in range(3)],
            [Fraction(int(rng.integers(-2, 3)), 2) for _ in range(3)])
        theta = float(rng.uniform(0, 2 * math.pi))
        dv = (evaluate(v, theta + h) - evaluate(v, theta - h)) / (2 * h)
        dw = (evaluate(w, theta + h) - evaluate(w, theta - h)) / (2 * h)
        expected = dv * evaluate(w, theta) - dw * evaluate(v, theta)
        assert evaluate(bracket(v, w), theta) == pytest.approx(expected, abs=1e-6)


# ---- representation contracts ----

@settings(max_examples=200, deadline=None)
@given(trig_polys(), st.integers(0, 3), st.data())
def test_equality_after_zero_extension(p, pad, data):
    zeros = [0] * pad
    padded = TrigPoly.from_coeffs(p.c0, [*p.cos_coeffs, *zeros], [*p.sin_coeffs, *zeros])
    assert padded == p and p == padded
    assert hash(padded) == hash(p)
    assert padded.trimmed() == p.trimmed()
    assert padded.trimmed().max_mode == p.effective_max_mode()
    # changing any one coefficient, padding included, breaks equality
    coeffs = [padded.c0, *padded.cos_coeffs, *padded.sin_coeffs]
    i = data.draw(st.integers(0, len(coeffs) - 1))
    coeffs[i] += data.draw(fractions.filter(bool))
    n = padded.max_mode
    changed = TrigPoly.from_coeffs(coeffs[0], coeffs[1:n + 1], coeffs[n + 1:])
    assert changed != padded and changed != p and p != changed


def test_coefficient_arrays_same_length():
    with pytest.raises(ValueError):
        TrigPoly(Fraction(0), (Fraction(1),), ())


def test_coefficient_vector_layout():
    v = TrigPoly.from_coeffs("1/2", ["1"], ["2"])
    assert v.coefficient_vector(2) == [Fraction(1, 2), Fraction(1), Fraction(0),
                                       Fraction(2), Fraction(0)]
    with pytest.raises(ValueError):
        TrigPoly.cosine(3).coefficient_vector(2)


def test_json_round_trip():
    v = TrigPoly.from_coeffs("-3/7", ["1/2", "0"], ["0", "5"])
    assert TrigPoly.from_json_dict(v.to_json_dict()) == v
    assert v.to_json_dict()["c0"] == "-3/7"


def test_rejects_non_rational_coefficients():
    with pytest.raises(TypeError):
        TrigPoly.from_coeffs(0.5, [], [])


@pytest.mark.parametrize("data", [
    {"cos": "12"},               # a string is not read character by character
    {"sin": {"1": "2"}},         # nor an object by its keys
    {"cos": ["1"], "sin": [True]},
    {"c0": False},
    {"cos": [0.5]},
])
def test_json_coefficients_are_lists_of_integers_or_strings(data):
    with pytest.raises(TypeError):
        TrigPoly.from_json_dict(data)
