"""Flow integration, sampled diffeomorphisms, and commutator loops."""
import math
from fractions import Fraction

import numpy as np
import pytest

from bracketflow.flows import (CircleDiffeo, FlowWord, IntegrationError, _eval_spectrum,
                               apply_word, commutator_flow_residual, commutator_word,
                               eval_lift, flow_states, grid_angles, integrate_flow)
from bracketflow.trig_fields import TrigPoly, bracket, evaluate

SIN1, COS1 = TrigPoly.sine(1), TrigPoly.cosine(1)


def random_field(rng, max_mode=4):
    """Smooth draw: mode amplitudes decay geometrically, so flows over a
    couple of time units stay mildly expanding and the 1e-10 integrator
    tolerance is not amplified past the 1e-8 invariant bounds."""
    c0 = Fraction(int(rng.integers(-2, 3)), 4)
    cos = [Fraction(int(rng.integers(-2, 3)), 4 * 2 ** n) for n in range(max_mode)]
    sin = [Fraction(int(rng.integers(-2, 3)), 4 * 2 ** n) for n in range(max_mode)]
    return TrigPoly.from_coeffs(c0, cos, sin)


# ---- integrate_flow ----

def test_zero_field_is_identity_flow():
    assert integrate_flow(TrigPoly.zero(), 2.7, 0.4) == 0.4


def test_constant_field_is_rigid_rotation():
    got = integrate_flow(TrigPoly.constant(1), 1.25, 0.5)
    assert got == pytest.approx(1.75, abs=1e-12)


def test_sine_flow_closed_form():
    # tan(theta/2) evolves exponentially under d theta/dt = sin theta
    t, theta0 = math.log(2.0), math.pi / 2
    expected = 2.0 * math.atan(math.exp(t) * math.tan(theta0 / 2))
    assert integrate_flow(SIN1, t, theta0) == pytest.approx(expected, abs=1e-9)
    # negative time runs the group the other way
    back = integrate_flow(SIN1, -t, expected)
    assert back == pytest.approx(theta0, abs=1e-9)


def test_group_law_randomized():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        v = random_field(rng)
        s, t = rng.uniform(-2, 2, size=2)
        theta0 = rng.uniform(0, 2 * math.pi)
        direct = integrate_flow(v, s + t, theta0)
        chained = integrate_flow(v, t, integrate_flow(v, s, theta0))
        worst = max(worst, abs(direct - chained))
    assert worst < 1e-8


def test_integration_failure_reported():
    with pytest.raises(ValueError):
        integrate_flow(SIN1, math.inf, 0.0)
    # the closed form needs more sub-steps than the step budget allows
    with pytest.raises(IntegrationError, match="budget"):
        integrate_flow(SIN1, 1e7, 0.0)


# ---- words and sampled diffeos ----

def test_empty_word_keeps_diffeo():
    phi = CircleDiffeo.rotation(0.8, 64)
    out = apply_word(FlowWord.of([]), phi)
    assert np.array_equal(out.lift, phi.lift)


def test_single_step_word_matches_pointwise_flow():
    # under Dormand-Prince, batch and scalar runs take different adaptive
    # steps and agree to integration accuracy, not bitwise; sin theta flows
    # in closed form, which also holds to this bound
    phi = CircleDiffeo.identity(32)
    out = apply_word(FlowWord.of([(SIN1, 0.7)]), phi)
    for theta, lifted in zip(phi.lift, out.lift):
        assert lifted == pytest.approx(integrate_flow(SIN1, 0.7, float(theta)), abs=1e-8)


def test_inverse_word_returns_to_identity():
    phi = CircleDiffeo.identity(128)
    v = TrigPoly.from_coeffs(0, ["1/2"], ["1", "-1/3"])
    word = FlowWord.of([(v, 1.3), (SIN1, -0.4)])
    round_trip = apply_word(word.concat(word.inverse()), phi)
    assert np.max(np.abs(round_trip.lift - phi.lift)) < 1e-8


def test_word_concatenation_is_sequential_application():
    rng = np.random.default_rng(5)
    phi = CircleDiffeo.identity(64)
    w1 = FlowWord.of([(random_field(rng), rng.uniform(-1, 1)) for _ in range(3)])
    w2 = FlowWord.of([(random_field(rng), rng.uniform(-1, 1)) for _ in range(3)])
    two_stage = apply_word(w2, apply_word(w1, phi))
    one_stage = apply_word(w1.concat(w2), phi)
    assert np.array_equal(two_stage.lift, one_stage.lift)


def test_words_preserve_monotone_lifts():
    rng = np.random.default_rng(9)
    phi = CircleDiffeo.identity(64)
    for _ in range(10):
        word = FlowWord.of([(random_field(rng), rng.uniform(-1, 1))
                            for _ in range(int(rng.integers(1, 9)))])
        out = apply_word(word, phi)  # constructor re-checks the invariants
        assert out.grid_size == 64
        assert out.lift[-1] < out.lift[0] + 2 * math.pi


def test_step_breaking_monotonicity_is_reported():
    # 4 cos 8 theta for 3 time units contracts by e^-48 near its sinks and
    # collapses neighbouring lift samples onto equal floats
    field = TrigPoly.from_coeffs(0, [0] * 7 + [4], [])
    with pytest.raises(IntegrationError, match="monotonicity"):
        apply_word(FlowWord.of([(field, 3.0)]), CircleDiffeo.identity(256))


def test_lift_validation():
    with pytest.raises(ValueError):
        CircleDiffeo(np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(ValueError):
        CircleDiffeo(np.array([0.0, 3.0, 7.0]))  # wraps past one period


def test_compose_and_inverse_roundtrip():
    phi = apply_word(FlowWord.of([(SIN1, 0.6)]), CircleDiffeo.identity(256))
    ident = phi.compose(phi.inverse())
    assert np.max(np.abs(ident.displacement())) < 1e-9


def test_inverse_is_the_backward_flow():
    ident = CircleDiffeo.identity(256)
    for t in (0.6, 1.5, 2.0):
        phi = apply_word(FlowWord.of([(SIN1, t)]), ident)
        back = apply_word(FlowWord.of([(SIN1, -t)]), ident)
        assert np.max(np.abs(phi.inverse().lift - back.lift)) < 1e-9


def test_inverse_of_a_nearly_flat_lift_raises():
    # the slope of this lift falls to 5.5e-4, where Newton on the
    # interpolant converges from neither start
    field = TrigPoly.from_coeffs(0, ["1/2"], [0, 1])
    phi = apply_word(FlowWord.of([(field, 3.0)]), CircleDiffeo.identity(256))
    with pytest.raises(ValueError, match="did not converge"):
        phi.inverse()


def test_compose_of_a_flow_with_itself_is_the_doubled_flow():
    ident = CircleDiffeo.identity(256)
    for t in (0.6, 1.0):
        phi = apply_word(FlowWord.of([(SIN1, t)]), ident)
        twice = apply_word(FlowWord.of([(SIN1, 2 * t)]), ident)
        assert np.max(np.abs(phi.compose(phi).lift - twice.lift)) < 1e-9


def test_csv_round_trip():
    phi = CircleDiffeo.rotation(0.3, 16)
    again = CircleDiffeo.from_csv(phi.to_csv())
    assert np.array_equal(phi.lift, again.lift)


# ---- the lift interpolant ----

def trig_matrix_eval(spec, m, queries):
    """The interpolant from the full cos/sin matrix of angles k x."""
    ks = np.arange(1, spec.size)
    factors = np.full(ks.size, 2.0 / m)
    if m % 2 == 0 and spec.size - 1 == m // 2:
        factors[-1] = 1.0 / m
    ang = np.multiply.outer(ks.astype(float), queries)
    out = (spec[0].real / m
           + (factors * spec[1:].real) @ np.cos(ang)
           - (factors * spec[1:].imag) @ np.sin(ang))
    return queries + out


def scaled_coefficients(spec, m):
    coeffs = spec * (2.0 / m)
    coeffs[0] = spec[0].real / m
    if m % 2 == 0:
        coeffs[-1] = spec[-1] / m
    return coeffs


@pytest.mark.parametrize("m", [2, 3, 8, 9, 256, 257])
def test_power_table_matches_trig_matrix_and_mpmath(m):
    # flat seeded spectra, so every mode and the even-m Nyquist factor count
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng([m, 8])
    spec = np.fft.rfft(rng.normal(size=m))
    coeffs = scaled_coefficients(spec, m)
    bound = 1e-14 * (1.0 + float(np.sum(np.abs(coeffs))))
    near = rng.uniform(0.0, 2 * math.pi, 24)
    far = rng.uniform(-100.0, 100.0, 24)
    for queries in (near, far):
        got = _eval_spectrum(spec, m, queries)
        with mpmath.workdps(30):
            exact = [x + sum(mpmath.re(mpmath.mpc(c.real, c.imag) * mpmath.expj(k * x))
                             for k, c in enumerate(coeffs))
                     for x in map(mpmath.mpf, queries)]
        assert max(abs(g - e) for g, e in zip(got, exact)) < bound
        # the reference rounds each angle k x before its cos and sin, an
        # error of up to |k x| 2^-53 per mode that the power table avoids
        rounding = np.abs(coeffs) @ np.multiply.outer(np.arange(spec.size), np.abs(queries))
        reference = trig_matrix_eval(spec, m, queries)
        assert np.all(np.abs(got - reference) < bound + rounding * 2.0 ** -53)


def test_power_table_reproduces_a_trigonometric_lift():
    lift = lambda x: x + 0.3 * np.sin(5 * x) + 0.1
    queries = np.random.default_rng(8).uniform(-20.0, 20.0, 200)
    for m in (11, 12, 256):
        got = eval_lift(lift(grid_angles(m)), queries)
        assert np.max(np.abs(got - lift(queries))) < 1e-14


# ---- closed-form sl(2) flows ----

def test_sl2_flows_match_mpmath():
    # hyperbolic, elliptic, parabolic and a mode-3 field, against mpmath's
    # Taylor integrator at 20 digits; t = -2 runs back from the t = 2 point
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    fields = [SIN1, TrigPoly.from_coeffs("3/2", [1], ["-1/2"]),
              TrigPoly.from_coeffs(1, [0, 1], [0, 0]),
              TrigPoly.from_coeffs("1/4", [0, 0, "1/4"], [0, 0, 0])]
    worst = 0.0
    with mp.workdps(20):
        for field in fields:
            n = field.max_mode
            c0, a, b = (mpmath.mpf(q.numerator) / q.denominator
                        for q in (field.c0, *field.mode(n)))
            for theta0 in (0.3, 2.0, 4.5):
                reference = mp.odefun(
                    lambda s, y: c0 + a * mpmath.cos(n * y) + b * mpmath.sin(n * y),
                    0, mpmath.mpf(theta0), degree=20)
                half, end = float(reference(0.5)), float(reference(2.0))
                errors = (integrate_flow(field, 0.5, theta0) - half,
                          integrate_flow(field, 2.0, theta0) - end,
                          integrate_flow(field, -2.0, end) - theta0)
                worst = max(worst, *map(abs, errors))
    assert worst < 1e-13


def test_sl2_elliptic_flow_is_periodic():
    # with c0^2 > a^2 + b^2 every point advances by 2 pi / n in the period
    # (2 pi / n) / sqrt(c0^2 - a^2 - b^2), the integral of d theta / v over
    # 2 pi / n; three periods turn phi = n theta / 2 by 3 pi, over many sub-steps
    y0 = CircleDiffeo.identity(64).lift
    for c0, a, b, n in ((1, "1/2", 0, 1), ("3/2", 1, "-1/2", 2), (-1, "1/4", "1/2", 3)):
        c0, a, b = Fraction(c0), Fraction(a), Fraction(b)
        field = TrigPoly.constant(c0) + TrigPoly.cosine(n, a) + TrigPoly.sine(n, b)
        period = 2 * math.pi / n / math.sqrt(c0 * c0 - a * a - b * b)
        out = flow_states(field, 3 * period, y0)
        shift = math.copysign(3 * 2 * math.pi / n, c0)
        assert np.max(np.abs(out - (y0 + shift))) < 1e-12


def test_sl2_group_law():
    rng = np.random.default_rng(11)
    y0 = CircleDiffeo.identity(64).lift
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        c0, a, b = (Fraction(int(p), 4) for p in rng.integers(-2, 3, size=3))
        field = TrigPoly.constant(c0) + TrigPoly.cosine(n, a) + TrigPoly.sine(n, b)
        s, t = rng.uniform(-2, 2, size=2)
        direct = flow_states(field, s + t, y0)
        chained = flow_states(field, t, flow_states(field, s, y0))
        worst = max(worst, float(np.max(np.abs(direct - chained))))
    assert worst < 1e-12


# ---- commutator loops ----

def test_identical_fields_make_trivial_loop():
    assert commutator_flow_residual(SIN1, SIN1, 0.3, 0.2) == pytest.approx(0.0, abs=1e-9)


def test_loop_word_shape():
    word = commutator_word(COS1, SIN1, 0.5)
    assert [t for _, t in word.steps] == [-0.5, -0.5, 0.5, 0.5]
    assert word.steps[0][0] == SIN1 and word.steps[1][0] == COS1


def test_residual_tends_to_bracket_value():
    for t in (0.1, 0.05, 0.025):
        res = commutator_flow_residual(SIN1, COS1, 0.0, t)
        assert abs(res - 1.0) < 1.2 * t  # [sin, cos] = d/dtheta, value 1 at 0


def test_residual_error_halves_with_t():
    x, y = COS1, TrigPoly.sine(2)
    theta = math.pi / 3
    bval = evaluate(bracket(x, y), theta)
    hi = abs(commutator_flow_residual(x, y, theta, 0.02, rtol=1e-12) - bval)
    lo = abs(commutator_flow_residual(x, y, theta, 0.01, rtol=1e-12) - bval)
    assert 0.3 <= lo / hi <= 0.7


def test_residual_first_order_slope():
    rng = np.random.default_rng(17)
    ts = np.array([0.1, 0.05, 0.025, 0.0125])
    for _ in range(5):
        x, y = random_field(rng, 3), random_field(rng, 3)
        if bracket(x, y).is_zero():
            continue
        theta = float(rng.uniform(0, 2 * math.pi))
        bval = evaluate(bracket(x, y), theta)
        errs = np.array([abs(commutator_flow_residual(x, y, theta, float(t)) - bval)
                         for t in ts])
        if np.all(errs < 1e-8):
            continue  # loop is exact for this pair; nothing to fit
        slope = np.polyfit(np.log(ts), np.log(np.maximum(errs, 1e-14)), 1)[0]
        assert slope >= 0.9


def test_zero_t_rejected():
    with pytest.raises(ValueError):
        commutator_flow_residual(SIN1, COS1, 0.0, 0.0)
