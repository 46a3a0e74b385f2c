"""Planner behavior: distances, certificates, budgets, and density trends."""
import math

import numpy as np
import pytest

from bracketflow.closure import FieldFamily
from bracketflow.flows import (TWO_PI, CircleDiffeo, FlowWord, apply_word, eval_lift,
                               integrate_flow, invert_lift, is_monotone_lift)
from bracketflow.steering import (NotBracketGenerating, SteeringProblem, _sqrt_lift,
                                  _sup_shift_distance, diffeo_distance, flow_logarithm,
                                  steer)
from bracketflow.trig_fields import TrigPoly

SIN1 = TrigPoly.sine(1)
IDENT = CircleDiffeo.identity(256)


# ---- metric ----

def test_distance_to_self_is_zero():
    phi = CircleDiffeo.rotation(1.1, 64)
    assert diffeo_distance(phi, phi) == 0.0


def test_distance_to_rotation_is_the_angle():
    assert diffeo_distance(CircleDiffeo.identity(64),
                           CircleDiffeo.rotation(0.5, 64)) == pytest.approx(0.5)


def test_distance_ignores_period_shift_of_one_lift():
    phi = CircleDiffeo.rotation(0.2, 64)
    shifted = CircleDiffeo(phi.lift + 2 * math.pi)
    assert diffeo_distance(phi, shifted) == pytest.approx(0.0, abs=1e-12)


def test_distance_to_sine_flow_matches_pointwise_flow():
    word = FlowWord.of([(SIN1, 0.3)])
    phi = apply_word(word, IDENT)
    expected = max(abs(integrate_flow(SIN1, 0.3, float(t)) - float(t))
                   for t in IDENT.thetas)
    assert diffeo_distance(IDENT, phi) == pytest.approx(expected, abs=1e-9)


def three_pass_distance(lift_a, lift_b):
    delta = lift_a - lift_b
    mid = 0.5 * (float(delta.max()) + float(delta.min()))
    k0 = round(mid / TWO_PI)
    return min(float(np.max(np.abs(delta - TWO_PI * k))) for k in (k0 - 1, k0, k0 + 1))


def test_distance_from_extremes_matches_three_array_passes():
    # bitwise, on seeded lifts near each other, a few periods apart, and
    # about half a period apart, where two shifts nearly tie
    rng = np.random.default_rng(8)
    for _ in range(5000):
        m = int(rng.integers(2, 300))
        lift_a = np.sort(rng.uniform(-10.0, 10.0, m))
        shift = TWO_PI * int(rng.integers(-3, 4)) + rng.choice([0.0, 0.5 * TWO_PI, 1.0])
        lift_b = lift_a + shift + rng.normal(scale=10.0 ** rng.uniform(-16, 0), size=m)
        assert _sup_shift_distance(lift_a, lift_b) == three_pass_distance(lift_a, lift_b)


def test_distance_grid_mismatch():
    with pytest.raises(ValueError):
        diffeo_distance(CircleDiffeo.identity(64), CircleDiffeo.identity(128))


# ---- logarithm profile ----

def test_log_of_rotation_is_constant():
    u = flow_logarithm(CircleDiffeo.rotation(0.3, 256))
    assert np.max(np.abs(u - 0.3)) < 1e-10


def test_log_of_field_flow_recovers_the_field():
    u_true = 0.25 * np.sin(IDENT.thetas) + 0.1 * np.cos(2 * IDENT.thetas)
    field = TrigPoly.from_coeffs(0, [0, "1/10"], ["1/4", 0])
    phi = apply_word(FlowWord.of([(field, 1.0)]), IDENT)
    u = flow_logarithm(phi)
    assert np.max(np.abs(u - u_true)) < 1e-7


def test_internal_inverse_is_accurate():
    phi = apply_word(FlowWord.of([(SIN1, 0.6)]), IDENT)
    roundtrip = phi(phi.inverse().lift)
    assert np.max(np.abs(roundtrip - IDENT.thetas)) < 1e-11


def non_rotation_targets():
    # on larger two-step words, such as sin1 for 0.3 then cos2 for 0.2, the
    # square root stops at its first residual that does not decrease, at
    # 1e-12 to 1e-6
    half_cos3 = TrigPoly.from_coeffs(0, [0, 0, "1/2"], [0, 0, 0])
    return [apply_word(FlowWord.of([(half_cos3, 0.2)]), IDENT),
            apply_word(FlowWord.of([(SIN1, 0.1), (TrigPoly.cosine(2), 0.05)]), IDENT)]


def test_square_root_composes_back_on_non_rotation_targets():
    for phi in non_rotation_targets():
        psi = _sqrt_lift(phi.lift, IDENT.thetas)
        assert is_monotone_lift(psi)
        assert np.max(np.abs(eval_lift(psi, psi) - phi.lift)) < 1e-13


def test_inverse_meets_its_residual_on_non_rotation_targets():
    for phi in non_rotation_targets():
        inverse = invert_lift(phi.lift)
        assert np.max(np.abs(eval_lift(phi.lift, inverse) - IDENT.thetas)) < 1e-13


# ---- steer: pinned behaviors ----

def test_identity_target_needs_no_steps():
    res = steer(SteeringProblem(target=CircleDiffeo.identity(256), epsilon=1e-9))
    assert len(res.word) == 0
    assert res.achieved_error == 0.0
    assert res.converged


def test_target_on_a_family_subgroup_is_recovered():
    target = apply_word(FlowWord.of([(SIN1, 0.7)]), IDENT)
    res = steer(SteeringProblem(target=target, epsilon=1e-6, budget=100))
    assert res.converged
    assert res.achieved_error <= 1e-6


def test_rotation_target_reached_via_primitives():
    res = steer(SteeringProblem(target=CircleDiffeo.rotation(0.3, 256),
                                epsilon=1e-2, budget=400))
    assert res.converged
    assert res.achieved_error <= 1e-2
    assert len(res.word) <= 400
    # the rotation direction itself is not in the family, so the word
    # must mix at least two distinct fields (bracket realization)
    assert len({f.trimmed() for f, _ in res.word.steps}) >= 2


def test_not_bracket_generating_reported():
    fam = FieldFamily.of_trig([("cos2", TrigPoly.cosine(2)),
                               ("sin2", TrigPoly.sine(2))])
    target = apply_word(FlowWord.of([(SIN1, 0.4)]), IDENT)
    with pytest.raises(NotBracketGenerating):
        steer(SteeringProblem(target=target, family=fam, epsilon=1e-3))


def test_mode_zero_reachable_from_mode_two_family():
    # the two-field family spans the rotation direction through one bracket
    fam = FieldFamily.of_trig([("cos2", TrigPoly.cosine(2)),
                               ("sin2", TrigPoly.sine(2))])
    res = steer(SteeringProblem(target=CircleDiffeo.rotation(0.2, 256),
                                family=fam, epsilon=2e-2, budget=400,
                                primitive_depth=2))
    assert res.achieved_error <= 2e-2


# ---- result soundness ----

def test_result_is_a_replayable_certificate():
    target = CircleDiffeo.rotation(0.3, 256)
    res = steer(SteeringProblem(target=target, epsilon=1e-2, budget=200))
    replay = diffeo_distance(apply_word(res.word, CircleDiffeo.identity(256)), target)
    assert replay == res.achieved_error  # bitwise: same word, same integrator


def test_trace_matches_word_length_and_is_final():
    target = CircleDiffeo.rotation(0.25, 256)
    res = steer(SteeringProblem(target=target, epsilon=1e-2, budget=200))
    assert len(res.trace) == len(res.word)
    assert res.trace[-1] == res.achieved_error


def test_greedy_on_a_dormand_prince_family():
    """A family with a two-mode field: its steps flow through Dormand-Prince,
    and the greedy phase's states are the replayed states bit for bit."""
    fam = FieldFamily.of_trig([("cos1+sin2/2", TrigPoly.from_coeffs(0, [1, 0], [0, "1/2"])),
                               ("sin1", SIN1),
                               ("cos2", TrigPoly.cosine(2)),
                               ("sin2", TrigPoly.sine(2))])
    target = CircleDiffeo.rotation(0.3, 256)
    res = steer(SteeringProblem(target=target, family=fam, epsilon=1e-2, budget=200))
    assert res.converged
    assert res.trace[-1] == res.achieved_error
    replay = diffeo_distance(apply_word(res.word, CircleDiffeo.identity(256)), target)
    assert replay == res.achieved_error
    # the last step is a greedy one: a duration on the grid (epsilon / 4) 2^k
    _, t_last = res.word.steps[-1]
    assert abs(t_last) in {2.5e-3 * 2 ** k for k in range(10)}


def test_orbit_invariance_under_composition():
    """Steering a relative target and prepending the start word reaches
    the absolute target with exactly the replayed error."""
    w0 = FlowWord.of([(SIN1, 0.4), (TrigPoly.cosine(2), -0.3)])
    x = apply_word(w0, IDENT)
    y = apply_word(FlowWord.of([(TrigPoly.cosine(1), 0.5)]), x)
    rel = y.compose(x.inverse())
    res = steer(SteeringProblem(target=rel, epsilon=1e-4, budget=200))
    via_concat = apply_word(w0.concat(res.word), IDENT)
    via_stages = apply_word(res.word, x)
    assert np.array_equal(via_concat.lift, via_stages.lift)
    assert diffeo_distance(via_concat, y) <= res.achieved_error + 1e-9


def test_error_non_increasing_in_budget():
    target = CircleDiffeo.rotation(0.3, 256)
    errs = [steer(SteeringProblem(target=target, epsilon=1e-4, budget=b)).achieved_error
            for b in (40, 80, 160)]
    assert errs[0] >= errs[1] >= errs[2]


def test_density_trend_over_depth_budget_ladder():
    """A fixed smooth target is approached better as the primitive depth
    and budget grow (or the error already sits below the goal)."""
    gen = TrigPoly.from_coeffs(0, ["0", "0", "0", "3/50"], ["1/4", "0", "3/25", "0"])
    target = apply_word(FlowWord.of([(gen, 1.0)]), IDENT)
    eps = 1e-3
    errs = []
    for depth, budget in [(1, 150), (2, 250), (3, 400)]:
        res = steer(SteeringProblem(target=target, epsilon=eps, budget=budget,
                                    primitive_depth=depth))
        errs.append(res.achieved_error)
    for e1, e2 in zip(errs, errs[1:]):
        assert e2 < e1 or e2 <= eps


def test_word_length_respects_budget():
    target = apply_word(FlowWord.of([(SIN1, 0.9), (TrigPoly.cosine(2), 0.4)]), IDENT)
    for budget in (3, 10, 50):
        res = steer(SteeringProblem(target=target, epsilon=1e-10, budget=budget))
        assert len(res.word) <= budget
        # a budget this tight cannot meet 1e-10; the result still reports
        # its best word honestly
        assert not res.converged
        assert res.achieved_error > 1e-10


def test_result_round_trips_through_json():
    res = steer(SteeringProblem(target=CircleDiffeo.rotation(0.2, 256),
                                epsilon=1e-2, budget=100))
    data = res.to_json_dict()
    word = FlowWord.from_json_list(data["word"])
    replay = apply_word(word, CircleDiffeo.identity(256))
    assert diffeo_distance(replay, CircleDiffeo.rotation(0.2, 256)) == res.achieved_error


def test_problem_validation():
    with pytest.raises(ValueError):
        SteeringProblem(target=IDENT, epsilon=0.0)
    with pytest.raises(ValueError):
        SteeringProblem(target=IDENT, epsilon=1e-2, budget=0)
