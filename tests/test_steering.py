"""Planner behavior: distances, certificates, budgets, and density trends."""
import math

import numpy as np
import pytest

from bracketflow import steering
from bracketflow.closure import FieldFamily
from bracketflow.flows import (TWO_PI, CircleDiffeo, FlowWord, IntegrationError, apply_word,
                               flow_states, integrate_flow, is_monotone_lift)
from bracketflow.steering import (NotBracketGenerating, SteeringProblem, _eval_lift,
                                  _greedy_step, _invert_lift, _sqrt_lift, _sup_shift_distance,
                                  default_family, diffeo_distance, flow_logarithm, steer)
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


def test_distance_of_each_row_is_the_distance_of_that_row():
    rng = np.random.default_rng(18)
    for _ in range(200):
        m = int(rng.integers(2, 300))
        lift_b = np.sort(rng.uniform(-10.0, 10.0, m))
        shifts = TWO_PI * rng.integers(-3, 4, size=(6, 1)) + rng.choice([0.0, 0.5 * TWO_PI, 1.0],
                                                                         size=(6, 1))
        rows = lift_b + shifts + rng.normal(scale=10.0 ** rng.uniform(-16, 0), size=(6, m))
        dists = _sup_shift_distance(rows, lift_b)
        assert dists.shape == (6,)
        for row, dist in zip(rows, dists):
            alone = _sup_shift_distance(row, lift_b)
            assert type(alone) is float
            assert dist == alone == three_pass_distance(row, lift_b)


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
    roundtrip = _eval_lift(phi.lift, _invert_lift(phi.lift))
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
        assert np.max(np.abs(_eval_lift(psi, psi) - phi.lift)) < 1e-13


def test_inverse_meets_its_residual_on_non_rotation_targets():
    for phi in non_rotation_targets():
        inverse = _invert_lift(phi.lift)
        assert np.max(np.abs(_eval_lift(phi.lift, inverse) - IDENT.thetas)) < 1e-13


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
                                family=fam, epsilon=2e-2, budget=400))
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


def greedy_reference(fields, durations, current, target_lift, cur_dist):
    """One flow_states call per (field, sign, duration) candidate."""
    best = None
    for f in fields:
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
    return best


def greedy_grid(epsilon):
    return [epsilon / 4 * 2 ** k for k in range(20) if epsilon / 4 * 2 ** k <= 2.0]


def seeded_pair(rng, fields):
    """A start lift and a target a few family steps away from it."""
    def word(steps):
        return FlowWord.of([(fields[int(rng.integers(len(fields)))], rng.uniform(-0.5, 0.5))
                            for _ in range(steps)])
    start = apply_word(word(3), IDENT)
    return start.lift, apply_word(word(2), start).lift


def assert_same_step(got, expected):
    if expected is None:
        assert got is None
        return
    dist, f, t, state = got
    assert dist == expected[0] and t == expected[2]
    assert f is expected[1]
    assert np.array_equal(state, expected[3])


DP_FAMILY = (TrigPoly.from_coeffs(0, [1, 0], [0, "1/2"]), SIN1, TrigPoly.cosine(2),
             TrigPoly.sine(2))


@pytest.mark.parametrize("fields,epsilon,seed,cases", [
    (default_family().fields, 1e-2, 31, 8),
    (default_family().fields, 1e-3, 32, 4),
    (DP_FAMILY, 1e-2, 33, 2),
])
def test_batched_greedy_step_matches_the_per_candidate_loop(fields, epsilon, seed, cases):
    rng = np.random.default_rng(seed)
    durations = greedy_grid(epsilon)
    found = 0
    for _ in range(cases):
        current, target_lift = seeded_pair(rng, fields)
        cur_dist = _sup_shift_distance(current, target_lift)
        for bar in (cur_dist, 0.5 * cur_dist, 0.0):  # 0 admits no candidate
            expected = greedy_reference(fields, durations, current, target_lift, bar)
            assert_same_step(_greedy_step(fields, durations, current, target_lift, bar),
                             expected)
            found += expected is not None
    assert found >= cases  # every start has a step that gets closer


def test_greedy_tie_goes_to_the_first_candidate():
    # the last field equals the first, so every candidate of the first has
    # a bitwise twin; the target is one grid step of it away
    cos1 = TrigPoly.cosine(1)
    fields = (cos1, SIN1, TrigPoly.cosine(2), TrigPoly.cosine(1))
    durations = greedy_grid(1e-2)
    current = apply_word(FlowWord.of([(SIN1, 0.3)]), IDENT).lift
    target_lift = flow_states(cos1, durations[4], current)
    got = _greedy_step(fields, durations, current, target_lift, math.inf)
    assert_same_step(got, greedy_reference(fields, durations, current, target_lift, math.inf))
    assert got[0] == 0.0 and got[1] is fields[0] and got[2] == durations[4]


def test_greedy_tie_within_a_field_goes_to_the_first_duration(monkeypatch):
    # every row the same state: all candidates tie, so +durations[0] wins
    fields = default_family().fields
    current, target_lift = seeded_pair(np.random.default_rng(3), fields)
    monkeypatch.setattr(steering, "flow_states",
                        lambda f, d, y0: np.repeat(target_lift[None] + 0.1, len(d), axis=0))
    durations = greedy_grid(1e-2)
    got = _greedy_step(fields, durations, current, target_lift, math.inf)
    assert got[1] is fields[0] and got[2] == durations[0]


def test_greedy_step_flows_once_per_field(monkeypatch):
    calls = []

    def counted(field, duration, y0, **kw):
        calls.append(np.shape(duration))
        return flow_states(field, duration, y0, **kw)

    monkeypatch.setattr(steering, "flow_states", counted)
    current, target_lift = seeded_pair(np.random.default_rng(2), default_family().fields)
    _greedy_step(default_family().fields, greedy_grid(1e-2), current, target_lift, math.inf)
    assert calls == [(20,)] * 4


def test_orbit_invariance_under_composition():
    """Steering a relative target and prepending the start word reaches
    the absolute target with exactly the replayed error."""
    w0 = FlowWord.of([(SIN1, 0.4), (TrigPoly.cosine(2), -0.3)])
    x = apply_word(w0, IDENT)
    step = FlowWord.of([(TrigPoly.cosine(1), 0.5)])
    y = apply_word(step, x)
    rel = apply_word(step, IDENT)  # y after the inverse of x, by exact replay
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
    """A fixed smooth target is approached better as the budget grows, at
    the planner's fixed primitive depth (or the error already sits below
    the goal)."""
    gen = TrigPoly.from_coeffs(0, ["0", "0", "0", "3/50"], ["1/4", "0", "3/25", "0"])
    target = apply_word(FlowWord.of([(gen, 1.0)]), IDENT)
    eps = 1e-3
    errs = []
    for budget in (150, 250, 400):
        res = steer(SteeringProblem(target=target, epsilon=eps, budget=budget))
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


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_problem_rejects_a_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        SteeringProblem(target=IDENT, epsilon=epsilon)
