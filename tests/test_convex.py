"""Gauges, symmetrization, separation, cones, and the decay diagnostic."""
import signal

import numpy as np
import pytest
from scipy.optimize import linprog

from bracketflow.convex import (ConvexBody, InvalidSeed, SetsIntersect,
                                cone_extremal_point, mackey_cauchy_diagnostic,
                                minkowski, separate, symmetrize)


def random_body(rng, n, symmetric=False):
    """Bounded polytope with 0 interior: box faces plus random cuts."""
    scales = rng.uniform(0.5, 2.0, size=n)
    normals = [np.eye(n)[i] / scales[i] for i in range(n)]
    normals += [-np.eye(n)[i] / rng.uniform(0.5, 2.0) for i in range(n)]
    for _ in range(int(rng.integers(1, n + 2))):
        h = rng.normal(size=n)
        normals.append(h / rng.uniform(1.0, 3.0) / max(np.linalg.norm(h), 1e-9))
    body = ConvexBody(np.array(normals))
    return symmetrize(body) if symmetric else body


# ---- gauge examples ----

def test_gauge_at_origin_is_zero():
    assert minkowski(ConvexBody.unit_box(3), [0.0, 0.0, 0.0]) == 0.0


def test_gauge_unit_box_scaling():
    assert minkowski(ConvexBody.unit_box(2), [2.0, 0.0]) == pytest.approx(2.0)


def test_gauge_cross_polytope():
    assert minkowski(ConvexBody.cross_polytope(2), [1.0, 1.0]) == pytest.approx(2.0)


def test_gauge_matches_scaling_oracle():
    # smallest t with x/t inside the body, found by bisection
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        body = random_body(rng, n)
        x = rng.normal(size=n) * 2
        lo, hi = 1e-9, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if body.contains(x / mid, tol=0.0):
                hi = mid
            else:
                lo = mid
        assert minkowski(body, x) == pytest.approx(hi, rel=1e-6)


def test_gauge_dimension_mismatch():
    with pytest.raises(ValueError):
        minkowski(ConvexBody.unit_box(2), [1.0, 0.0, 0.0])


def test_quasi_seminorm_axioms_randomized():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        body = random_body(rng, n)
        x, y = rng.normal(size=n) * 3, rng.normal(size=n) * 3
        t = rng.uniform(0, 4)
        assert minkowski(body, x + y) <= minkowski(body, x) + minkowski(body, y) + 1e-12
        assert abs(minkowski(body, t * x) - t * minkowski(body, x)) <= 1e-12


def test_symmetrized_gauge_is_even():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        sym = symmetrize(random_body(rng, n))
        x = rng.normal(size=n) * 2
        assert minkowski(sym, x) == minkowski(sym, -x)


def test_gauge_one_on_boundary():
    rng = np.random.default_rng(6)
    body = random_body(rng, 3)
    for v in body.vertices():
        assert minkowski(body, v) == pytest.approx(1.0, abs=1e-9)
    for v in body.vertices():
        assert body.contains(0.99 * v) and not body.contains(1.01 * v, tol=1e-12)


# ---- symmetrize examples ----

def test_symmetrize_interval():
    interval = ConvexBody.from_vertices([[-1.0], [3.0]])
    sym = symmetrize(interval)
    assert sorted(v[0] for v in sym.vertices()) == pytest.approx([-1.0, 1.0])
    assert minkowski(sym, [0.4]) == pytest.approx(0.4)


def test_symmetrize_box():
    box = ConvexBody.from_vertices([[-1, -2], [1, -2], [-1, 4], [1, 4]])
    sym = symmetrize(box)
    expect = {(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)}
    assert {tuple(v) for v in np.round(sym.vertices(), 9)} == expect


def test_symmetrize_fixed_point_for_symmetric_bodies():
    box = ConvexBody.unit_box(2)
    sym = symmetrize(box)
    pts = np.random.default_rng(0).normal(size=(50, 2)) * 2
    for p in pts:
        assert minkowski(box, p) == pytest.approx(minkowski(sym, p), abs=1e-12)


def test_unbounded_body_rejected():
    with pytest.raises(ValueError):
        ConvexBody(np.array([[1.0, 0.0]]))  # half-plane


# ---- separation ----

def test_separate_point_from_box():
    cert = separate([[2.0, 0.0]], ConvexBody.unit_box(2))
    direction = cert.functional / np.linalg.norm(cert.functional)
    assert direction == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert cert.alpha == pytest.approx(-2.0, abs=1e-9)
    assert cert.beta == pytest.approx(-1.0, abs=1e-9)


def test_separate_point_from_slab_cap():
    slab = ConvexBody(np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]))
    cert = separate([[0.0, 5.0]], slab)
    direction = cert.functional / np.linalg.norm(cert.functional)
    assert direction == pytest.approx([0.0, -1.0], abs=1e-9)
    assert cert.alpha < cert.beta


def test_separate_intersecting_raises():
    with pytest.raises(SetsIntersect):
        separate([[0.0, 0.0]], ConvexBody.unit_box(2))
    with pytest.raises(SetsIntersect):
        separate([[0.0, 0.0], [3.0, 3.0]], ConvexBody.unit_box(2))  # hull crosses


def test_certificates_verify_against_raw_sets():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        body = random_body(rng, n)
        radius = max(np.linalg.norm(v) for v in body.vertices())
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        shift = direction * (radius + rng.uniform(0.2, 3.0))
        cloud = shift + rng.normal(size=(int(rng.integers(1, 12)), n)) * 0.1
        if np.min([minkowski(body, p) for p in cloud]) <= 1.0:
            continue  # grazing; this draw does not satisfy the hypothesis
        cert = separate(cloud, body)
        assert cert.alpha == pytest.approx(max(cloud @ cert.functional), abs=1e-9)
        assert cert.beta == pytest.approx(min(body.vertices() @ cert.functional), abs=1e-9)
        assert cert.alpha < cert.beta


def test_separate_between_point_clouds():
    a = [[0.0, 0.0], [0.4, 0.2]]
    b = [[2.0, 0.0], [2.5, 1.0], [3.0, -1.0]]
    cert = separate(a, b)
    assert max(np.array(a) @ cert.functional) == pytest.approx(cert.alpha, abs=1e-12)
    assert min(np.array(b) @ cert.functional) == pytest.approx(cert.beta, abs=1e-12)
    assert cert.alpha < cert.beta


def _timeout(signum, frame):
    raise TimeoutError("separate did not finish")


@pytest.mark.parametrize("seed", [[7, 99], [20, 99]])
def test_separate_terminates_when_the_added_point_is_dropped(seed):
    # a cloud off a 6-d body of 36 half-spaces, where Wolfe's affine step
    # drops the point it just added; separate must stop with a valid
    # certificate instead of picking that point again until its cap
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(24, 6))
    h = h / np.linalg.norm(h, axis=1, keepdims=True) * rng.uniform(0.5, 1.5, size=(24, 1))
    body = ConvexBody(np.vstack([np.eye(6), h, -np.eye(6)]))
    u = rng.normal(size=6)
    u /= np.linalg.norm(u)
    x = rng.normal(size=(300, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    cloud = (np.sqrt(6) + 1.5) * u + 0.5 * x * rng.uniform(0, 1, size=(300, 1)) ** (1 / 6)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(20)
    try:
        cert = separate(cloud, body)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert cert.alpha < cert.beta
    assert cert.gap >= float(cert.functional @ cert.functional) * (1 - 1e-6)


# ---- cone extremal points ----

def _lp_in_segment_cone(point, vertex, a1, x0, body, rho):
    """Independent membership test for the translated cone, via an LP."""
    # exists s >= 1 with <h_i, a1 - x0> + s <h_i, point - vertex> <= rho for all i
    c0 = body.normals @ (a1 - x0)
    c1 = body.normals @ (point - vertex)
    res = linprog(c=[0.0], A_ub=c1[:, None], b_ub=rho - c0,
                  bounds=[(1.0, None)], method="highs")
    return res.status == 0


def test_cone_singleton():
    body = ConvexBody.unit_box(2)
    pts = np.array([[0.3, -0.2]])
    res = cone_extremal_point(pts, [0.3, -0.2], [0.0, 1.0], body)
    assert np.allclose(res.vertex, [0.3, -0.2])
    assert res.level_d == 0.0
    assert res.isolates(pts)


def test_cone_off_axis_point_excluded():
    body = ConvexBody.unit_box(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    res = cone_extremal_point(pts, [0.0, 0.0], [0.0, 1.0], body)
    assert np.allclose(res.vertex, [0.0, 0.0])
    assert res.level_d == 0.0
    assert not res.in_cone([1.0, 0.0], vertex=[0.0, 0.0])
    assert res.isolates(pts)


def test_cone_single_step_to_far_point():
    body = ConvexBody.unit_box(2)
    pts = np.array([[0.0, 0.0], [0.0, 0.5]])
    res = cone_extremal_point(pts, [0.0, 0.0], [0.0, 1.0], body)
    assert np.allclose(res.vertex, [0.0, 0.5])
    assert len(res.iterates) == 2
    assert res.isolates(pts)


def test_cone_requires_symmetric_gauge():
    skew = ConvexBody(np.array([[1.0, 0.0], [-0.5, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        cone_extremal_point(np.array([[0.0, 0.0]]), [0.0, 0.0], [0.0, 0.5], skew)


def test_cone_invalid_seeds():
    body = ConvexBody.unit_box(2)
    pts = np.array([[0.0, 0.0]])
    with pytest.raises(InvalidSeed):
        cone_extremal_point(pts, [0.5, 0.5], [0.0, 1.0], body)  # a1 not in B
    with pytest.raises(InvalidSeed):
        cone_extremal_point(pts, [0.0, 0.0], [0.0, 0.0], body)  # x0 in B


def test_cone_randomized_isolation_and_halving():
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(2, 4))
        body = symmetrize(random_body(rng, n))
        cloud = rng.normal(size=(int(rng.integers(2, 60)), n))
        x0 = rng.normal(size=n) * 2
        gauges = [minkowski(body, p - x0) for p in cloud]
        if min(gauges) < 0.2:
            continue
        a1 = cloud[int(rng.integers(0, cloud.shape[0]))]
        res = cone_extremal_point(cloud, a1, x0, body)
        assert res.isolates(cloud)
        rhos = [r for _, r in res.iterates]
        for r1, r2 in zip(rhos, rhos[1:]):
            assert r2 < r1 / 2
        # membership decisions agree with an independent LP
        for p in cloud[:10]:
            mine = res.in_segment_cone(p, vertex=res.vertex)
            lp = _lp_in_segment_cone(p, res.vertex, res.a1, res.x0, body,
                                     res.alpha / 4.0) or np.allclose(p, res.vertex)
            assert mine == lp


# ---- Mackey-Cauchy diagnostic ----

def test_constant_sequence_accepted():
    rep = mackey_cauchy_diagnostic([[0.7, 0.1]] * 5, ConvexBody.unit_box(2))
    assert rep.is_cauchy_prefix
    assert np.all(rep.mu == 0.0)


def test_geometric_sequence_accepted():
    seq = [[2.0 ** -k, 0.0] for k in range(9)]
    rep = mackey_cauchy_diagnostic(seq, ConvexBody.unit_box(2))
    assert rep.is_cauchy_prefix
    for i in range(len(seq)):
        for j in range(len(seq)):
            assert rep.mu[i, j] <= 2.0 ** -min(i, j) + 1e-12
    assert rep.rate is not None and rep.rate < 1.0


def test_alternating_sequence_rejected():
    seq = [[(-1.0) ** k, 0.0] for k in range(6)]
    rep = mackey_cauchy_diagnostic(seq, ConvexBody.unit_box(2))
    assert not rep.is_cauchy_prefix
    assert rep.tail_max[0] == pytest.approx(2.0)


def test_scaling_body_scales_mu_but_not_verdict():
    seq = [[2.0 ** -k, 0.5 ** k * 0.3] for k in range(7)]
    base = mackey_cauchy_diagnostic(seq, ConvexBody.unit_box(2))
    for lam in (0.5, 2.0, 10.0):
        scaled = mackey_cauchy_diagnostic(seq, ConvexBody.unit_box(2).scale(lam))
        assert scaled.is_cauchy_prefix == base.is_cauchy_prefix
        assert np.allclose(scaled.mu, base.mu / lam, rtol=1e-9, atol=1e-15)


def test_asymmetric_m_rejected():
    skew = ConvexBody(np.array([[1.0, 0.0], [-0.5, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        mackey_cauchy_diagnostic([[0.0, 0.0], [0.1, 0.0]], skew)
