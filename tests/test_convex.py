"""Gauges, symmetrization, separation, cones, and the decay diagnostic."""
import json
import math
import signal
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from bracketflow import convex
from bracketflow.cli import main
from bracketflow.convex import (ConvexBody, InvalidCertificate, InvalidSeed, SetsIntersect,
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


def test_vertices_from_points_share_the_halfspace_body_order():
    # the hull's vertices, as the body of the hull's half-spaces lists them
    body = ConvexBody.from_vertices([[2, 0], [0, 1], [-1, 0], [0, -3]])
    assert body.vertices().tolist() == [[-1, 0], [0, -3], [0, 1], [2, 0]]
    rng = np.random.default_rng(13)
    for n in (2, 3):
        cloud = rng.normal(size=(30, n))
        body = ConvexBody.from_vertices(cloud)
        assert np.allclose(body.vertices(), ConvexBody.from_normals(body.normals).vertices(),
                           atol=1e-9)


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


def test_body_vertices_come_from_the_halfspaces_not_the_input():
    # vertices that describe another set must not change the certificate
    box = ConvexBody.unit_box(2).to_json_dict()
    forged = dict(box, vertices=[[5, 5], [5, 6], [6, 5], [6, 6]])
    expect = separate([[2.0, 0.0]], ConvexBody.from_json_dict(box))
    got = separate([[2.0, 0.0]], ConvexBody.from_json_dict(forged))
    assert np.array_equal(got.functional, expect.functional)
    assert (got.alpha, got.beta) == (expect.alpha, expect.beta)
    assert got.alpha < got.beta <= 0.0  # 0 is in the box


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


# ---- non-finite input ----

NON_FINITE_CALLS = {
    "minkowski x": lambda box, bad: minkowski(box, [bad, 0.0]),
    "separate a_points": lambda box, bad: separate([[2.0, 0.0], [bad, 0.0]], box),
    "separate b points": lambda box, bad: separate([[2.0, 0.0]], [[0.0, 0.0], [0.0, bad]]),
    "cone b_points": lambda box, bad: cone_extremal_point(
        [[0.0, 0.0], [bad, 0.5]], [0.0, 0.0], [0.0, 1.0], box),
    "cone a1": lambda box, bad: cone_extremal_point([[0.0, 0.0]], [bad, 0.0], [0.0, 1.0], box),
    "cone x0": lambda box, bad: cone_extremal_point([[0.0, 0.0]], [0.0, 0.0], [0.0, bad], box),
    "mackey prefix": lambda box, bad: mackey_cauchy_diagnostic(
        [[1.0, 0.0], [bad, 0.0], [0.25, 0.0]], box),
    # qhull used to get these and raise QhullError
    "from_vertices": lambda box, bad: ConvexBody.from_vertices([[bad, 0.0], [-1.0, 1.0],
                                                                [-1.0, -1.0]]),
    "from_vertices 1-d": lambda box, bad: ConvexBody.from_vertices([[-1.0], [bad]]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_input_rejected_before_any_work(monkeypatch, call, bad):
    box = ConvexBody.unit_box(2)

    def work(*args, **kwargs):
        raise AssertionError("work began before the finiteness check")

    # an infinite point used to keep the Wolfe loop running indefinitely
    for name in ("_min_norm_point", "_gauge_many"):
        monkeypatch.setattr(convex, name, work)
    monkeypatch.setattr(ConvexBody, "is_symmetric", work)
    with pytest.raises(ValueError, match="must be finite"):
        NON_FINITE_CALLS[call](box, bad)


# ---- reference implementations: the loops the array code replaced ----

def _bounded_by_coordinate_lps(normals):
    """{x : Nx <= 1} is bounded iff every coordinate LP has a finite optimum."""
    m, n = normals.shape
    ones = np.ones(m)
    for j in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sign  # maximize sign * x_j
            res = linprog(c, A_ub=normals, b_ub=ones, bounds=[(None, None)] * n,
                          method="highs")
            if res.status == 3:  # unbounded
                return False
            assert res.status == 0
    return True


def _mackey_by_pairs(pts, body):
    """mu pair by pair through minkowski, and the O(k^3) tail maxima."""
    k = pts.shape[0]
    mu = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            mu[i, j] = mu[j, i] = minkowski(body, pts[i] - pts[j])
    tail = np.array([mu[kk:, kk:].max() if kk < k else 0.0 for kk in range(k)])
    return mu, tail


def _min_norm_point_of_rows(points, tol=1e-13):
    """Wolfe's algorithm on the rows of the whole difference matrix."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    k = P.shape[0]
    start = int(np.argmin(np.einsum("ij,ij->i", P, P)))
    S = [start]
    w = np.array([1.0])
    x = P[start].copy()
    for _ in range(16 * k + 64):
        dots = P @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        if dots[j] >= xx - tol * max(1.0, xx) or j in S:
            break
        S.append(j)
        w = np.append(w, 0.0)
        while True:
            Q = P[S]
            r = len(S)
            M = np.zeros((r + 1, r + 1))
            M[:r, :r] = Q @ Q.T
            M[:r, r] = 1.0
            M[r, :r] = 1.0
            rhs = np.zeros(r + 1)
            rhs[r] = 1.0
            lam = np.linalg.lstsq(M, rhs, rcond=None)[0][:r]
            if np.all(lam > 1e-12):
                w = lam
                break
            mask = lam <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(w - lam > 1e-18, w / (w - lam), np.inf)
            theta = min(1.0, float(np.min(ratios[mask])) if np.any(mask) else 1.0)
            w = (1.0 - theta) * w + theta * lam
            keep = w > 1e-12
            if np.all(keep):
                keep[int(np.argmin(w))] = False
            S = [s for s, kp in zip(S, keep) if kp]
            w = w[keep]
            w = w / w.sum()
        x = w @ P[S]
        if j not in S:
            break
    return x


def _separate_by_difference_matrix(A, B):
    """(ell, alpha, beta, witness_a, witness_b) from the materialised A - B."""
    diff = (A[:, None, :] - B[None, :, :]).reshape(-1, A.shape[1])
    ell = -_min_norm_point_of_rows(diff)
    scores_a, scores_b = A @ ell, B @ ell
    return (ell, float(np.max(scores_a)), float(np.min(scores_b)),
            A[int(np.argmax(scores_a))], B[int(np.argmin(scores_b))])


def _feasible_s_scalar(coef0, coef1, rho, s_min, tol):
    """Is there s >= s_min with coef0 + s*coef1 <= rho componentwise?"""
    lo, hi = s_min, math.inf
    for c, g in zip(coef0, coef1):
        bound = rho + tol - c
        if abs(g) <= 1e-300:
            if bound < 0:
                return False
        elif g > 0:
            hi = min(hi, bound / g)
        else:
            lo = max(lo, bound / g)
    return lo <= hi


def _member_by_point(res, p, apex, center, rho, s_min, tol=convex.DEGENERACY_TOL):
    if np.linalg.norm(p - apex) <= tol:
        return True
    N = res.body.normals
    return _feasible_s_scalar(N @ (res.a1 - center), N @ (p - apex), rho, s_min, tol)


def _masks_by_point(res, B, vertex):
    """(cone, segment cone, neighborhood) membership, one point at a time."""
    center = res.x0 + res.epsilon * res.axis
    return (np.array([_member_by_point(res, p, vertex, res.x0, res.alpha / 4.0, 1e-12)
                      for p in B]),
            np.array([_member_by_point(res, p, vertex, res.x0, res.alpha / 4.0, 1.0)
                      for p in B]),
            np.array([_member_by_point(res, p, res.a1, center, res.alpha / 3.0, 1.0)
                      for p in B]))


def _isolates_by_point(res, B, tol=convex.DEGENERACY_TOL):
    hit = False
    for p in B:
        inside = _member_by_point(res, p, res.a1, res.x0 + res.epsilon * res.axis,
                                  res.alpha / 3.0, 1.0) \
            and _member_by_point(res, p, res.vertex, res.x0, res.alpha / 4.0, 1e-12)
        if np.linalg.norm(p - res.vertex) <= tol:
            hit = hit or inside
        elif inside:
            return False
    return hit


def _stall_case(seed):
    """300 points off a 6-d body of 36 half-spaces (860 vertices)."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(24, 6))
    h = h / np.linalg.norm(h, axis=1, keepdims=True) * rng.uniform(0.5, 1.5, size=(24, 1))
    body = ConvexBody(np.vstack([np.eye(6), h, -np.eye(6)]))
    u = rng.normal(size=6)
    u /= np.linalg.norm(u)
    x = rng.normal(size=(300, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return (np.sqrt(6) + 1.5) * u + 0.5 * x * rng.uniform(0, 1, size=(300, 1)) ** (1 / 6), body


def _ball_cloud(rng, count, n, centre, radius):
    x = rng.normal(size=(count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return centre + radius * x * rng.uniform(0, 1, size=(count, 1)) ** (1 / n)


# ---- the array code against the references ----

def _normal_sets():
    rng = np.random.default_rng(30)
    sets = []
    for _ in range(12):  # bounded: box faces plus random cuts
        sets.append((random_body(rng, int(rng.integers(2, 7))).normals, True))
    for _ in range(8):  # unbounded: every normal in the closed half-space <h, u> >= 0
        n = int(rng.integers(2, 6))
        u = rng.normal(size=n)
        h = rng.normal(size=(int(rng.integers(1, 3 * n)), n))
        h -= np.minimum(h @ u, 0.0)[:, None] * u / (u @ u)  # some land on <h, u> = 0
        sets.append((h, False))
    for _ in range(6):  # rank deficient: positively spanning a hyperplane only
        n = int(rng.integers(2, 6))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :n - 1]
        sets.append((np.vstack([np.eye(n - 1), -np.ones((1, n - 1))]) @ q.T, False))
    sets += [(np.array([[1.0], [-0.5]]), True), (np.array([[2.0], [0.3], [-4.0]]), True),
             (np.array([[1.0], [0.5]]), False), (np.array([[-1.0]]), False),
             (np.array([[0.0, 0.0]]), False), (np.eye(3), False)]
    box = np.vstack([np.eye(3), -np.eye(3)])
    sets += [(box * 2.0 ** 26, True), (box * 2.0 ** -26, True),
             (np.vstack([box, box[1:4], box[1:4]]), True),  # duplicated normals
             (np.vstack([box[:5], box[:5]]), False)]
    # the thin wedge's certificate has sum(lambda) = 2^30 + 1, but no lambda >= 1
    # cancels the normal e_3: x_3 runs to -infinity
    d = 2.0 ** -30
    sets.append((np.array([[1.0, d, 0.0], [-1.0, d, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
                 False))
    return sets


def test_boundedness_lp_matches_coordinate_lps():
    sets = _normal_sets()
    assert len(sets) >= 30
    for normals, bounded in sets:
        assert convex._bounded_by_nnls(normals) == _bounded_by_coordinate_lps(normals) == bounded


def test_one_boundedness_lp_per_body(monkeypatch):
    calls = []
    solve = convex.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(convex, "nnls", counted)
    ConvexBody.cross_polytope(6)
    assert len(calls) == 1


@pytest.mark.parametrize("d, bounded", [(2.0 ** -20, True), (2.0 ** -30, True),
                                        (0.0, False), (-2.0 ** -30, False),
                                        (-2.0 ** -10, False)])
def test_thin_wedge_is_bounded_exactly_when_its_slope_is_positive(d, bounded):
    # {(1, d), (-1, d), (0, -1)}: the certificate is lambda = (1/2d, 1/2d, 1)
    normals = [[1.0, d], [-1.0, d], [0.0, -1.0]]
    if bounded:
        ConvexBody(normals)
    else:
        with pytest.raises(ValueError, match="do not bound"):
            ConvexBody(normals)


@pytest.mark.parametrize("corrupt", ["zero", "raised"])
def test_a_wrong_certificate_never_builds_a_body(monkeypatch, corrupt):
    normals = np.array([[1.0, 0.25], [-1.0, 0.25], [0.0, -1.0]])
    ConvexBody(normals)
    solve, calls = convex.nnls, []

    def wrong(A, b):
        mu = solve(A, b)[0]
        assert mu.any()  # lambda = 1 is no certificate for this body
        if corrupt == "zero":
            mu = np.zeros_like(mu)
        else:
            mu[0] += 1.0
        calls.append(mu)
        return mu, 0.0

    monkeypatch.setattr(convex, "nnls", wrong)
    with pytest.raises(ValueError, match="do not bound"):
        ConvexBody(normals)
    assert len(calls) == 1


def test_bodies_in_one_and_six_dimensions_accepted():
    interval = ConvexBody.from_vertices([[-1.0], [3.0]])
    assert interval.vertices().tolist() == [[-1.0], [3.0]]
    assert ConvexBody.cross_polytope(6).vertices().shape == (12, 6)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_mackey_matches_pairwise_loop(n):
    rng = np.random.default_rng(40 + n)
    m_body = symmetrize(random_body(rng, n))
    u = rng.normal(size=n)
    prefixes = [np.array([0.93 ** k * u for k in range(60)]),
                np.array([(-1.0) ** k * u for k in range(25)]),
                rng.normal(size=(40, n)),
                np.repeat(rng.normal(size=(5, n)), 3, axis=0)]  # zero differences
    for prefix in prefixes:
        report = mackey_cauchy_diagnostic(prefix, m_body)
        mu, tail = _mackey_by_pairs(prefix, m_body)
        assert report.mu.tobytes() == mu.tobytes()
        assert report.tail_max.tobytes() == tail.tobytes()


def test_mackey_short_prefixes():
    box = ConvexBody.unit_box(2)
    for k in (0, 1, 2):
        prefix = np.array([[0.5 ** i, 0.25] for i in range(k)]).reshape(k, 2)
        report = mackey_cauchy_diagnostic(prefix, box)
        mu, tail = _mackey_by_pairs(prefix, box)
        assert report.mu.shape == (k, k) and report.mu.tobytes() == mu.tobytes()
        assert report.tail_max.shape == (k,) and report.tail_max.tobytes() == tail.tobytes()
        assert report.is_cauchy_prefix and report.rate is None
    assert report.to_json_dict() == {"is_cauchy_prefix": True, "mu": [[0.0, 0.5], [0.5, 0.0]],
                                     "tail_max": [0.5, 0.0], "rate": None}


def _separation_cases(n):
    rng = np.random.default_rng(50 + n)
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    body = random_body(rng, n)
    radius = max(np.linalg.norm(v) for v in body.vertices())
    return [(_ball_cloud(rng, 40, n, -1.6 * u, 1.0), _ball_cloud(rng, 50, n, 1.6 * u, 1.0)),
            (_ball_cloud(rng, 400, n, -1.3 * u, 1.0), _ball_cloud(rng, 300, n, 1.3 * u, 1.0)),
            # repeated rows: equally close pairs in every block of the start scan
            (np.tile(_ball_cloud(rng, 3, n, -1.3 * u, 1.0), (40, 1)),
             _ball_cloud(rng, 2000, n, 1.3 * u, 1.0)),
            (_ball_cloud(rng, 30, n, (radius + 0.8) * u, 0.5), body.vertices()),
            (rng.normal(size=(1, n)) + 4.0 * u, body.vertices())]


def _assert_same_certificate(A, B):
    cert = separate(A, B)
    ell, alpha, beta, wa, wb = _separate_by_difference_matrix(A, B)
    assert np.array_equal(cert.functional, ell)
    assert cert.alpha == alpha and cert.beta == beta
    assert np.array_equal(cert.witness_a, wa) and np.array_equal(cert.witness_b, wb)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_separate_matches_difference_matrix_wolfe(n):
    for A, B in _separation_cases(n):
        _assert_same_certificate(A, B)


@pytest.mark.parametrize("seed", [[7, 99], [20, 99]])
def test_separate_matches_difference_matrix_wolfe_on_stall_seeds(seed):
    cloud, body = _stall_case(seed)
    _assert_same_certificate(cloud, body.vertices())


@pytest.mark.parametrize("factor", [2.0, -1.0])
def test_separate_checks_its_certificate(monkeypatch, tmp_path, factor):
    # a min-norm point scaled by 2 fails optimality, one reversed fails alpha < beta
    a, b = [[0.0, 0.0], [0.4, 0.2]], [[2.0, 0.0], [2.5, 1.0], [3.0, -1.0]]
    separate(a, b)
    original = convex._min_norm_point
    monkeypatch.setattr(convex, "_min_norm_point", lambda A, B: factor * original(A, B))
    with pytest.raises(InvalidCertificate):
        separate(a, b)
    inp = tmp_path / "sep.json"
    inp.write_text(json.dumps({"A": a, "B": {"points": b}}), encoding="utf-8")
    assert main(["separate", "--input", str(inp)]) == 2


def test_separate_memory_stays_small():
    rng = np.random.default_rng([0, 1500])
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    a = _ball_cloud(rng, 1500, 3, -1.6 * u, 1.0)
    b = _ball_cloud(rng, 1500, 3, 1.6 * u, 1.0)
    tracemalloc.start()
    try:
        separate(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_membership_masks_and_isolation_match_point_loop():
    rng = np.random.default_rng(60)
    checked = 0
    for _ in range(12):
        n = int(rng.integers(2, 4))
        body = symmetrize(random_body(rng, n))
        cloud = rng.normal(size=(int(rng.integers(2, 200)), n))
        x0 = rng.normal(size=n) * 2
        if min(minkowski(body, p - x0) for p in cloud) < 0.2:
            continue
        a1 = cloud[int(rng.integers(0, cloud.shape[0]))]
        res = cone_extremal_point(cloud, a1, x0, body)
        probes = np.vstack([cloud, res.vertex + 0.05 * rng.normal(size=(50, n))])
        for vertex in (res.vertex, a1):
            cone, segment, hood = _masks_by_point(res, probes, vertex)
            assert np.array_equal(res.in_cone(probes, vertex=vertex), cone)
            assert np.array_equal(res.in_segment_cone(probes, vertex=vertex), segment)
            assert np.array_equal(res.in_neighborhood(probes), hood)
        # level_d from the gains of the first round, ell @ (p - a1) point by point
        first = [float(res.functional @ (p - a1))
                 for p, inside in zip(cloud, _masks_by_point(res, cloud, a1)[1]) if inside]
        assert res.level_d == max(0.0, max(first))
        assert res.isolates(cloud) is _isolates_by_point(res, cloud) is True
        assert res.isolates(probes) is _isolates_by_point(res, probes)
        assert type(res.in_cone(probes[0])) is bool
        checked += 1
    assert checked >= 6
