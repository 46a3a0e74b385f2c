"""Polytope gauges, separation, cone extremal points, Mackey diagnostics.

Bodies are bounded convex polytopes with 0 interior, held in the
normalized half-space form {x : <h_i, x> <= 1}.  The gauge of such a
body is exactly max(0, max_i <h_i, x>), which makes every functional
here finitely checkable.

Each body is checked bounded by one checked non-negative least-squares
certificate (Gordan-Stiemke, solved by Lawson-Hanson NNLS).  scipy is
imported by the first boundedness solve or hull, not with the module:
its optimizer and qhull stacks are the larger part of the package's
import time, and the algebra and steering commands never use them.
Separation runs Wolfe's min-norm-point algorithm on support points of
the two sets, so the Minkowski difference is never built, and checks its
certificate before returning it.  Gauges of many differences and cone
memberships of many points are evaluated as one array expression each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

DEGENERACY_TOL = 1e-12


class SetsIntersect(Exception):
    """Separation was requested for sets at distance <= the degeneracy tol."""


class InvalidSeed(Exception):
    """Cone construction seeded with a1 not in B or x0 in B."""


class InvalidCertificate(Exception):
    """A separation certificate failed its own check (alpha < beta, optimality)."""


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


# ---------------------------------------------------------------------------
# bodies

def nnls(*args, **kwargs):
    """``scipy.optimize.nnls``; scipy.optimize is imported on the first call."""
    from scipy.optimize import nnls as scipy_nnls
    return scipy_nnls(*args, **kwargs)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    No library code calls it any more; it stays only because the benchmark
    tracer (``bench/tracing.py``) patches it by name, and goes with that patch.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


# Largest residual |N^T lambda|_inf a certificate may leave, relative to
# max|N| sum(lambda); rounding N^T lambda costs at most m * 1.1e-16 of it.
_CERTIFICATE_TOL = 1e-12


def _bounded_by_nnls(normals: np.ndarray) -> bool:
    """{x : Nx <= 1} is bounded iff the normals positively span R^n.

    By Gordan-Stiemke that holds exactly when rank N = n and some
    lambda >= 1 has N^T lambda = 0.  With lambda = 1 + mu that is one
    non-negative least-squares problem, min |N^T mu + N^T 1| over mu >= 0.
    Its solution is accepted only after the check
    |N^T lambda|_inf <= _CERTIFICATE_TOL * max|N| * sum(lambda), so
    lambda is an exact certificate for normals moved by at most that
    fraction of max|N|.
    """
    n = normals.shape[1]
    if np.linalg.matrix_rank(normals) < n:
        return False
    nt = normals.T
    lam = 1.0 + nnls(nt, -nt.sum(axis=1))[0]
    return bool(np.max(np.abs(nt @ lam))
                <= _CERTIFICATE_TOL * np.max(np.abs(normals)) * lam.sum())


@dataclass(eq=False)
class ConvexBody:
    """Bounded convex polytope {x : <h_i, x> <= 1} containing 0 inside."""

    normals: np.ndarray
    _vertices: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.atleast_2d(np.array(self.normals, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("normals must form a nonempty 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("normals must be finite")
        arr.setflags(write=False)
        self.normals = arr
        if not _bounded_by_nnls(arr):
            raise ValueError("half-spaces do not bound the body "
                             "(normals fail to positively span)")
        if self._vertices is not None:
            v = np.atleast_2d(np.array(self._vertices, dtype=float))
            v.setflags(write=False)
            self._vertices = v

    @property
    def dim(self) -> int:
        return int(self.normals.shape[1])

    # -- constructors

    @staticmethod
    def from_normals(normals) -> "ConvexBody":
        return ConvexBody(np.array(normals, dtype=float))

    @staticmethod
    def from_vertices(points) -> "ConvexBody":
        """Hull of the points, its vertices in ``vertices()``'s lexicographic
        order; 0 must be interior so offsets normalize to 1."""
        pts = _finite(np.atleast_2d(np.array(points, dtype=float)), "points")
        n = pts.shape[1]
        if n == 1:
            lo, hi = float(pts.min()), float(pts.max())
            if not (lo < 0 < hi):
                raise ValueError("origin must be interior")
            return ConvexBody(np.array([[1.0 / hi], [1.0 / lo]]),
                              np.array([[lo], [hi]]))
        from scipy.spatial import ConvexHull
        hull = ConvexHull(pts)
        a = hull.equations[:, :-1]
        b = -hull.equations[:, -1]  # a x <= b
        if np.any(b <= 0):
            raise ValueError("origin must be interior")
        verts = pts[hull.vertices]
        return ConvexBody(a / b[:, None], verts[np.lexsort(verts.T[::-1])])

    @staticmethod
    def unit_box(n: int) -> "ConvexBody":
        return ConvexBody(np.vstack([np.eye(n), -np.eye(n)]))

    @staticmethod
    def cross_polytope(n: int) -> "ConvexBody":
        signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n))).T.reshape(-1, n)
        return ConvexBody(signs)

    # -- geometry

    def vertices(self) -> np.ndarray:
        """Vertex list (computed once, deterministic lexicographic order)."""
        if self._vertices is None:
            n = self.dim
            if n == 1:
                hplus = self.normals[self.normals[:, 0] > 0, 0]
                hminus = self.normals[self.normals[:, 0] < 0, 0]
                verts = np.array([[1.0 / hminus.min()], [1.0 / hplus.max()]])
            else:
                from scipy.spatial import HalfspaceIntersection
                hs = np.hstack([self.normals, -np.ones((self.normals.shape[0], 1))])
                inter = HalfspaceIntersection(hs, np.zeros(n))
                verts = np.unique(np.round(inter.intersections, 9), axis=0)
            order = np.lexsort(verts.T[::-1])
            verts = verts[order]
            verts.setflags(write=False)
            self._vertices = verts
        return self._vertices

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(np.max(self.normals @ np.asarray(x, dtype=float)) <= 1.0 + tol)

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        verts = self.vertices()
        for v in verts:
            if np.min(np.linalg.norm(verts + v, axis=1)) > tol * max(1.0, np.linalg.norm(v)):
                return False
        return True

    def scale(self, factor: float) -> "ConvexBody":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ConvexBody(self.normals / factor,
                          None if self._vertices is None else self._vertices * factor)

    # -- serialization

    def to_json_dict(self) -> dict:
        out = {"dim": self.dim, "halfspaces": self.normals.tolist()}
        if self._vertices is not None:
            out["vertices"] = self._vertices.tolist()
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "ConvexBody":
        """Body of the ``halfspaces``; a ``vertices`` entry is ignored, the
        vertices are always derived from the half-spaces."""
        body = ConvexBody(np.array(data["halfspaces"], dtype=float))
        if body.dim != int(data["dim"]):
            raise ValueError("dim field does not match half-space width")
        return body


def minkowski(body: ConvexBody, x) -> float:
    """Gauge inf{t > 0 : x in t*body} = max(0, max_i <h_i, x>)."""
    x = _finite(np.asarray(x, dtype=float), "x")
    if x.shape != (body.dim,):
        raise ValueError("dimension mismatch")
    return float(max(0.0, float(np.max(body.normals @ x))))


def symmetrize(body: ConvexBody) -> ConvexBody:
    """Intersection body of D and -D: gauge becomes symmetric under sign."""
    return ConvexBody(np.vstack([body.normals, -body.normals]))


# ---------------------------------------------------------------------------
# minimum-norm point and separation

_SCAN_PAIRS = 1 << 16  # difference rows per block of the closest-pair scan


def _min_norm_point(A: np.ndarray, B: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Wolfe's algorithm: the min-norm point of conv(A) - conv(B).

    The difference set is never built (Gilbert-Johnson-Keerthi): the
    point entering the corral is the support pair (argmin_A <a, x>,
    argmax_B <b, x>), and the corral holds index pairs (i, j) that stand
    for the rows A[i] - B[j].  Only the closest-pair start looks at every
    pair, one block of _SCAN_PAIRS at a time.
    """
    def rows(pairs):
        idx = np.array(pairs)
        return A[idx[:, 0]] - B[idx[:, 1]]

    nb = B.shape[0]
    block = max(1, _SCAN_PAIRS // nb)
    start, best = (0, 0), math.inf
    for i0 in range(0, A.shape[0], block):
        diff = (A[i0:i0 + block, None, :] - B[None, :, :]).reshape(-1, A.shape[1])
        sq = np.einsum("ij,ij->i", diff, diff)
        j = int(np.argmin(sq))
        if sq[j] < best:
            start, best = (i0 + j // nb, j % nb), sq[j]
    S = [start]
    w = np.array([1.0])
    x = A[start[0]] - B[start[1]]
    for _ in range(16 * A.shape[0] * nb + 64):
        j = (int(np.argmin(A @ x)), int(np.argmax(B @ x)))
        xx = float(x @ x)
        if float((A[j[0]] - B[j[1]]) @ x) >= xx - tol * max(1.0, xx) or j in S:
            break
        S.append(j)
        w = np.append(w, 0.0)
        while True:
            Q = rows(S)
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
            # step from w toward lam until a coordinate hits zero, drop it
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
        x = w @ rows(S)
        if j not in S:
            # the affine step dropped the point just added: x stays put and
            # the same point would be picked again on every iteration
            break
    return x


@dataclass
class SeparationCertificate:
    """Functional ell with max ell(A) = alpha < beta = min ell(B)."""

    functional: np.ndarray
    alpha: float
    beta: float
    witness_a: np.ndarray
    witness_b: np.ndarray

    @property
    def gap(self) -> float:
        return self.beta - self.alpha

    def to_json_dict(self) -> dict:
        return {
            "functional": self.functional.tolist(),
            "alpha": self.alpha,
            "beta": self.beta,
            "witness_a": self.witness_a.tolist(),
            "witness_b": self.witness_b.tolist(),
        }


def separate(a_points, b: Union[ConvexBody, np.ndarray, Sequence]) -> SeparationCertificate:
    """Separate conv(a_points) from a polytope (body or point hull).

    The minimum-distance pair is found via the min-norm point v of the
    Minkowski difference; the functional lies along that difference and
    is oriented so the a-side sits below: ell(a) <= alpha < beta <= ell(b).
    Before returning, the certificate must pass alpha < beta and Wolfe
    optimality, beta - alpha >= |ell|^2 (1 - 1e-6); otherwise
    InvalidCertificate is raised.
    """
    A = _finite(np.atleast_2d(np.asarray(a_points, dtype=float)), "a_points")
    B = b.vertices() if isinstance(b, ConvexBody) else \
        _finite(np.atleast_2d(np.asarray(b, dtype=float)), "b")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    v = _min_norm_point(A, B)
    dist = float(np.linalg.norm(v))
    if dist <= DEGENERACY_TOL:
        raise SetsIntersect(f"hulls are within {dist:.3e} of touching")
    ell = -v
    scores_a = A @ ell
    scores_b = B @ ell
    cert = SeparationCertificate(
        functional=ell,
        alpha=float(np.max(scores_a)),
        beta=float(np.min(scores_b)),
        witness_a=A[int(np.argmax(scores_a))],
        witness_b=B[int(np.argmin(scores_b))],
    )
    norm2 = float(ell @ ell)
    if not (cert.alpha < cert.beta and cert.gap >= norm2 * (1.0 - 1e-6)):
        raise InvalidCertificate(f"gap {cert.gap:.9g} against |ell|^2 {norm2:.9g}")
    return cert


# ---------------------------------------------------------------------------
# cone construction

def _feasible_s(coef0: np.ndarray, coef1: np.ndarray, rho: float,
                s_min: float, tol: float) -> np.ndarray:
    """Per row g of coef1: is there s >= s_min with coef0 + s*g <= rho componentwise?"""
    bound = rho + tol - coef0
    pos = coef1 > 1e-300
    neg = coef1 < -1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = bound / coef1
    hi = np.where(pos, ratio, math.inf).min(axis=1)
    lo = np.maximum(s_min, np.where(neg, ratio, -math.inf).max(axis=1))
    blocked = np.any(~pos & ~neg & (bound < 0), axis=1)
    return ~blocked & (lo <= hi)


@dataclass
class ConeResult:
    """Extremal vertex with the cone and neighborhood that isolate it.

    Membership tests use the closed neighborhood (closed base, t in
    [0, 1]); that is a superset of the open one, so exclusion checked
    here is the stronger statement and the vertex itself is always a
    member.
    """

    vertex: np.ndarray            # a*
    axis: np.ndarray              # e with ell(e) = 1
    functional: np.ndarray        # ell from the separation step
    a1: np.ndarray
    x0: np.ndarray
    alpha: float                  # gauge radius of the safe ball around x0
    level_d: float                # first-round sup of ell-gains
    epsilon: float                # shift in the neighborhood base
    body: ConvexBody              # the symmetric gauge body D
    iterates: list[tuple[np.ndarray, float]]  # (a_k, rho_k)

    # -- membership tests (all via one-variable interval intersection:
    # b = a + (x - a1)/s with x in a gauge ball is linear in s).  Each takes
    # one point (answer: bool) or a row array of points (one bool per row).

    def _members(self, points, apex, center, rho: float, s_min: float,
                 tol: float) -> Union[bool, np.ndarray]:
        p = np.asarray(points, dtype=float)
        delta = np.atleast_2d(p) - apex
        N = self.body.normals
        # stacked matrix-vector products: the same floats as N @ row, row by row
        coef1 = np.matmul(N, delta[:, :, None])[:, :, 0]
        inside = (np.linalg.norm(delta, axis=1) <= tol) | \
            _feasible_s(N @ (self.a1 - center), coef1, rho, s_min, tol)
        return bool(inside[0]) if p.ndim == 1 else inside

    def in_cone(self, point, vertex=None,
                tol: float = DEGENERACY_TOL) -> Union[bool, np.ndarray]:
        """point in {vertex + t (x - a1) : x in ball(x0, alpha/4), t >= 0}."""
        a = self.vertex if vertex is None else np.asarray(vertex, dtype=float)
        return self._members(point, a, self.x0, self.alpha / 4.0, 1e-12, tol)

    def in_segment_cone(self, point, vertex=None,
                        tol: float = DEGENERACY_TOL) -> Union[bool, np.ndarray]:
        """Same cone but with the parameter capped at t <= 1 (s >= 1)."""
        a = self.vertex if vertex is None else np.asarray(vertex, dtype=float)
        return self._members(point, a, self.x0, self.alpha / 4.0, 1.0, tol)

    def in_neighborhood(self, point,
                        tol: float = DEGENERACY_TOL) -> Union[bool, np.ndarray]:
        """Closed neighborhood: segment cone from a1 over the shifted base."""
        center = self.x0 + self.epsilon * self.axis
        return self._members(point, self.a1, center, self.alpha / 3.0, 1.0, tol)

    def isolates(self, b_points, tol: float = DEGENERACY_TOL) -> bool:
        """Brute force: neighborhood ∩ cone(a*) ∩ B == {a*}."""
        B = np.atleast_2d(np.asarray(b_points, dtype=float))
        inside = self.in_neighborhood(B, tol) & self.in_cone(B, tol=tol)
        at_vertex = np.linalg.norm(B - self.vertex, axis=1) <= tol
        return bool(np.any(inside & at_vertex)) and not np.any(inside & ~at_vertex)

    def to_json_dict(self) -> dict:
        return {
            "vertex": self.vertex.tolist(),
            "axis": self.axis.tolist(),
            "functional": self.functional.tolist(),
            "a1": self.a1.tolist(),
            "x0": self.x0.tolist(),
            "alpha": self.alpha,
            "level_d": self.level_d,
            "epsilon": self.epsilon,
            "body": self.body.to_json_dict(),
            "base": {  # gauge ball the cone opens over
                "center": self.x0.tolist(),
                "gauge_radius": self.alpha / 4.0,
            },
            "neighborhood": {  # shifted, slightly larger ball; cone segment over it
                "center": (self.x0 + self.epsilon * self.axis).tolist(),
                "gauge_radius": self.alpha / 3.0,
            },
            "iterates": [{"point": a.tolist(), "rho": r} for a, r in self.iterates],
        }


def _gauge_many(body: ConvexBody, deltas: np.ndarray) -> np.ndarray:
    vals = deltas @ body.normals.T
    return np.maximum(0.0, vals.max(axis=1))


def cone_extremal_point(b_points, a1, x0, body: ConvexBody,
                        tol: float = DEGENERACY_TOL) -> ConeResult:
    """Find a* in B isolated by a translated cone and a neighborhood.

    The finite-cloud iteration: separate a1 from the gauge ball around
    x0, project the cone-segment members of B on the functional, move
    the vertex to the member of maximal gain (ties: lexicographically
    smallest), and repeat until the gain vanishes.  Each move at least
    halves the gauge diameter of the truncated cone.
    """
    B = _finite(np.atleast_2d(np.asarray(b_points, dtype=float)), "b_points")
    a1 = _finite(np.asarray(a1, dtype=float), "a1")
    x0 = _finite(np.asarray(x0, dtype=float), "x0")
    if not body.is_symmetric():
        raise ValueError("gauge body must be symmetric (run symmetrize first)")
    if B.shape[1] != body.dim or a1.shape != (body.dim,) or x0.shape != (body.dim,):
        raise ValueError("dimension mismatch")
    if np.min(np.linalg.norm(B - a1, axis=1)) > tol:
        raise InvalidSeed("a1 must be a member of B")
    gauges = _gauge_many(body, B - x0)
    if np.min(gauges) <= tol:
        raise InvalidSeed("x0 must lie outside B")

    alpha = 0.5 * float(np.min(gauges))
    base_vertices = x0 + (alpha / 4.0) * body.vertices()
    cert = separate(a1[None, :], base_vertices)
    ell = cert.functional
    ell_x0 = float(ell @ (x0 - a1))
    axis = (x0 - a1) / ell_x0

    # epsilon: largest halving of alpha/12 passing both inclusion checks
    # (shifted base inside the alpha/2 ball, and small enough along the
    # axis gauge that the alpha/4 ball stays inside the shifted base).
    third_vertices = x0 + (alpha / 3.0) * body.vertices()
    gauge_e = minkowski(body, axis)
    epsilon = alpha / 12.0
    for _ in range(200):
        shifted = third_vertices + epsilon * axis
        if np.max(_gauge_many(body, shifted - x0)) <= alpha / 2.0 + tol \
                and epsilon * gauge_e <= alpha / 12.0 + tol:
            break
        epsilon /= 2.0
    else:
        raise RuntimeError("no admissible epsilon found")

    result = ConeResult(
        vertex=a1.copy(), axis=axis, functional=ell, a1=a1.copy(), x0=x0.copy(),
        alpha=alpha, level_d=0.0, epsilon=epsilon, body=body, iterates=[],
    )

    def truncated_diameter(vertex: np.ndarray, d: float) -> float:
        if d <= tol:
            return 0.0
        dirs = base_vertices - a1
        heights = dirs @ ell
        tops = vertex + (d / heights)[:, None] * dirs
        pts = np.vstack([vertex[None, :], tops])
        diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, body.dim)
        return float(np.max(_gauge_many(body, diffs)))

    current = a1.copy()
    for _ in range(B.shape[0] + 1):
        members = B[result.in_segment_cone(B, vertex=current, tol=tol)]
        # stacked dot products: the same floats as ell @ (p - current), point by point
        gains = np.matmul((members - current)[:, None, :], ell[:, None])[:, 0, 0]
        d = float(np.max(gains)) if len(gains) else 0.0
        d = max(d, 0.0)
        result.iterates.append((current.copy(), truncated_diameter(current, d)))
        if len(result.iterates) == 1:
            result.level_d = d
        if d <= tol:
            break
        best = sorted((tuple(p) for p, g in zip(members, gains) if g >= d - tol))
        current = np.array(best[0], dtype=float)
    result.vertex = current
    return result


# ---------------------------------------------------------------------------
# Mackey-Cauchy diagnostic

@dataclass
class MackeyReport:
    is_cauchy_prefix: bool
    mu: np.ndarray                 # pairwise gauges of differences
    tail_max: np.ndarray           # T[k] = max_{i,j >= k} mu_ij
    rate: Optional[float]          # geometric fit of the positive part of T

    def to_json_dict(self) -> dict:
        return {
            "is_cauchy_prefix": self.is_cauchy_prefix,
            "mu": self.mu.tolist(),
            "tail_max": self.tail_max.tolist(),
            "rate": self.rate,
        }


def mackey_cauchy_diagnostic(prefix, m_body: ConvexBody) -> MackeyReport:
    """Pairwise-gauge decay test on a finite sequence prefix.

    mu_ij is the smallest scalar with x_i - x_j in mu * M (the gauge of
    the difference).  The prefix passes when the tail maxima strictly
    decrease until they reach zero.
    """
    pts = _finite(np.atleast_2d(np.asarray(prefix, dtype=float)), "prefix")
    if not m_body.is_symmetric():
        raise ValueError("M must be symmetric (absolutely convex)")
    if pts.shape[1] != m_body.dim:
        raise ValueError("dimension mismatch")
    k = pts.shape[0]
    mu = np.zeros((k, k))
    row_max = np.zeros(k)  # max over j > i of mu_ij
    # Row by row, so the temporaries scale with k, not with the k^2/2 pairs.
    # Stacked matrix-vector products give the same floats as minkowski pair
    # by pair; the gemm form (pts[i] - pts[i+1:]) @ N.T rounds differently.
    for i in range(k - 1):
        top = np.matmul(m_body.normals, (pts[i] - pts[i + 1:])[:, :, None])[:, :, 0].max(axis=1)
        mu[i, i + 1:] = mu[i + 1:, i] = np.where(top > 0.0, top, 0.0)  # max(0.0, .), never -0.0
        row_max[i] = mu[i, i + 1:].max()
    # T[k] = max over k <= i < j of mu_ij: reverse running max of row maxima
    tail = np.maximum.accumulate(row_max[::-1])[::-1]
    ok = True
    for kk in range(k - 1):
        if tail[kk] == 0.0:
            break
        if not tail[kk + 1] < tail[kk]:
            ok = False
            break
    positive = tail[tail > 0]
    rate = None
    if positive.size >= 2:
        slope = np.polyfit(np.arange(positive.size), np.log(positive), 1)[0]
        rate = float(np.exp(slope))
    return MackeyReport(is_cauchy_prefix=ok, mu=mu, tail_max=tail, rate=rate)
