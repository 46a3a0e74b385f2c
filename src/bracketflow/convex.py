"""Polytope gauges, separation, cone extremal points, Mackey diagnostics.

Bodies are bounded convex polytopes with 0 interior, held in the
normalized half-space form {x : <h_i, x> <= 1}.  The gauge of such a
body is exactly max(0, max_i <h_i, x>), which makes every functional
here finitely checkable.

Each body is checked bounded by one checked non-negative least-squares
certificate (Gordan-Stiemke), solved by the Lawson-Hanson NNLS in this
module.  scipy serves only qhull: scipy.spatial is imported by the first
hull (``vertices()`` or ``from_vertices``), not with the module, since its
stack is the larger part of the package's import time and only the hull
commands need it.  No command imports scipy.optimize.
Separation runs Wolfe's min-norm-point algorithm on support points of
the two sets, so the Minkowski difference is never built, and checks its
certificate before returning it.  Gauges of many differences and cone
memberships of many points are evaluated as one array expression each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import Optional, Sequence, Union

import numpy as np

# Distance, gauge and gain below which the cone construction, its membership
# tests and isolation count two points as one, a point as in B, or a gain as 0;
# separation also refuses hulls this close.
DEGENERACY_TOL = 1e-12
# Slack of ``contains`` and ``is_symmetric``: ``vertices()`` rounds qhull's
# vertices to 9 decimals, so a vertex may lie this far off its facets.
_VERTEX_TOL = 1e-9
# Wolfe's stop: the support point s has <s, x> >= |x|^2 - _WOLFE_TOL max(1, |x|^2).
_WOLFE_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


class SetsIntersect(Exception):
    """Separation was requested for sets at distance <= DEGENERACY_TOL."""


class InvalidSeed(Exception):
    """Cone construction seeded with a1 not in B or x0 in B."""


class InvalidCertificate(Exception):
    """A separation certificate failed its own check (alpha < beta, optimality)."""


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


def _real_array(value, what: str) -> np.ndarray:
    """``np.array(value, dtype=float)`` of a JSON value; a ``true``/``false``
    in it raises ``ValueError`` rather than reading as 1.0 or 0.0.

    The types are read a whole nesting level at a time, so no Python code
    runs per number; a level that mixes lists and numbers is ragged, which
    numpy rejects."""
    level = [value]
    while True:
        kinds = set(map(type, level))
        if bool in kinds:
            raise ValueError(f"{what} must hold numbers, not true or false")
        if kinds != {list}:
            return np.array(value, dtype=float)
        level = list(chain.from_iterable(level))


# ---------------------------------------------------------------------------
# bodies

def _orthogonalize(basis: list, proj: list, v: list) -> Optional[tuple]:
    """(q, R column, <q, proj>) that extend the basis by column v (modified
    Gram-Schmidt), or None when v depends on the basis by Lawson and
    Hanson's test: 0.01 times the norm of its part off the span is lost
    when added to the norm of its part in it."""
    r = []
    for q, _, _ in basis:
        t = sum(map(mul, q, v))
        v = [vi - t * qi for vi, qi in zip(v, q)]
        r.append(t)
    rjj, unorm = math.hypot(*v), math.hypot(*r)
    if not unorm + 0.01 * rjj - unorm > 0.0:
        return None
    q = [vi / rjj for vi in v]
    return q, r + [rjj], sum(map(mul, q, proj))


def _push(basis: list, proj: list, column: tuple) -> list:
    """Append the column to the basis; returns proj less its part along q."""
    basis.append(column)
    q, _, c = column
    return [pi - c * qi for pi, qi in zip(proj, q)]


def nnls(A, b) -> tuple[np.ndarray, float]:
    """(x, |Ax - b|_2) for the x >= 0 that minimizes |Ax - b|_2.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23) with their three tests for the column j that enters the
    passive set P: its dual w_j = <a_j, b - Ax> is the largest and above
    rounding level, it is independent of A_P (see _orthogonalize), and
    its least-squares coefficient is positive.  The least-squares problems
    on A_P are solved through a modified Gram-Schmidt factorization that
    grows by one column per entry and is rebuilt when a coefficient
    reaches 0 and its column leaves P.  P never holds more than m
    columns, so for the few rows of a boundedness problem each step is a
    few dozen float operations and one matrix-vector product.  Raises
    RuntimeError when 3n entries to P have not solved it.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError("nnls needs an m x n matrix and a length-m vector")
    m, n = A.shape
    at = A.T
    cols, rhs = at.tolist(), b.tolist()
    absa = np.abs(A)
    colmax, col1 = absa.max(axis=0, initial=0.0).tolist(), absa.sum(axis=0).tolist()
    bsum = sum(map(abs, rhs))
    passive: list[int] = []
    xp: list[float] = []  # x on P
    basis: list = []
    proj = rhs  # b less its projection on span(A_P): b - Ax once x_P solves it
    for entries in range(3 * n + 1):
        if len(passive) == min(m, n):
            break
        if entries == 3 * n:
            raise RuntimeError("nnls: no solution after 3n entries to the passive set")
        w = at @ proj
        for i in passive:
            w[i] = 0.0
        # w_j up to (m + |P|) eps max|a_j| (|b|_1 + sum_p x_p |a_p|_1), twice
        # a bound on the rounding error of A^T (b - A_P x_P), counts as 0
        tol = (m + len(passive)) * _EPS * (bsum + sum(xi * col1[i] for i, xi in zip(passive, xp)))
        column = None
        while column is None:
            j = int(w.argmax())
            if not w[j] > 0.0:
                break
            if w[j] > tol * colmax[j]:
                column = _orthogonalize(basis, proj, cols[j])
                if column is not None and not column[2] / column[1][-1] > 0.0:
                    column = None
            w[j] = 0.0
        if column is None:
            break
        proj = _push(basis, proj, column)
        passive.append(j)
        xp.append(0.0)
        while True:
            z = [c for _, _, c in basis]  # back substitution: R z = Q^T b
            for k in range(len(z) - 1, -1, -1):
                rk = basis[k][1]
                zk = z[k] = z[k] / rk[k]
                for l in range(k):
                    z[l] -= rk[l] * zk
            if min(z, default=1.0) > 0.0:
                break
            # move x towards z until a coefficient reaches 0; it leaves P,
            # with any that rounding took to 0 or below on the way
            alpha, out = min((xi / (xi - zi), p)
                             for p, (xi, zi) in enumerate(zip(xp, z)) if zi <= 0.0)
            xp = [xi + alpha * (zi - xi) for xi, zi in zip(xp, z)]
            xp[out] = 0.0
            kept = [(i, xi) for i, xi in zip(passive, xp) if xi > 0.0]
            passive, xp, basis, proj = [], [], [], rhs
            for i, xi in kept:
                column = _orthogonalize(basis, proj, cols[i])
                if column is not None:
                    proj = _push(basis, proj, column)
                    passive.append(i)
                    xp.append(xi)
        xp = z
    x = [0.0] * n
    for i, xi in zip(passive, xp):
        x[i] = xi
        rhs = [ri - xi * ai for ri, ai in zip(rhs, cols[i])]
    return np.array(x), math.hypot(*rhs)


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


def _full_column_rank(normals: np.ndarray) -> bool:
    """``np.linalg.matrix_rank(normals) >= n`` for an m x n matrix, from the
    same singular values and numpy's default tolerance S[0] * max(m, n) * eps,
    without matrix_rank's wrapper, which costs as much as the SVD itself."""
    m, n = normals.shape
    if m < n:
        return False
    s = np.linalg.svd(normals, compute_uv=False)
    return bool(s[n - 1] > s[0] * m * _EPS)


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
    if not _full_column_rank(normals):
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
        if arr.ndim != 2 or 0 in arr.shape:
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

    def contains(self, x) -> bool:
        return bool(np.max(self.normals @ np.asarray(x, dtype=float)) <= 1.0 + _VERTEX_TOL)

    def is_symmetric(self) -> bool:
        verts = self.vertices()
        for v in verts:
            if np.min(np.linalg.norm(verts + v, axis=1)) \
                    > _VERTEX_TOL * max(1.0, np.linalg.norm(v)):
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
        vertices are always derived from the half-spaces.  ``dim`` must equal
        their width; a bool or a fractional number raises ``ValueError``
        (``3.0`` reads as 3), as for the CLI's integer settings, and so does
        a bool among the ``halfspaces``."""
        dim = data["dim"]
        if isinstance(dim, bool) or (isinstance(dim, float) and not dim.is_integer()):
            raise ValueError(f"dim must be an integer, not {dim!r}")
        body = ConvexBody(_real_array(data["halfspaces"], "halfspaces"))
        if body.dim != int(dim):
            raise ValueError("dim field does not match half-space width")
        return body


def minkowski(body: ConvexBody, x) -> float:
    """Gauge inf{t > 0 : x in t*body} = max(0, max_i <h_i, x>); a product
    <h_i, x> that overflows raises ``ValueError``."""
    x = _finite(np.asarray(x, dtype=float), "x")
    if x.shape != (body.dim,):
        raise ValueError("dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, by name
        top = float(np.max(body.normals @ x))
    if not math.isfinite(top):  # inf, or NaN from inf - inf, which max(0, .) reads as 0
        raise ValueError("the gauge overflows")
    return max(0.0, top)


def symmetrize(body: ConvexBody) -> ConvexBody:
    """Intersection body of D and -D: gauge becomes symmetric under sign."""
    return ConvexBody(np.vstack([body.normals, -body.normals]))


# ---------------------------------------------------------------------------
# minimum-norm point and separation

_SCAN_PAIRS = 1 << 16  # difference rows per group of the closest-pair scan


def _closest_pair(A: np.ndarray, B: np.ndarray) -> tuple[tuple[int, int], float]:
    """((i, j), s): the pair of least computed |A[i] - B[j]|^2 = s, and
    among equal minima the lexicographically least (i, j), which is what a
    row-major argmin over all |A|*|B| pairs returns.

    Window scan over sorted projections: both sets are projected onto the
    unit vector u from A's centroid to B's, taken relative to c = A[0]
    (u = e_1 if the centroids coincide), and both are sorted by projection.
    Each a and its one or two neighbours among B's projections give an
    upper bound s0 >= s.  Then only the b whose projections lie within w
    of a's are evaluated: consecutive rows of sorted A against the union
    of their windows, at most _SCAN_PAIRS pairs per group, by the same
    einsum as a scan of all pairs, so each squared distance has the same
    bits.  When the projections overlap, the windows hold every pair and
    the groups are the row blocks of that full scan.

    The window w is a floating-point bound, so a pair is skipped only if
    its computed squared distance exceeds s0.  Let n be the dimension,
    e = 2^-53, g = (n + 4)e / (1 - (n + 4)e), and R the largest
    |x_k - c_k| over both sets.  Then:

    - a computed squared distance is at least (1 - g)|a - b|^2;
    - a computed projection is within g R |u|_1 of (x - c).u;
    - w = (sqrt(s0) |u|_2 + 3g R |u|_1)(1 + 4g) + 2^-500 |u|_2, and the
      factor 1 + 4g covers the roundings of w itself and of p_a -+ w.

    So a skipped pair has |(a - b).u| > (sqrt(s0)(1 + g) + 2^-500)|u|_2,
    hence |a - b| > sqrt(s0)(1 + g) + 2^-500, and its computed squared
    distance exceeds (1 - g)(1 + g)^2 s0 >= s0.  The 2^-500 term covers
    underflow in the squares and the projections.  R is relative to c, so
    a common offset (up to 1e11 and beyond) does not widen the windows.
    If 2R|u|_1 + w overflows, every window holds every pair.
    """
    n, na, nb = A.shape[1], A.shape[0], B.shape[0]
    c = A[0]
    dA, dB = A - c, B - c
    v = dB.mean(axis=0) - dA.mean(axis=0)
    norm = math.sqrt(float(v @ v))
    u = v / norm if norm > 0.0 else np.eye(1, n)[0]
    pa, pb = dA @ u, dB @ u
    ia, ib = np.argsort(pa, kind="stable"), np.argsort(pb, kind="stable")
    As, Bs, pa, pb = A[ia], B[ib], pa[ia], pb[ib]
    near = np.searchsorted(pb, pa)
    diff = np.vstack([As - Bs[np.maximum(near - 1, 0)], As - Bs[np.minimum(near, nb - 1)]])
    s0 = float(np.einsum("ij,ij->i", diff, diff).min())
    g = (n + 4) * 2.0 ** -53 / (1.0 - (n + 4) * 2.0 ** -53)
    R = max(float(np.abs(dA).max(initial=0.0)), float(np.abs(dB).max(initial=0.0)))
    n1, n2 = float(np.abs(u).sum()), math.sqrt(float(u @ u))
    w = (math.sqrt(s0) * n2 + 3.0 * g * R * n1) * (1.0 + 4.0 * g) + 2.0 ** -500 * n2
    if math.isfinite(2.0 * R * n1 + w):
        lo = np.searchsorted(pb, pa - w, side="left")
        hi = np.searchsorted(pb, pa + w, side="right")
    else:
        lo, hi = np.zeros(na, dtype=np.intp), np.full(na, nb, dtype=np.intp)

    start, best = (0, 0), math.inf
    i0 = 0
    while i0 < na:
        # rows i0..i1-1 of As against Bs[j0:j0 + width], the union of their
        # windows (lo and hi rise with the row), at most _SCAN_PAIRS pairs
        area = (hi[i0:i0 + _SCAN_PAIRS] - lo[i0]) * np.arange(1, min(na - i0, _SCAN_PAIRS) + 1)
        i1 = i0 + max(1, int(np.searchsorted(area, _SCAN_PAIRS, side="right")))
        j0, width = int(lo[i0]), int(hi[i1 - 1] - lo[i0])
        diff = (As[i0:i1, None, :] - Bs[None, j0:j0 + width, :]).reshape(-1, n)
        sq = np.einsum("ij,ij->i", diff, diff)
        if sq.size and (m := sq.min()) <= best:
            hit = np.flatnonzero(sq == m)
            i, j = ia[i0 + hit // width], ib[j0 + hit % width]
            at = int(np.argmin(i * nb + j))
            if m < best or (i[at], j[at]) < start:
                start, best = (int(i[at]), int(j[at])), float(m)
        i0 = i1
    return start, best


def _min_norm_point(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Wolfe's algorithm: the min-norm point of conv(A) - conv(B).

    The difference set is never built (Gilbert-Johnson-Keerthi): the
    point entering the corral is the support pair (argmin_A <a, x>,
    argmax_B <b, x>), and the corral holds index pairs (i, j) that stand
    for the rows A[i] - B[j].  The start is the closest pair, found by a
    window scan over sorted projections (see _closest_pair).  Its window
    carries a proven floating-point slack, so the scan returns the same
    pair and squared distance as a scan of every pair.
    """
    def rows(pairs):
        idx = np.array(pairs)
        return A[idx[:, 0]] - B[idx[:, 1]]

    nb = B.shape[0]
    start = _closest_pair(A, B)[0]
    S = [start]
    w = np.array([1.0])
    x = A[start[0]] - B[start[1]]
    for _ in range(16 * A.shape[0] * nb + 64):
        j = (int(np.argmin(A @ x)), int(np.argmax(B @ x)))
        xx = float(x @ x)
        if float((A[j[0]] - B[j[1]]) @ x) >= xx - _WOLFE_TOL * max(1.0, xx) or j in S:
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


def separate(a_points, b: Union[ConvexBody, np.ndarray, Sequence]) -> SeparationCertificate:
    """Separate conv(a_points) from a polytope (body or point hull).

    The minimum-distance pair is found via the min-norm point v of the
    Minkowski difference; the functional lies along that difference and
    is oriented so the a-side sits below: ell(a) <= alpha < beta <= ell(b).
    Before returning, the certificate must pass alpha < beta and Wolfe
    optimality, beta - alpha >= |ell|^2 (1 - 1e-6); otherwise
    InvalidCertificate is raised.  Points with no coordinate and an empty
    point set on either side raise ValueError.
    """
    A = _finite(np.atleast_2d(np.asarray(a_points, dtype=float)), "a_points")
    B = b.vertices() if isinstance(b, ConvexBody) else \
        _finite(np.atleast_2d(np.asarray(b, dtype=float)), "b")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    if A.shape[1] == 0:
        raise ValueError("points must have at least one coordinate")
    if len(A) == 0 or len(B) == 0:
        raise ValueError("point sets must be nonempty")
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
                s_min: float) -> np.ndarray:
    """Per row g of coef1: is there s >= s_min with coef0 + s*g <= rho componentwise?"""
    bound = rho + DEGENERACY_TOL - coef0
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
    member.  They answer at the construction's own DEGENERACY_TOL: a
    point that close to the apex is a member, and each gauge ball is
    widened by it.
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

    def _members(self, points, apex, center, rho: float,
                 s_min: float) -> Union[bool, np.ndarray]:
        p = np.asarray(points, dtype=float)
        delta = np.atleast_2d(p) - apex
        N = self.body.normals
        # stacked matrix-vector products: the same floats as N @ row, row by row
        coef1 = np.matmul(N, delta[:, :, None])[:, :, 0]
        inside = (np.linalg.norm(delta, axis=1) <= DEGENERACY_TOL) | \
            _feasible_s(N @ (self.a1 - center), coef1, rho, s_min)
        return bool(inside[0]) if p.ndim == 1 else inside

    def in_cone(self, point, vertex=None) -> Union[bool, np.ndarray]:
        """point in {vertex + t (x - a1) : x in ball(x0, alpha/4), t >= 0}."""
        a = self.vertex if vertex is None else np.asarray(vertex, dtype=float)
        return self._members(point, a, self.x0, self.alpha / 4.0, 1e-12)

    def in_segment_cone(self, point, vertex=None) -> Union[bool, np.ndarray]:
        """Same cone but with the parameter capped at t <= 1 (s >= 1)."""
        a = self.vertex if vertex is None else np.asarray(vertex, dtype=float)
        return self._members(point, a, self.x0, self.alpha / 4.0, 1.0)

    def in_neighborhood(self, point) -> Union[bool, np.ndarray]:
        """Closed neighborhood: segment cone from a1 over the shifted base."""
        center = self.x0 + self.epsilon * self.axis
        return self._members(point, self.a1, center, self.alpha / 3.0, 1.0)

    def isolates(self, b_points) -> bool:
        """Brute force: neighborhood ∩ cone(a*) ∩ B == {a*}."""
        B = np.atleast_2d(np.asarray(b_points, dtype=float))
        inside = self.in_neighborhood(B) & self.in_cone(B)
        at_vertex = np.linalg.norm(B - self.vertex, axis=1) <= DEGENERACY_TOL
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


def cone_extremal_point(b_points, a1, x0, body: ConvexBody) -> ConeResult:
    """Find a* in B isolated by a translated cone and a neighborhood.

    The finite-cloud iteration: separate a1 from the gauge ball around
    x0, project the cone-segment members of B on the functional, move
    the vertex to the member of maximal gain (ties: lexicographically
    smallest), and repeat until the gain vanishes.  Each move at least
    halves the gauge diameter of the truncated cone.  DEGENERACY_TOL
    decides throughout: a1 must lie that close to a point of B, x0 that
    far in gauge from all of them, a gain up to it counts as vanished,
    and gains that close to the best one tie.
    """
    B = _finite(np.atleast_2d(np.asarray(b_points, dtype=float)), "b_points")
    a1 = _finite(np.asarray(a1, dtype=float), "a1")
    x0 = _finite(np.asarray(x0, dtype=float), "x0")
    if not body.is_symmetric():
        raise ValueError("gauge body must be symmetric (run symmetrize first)")
    if B.shape[1] != body.dim or a1.shape != (body.dim,) or x0.shape != (body.dim,):
        raise ValueError("dimension mismatch")
    if np.min(np.linalg.norm(B - a1, axis=1)) > DEGENERACY_TOL:
        raise InvalidSeed("a1 must be a member of B")
    gauges = _gauge_many(body, B - x0)
    if np.min(gauges) <= DEGENERACY_TOL:
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
        if np.max(_gauge_many(body, shifted - x0)) <= alpha / 2.0 + DEGENERACY_TOL \
                and epsilon * gauge_e <= alpha / 12.0 + DEGENERACY_TOL:
            break
        epsilon /= 2.0
    else:
        raise RuntimeError("no admissible epsilon found")

    result = ConeResult(
        vertex=a1.copy(), axis=axis, functional=ell, a1=a1.copy(), x0=x0.copy(),
        alpha=alpha, level_d=0.0, epsilon=epsilon, body=body, iterates=[],
    )

    def truncated_diameter(vertex: np.ndarray, d: float) -> float:
        if d <= DEGENERACY_TOL:
            return 0.0
        dirs = base_vertices - a1
        heights = dirs @ ell
        tops = vertex + (d / heights)[:, None] * dirs
        pts = np.vstack([vertex[None, :], tops])
        diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, body.dim)
        return float(np.max(_gauge_many(body, diffs)))

    current = a1.copy()
    for _ in range(B.shape[0] + 1):
        members = B[result.in_segment_cone(B, vertex=current)]
        # stacked dot products: the same floats as ell @ (p - current), point by point
        gains = np.matmul((members - current)[:, None, :], ell[:, None])[:, 0, 0]
        d = float(np.max(gains)) if len(gains) else 0.0
        d = max(d, 0.0)
        result.iterates.append((current.copy(), truncated_diameter(current, d)))
        if len(result.iterates) == 1:
            result.level_d = d
        if d <= DEGENERACY_TOL:
            break
        best = sorted((tuple(p) for p, g in zip(members, gains) if g >= d - DEGENERACY_TOL))
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


def mackey_cauchy_diagnostic(prefix, m_body: ConvexBody) -> MackeyReport:
    """Pairwise-gauge decay test on a finite sequence prefix.

    mu_ij is the smallest scalar with x_i - x_j in mu * M (the gauge of
    the difference).  The prefix passes when the tail maxima strictly
    decrease until they reach zero.  A difference or a product <h, x_i - x_j>
    that overflows raises ``ValueError``, as ``minkowski`` does.
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
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, by name
        for i in range(k - 1):
            top = np.matmul(m_body.normals,
                            (pts[i] - pts[i + 1:])[:, :, None])[:, :, 0].max(axis=1)
            # max(0.0, .), never -0.0, and a NaN stays NaN
            mu[i, i + 1:] = mu[i + 1:, i] = np.where(top <= 0.0, 0.0, top)
            row_max[i] = mu[i, i + 1:].max()
    # every pair is in its row's maximum: an overflowed difference (0 * inf is NaN)
    # or product (inf, or inf - inf) shows there
    if not np.isfinite(row_max).all():
        raise ValueError("a gauge of a difference of prefix points overflows")
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
