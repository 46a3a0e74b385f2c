"""Bracket closure, exact ranks, and the point-rank test."""
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from bracketflow.closure import (ClosureReport, FieldFamily, GeneratedField, IntegerSpan,
                                 PolyField, Polynomial, closure, lie_rank_at_point,
                                 poly_bracket, solve_combination, spanning_test)
from bracketflow.trig_fields import TrigPoly, bracket

COS1, SIN1 = TrigPoly.cosine(1), TrigPoly.sine(1)
COS2, SIN2 = TrigPoly.cosine(2), TrigPoly.sine(2)


def four_field_family():
    return FieldFamily.of_trig([("cos1", COS1), ("sin1", SIN1),
                                ("cos2", COS2), ("sin2", SIN2)])


# ---- independent oracle: saturate all bracket words, rank via sympy ----

def oracle_saturated_rank(fields, cap):
    """Brute-force span of all bracket words under the cap, no pruning."""
    pool = [f for f in fields if not f.is_zero()]
    seen = {f.trimmed() for f in pool}
    rank_prev = -1
    while True:
        mat = sp.Matrix([[sp.Rational(c) for c in f.coefficient_vector(cap)] for f in pool])
        rank = mat.rank()
        if rank == rank_prev:
            return rank
        rank_prev = rank
        new = []
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                w = bracket(pool[i], pool[j]).trimmed()
                if w.is_zero() or w.effective_max_mode() > cap or w in seen:
                    continue
                seen.add(w)
                new.append(w)
        if not new:
            return rank
        pool.extend(new)


# ---- reference: Gauss-Jordan elimination over Fraction ----

def reference_solve(columns, target):
    """Least-index pivots, free variables zero; None when inconsistent."""
    n_cols, width = len(columns), len(target)
    aug = [[Fraction(col[r]) for col in columns] + [Fraction(target[r])] for r in range(width)]
    pivots = []
    row_at = 0
    for col in range(n_cols):
        sel = next((r for r in range(row_at, width) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row_at], aug[sel] = aug[sel], aug[row_at]
        inv = 1 / aug[row_at][col]
        aug[row_at] = [x * inv for x in aug[row_at]]
        for r in range(width):
            if r != row_at and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[row_at])]
        pivots.append((row_at, col))
        row_at += 1
        if row_at == width:
            break
    if any(aug[r][n_cols] != 0 for r in range(row_at, width)):
        return None
    sol = [Fraction(0)] * n_cols
    for r, c in pivots:
        sol[c] = aug[r][n_cols]
    return sol


def test_solve_combination_matches_fraction_reference():
    rng = np.random.default_rng(17)

    def frac(num, den):
        return Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))

    kinds = {"consistent": 0, "rank_deficient": 0, "inconsistent": 0}
    for _ in range(150):
        width, n_cols = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        rank = int(rng.integers(0, min(width, n_cols) + 1))
        basis = [[frac(5, 4) for _ in range(width)] for _ in range(rank)]
        mix = [[int(rng.integers(-2, 3)) for _ in range(rank)] for _ in range(n_cols)]
        columns = [[sum((c * b[r] for c, b in zip(m, basis)), Fraction(0)) for r in range(width)]
                   for m in mix]
        if rng.uniform() < 0.7:
            coeffs = [frac(3, 3) for _ in range(n_cols)]
            target = [sum((c * col[r] for c, col in zip(coeffs, columns)), Fraction(0))
                      for r in range(width)]
        else:
            target = [frac(5, 1) for _ in range(width)]
        got, expected = solve_combination(columns, target), reference_solve(columns, target)
        assert got == expected
        if expected is None:
            kinds["inconsistent"] += 1
        elif sp.Matrix(columns).rank() < n_cols:
            kinds["rank_deficient"] += 1
        else:
            kinds["consistent"] += 1
    assert min(kinds.values()) >= 10, kinds


# ---- closure examples ----

def test_example_family_spans_mode_three():
    report = closure(four_field_family(), max_depth=2, max_mode_cap=3)
    assert {0, 3} <= set(report.spanned_modes)
    assert spanning_test(report, 3)


def test_single_rotation_field_is_a_fixed_point():
    fam = FieldFamily.of_trig([("rot", TrigPoly.constant(1))])
    for depth in (1, 3, 7):
        report = closure(fam, max_depth=depth, max_mode_cap=2)
        assert report.rank == 1
        assert report.depth_used == 1


def test_mode_two_family_closes_at_rank_three():
    fam = FieldFamily.of_trig([("cos2", COS2), ("sin2", SIN2)])
    report = closure(fam, max_depth=6, max_mode_cap=8)
    assert report.rank == 3
    assert report.spanned_modes == frozenset({0, 2})
    assert oracle_saturated_rank([COS2, SIN2], 8) == 3


def test_spanning_test_examples():
    report = closure(four_field_family(), max_depth=4, max_mode_cap=3)
    assert spanning_test(report, 3) is True
    rot = closure(FieldFamily.of_trig([("rot", TrigPoly.constant(1))]), 3, 2)
    assert spanning_test(rot, 1) is False
    two = closure(FieldFamily.of_trig([("cos2", COS2), ("sin2", SIN2)]), 6, 4)
    assert spanning_test(two, 2) is False  # mode 1 missing


def test_spanning_test_rejects_n_above_cap():
    report = closure(four_field_family(), max_depth=2, max_mode_cap=3)
    with pytest.raises(ValueError):
        spanning_test(report, 4)


def test_rejects_empty_family():
    with pytest.raises(ValueError):
        FieldFamily((), ())


def test_rejects_seed_above_cap():
    fam = FieldFamily.of_trig([("cos3", TrigPoly.cosine(3))])
    with pytest.raises(ValueError):
        closure(fam, max_depth=2, max_mode_cap=2)


@pytest.mark.parametrize("seed", [TrigPoly.constant(1), TrigPoly.zero()])
def test_rejects_negative_cap_before_the_seeds(seed):
    fam = FieldFamily.of_trig([("c", seed)])
    with pytest.raises(ValueError, match="max_mode_cap must be >= 0"):
        closure(fam, max_depth=2, max_mode_cap=-1)


# ---- closure invariants ----

def test_rank_monotone_in_depth():
    fam = four_field_family()
    ranks = [closure(fam, max_depth=d, max_mode_cap=6).rank for d in range(1, 7)]
    assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))


def test_fixed_point_is_stable():
    fam = four_field_family()
    report = closure(fam, max_depth=8, max_mode_cap=4)
    assert report.fixed_point
    again = closure(fam, max_depth=12, max_mode_cap=4)
    assert again.rank == report.rank
    assert again.depth_used == report.depth_used


def test_closure_rank_matches_brute_force_oracle():
    cases = [
        ([("cos1", COS1), ("sin1", SIN1)], 4),
        ([("cos1", COS1), ("cos2", COS2)], 5),
        ([("cos1", COS1), ("sin1", SIN1), ("cos2", COS2), ("sin2", SIN2)], 6),
        ([("rot", TrigPoly.constant(1)), ("cos2", COS2)], 6),
    ]
    for pairs, cap in cases:
        fam = FieldFamily.of_trig(pairs)
        report = closure(fam, max_depth=10, max_mode_cap=cap)
        assert report.fixed_point
        assert report.rank == oracle_saturated_rank([f for _, f in pairs], cap)


def test_truncation_soundness_under_cap_increase():
    # a spanning verdict obtained under a tight cap survives a looser one
    fam = four_field_family()
    for n in (2, 3, 4):
        tight = closure(fam, max_depth=8, max_mode_cap=n)
        loose = closure(fam, max_depth=8, max_mode_cap=n + 2)
        if spanning_test(tight, n):
            assert spanning_test(loose, n)


def test_reports_are_deterministic():
    fam = four_field_family()
    a = closure(fam, max_depth=6, max_mode_cap=5).to_json_dict()
    b = closure(fam, max_depth=6, max_mode_cap=5).to_json_dict()
    assert a == b


def test_generated_labels_record_provenance():
    report = closure(four_field_family(), max_depth=2, max_mode_cap=3)
    labels = [g.label for g in report.generated]
    assert labels[:4] == ["cos1", "sin1", "cos2", "sin2"]
    assert any(lbl.startswith("[") for lbl in labels[4:])
    for g in report.generated[4:]:
        i, j = g.parents
        assert bracket(report.generated[i].field, report.generated[j].field) == g.field


# ---- reference: the closure loop that brackets every pair before testing it ----

def reference_closure(family, max_depth, max_mode_cap):
    """Each pair as a Fraction bracket, then is_zero, the cap and coefficient_vector."""
    span = IntegerSpan()
    generated = []
    for label, f in zip(family.labels, family.fields):
        if not f.is_zero() and span.add(dict(enumerate(f.coefficient_vector(max_mode_cap)))):
            generated.append(GeneratedField(label, f, None, 1))
    depth_used, fixed_point, pair_cursor = 1, False, 0
    for round_no in range(2, max_depth + 1):
        count_before = len(generated)
        for j in range(pair_cursor, count_before):
            for i in range(j):
                gi, gj = generated[i], generated[j]
                w = bracket(gi.field, gj.field)
                if w.is_zero() or w.effective_max_mode() > max_mode_cap:
                    continue
                if span.add(dict(enumerate(w.coefficient_vector(max_mode_cap)))):
                    generated.append(GeneratedField(
                        f"[{gi.label},{gj.label}]", w, (i, j), gi.depth + gj.depth))
        pair_cursor = count_before
        if len(generated) == count_before:
            fixed_point = True
            break
        depth_used = round_no
    spanned = {0} if span.contains({0: 1}) else set()
    spanned |= {m for m in range(1, max_mode_cap + 1)
                if span.contains({m: 1}) and span.contains({max_mode_cap + m: 1})}
    return ClosureReport(family.labels, max_mode_cap, depth_used, span.rank,
                         frozenset(spanned), spanned == set(range(max_mode_cap + 1)),
                         fixed_point, generated)


def test_closure_matches_the_bracket_first_reference():
    rng = np.random.default_rng(41)

    def pq():
        return Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)), int(rng.integers(1, 10)))

    cases = [(four_field_family(), cap, 32) for cap in range(2, 17)]
    for _ in range(3):
        pair = FieldFamily.of_trig([("v", TrigPoly.from_coeffs(pq(), [pq()], [pq()])),
                                    ("w", TrigPoly.from_coeffs(pq(), [0, pq()], [0, pq()]))])
        cases += [(pair, cap, 32) for cap in (6, 8, 10)]
        cases += [(pair, 8, depth) for depth in (2, 3)]
    for k in (1, 3, 5):
        cases.append((FieldFamily.of_trig([(f"cos{k}", TrigPoly.cosine(k)),
                                           (f"sin{k}", TrigPoly.sine(k))]), 2 * k, 32))
    # over-cap brackets of this pair are dropped, which changes what is generated
    mixed = FieldFamily.of_trig([("v", COS1 + SIN2), ("sin1", SIN1)])
    cases += [(mixed, cap, 32) for cap in (6, 8)]
    # generators sharing their top mode k; [cos2, sin2 + 1] = -2 (sin2 + 1), so
    # that family has rank 2 and spans no mode.  The fields of span{1, cos k, sin k}
    # that vanish where (cos k t, sin k t) = (c, s) form a 2-dimensional
    # subalgebra, so each bracket lies in the span of its parents, within
    # cap k, while its sums run to mode 2k
    cases.append((FieldFamily.of_trig([("cos2", COS2), ("sin2+1", SIN2 + TrigPoly.constant(1))]),
                  2, 32))
    for k in (1, 2, 3):
        t = pq()
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        fields = []
        for label in ("v", "w"):
            a, b = pq(), pq()
            fields.append((label, TrigPoly.from_coeffs(-(a * c + b * s), [0] * (k - 1) + [a],
                                                       [0] * (k - 1) + [b])))
        cases += [(FieldFamily.of_trig(fields), cap, 32) for cap in (k, k + 1, 2 * k + 1)]
    cases += [(four_field_family(), 8, depth) for depth in (2, 3)]
    # the round that fills the span (rank 2 cap + 1), and one round more
    cases += [(four_field_family(), 8, depth) for depth in (4, 5)]
    cases += [(four_field_family(), 16, depth) for depth in (5, 6)]
    for fam, cap, depth in cases:
        assert (closure(fam, depth, cap).to_json_dict()
                == reference_closure(fam, depth, cap).to_json_dict()), (fam.labels, cap, depth)
    filled, after = closure(four_field_family(), 4, 8), closure(four_field_family(), 5, 8)
    assert filled.rank == after.rank == 17 and after.depth_used == 4
    assert not filled.fixed_point and after.fixed_point


# ---- polynomial fields ----

def test_poly_bracket_sign_matches_circle_convention():
    # one-dimensional reduction: components v(x), w(x) give w v' - v w'
    v = PolyField((Polynomial.variable(1, 0),))          # x d/dx
    w = PolyField((Polynomial.make(1, {(2,): 1}),))      # x^2 d/dx
    got = poly_bracket(v, w)
    # v' w - w' v = 1*x^2 - 2x*x = -x^2
    assert got.components[0] == Polynomial.make(1, {(2,): -1})


def test_lie_rank_commuting_frame():
    fam = FieldFamily((PolyField.coordinate(2, 0), PolyField.coordinate(2, 1)),
                      ("dx", "dy"))
    for point in [(0, 0), (2, -1), (Fraction(1, 3), 5)]:
        assert lie_rank_at_point(fam, point, 1) == 2


def test_lie_rank_step_distribution():
    x = Polynomial.variable(3, 0)
    x1 = PolyField.coordinate(3, 0)
    x2 = PolyField((Polynomial.zero(3), Polynomial.constant(3, 1), x))
    fam = FieldFamily((x1, x2), ("X1", "X2"))
    assert lie_rank_at_point(fam, (0, 0, 0), 1) == 2
    assert lie_rank_at_point(fam, (0, 0, 0), 2) == 3


def test_lie_rank_single_field():
    fam = FieldFamily((PolyField.coordinate(2, 0),), ("dx",))
    for depth in (1, 2, 5):
        assert lie_rank_at_point(fam, (0, 0), depth) == 1


def test_lie_rank_takes_a_float_point_exactly():
    fam = FieldFamily((PolyField((Polynomial.variable(1, 0),)),), ("x d/dx",))
    assert lie_rank_at_point(fam, (1e-13,), 2) == 1
    assert lie_rank_at_point(fam, (0.0,), 2) == 0


def test_lie_rank_dimension_mismatch():
    fam = FieldFamily((PolyField.coordinate(2, 0),), ("dx",))
    with pytest.raises(ValueError):
        lie_rank_at_point(fam, (0, 0, 0), 1)


XS = sp.symbols("x0 x1 x2")


def sym_bracket(xf, yf):
    """J_X Y - J_Y X on the first len(xf) coordinates of XS."""
    xs = XS[:len(xf)]
    jac_x = sp.Matrix([[sp.diff(c, v) for v in xs] for c in xf])
    jac_y = sp.Matrix([[sp.diff(c, v) for v in xs] for c in yf])
    return list(jac_x * sp.Matrix(yf) - jac_y * sp.Matrix(xf))


def test_lie_rank_against_symbolic_oracle():
    """Same ranks from a sympy-based bracket enumeration."""
    def oracle_rank(sym_fields, point, depth):
        pool = [tuple(f) for f in sym_fields]
        for _ in range(depth - 1):
            new = []
            for i in range(len(pool)):
                for j in range(i + 1, len(pool)):
                    w = tuple(sp.expand(c) for c in sym_bracket(pool[i], pool[j]))
                    if any(c != 0 for c in w) and w not in pool and w not in new:
                        new.append(w)
            pool.extend(new)
        subs = dict(zip(XS, point))
        mat = sp.Matrix([[c.subs(subs) if hasattr(c, "subs") else c for c in f]
                         for f in pool])
        return mat.rank()

    x0, x1, x2 = XS
    # heisenberg-style triple and a planar pair with polynomial twist
    cases = [
        (FieldFamily((PolyField.coordinate(3, 0),
                      PolyField((Polynomial.zero(3), Polynomial.constant(3, 1),
                                 Polynomial.variable(3, 0)))), ("a", "b")),
         [(1, 0, 0), (0, 1, x0)], (0, 0, 0), 2),
        (FieldFamily((PolyField((Polynomial.constant(3, 1), Polynomial.zero(3),
                                 Polynomial.zero(3))),
                      PolyField((Polynomial.zero(3),
                                 Polynomial.make(3, {(1, 0, 0): 2}),
                                 Polynomial.make(3, {(0, 2, 0): 1})))), ("a", "b")),
         [(1, 0, 0), (0, 2 * x0, x1 ** 2)], (1, 1, 1), 3),
    ]
    for fam, sym_fields, point, depth in cases:
        assert lie_rank_at_point(fam, point, depth) == oracle_rank(sym_fields, point, depth)


def random_poly_field(rng, dim, max_terms, max_exp):
    return PolyField(tuple(
        Polynomial.make(dim, {tuple(int(e) for e in rng.integers(0, max_exp + 1, dim)):
                              Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                              for _ in range(int(rng.integers(0, max_terms + 1)))})
        for _ in range(dim)))


def sym_field(field):
    xs = XS[:field.dim]
    return [sum((sp.Rational(c.numerator, c.denominator) * sp.prod([v ** e for v, e in zip(xs, m)])
                 for m, c in p.terms), sp.Integer(0))
            for p in field.components]


def coefficient_sum(*fields):
    """The sum of the fields as a sparse coefficient map, zeros dropped."""
    total = {}
    for field in fields:
        for key, c in field.coefficient_dict().items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def test_poly_bracket_matches_the_jacobian_form():
    """[X, Y] term for term against sympy's J_X Y - J_Y X, plus antisymmetry
    and the Jacobi identity, on seeded random rational fields in R^1..R^3."""
    rng = np.random.default_rng(28)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        x, y = (random_poly_field(rng, dim, 3, 3) for _ in range(2))
        got = poly_bracket(x, y)
        xs = XS[:dim]
        for p, expr in zip(got.components, sym_bracket(sym_field(x), sym_field(y))):
            want = {m: Fraction(int(c.p), int(c.q))
                    for m, c in sp.Poly(sp.expand(expr), *xs).as_dict().items() if c}
            assert dict(p.terms) == want
        assert not coefficient_sum(got, poly_bracket(y, x))
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        x, y, z = (random_poly_field(rng, dim, 2, 2) for _ in range(3))
        assert not coefficient_sum(poly_bracket(x, poly_bracket(y, z)),
                                   poly_bracket(y, poly_bracket(z, x)),
                                   poly_bracket(z, poly_bracket(x, y)))


def test_family_rejects_polynomial_fields_of_different_dimensions():
    fields = (PolyField.coordinate(2, 0), PolyField.coordinate(3, 1), PolyField.coordinate(3, 2))
    with pytest.raises(ValueError, match="share one dimension"):
        FieldFamily(fields, ("a", "b", "c"))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_lie_rank_rejects_a_non_finite_point(bad):
    fam = FieldFamily((PolyField.coordinate(2, 0), PolyField.coordinate(2, 1)), ("dx", "dy"))
    with pytest.raises(ValueError, match="point must be finite"):
        lie_rank_at_point(fam, (0, bad), 2)
