"""Iterated Lie-bracket closure of vector-field families.

Two variants share the machinery: trigonometric fields on the circle
(mode-capped, exact rational rank over the Fourier coefficient basis)
and polynomial fields on R^n (rank of the evaluated fields at a point).
All independence decisions, and the combinations steering certificates
solve for, go through one fraction-free integer eliminator (IntegerSpan);
coefficients of iterated brackets grow, and floating rank would lie about
them.  The trig closure brackets Gaussian-integer mode tables, computed
once per generated field: a bracket over the mode cap is found from the
top mode down, and only brackets the span keeps become Fraction fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .trig_fields import TrigPoly, _frac, _gaussian_modes, _mode_law, _mode_row, bracket

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# exact linear algebra

def _primitive(row: dict) -> dict:
    g = math.gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


def _integer_row(vec) -> dict:
    """Primitive integer multiple of a rational mapping, zeros dropped."""
    entries = [(k, c) for k, c in vec.items() if c]
    den = math.lcm(*(c.denominator for _, c in entries))
    return _primitive({k: den // c.denominator * c.numerator for k, c in entries})


class IntegerSpan:
    """Incremental row space over the rationals, eliminated fraction-free.

    Vectors are sparse mappings from orderable keys to rationals.  Each
    stored row is a primitive integer vector whose pivot is its least key,
    and the rows form a reduced echelon form (every row is zero at the
    other rows' pivots), so a reduction never revisits a pivot and the
    only divisions are exact gcd divisions.  The set of pivot keys, and
    each row up to scale, depend on the row space alone, not on the
    insertion order.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> primitive integer row

    @staticmethod
    def _eliminate(v: dict, row: dict, key) -> dict:
        """rp * v - c * row over gcd(rp, c), which is zero at key."""
        rp, c = row[key], v[key]
        g = math.gcd(rp, c)
        rp, c = rp // g, c // g
        out = {k: rp * x for k, x in v.items()} if rp != 1 else dict(v)
        for k, y in row.items():
            x = out.get(k, 0) - c * y
            if x:
                out[k] = x
            else:
                del out[k]
        return out

    def _reduce(self, vec) -> dict:
        v = _integer_row(vec)
        for pivot, row in self.rows.items():
            if v.get(pivot):
                v = self._eliminate(v, row, pivot)
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Insert vec if independent; True when the rank grew."""
        v = self._reduce(vec)
        if not v:
            return False
        v = _primitive(v)
        pivot = min(v)
        for p, row in self.rows.items():
            if row.get(pivot):
                self.rows[p] = _primitive(self._eliminate(row, v, pivot))
        self.rows[pivot] = v
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def solve_combination(columns: Sequence[Sequence[Fraction]],
                      target: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Exact coefficients c with sum c_i * columns[i] == target, or None.

    Least-index pivots with free variables set to zero, so the answer is
    the unique solution supported on the columns independent of all
    earlier ones.  The rows of [columns | target] go into an IntegerSpan;
    its reduced echelon form gives each pivot's coefficient as a ratio.
    """
    n_cols = len(columns)
    span = IntegerSpan()
    for r, t in enumerate(target):
        row = {c: col[r] for c, col in enumerate(columns)}
        row[n_cols] = t
        span.add(row)
    if n_cols in span.rows:
        return None  # inconsistent
    sol = [_ZERO] * n_cols
    for c, row in span.rows.items():
        sol[c] = Fraction(row.get(n_cols, 0), row[c])
    return sol


# ---------------------------------------------------------------------------
# polynomial fields on R^n

Monomial = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Multivariate polynomial with rational coefficients, sparse terms."""

    dim: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def make(dim: int, terms: dict) -> "Polynomial":
        clean = {tuple(m): _frac(c) for m, c in terms.items() if _frac(c) != 0}
        for m in clean:
            if len(m) != dim or any(e < 0 for e in m):
                raise ValueError(f"bad monomial {m} for dimension {dim}")
        return Polynomial(dim, tuple(sorted(clean.items())))

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, ())

    @staticmethod
    def constant(dim: int, c) -> "Polynomial":
        return Polynomial.make(dim, {(0,) * dim: c})

    @staticmethod
    def variable(dim: int, index: int) -> "Polynomial":
        m = [0] * dim
        m[index] = 1
        return Polynomial.make(dim, {tuple(m): 1})

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.terms))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = self.as_dict()
        for m, c in other.terms:
            out[m] = out.get(m, _ZERO) + c
        return Polynomial.make(self.dim, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                out[m] = out.get(m, _ZERO) + c1 * c2
        return Polynomial.make(self.dim, out)

    def diff(self, index: int) -> "Polynomial":
        out: dict = {}
        for m, c in self.terms:
            e = m[index]
            if e:
                dm = list(m)
                dm[index] = e - 1
                dm = tuple(dm)
                out[dm] = out.get(dm, _ZERO) + c * e
        return Polynomial.make(self.dim, out)

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        total = _ZERO
        for m, c in self.terms:
            v = c
            for x, e in zip(point, m):
                v *= x ** e
            total += v
        return total


@dataclass(frozen=True, eq=False)
class PolyField:
    """Vector field on R^n: component i multiplies d/dx_i."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        dims = {p.dim for p in self.components}
        if len(dims) != 1 or len(self.components) not in dims:
            raise ValueError("components must all live in R^n with n = len(components)")

    @property
    def dim(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyField):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    @staticmethod
    def coordinate(dim: int, index: int) -> "PolyField":
        comps = [Polynomial.zero(dim) for _ in range(dim)]
        comps[index] = Polynomial.constant(dim, 1)
        return PolyField(tuple(comps))

    def coefficient_dict(self) -> dict:
        """Sparse coefficient vector keyed by (component, monomial)."""
        out = {}
        for i, p in enumerate(self.components):
            for m, c in p.terms:
                out[(i, m)] = c
        return out

    def eval(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(p.eval(point) for p in self.components)


def poly_bracket(x: PolyField, y: PolyField) -> PolyField:
    """[X, Y] with the same sign convention as the circle bracket.

    Component i is sum_j (Y_j dX_i/dx_j - X_j dY_i/dx_j); restricted to
    one dimension this is exactly (v' w - w' v).
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    n = x.dim
    comps = []
    for i in range(n):
        acc = Polynomial.zero(n)
        for j in range(n):
            acc = acc + y.components[j] * x.components[i].diff(j)
            acc = acc - x.components[j] * y.components[i].diff(j)
        comps.append(acc)
    return PolyField(tuple(comps))


# ---------------------------------------------------------------------------
# families and closure

@dataclass(frozen=True)
class FieldFamily:
    """Ordered, labelled family of fields (all TrigPoly or all PolyField)."""

    fields: tuple
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError("family must be nonempty")
        if len(self.fields) != len(self.labels):
            raise ValueError("one label per field")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        kinds = {type(f) for f in self.fields}
        if len(kinds) != 1:
            raise ValueError("fields must be homogeneous in kind")

    @staticmethod
    def of_trig(pairs: Sequence[tuple[str, TrigPoly]]) -> "FieldFamily":
        return FieldFamily(tuple(f for _, f in pairs), tuple(l for l, _ in pairs))

    def to_json_dict(self) -> dict:
        return {"fields": [{"label": l, "field": f.to_json_dict()}
                           for l, f in zip(self.labels, self.fields)]}

    @staticmethod
    def from_json_dict(data: dict) -> "FieldFamily":
        pairs = [(e["label"], TrigPoly.from_json_dict(e["field"])) for e in data["fields"]]
        return FieldFamily.of_trig(pairs)


@dataclass(frozen=True)
class GeneratedField:
    """One independent field found by the closure, with its provenance.

    ``parents`` is None for a seed, otherwise the pair of indices (i, j)
    into the generated list whose bracket produced it.  ``depth`` is the
    bracket word length (seeds have depth 1).
    """

    label: str
    field: object
    parents: Optional[tuple[int, int]]
    depth: int


@dataclass
class ClosureReport:
    family_labels: tuple[str, ...]
    cap: int
    depth_used: int
    rank: int
    spanned_modes: frozenset[int]
    spanning: bool
    fixed_point: bool
    generated: list[GeneratedField]

    def to_json_dict(self) -> dict:
        return {
            "family_labels": list(self.family_labels),
            "cap": self.cap,
            "depth_used": self.depth_used,
            "rank": self.rank,
            "spanned_modes": sorted(self.spanned_modes),
            "spanning": self.spanning,
            "spanning_note": ("surrogate: spanning of the mode truncation up to the cap, "
                              "not a statement about the untruncated algebra"),
            "fixed_point": self.fixed_point,
            "generated": [
                {
                    "label": g.label,
                    "depth": g.depth,
                    "parents": list(g.parents) if g.parents else None,
                    "field": g.field.to_json_dict(),
                }
                for g in self.generated
            ],
        }


def _basis_vector(cap: int, mode: int, kind: str) -> list[Fraction]:
    vec = [_ZERO] * (2 * cap + 1)
    one = Fraction(1)
    if mode == 0:
        vec[0] = one
    elif kind == "cos":
        vec[mode] = one
    else:
        vec[cap + mode] = one
    return vec


def closure(family: FieldFamily, max_depth: int, max_mode_cap: int) -> ClosureReport:
    """Bracket-closure of a trig family under a mode cap.

    Rounds bracket every unordered pair at least one member of which is
    new, in discovery order; results whose content exceeds the cap are
    discarded (truncating them would fabricate fields the algebra does
    not contain).  Stops at a fixed point or after max_depth rounds.

    Each pair goes through the integer mode-law kernel of trig_fields on
    the two fields' cached Gaussian mode tables.  The kernel scans output
    modes from the top down and rejects a bracket at its first nonzero
    mode above the cap; the span decides on an integer row, a positive
    multiple of the bracket's coefficient_vector.  A discarded bracket
    never becomes a Fraction field: only those the span keeps are formed
    by ``bracket``, trailing zeros included.  Once the span holds all
    2 * max_mode_cap + 1 coefficient directions every bracket reduces to
    zero, so no further pair is formed and the next round is the fixed point.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_mode_cap < 0:
        raise ValueError("max_mode_cap must be >= 0")
    for f, l in zip(family.fields, family.labels):
        if not isinstance(f, TrigPoly):
            raise TypeError("closure expects a trig family")
        if f.effective_max_mode() > max_mode_cap:
            raise ValueError(f"seed {l!r} exceeds max_mode_cap")

    span = IntegerSpan()
    generated: list[GeneratedField] = []
    modes: list[dict] = []  # the _gaussian_modes table of each generated field
    for label, f in zip(family.labels, family.fields):
        if not f.is_zero() and span.add(dict(enumerate(f.coefficient_vector(max_mode_cap)))):
            generated.append(GeneratedField(label, f, None, 1))
            modes.append(_gaussian_modes(f)[1])

    depth_used = 1
    fixed_point = False
    pair_cursor = 0  # pairs (i, j) with j < pair_cursor are done
    full_rank = 2 * max_mode_cap + 1
    for round_no in range(2, max_depth + 1):
        count_before = len(generated)
        for i, j in ((i, j) for j in range(pair_cursor, count_before) for i in range(j)):
            if span.rank == full_rank:
                break
            s = _mode_law(modes[i], modes[j], max_mode_cap)
            if s is None:
                continue  # over the cap
            # the row is 4 dv dw times the bracket's coefficient_vector;
            # a zero bracket gives a zero row, which the span does not add
            if span.add(_mode_row(s, max_mode_cap)):
                gi, gj = generated[i], generated[j]
                w = bracket(gi.field, gj.field)
                generated.append(GeneratedField(
                    f"[{gi.label},{gj.label}]", w, (i, j), gi.depth + gj.depth))
                modes.append(_gaussian_modes(w)[1])
        pair_cursor = count_before
        if len(generated) == count_before:
            fixed_point = True
            break
        depth_used = round_no

    spanned = set()
    if span.contains({0: 1}):  # keys are coefficient_vector indices
        spanned.add(0)
    for m in range(1, max_mode_cap + 1):
        if span.contains({m: 1}) and span.contains({max_mode_cap + m: 1}):
            spanned.add(m)

    return ClosureReport(
        family_labels=family.labels,
        cap=max_mode_cap,
        depth_used=depth_used,
        rank=span.rank,
        spanned_modes=frozenset(spanned),
        spanning=all(m in spanned for m in range(max_mode_cap + 1)),
        fixed_point=fixed_point,
        generated=generated,
    )


def spanning_test(report: ClosureReport, n: int) -> bool:
    """True iff the closure span contains every basis field of modes 0..n."""
    if n > report.cap:
        raise ValueError("n exceeds the cap the report was computed with")
    return all(m in report.spanned_modes for m in range(n + 1))


def lie_rank_at_point(family: FieldFamily, point: Sequence, max_depth: int) -> int:
    """Rank of the iterated-bracket span evaluated at a point of R^n.

    Brackets are formed symbolically round by round (independence judged
    on the polynomial coefficients, which is sound by bilinearity), and
    only then evaluated, so fields that vanish at the point still
    contribute through their brackets.  Coordinates are taken exactly: a
    float is its exact binary value, so 1e-13 is not rounded to 0.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    fields = family.fields
    if not all(isinstance(f, PolyField) for f in fields):
        raise TypeError("lie_rank_at_point expects a polynomial family")
    n = fields[0].dim
    if len(point) != n:
        raise ValueError("dimension mismatch")
    x = [Fraction(p) for p in point]

    span = IntegerSpan()
    generated: list[PolyField] = []
    for f in fields:
        if not f.is_zero() and span.add(f.coefficient_dict()):
            generated.append(f)

    pair_cursor = 0
    for _ in range(2, max_depth + 1):
        count_before = len(generated)
        for j in range(pair_cursor, count_before):
            for i in range(j):
                w = poly_bracket(generated[i], generated[j])
                if not w.is_zero() and span.add(w.coefficient_dict()):
                    generated.append(w)
        pair_cursor = count_before
        if len(generated) == count_before:
            break

    point_span = IntegerSpan()
    for g in generated:
        point_span.add(dict(enumerate(g.eval(x))))
    return point_span.rank
