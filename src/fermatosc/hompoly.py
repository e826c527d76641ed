"""Homogeneous polynomial algebra over K_d and exact local intersection data.

Polynomials are sparse maps from exponent triples (a, b, c) with a+b+c = deg
to nonzero field elements; a substitution of field elements, binary forms
or series into one runs through `_substitute`, except the restriction to a
line, which substitutes only the line's pivot coordinate, and the change
of coordinates of the local resultant, expanded term by term.
The one dense univariate type is `BinaryForm`.  Intersection multiplicities
at a smooth point are computed two independent ways:

* `int_mult` lifts a truncated power-series branch of the first curve by
  Newton doubling, extending the same branch until the valuation of the
  second polynomial along it is final;
* `resultant_order` projects from a recorded random rational center and
  reads the vanishing order of the resultant from its low-order
  coefficients alone.  The curves' slices in the new coordinates are
  expanded from their terms by the multinomial formula, with the integer
  center and direction as Python ints, and the resultant is a norm over a
  power-series ring, a determinant that divides by nothing, whose
  coefficients are computed online, each once, from s^0 up to the first
  nonzero one.  The fiber-line check reads the s^0 coefficient of the
  same norm on the curves' restrictions to that line.

A coefficient of a series product or evaluation, of a Newton correction, of
a multinomial slice or of the norm's Horner columns and minors is one
`TowerField.dot`.

`restrict_to_line` pulls a curve back to a line along a deterministic
parametrization and returns a binary form (`pullback_to_line` is the
general pullback along any two points), and `parameter_of_point` reads
a point's parameter on that line off its coordinates.  Both, and
`line_parametrization`, read the line's chart (`LineChart`), kept on the
line object as `exponents_used` is: its pivot, its two ratios and the
expansion of each power of the pivot coordinate, built once however many
curves are restricted to the line.  No root order is read off a
restriction: a restriction of degree d has d roots by Bezout, which is how
`arrangements._curve_points_on_line` certifies a curve's contacts with a
line.  `disc2` is the discriminant of a binary quadratic.
"""

from __future__ import annotations

import operator
import random
from itertools import combinations
from math import comb

from .errors import CertificationFailure, FermatoscError
from .tower import FieldElement, TowerField, power

VARS = ("x", "y", "z")
LINEAR_EXPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class HomPoly:
    """Homogeneous polynomial in x, y, z over K_d."""

    __slots__ = ("field", "deg", "terms", "_hash", "_exps", "_chart")

    def __init__(self, field: TowerField, deg: int, terms: dict):
        self.field = field
        self.deg = deg
        clean = {}
        for exps, c in terms.items():
            if sum(exps) != deg:
                raise ValueError(f"term {exps} does not have degree {deg}")
            if not c.is_zero():
                clean[exps] = c
        self.terms = clean
        self._hash = None
        self._exps = None
        self._chart = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field, deg: int) -> "HomPoly":
        return HomPoly(field, deg, {})

    @staticmethod
    def monomial(field, exps, coeff) -> "HomPoly":
        if not isinstance(coeff, FieldElement):
            coeff = field.from_rational(coeff)
        return HomPoly(field, sum(exps), {tuple(exps): coeff})

    @staticmethod
    def line(field, a, b, c) -> "HomPoly":
        coefs = (v if isinstance(v, FieldElement) else field.from_rational(v)
                 for v in (a, b, c))
        return HomPoly(field, 1, dict(zip(LINEAR_EXPS, coefs)))

    @staticmethod
    def variables(field):
        return (HomPoly.monomial(field, (1, 0, 0), 1),
                HomPoly.monomial(field, (0, 1, 0), 1),
                HomPoly.monomial(field, (0, 0, 1), 1))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return (self.field is other.field and self.deg == other.deg
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.d, self.deg,
                               frozenset(self.terms.items())))
        return self._hash

    def coeff(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def exponents_used(self) -> tuple:
        """For each variable, the ascending nonzero exponents it carries in
        some term; built on first use."""
        if self._exps is None:
            cols = tuple(zip(*self.terms)) or ((), (), ())
            self._exps = tuple(tuple(sorted(set(col) - {0})) for col in cols)
        return self._exps

    def line_chart(self) -> "LineChart":
        """The chart of this linear form (`LineChart`), built on first use."""
        if self._chart is None:
            self._chart = LineChart(self)
        return self._chart

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if self.deg != other.deg:
            raise ValueError("degree mismatch in sum")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return HomPoly(self.field, self.deg, out)

    def __neg__(self):
        return HomPoly(self.field, self.deg,
                       {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    prod = c1 * c2
                    s = out.get(e)
                    out[e] = prod if s is None else s + prod
            return HomPoly(self.field, self.deg + other.deg, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "HomPoly":
        if not isinstance(c, FieldElement):
            c = self.field.from_rational(c)
        return HomPoly(self.field, self.deg,
                       {e: v * c for e, v in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a form")
        if not e:
            return HomPoly.monomial(self.field, (0, 0, 0), 1)
        return power(self, e)

    # -- calculus and evaluation ------------------------------------------------

    def partial(self, var) -> "HomPoly":
        vi = VARS.index(var) if isinstance(var, str) else var
        out = {}
        for e, c in self.terms.items():
            k = e[vi]
            if k:
                ne = list(e)
                ne[vi] = k - 1
                out[tuple(ne)] = c * k
        return HomPoly(self.field, max(self.deg - 1, 0), out)

    def evaluate(self, coords) -> FieldElement:
        if isinstance(coords, ProjPoint):
            coords = coords.coords
        return _substitute(self, coords, self.field.one, self.field.zero,
                           operator.mul)

    def permuted(self, perm, scale=None) -> "HomPoly":
        """f(s0 x_perm[0], s1 x_perm[1], s2 x_perm[2]) with s = scale (all
        one when omitted): each exponent triple is permuted and each
        coefficient scaled, with no substitution."""
        if scale is not None:
            pows = [[s ** n for n in range(self.deg + 1)] for s in scale]
        out = {}
        for e, c in self.terms.items():
            ne = [0, 0, 0]
            for i in range(3):
                ne[perm[i]] = e[i]
            if scale is not None:
                c = c * pows[0][e[0]] * pows[1][e[1]] * pows[2][e[2]]
            out[tuple(ne)] = c
        return HomPoly(self.field, self.deg, out)

    def proportional(self, other) -> bool:
        """Projective equality: coefficient vectors have rank <= 1."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.deg != other.deg:
            return False
        exps = sorted(set(self.terms) | set(other.terms))
        return _rank_le_one([self.coeff(e) for e in exps],
                            [other.coeff(e) for e in exps])

    def line_coeffs(self) -> tuple:
        """The coefficients (a, b, c) of a linear form a*x + b*y + c*z."""
        return tuple(self.coeff(e) for e in LINEAR_EXPS)

    def canonical_line(self) -> "HomPoly":
        """Scale a linear form so its first nonzero coefficient is one; a
        form whose pivot is one already is returned as it is."""
        if self.deg != 1 or self.is_zero():
            raise ValueError("canonical_line needs a nonzero linear form")
        pivot = next(c for c in self.line_coeffs() if not c.is_zero())
        if pivot == self.field.one:
            return self
        return self.scale(self.field.invert(pivot))

    def line_key(self):
        return tuple(sorted((e, v.coeffs)
                            for e, v in self.canonical_line().terms.items()))

    def to_json_dict(self) -> dict:
        return {"deg": self.deg,
                "terms": [[a, b, c, coef.to_json_dict()]
                          for (a, b, c), coef in self.sorted_terms()]}

    def __repr__(self):
        if self.is_zero():
            return f"HomPoly(0, deg={self.deg})"
        bits = []
        for (a, b, c), coef in self.sorted_terms()[:6]:
            mono = "".join(f"{v}^{e}" for v, e in zip(VARS, (a, b, c)) if e)
            bits.append(f"({coef!r})*{mono or '1'}")
        if len(self.terms) > 6:
            bits.append("...")
        return " + ".join(bits)


class ProjPoint:
    """Point of P^2 over K_d, stored with first nonzero coordinate scaled to 1.

    A point whose pivot is one already is stored as given, and a point with
    one nonzero coordinate is the unit vector: neither inverts anything.
    """

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field: TowerField, coords):
        coords = list(coords)
        if len(coords) != 3:
            raise ValueError("need three coordinates")
        for i, c in enumerate(coords):
            if not isinstance(c, FieldElement):
                coords[i] = field.from_rational(c)
        for k, pivot in enumerate(coords):
            if not pivot.is_zero():
                break
        else:
            raise ValueError("all coordinates zero")
        if pivot != field.one:
            if all(c.is_zero() for c in coords[k + 1:]):
                coords[k] = field.one
            else:
                inv = field.invert(pivot)
                coords = [c * inv for c in coords]
        self.field = field
        self.coords = tuple(coords)
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def to_json(self):
        return [c.to_json_dict() for c in self.coords]

    def approx(self, precision_bits):
        return [complex(self.field.embed(c, precision_bits))
                for c in self.coords]

    def __repr__(self):
        return f"ProjPoint({self.coords[0]!r} : {self.coords[1]!r} : {self.coords[2]!r})"


def _substitute(f: HomPoly, values, one, zero, mul):
    """f(values) in the ring of the values, with unit `one` and product `mul`:
    the sum from `zero` of the monomials (`_monomials`) times coefficients."""
    acc = zero
    for term, coef in _monomials(f, values, one, mul):
        acc = acc + term * coef
    return acc


def _monomials(f: HomPoly, values, one, mul) -> list:
    """(m, c) for each term c x^a y^b z^e of f, m = values[0]^a values[1]^b
    values[2]^e under `mul`, or `one` for the constant term.

    Only the powers of each value that f's exponents use
    (`HomPoly.exponents_used`) are built, once, walking the exponents in
    ascending order: power e is one product from power e - 1 when that is
    built, and otherwise a square of lower powers (`_power`).  A dense f
    builds every power 1..deg as a plain power loop would; x^d + y^d + z^d
    makes about log2 d products per value, not d - 1.  A factor x^0 is
    never multiplied in."""
    pows = []
    for v, used in zip(values, f.exponents_used()):
        pv = {1: v}
        for e in used:
            if e not in pv:
                prev = pv.get(e - 1)
                pv[e] = (mul(prev, v) if prev is not None
                         else _power(pv, e, mul))
        pows.append(pv)
    out = []
    for exps, coef in f.terms.items():
        term = None
        for pv, e in zip(pows, exps):
            if e:
                term = pv[e] if term is None else mul(term, pv[e])
        out.append((one if term is None else term, coef))
    return out


def _power(pv: dict, e: int, mul):
    """Power e of pv[1], from the table pv of powers built so far: the
    square of power e // 2 (built first, and kept in pv, if need be), times
    pv[1] when e is odd."""
    half = pv.get(e // 2)
    if half is None:
        half = pv[e // 2] = _power(pv, e // 2, mul)
    out = mul(half, half)
    return mul(out, pv[1]) if e & 1 else out


def hessian(f: HomPoly) -> HomPoly:
    """Determinant of the 3x3 matrix of second partials."""
    if f.deg < 2:
        return HomPoly.zero(f.field, 0)
    second = [[f.partial(i).partial(j) for j in range(3)] for i in range(3)]
    return det3(second)


def det3(m):
    """Determinant of a 3x3 matrix over any ring with * and -."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def cross(a, b) -> tuple:
    """Cross product of two coordinate triples.

    Of two points it gives the coefficients of the line through them; of the
    coefficients of two lines it gives the point where they cross.
    """
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _rank_le_one(a, b) -> bool:
    """Whether two equally long coefficient sequences are proportional:
    every 2x2 minor of the stacked pair vanishes.  With a[i] != 0 it is
    enough that the minors against column i do, since b = (b[i] / a[i]) a
    then follows."""
    i = next((i for i, c in enumerate(a) if not c.is_zero()), None)
    if i is None:
        return True
    return all((a[i] * b[k] - a[k] * b[i]).is_zero()
               for k in range(len(a)) if k != i)


def _powers(v: FieldElement, n: int) -> list:
    """[1, v, ..., v^n]; a v equal to zero or one is each of its powers
    above the first, with no product."""
    one = v.field.one
    out = [one, v][:n + 1]
    same = v.is_zero() or v == one
    for _ in range(n - 1):
        out.append(v if same else out[-1] * v)
    return out


# -- binary forms ------------------------------------------------------------


class BinaryForm:
    """Dense univariate polynomial over K_d: coeffs[i] is the coefficient of w^i.

    The same object reads three ways: as the binary form
    sum coeffs[i] s^i t^(deg-i), with w = s/t and nominal degree
    deg = len(coeffs) - 1; as a polynomial in w; and as a series modulo
    w^len(coeffs).
    """

    __slots__ = ("field", "deg", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        self.deg = len(self.coeffs) - 1

    def is_zero(self):
        return self.degree() < 0

    def degree(self) -> int:
        """The actual degree in w; -1 for the zero form."""
        for k in range(self.deg, -1, -1):
            if not self.coeffs[k].is_zero():
                return k
        return -1

    def valuation(self):
        """The order of vanishing at w = 0; None for the zero form."""
        return next((i for i, c in enumerate(self.coeffs) if not c.is_zero()),
                    None)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and self.field is other.field
                and self.coeffs == other.coeffs)

    def mul(self, other, n) -> "BinaryForm":
        """The product modulo w^n, of length n: one `dot` per coefficient."""
        sums = [[] for _ in range(n)]
        b = [(j, y) for j, y in enumerate(other.coeffs[:n]) if not y.is_zero()]
        for i, x in enumerate(self.coeffs[:n]):
            if not x.is_zero():
                for j, y in b:
                    if i + j >= n:
                        break
                    sums[i + j].append((1, x, y))
        zero, dot = self.field.zero, self.field.dot
        return BinaryForm(self.field, [dot(s) if s else zero for s in sums])

    def proportional(self, other) -> bool:
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.deg != other.deg:
            return False
        return _rank_le_one(self.coeffs, other.coeffs)


def pullback_to_line(c: HomPoly, v1, v2) -> BinaryForm:
    """Pull c back along (s, t) -> s*v1 + t*v2 for triples v1, v2 over K_d."""
    # coefficient of t, then of s
    lin = [BinaryForm(c.field, [yv, xv]) for xv, yv in zip(v1, v2)]
    return _ser_eval_poly(c, lin, c.deg + 1)


class LineChart:
    """A line's parametrization in the form that `restrict_to_line`,
    `line_parametrization` and `parameter_of_point` read, built once per
    line object (`HomPoly.line_chart`).

    `pivot` is the index k of the form's first nonzero coefficient in
    x < y < z order, and `ratios` = (alpha, beta) are -c / (pivot
    coefficient) for the coefficients c after it, padded with zeros in
    front; the pivot coefficient is inverted only when it is not one and
    some c is nonzero.  The two other coordinates map to s and t, in order,
    and the pivot to alpha s + beta t.  `row(e)`, built on first use and
    kept, holds the nonzero entries (i, comb(e, i) alpha^i beta^(e - i)) of
    (alpha s + beta t)^e.  An entry equal to one is the field's `one`, and
    none is a product by zero or one, so the rows of a coordinate line or a
    difference of two coordinates cost no product."""

    __slots__ = ("pivot", "ratios", "_rows")

    def __init__(self, L: HomPoly):
        field = L.field
        coeffs = L.line_coeffs()
        k = next((k for k, c in enumerate(coeffs) if not c.is_zero()), None)
        if k is None:
            raise ValueError("zero linear form")
        pivot, rest = coeffs[k], coeffs[k + 1:]
        if any(rest) and pivot != field.one:
            inv = field.invert(pivot)
            rest = [c * inv for c in rest]
        self.pivot = k
        self.ratios = (field.zero,) * (2 - len(rest)) + tuple(-c for c in rest)
        self._rows = {}

    def row(self, e: int) -> list:
        row = self._rows.get(e)
        if row is None:
            ap, bp = (_powers(r, e) for r in self.ratios)
            one, row = ap[0], []
            for i in range(e + 1):
                a, b = ap[i], bp[e - i]
                if a.is_zero() or b.is_zero():
                    continue
                v = b if a == one else a if b == one else a * b
                if 0 < i < e:
                    v = v * comb(e, i)
                row.append((i, one if v == one else v))
            self._rows[e] = row
        return row


def line_parametrization(L: HomPoly):
    """Deterministic kernel basis of a linear form, pivoting x < y < z."""
    field = L.field
    zero, one = field.zero, field.one
    chart = L.line_chart()
    alpha, beta = chart.ratios
    if chart.pivot == 0:
        return ((alpha, one, zero), (beta, zero, one))
    if chart.pivot == 1:
        return ((one, zero, zero), (zero, beta, one))
    return ((one, zero, zero), (zero, one, zero))


def restrict_to_line(c: HomPoly, L: HomPoly) -> BinaryForm:
    """c pulled back along `line_parametrization(L)`, the form that
    `pullback_to_line` gives: each term of c adds the row of L's chart
    (`LineChart`) for its pivot exponent, shifted by its exponent of s, and
    an entry that is one adds the coefficient with no product."""
    field = c.field
    chart = L.line_chart()
    k, one = chart.pivot, field.one
    out = [field.zero] * (c.deg + 1)
    for exps, coef in c.terms.items():
        es = exps[1 if k == 0 else 0]
        for i, v in chart.row(exps[k]):
            out[i + es] = out[i + es] + (coef if v is one else coef * v)
    return BinaryForm(field, out)


def disc2(q: BinaryForm) -> FieldElement:
    """Discriminant b^2 - 4ac of a binary quadratic a*s^2 + b*st + c*t^2."""
    if q.deg != 2:
        raise ValueError("discriminant needs a quadratic")
    a, b, cc = q.coeffs[2], q.coeffs[1], q.coeffs[0]
    return b * b - 4 * a * cc


def parameter_of_point(p: ProjPoint, L: HomPoly) -> tuple:
    """The parameter (s, t) with p = s*v1 + t*v2 for the basis v1, v2 of
    `line_parametrization(L)`: p's two coordinates other than L's pivot,
    read off with no division once p is checked on L."""
    if not L.evaluate(p).is_zero():
        raise ValueError("point not on the parametrized line")
    pivot = L.line_chart().pivot
    return tuple(c for i, c in enumerate(p.coords) if i != pivot)


# -- truncated power series along a branch --------------------------------------


def _ser_eval_poly(f: HomPoly, series, n) -> BinaryForm:
    """f on a triple of series forms mod w^n, one `dot` per coefficient."""
    field = f.field
    terms = _monomials(f, [BinaryForm(field, s.coeffs[:n]) for s in series],
                       BinaryForm(field, [field.one] + [field.zero] * (n - 1)),
                       lambda a, b: a.mul(b, n))
    return BinaryForm(field, [
        field.dot([(1, c, m.coeffs[k]) for m, c in terms]) for k in range(n)])


class BranchSeries:
    """Local parametrization of a curve branch at a smooth point.

    `series` is a triple of series forms (one per coordinate) in the local
    parameter w; substituting them into the curve polynomial vanishes modulo
    w^order.  `extend` raises the order in place.
    """

    __slots__ = ("point", "chart", "param_var", "solved_var", "order", "series",
                 "_newton")

    def __init__(self, point, chart, param_var, solved_var, order, series,
                 newton):
        self.point = point
        self.chart = chart
        self.param_var = param_var
        self.solved_var = solved_var
        self.order = order
        self.series = series
        # f, its partial in the solved coordinate, and 1 / that partial at p
        self._newton = newton

    def residual(self, f: HomPoly):
        return _ser_eval_poly(f, self.series, self.order).coeffs

    def valuation_of(self, g: HomPoly):
        """Valuation of g along the branch, or None if zero mod w^order."""
        return _ser_eval_poly(g, self.series, self.order).valuation()

    def extend(self, n: int) -> None:
        """Raise the order to n in place by Newton steps, each at most
        doubling it (Brent-Kung), and certify the result by its residual.

        If f(x(w)) = 0 mod w^k, then f = w^k r mod w^2k, and subtracting
        w^k r / (df/dx_solved) mod w^k from the solved coordinate makes f
        vanish mod w^2k: one evaluation of f mod w^2k and one of the partial
        mod w^k per step.
        """
        f, df, dinv = self._newton
        zero, dot = f.field.zero, f.field.dot
        k, sv = self.order, self.solved_var
        while k < n:
            m = min(2 * k, n)
            ser = [BinaryForm(f.field, s.coeffs + (zero,) * (m - k))
                   for s in self.series]
            r = _ser_eval_poly(f, ser, m).coeffs[k:]
            dv = _ser_eval_poly(df, ser, m - k).coeffs
            # the correction c solves dv * c = -r mod w^(m - k)
            c = []
            for j, rj in enumerate(r):
                acc = dot([(1, dv[i], c[j - i]) for i in range(1, j + 1)], rj)
                c.append(dot([(-1, acc, dinv)]))
            ser[sv] = BinaryForm(f.field, ser[sv].coeffs[:k] + tuple(c))
            self.series = tuple(ser)
            self.order = k = m
        if not all(v.is_zero() for v in self.residual(f)):
            raise CertificationFailure("branch lifting failed")


def branch_series(f: HomPoly, p: ProjPoint, order: int) -> BranchSeries:
    """Power-series branch of f at the smooth point p, correct mod w^order
    (at least w^2), lifted by Newton doubling.

    The affine chart is the first nonzero coordinate of p; of the other two,
    the first in x < y < z order whose partial derivative at p is nonzero is
    solved for, and the remaining one is p's coordinate plus w.  The rule is
    exact, and contact orders do not depend on it.
    """
    field = f.field
    if not f.evaluate(p).is_zero():
        raise FermatoscError("f(p) != 0")
    grads = [f.partial(i).evaluate(p) for i in range(3)]
    if all(g.is_zero() for g in grads):
        raise FermatoscError("gradient vanishes at p")

    chart = next(i for i, c in enumerate(p.coords) if not c.is_zero())
    others = [i for i in range(3) if i != chart]
    candidates = [i for i in others if not grads[i].is_zero()]
    if not candidates:
        # gradient concentrated on the chart coordinate: p is smooth but the
        # branch is transverse to the chart; Euler's relation rules this out
        # for the curves handled here
        raise FermatoscError("no usable partial in this chart")
    solved = candidates[0]
    param = next(i for i in others if i != solved)

    # mod w^2 the branch is p plus w times the tangent direction
    dinv = field.invert(grads[solved])
    ser = [[c, field.zero] for c in p.coords]
    ser[param][1] = field.one
    ser[solved][1] = -grads[param] * dinv
    bs = BranchSeries(p, chart, param, solved, 2,
                      tuple(BinaryForm(field, s) for s in ser),
                      (f, f.partial(solved), dinv))
    bs.extend(order)
    return bs


def int_mult(f: HomPoly, g: HomPoly, p: ProjPoint) -> int:
    """Intersection multiplicity (f . g)_p via the branch series of f.

    Returns 0 when g(p) != 0.  The branch starts at order 2 and is extended
    in place, doubling, until the valuation of g along it falls below the
    order, which makes it final; at the cap 4 deg f deg g + 8 it raises
    `FermatoscError`.  It runs in the caller's memo block, if one is open
    (`tower.memoized`), and opens none of its own."""
    if not g.evaluate(p).is_zero():
        return 0
    cap = 4 * f.deg * g.deg + 8
    bs = branch_series(f, p, 2)
    while True:
        v = bs.valuation_of(g)
        if v is not None:
            return v
        if bs.order >= cap:
            raise FermatoscError(
                f"valuation of g exceeds cap {cap} along the branch")
        bs.extend(min(2 * bs.order, cap))


# -- resultants ------------------------------------------------------------------


def _multinomial_slices(f: HomPoly, v, p, c) -> list:
    """f(v s + p + c z), the curve at y = 1 in the coordinates
    x = s v + y p + z c, for integer triples v and c and a triple p over
    K_d: a list over the powers of z of coefficient lists in s, the z^k
    slice of length deg f - k + 1.

    Each power (v_i s + p_i + c_i z)^e that f's exponents use is expanded
    once by the multinomial formula, the term s^a p_i^b z^k scaled by the
    int e! / (a! b! k!) v_i^a c_i^k, a `TowerField.dot` multiplier; each
    term of f multiplies the expansions of its coordinates' powers, one dot
    per partial product and one per slice coefficient."""
    field = f.field
    sums = [[[] for _ in range(f.deg - k + 1)] for k in range(f.deg + 1)]
    expansions = []
    for vi, pi, ci, used in zip(v, p, c, f.exponents_used()):
        pows = _powers(pi, used[-1]) if used else ()
        expansions.append({e: [
            (a, k, comb(e, a) * comb(e - a, k) * vi ** a * ci ** k,
             pows[e - a - k])
            for a in range(e + 1) for k in range(e - a + 1)] for e in used})
    for exps, coef in f.terms.items():
        factors = [table[e] for table, e in zip(expansions, exps) if e]
        acc, prod = {(0, 0): coef}, {(0, 0): [(1, coef, field.one)]}
        for depth, table in enumerate(factors, 1):
            prod = {}
            for (a1, k1), x in acc.items():
                for a2, k2, n, y in table:
                    prod.setdefault((a1 + a2, k1 + k2), []).append((n, x, y))
            if depth < len(factors):
                acc = {key: field.dot(t) for key, t in prod.items()}
        for (a, k), t in prod.items():
            sums[k][a] += t
    return [[field.dot(t) for t in row] for row in sums]


def _online_norm(a: list, b: list, top: int):
    """The coefficients of s^0, ..., s^(top - 1) of e Res_z(a, b), one at a
    time, for z-slices a and b (`_multinomial_slices`) whose z^deg b slice
    is a constant beta, e = (-1)^(deg a deg b)
    beta^(deg a (deg b - 1) + deg b (deg b - 1) / 2).

    The resultant is the norm of a from A[z]/(b) to A = K_d[[s]], the
    determinant of the columns beta^(deg a + j) (a z^j mod b), j < deg b.
    Those are the last deg b vectors of the chain X_0 = 0,
    X_t = beta z X_(t-1) mod b + beta^(t-1) a_(deg a + 1 - t) e_0, Horner's
    rule in z (the last term only while t <= deg a + 1), and the
    determinant is the cofactor expansion along the first rows.  Coefficient
    k of each chain entry, and then of each minor, reads coefficients k and
    below of what it is built from, so each is computed once, in step k
    (online series arithmetic), and a caller that stops at the first nonzero
    coefficient computes none above it.  No step divides: an inverse of
    beta would spread large coefficients into every product."""
    zero, dot = b[0][0].field.zero, b[0][0].field.dot
    da, db = len(a) - 1, len(b) - 1
    beta = b[-1][0]
    scales = _powers(beta, da)
    # X_0 .. X_(deg a + deg b), each a list over z^i of coefficient lists
    chain = [[[zero] * top] * db] + [[[] for _ in range(db)]
                                     for _ in range(da + db)]
    cols = chain[da + 1:]
    # minors over column sets S, on the last len(S) rows
    minors = {(j,): cols[j][-1] for j in range(db)}
    bigger = [S for m in range(2, db + 1) for S in combinations(range(db), m)]
    for S in bigger:
        minors[S] = []
    for k in range(top):
        for t in range(1, da + db + 1):
            prev, x = chain[t - 1], chain[t]
            for i in range(db):
                terms = [(-1, y, prev[-1][k - l])
                         for l, y in enumerate(b[i][:k + 1])]
                if i:
                    terms.append((1, prev[i - 1][k], beta))
                elif k < t <= da + 1:               # a's z^(deg a + 1 - t)
                    terms.append((1, a[da + 1 - t][k], scales[t - 1]))
                x[i].append(dot(terms))
        for S in bigger:
            row = db - len(S)
            terms = []
            for idx, j in enumerate(S):
                col, sub = cols[j][row], minors[S[:idx] + S[idx + 1:]]
                terms += [((-1) ** idx, col[l], sub[k - l])
                          for l in range(k + 1)]
            minors[S].append(dot(terms))
        yield minors[tuple(range(db))][k]


def _fiber_is_generic(ra, rb) -> bool:
    """Whether two forms in z, ascending coefficient lists with a nonzero
    top coefficient, share no zero but z = 0.

    Each form is divided by its power of z.  A constant quotient has no
    zero; otherwise the two quotients share none exactly when their
    resultant, read as the s^0 coefficient of `_online_norm` on them, is
    nonzero.  `resultant_order` passes the restrictions of its two curves
    to the fiber line, whose top coefficients are the curves' values at the
    center; "center on a curve" refuses a zero one first, so a zero
    restriction never reaches this check."""
    quotients = []
    for r in (ra, rb):
        low = next(i for i, x in enumerate(r) if not x.is_zero())
        if low == len(r) - 1:
            return True
        quotients.append([[x] for x in r[low:]])
    return not next(_online_norm(*quotients, 1)).is_zero()


# random coordinate changes `resultant_order` tries before it gives up
RESULTANT_ATTEMPTS = 24


def resultant_order(f: HomPoly, g: HomPoly, p: ProjPoint, seed: int = 0):
    """Vanishing order at p's image of Res_z(f, g) after a recorded random
    rational projection; agrees with int_mult when genericity holds.

    The center c and direction v are columns 2 and 0 of a seeded random
    integer matrix, kept as ints.  In the coordinates x = s v + y p + z c,
    p is (0 : 1 : 0) and the fiber line through c and p is s = 0.  With c
    off both curves and p the only common zero on that line
    (`_fiber_is_generic`), the order of
    Res_z(f, g) at s = 0, y = 1 is (f . g)_p (Fulton, Algebraic Curves,
    3.3).  The curves' z-slices come straight from their terms
    (`_multinomial_slices`), and `_online_norm` computes the resultant's
    coefficients from s^0 up, each once, stopping at the first nonzero
    one.  A resultant with no nonzero coefficient below
    s^(deg f deg g + 1) is zero (`FermatoscError`).

    Returns (order, record): the seed, the attempt count and the accepted
    center and direction, as integer triples.  It runs in the caller's memo
    block, if one is open (`tower.memoized`), and opens none of its own."""
    hi, lo = (g, f) if f.deg < g.deg else (f, g)
    top = f.deg * g.deg + 1
    rng = random.Random(seed)
    last_fail = None
    for attempt in range(RESULTANT_ATTEMPTS):
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        v, c = [row[0] for row in m], [row[2] for row in m]
        if lo.evaluate(c).is_zero() or hi.evaluate(c).is_zero():
            last_fail = "center on a curve"
            continue
        if det3((v, p.coords, c)).is_zero():
            last_fail = "center at p or direction on the fiber line"
            continue
        a, b = (_multinomial_slices(h, v, p.coords, c) for h in (hi, lo))
        # the s^0 coefficients restrict the curves to the fiber line, p at
        # z = 0; the center, at z = oo, is on neither
        if not _fiber_is_generic([sl[0] for sl in a], [sl[0] for sl in b]):
            last_fail = "extra common zero on the fiber line"
            continue
        order = next((k for k, x in enumerate(_online_norm(a, b, top))
                      if not x.is_zero()), None)
        if order is None:
            raise FermatoscError("resultant vanishes identically")
        record = {"seed": seed, "attempts": attempt + 1,
                  "center": c, "direction": v}
        return order, record
    raise FermatoscError(
        f"no generic coordinate change found ({last_fail})")


# -- osculating conic from the branch alone ---------------------------------------


def osculating_conic_series(f: HomPoly, p: ProjPoint):
    """Conic with contact order >= 5 at p, from the branch series nullspace.

    Formula-free: sets up the five linear conditions that the first five
    series coefficients of the conic's pullback vanish and solves exactly.
    A system with no nonzero solution is a failed certificate.
    """
    field = f.field
    bs = branch_series(f, p, 8)
    monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    cols = []
    for e in monos:
        mono = HomPoly.monomial(field, e, 1)
        cols.append(_ser_eval_poly(mono, bs.series, 5).coeffs)
    rows = [[cols[c][r] for c in range(6)] for r in range(5)]
    null = _nullspace(rows, 6, field)
    if not null:
        raise CertificationFailure("no conic with the required contact")
    vec = null[0]
    conic = HomPoly(field, 2, {e: v for e, v in zip(monos, vec)
                               if not v.is_zero()})
    return conic


def _nullspace(rows, ncols, field):
    """Kernel basis of a small exact matrix via Gauss-Jordan."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not mat[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = field.invert(mat[r][c])
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and not mat[i][c].is_zero():
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis
