"""Exact arithmetic in the tower field K_d = Q(u, t).

Here u is a primitive 2d-th root of unity (u^d = -1, reduced modulo the
cyclotomic polynomial of order 2d) and t is the real positive d-th root of 2.
Every element is kept in a normal form: a phi(2d) x deg_t array of exact
rationals c[i][j] representing sum c[i][j] * u^i * t^j.

The minimal polynomial of t over the cyclotomic part depends on d:

* d not divisible by 4:  t^d - 2  (deg_t = d);
* d divisible by 4:      t^(d/2) - (u^(d/4) - u^(3d/4))  (deg_t = d/2),

because in the second case the cyclotomic field already contains
sqrt(2) = u^(d/4) - u^(3d/4) and t^d - 2 would factor, leaving zero
divisors.  The choice of root is pinned by the distinguished embedding
eps(u) = exp(i*pi/d), eps(t) = 2^(1/d) real positive.

Each field construction runs a probabilistic soundness guard: a batch of
random elements is inverted, and any discovered zero divisor aborts with
the offending factor of the modulus.
"""

from __future__ import annotations

import random
from functools import lru_cache

import mpmath

from .errors import (CertificationFailure, DegreeMismatch, ZeroDivisor,
                     ZeroInput)

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

Q0 = Q(0)
Q1 = Q(1)

D_MIN = 3
D_MAX = 64


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_m over proper divisors m of n
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for m in range(1, n):
        if n % m == 0:
            div = cyclotomic_int_coeffs(m)
            num = _zpoly_exact_div(num, list(div))
    return tuple(num)


def _zpoly_exact_div(num, den):
    """Exact division of integer polynomial lists (ascending coefficients)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] // den[dd]
        out[k - dd] = c
        if c:
            for i, dc in enumerate(den):
                num[k - dd + i] -= c * dc
    if any(num):
        raise CertificationFailure("non-exact polynomial division")
    return out


def _euler_phi(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


class ComplexBall:
    """A complex interval: center plus a conservative radius.

    Arithmetic propagates the radius so the resulting ball always contains
    the exact value, provided the operand balls do.  Centers are mpmath
    complex numbers at the caller's working precision; radii are floats with
    generous headroom for rounding of the centers themselves.
    """

    __slots__ = ("center", "radius", "prec")

    def __init__(self, center, radius, prec):
        self.center = center
        self.radius = float(radius)
        self.prec = prec

    def __add__(self, other):
        if not isinstance(other, ComplexBall):
            other = ComplexBall(other, 0.0, self.prec)
        prec = min(self.prec, other.prec)
        with mpmath.mp.workprec(prec):
            c = self.center + other.center
        r = self.radius + other.radius + (float(abs(c)) + 1e-300) * 2.0 ** (4 - prec)
        return ComplexBall(c, r, prec)

    def __mul__(self, other):
        if not isinstance(other, ComplexBall):
            other = ComplexBall(other, 0.0, self.prec)
        prec = min(self.prec, other.prec)
        with mpmath.mp.workprec(prec):
            c = self.center * other.center
        m1, m2 = float(abs(self.center)), float(abs(other.center))
        r = (m1 * other.radius + m2 * self.radius + self.radius * other.radius
             + (float(abs(c)) + 1e-300) * 2.0 ** (4 - prec))
        return ComplexBall(c, r, prec)

    def __sub__(self, other):
        if not isinstance(other, ComplexBall):
            other = ComplexBall(other, 0.0, self.prec)
        prec = min(self.prec, other.prec)
        with mpmath.mp.workprec(prec):
            c = self.center - other.center
        r = self.radius + other.radius + (float(abs(c)) + 1e-300) * 2.0 ** (4 - prec)
        return ComplexBall(c, r, prec)

    def abs_max(self) -> float:
        return float(abs(self.center)) + self.radius

    def abs_min(self) -> float:
        return max(0.0, float(abs(self.center)) - self.radius)

    def contains_zero(self) -> bool:
        return float(abs(self.center)) <= self.radius

    def __repr__(self):
        return f"ComplexBall({complex(self.center)!r}, r={self.radius:.3g})"


class TowerField:
    """Arithmetic context for K_d; holds reduction tables and constants.

    `_force_full_modulus` keeps t^d - 2 even when 4 | d; the quotient is
    then not a field and inversions of actual zero divisors surface a
    factor of the modulus.  Testing hook only.
    """

    def __init__(self, d: int, guard: bool = True,
                 _force_full_modulus: bool = False):
        if not (D_MIN <= d <= D_MAX):
            raise ValueError(f"degree d must be in [{D_MIN}, {D_MAX}], got {d}")
        self.d = d
        self.n_u = 2 * d                       # u has order 2d
        self.phi = _euler_phi(2 * d)
        use_half = d % 4 == 0 and not _force_full_modulus
        self.deg_t = d // 2 if use_half else d
        self._phi_coeffs = [Q(c) for c in cyclotomic_int_coeffs(2 * d)]

        # reduction rows: u^e as a vector over the power basis, e in [0, 2d)
        self._urows = self._build_urows()

        # t^deg_t equals this value: the rational 2, or sqrt(2) in the
        # cyclotomic part when 4 | d
        if use_half:
            vec = [Q0] * self.phi
            for e, s in ((d // 4, Q1), (3 * d // 4, -Q1)):
                row = self._urows[e]
                for i in range(self.phi):
                    vec[i] += s * row[i]
            self._tred_vec = tuple(vec)
            self._tred_scalar = None
        else:
            self._tred_vec = None
            self._tred_scalar = Q(2)

        # u^e * (t-reduction constant), reduced, for the multiplication kernel
        if self._tred_vec is not None:
            self._urows_t = [self._cvec_mul(self._urows[e % self.n_u],
                                            self._tred_vec)
                             for e in range(2 * self.phi - 1)]
        else:
            self._urows_t = None

        self.zero = self._from_coeffs(
            tuple(tuple(Q0 for _ in range(self.deg_t)) for _ in range(self.phi)))
        self.one = self.from_rational(Q1)
        self.u = self.monomial(1, 0)
        self.zeta = self.monomial(2, 0)        # zeta = u^2, primitive d-th root
        self.t = self.monomial(0, 1)
        self.t_inv = None                      # filled below, needs invert
        self._emb_cache = {}

        self.t_inv = self.invert(self.t)
        if guard:
            self._field_guard()

    # -- construction -----------------------------------------------------

    def _build_urows(self):
        rows = []
        for e in range(self.n_u):
            vec = [Q0] * (e + 1)
            vec[e] = Q1
            rows.append(tuple(self._ureduce(vec)))
        return rows

    def _ureduce(self, vec):
        """Reduce a u-polynomial (ascending list) modulo the cyclotomic."""
        vec = list(vec) + [Q0] * max(0, self.phi - len(vec))
        for k in range(len(vec) - 1, self.phi - 1, -1):
            c = vec[k]
            if c:
                vec[k] = Q0
                for i in range(self.phi):
                    vec[k - self.phi + i] -= c * self._phi_coeffs[i]
        return vec[: self.phi]

    def _field_guard(self):
        """Probabilistically certify that the t-modulus defines a field.

        Inverts a batch of random elements; a ZeroDivisor would surface a
        factor of the modulus immediately.  The batch shrinks for very large
        d to keep construction desk-scale.
        """
        dim = self.phi * self.deg_t
        probes = 50 if dim <= 120 else (12 if dim <= 500 else 4)
        rng = random.Random(0xF0 + self.d)
        for _ in range(probes):
            a = self.random_element(rng, max_terms=3)
            if a.is_zero():
                continue
            b = self.invert(a)
            if not (a * b - self.one).is_zero():
                raise ZeroDivisor(f"inversion failed in K_{self.d}")

    # -- element constructors ----------------------------------------------

    def _from_coeffs(self, coeffs) -> "FieldElement":
        return FieldElement(self, coeffs)

    def from_rational(self, q) -> "FieldElement":
        q = Q(q)
        rows = [[Q0] * self.deg_t for _ in range(self.phi)]
        rows[0][0] = q
        return self._from_coeffs(tuple(tuple(r) for r in rows))

    def monomial(self, ue: int, te: int, coeff=Q1) -> "FieldElement":
        """coeff * u^ue * t^te, exponents arbitrary integers, reduced."""
        coeff = Q(coeff)
        ue %= self.n_u
        urow = list(self._urows[ue])
        # normalize the t exponent into [0, deg_t) by multiplying with the
        # reduction constant t^deg_t (or its inverse) as needed
        shift, te = divmod(te, self.deg_t)
        elem_rows = [[Q0] * self.deg_t for _ in range(self.phi)]
        for i, c in enumerate(urow):
            if c:
                elem_rows[i][te] = c * coeff
        out = self._from_coeffs(tuple(tuple(r) for r in elem_rows))
        if shift > 0:
            for _ in range(shift):
                out = out * self._tred_elem()
        elif shift < 0:
            inv = self.invert(self._tred_elem())
            for _ in range(-shift):
                out = out * inv
        return out

    def _tred_elem(self) -> "FieldElement":
        if self._tred_scalar is not None:
            return self.from_rational(self._tred_scalar)
        rows = [[Q0] * self.deg_t for _ in range(self.phi)]
        for i, c in enumerate(self._tred_vec):
            rows[i][0] = c
        return self._from_coeffs(tuple(tuple(r) for r in rows))

    def u_pow(self, e: int) -> "FieldElement":
        return self.monomial(e, 0)

    def zeta_pow(self, e: int) -> "FieldElement":
        return self.monomial(2 * e, 0)

    def random_element(self, rng, max_terms=4, num_bound=9, den_choices=(1, 2, 3)):
        rows = [[Q0] * self.deg_t for _ in range(self.phi)]
        for _ in range(rng.randint(1, max_terms)):
            i = rng.randrange(self.phi)
            j = rng.randrange(self.deg_t)
            num = rng.randint(-num_bound, num_bound)
            rows[i][j] += Q(num, rng.choice(den_choices))
        return self._from_coeffs(tuple(tuple(r) for r in rows))

    # -- arithmetic kernels --------------------------------------------------

    def _add(self, a, terms):
        """Normal-form coeffs a plus the terms (i, j, c); rows that no term
        touches are shared with a."""
        rows = list(a)
        touched = {}
        for i, j, c in terms:
            row = touched.get(i)
            if row is None:
                row = touched[i] = list(a[i])
            s = row[j]
            row[j] = s + c if s else c
        for i, row in touched.items():
            rows[i] = tuple(row)
        return tuple(rows)

    def _mul(self, anz, bnz):
        deg_t = self.deg_t
        acc = [[Q0] * deg_t for _ in range(self.phi)]
        urows = self._urows
        urows_t = self._urows_t
        tred = self._tred_scalar
        n_u = self.n_u
        for (i1, j1, c1) in anz:
            for (i2, j2, c2) in bnz:
                c = c1 * c2
                j = j1 + j2
                e = i1 + i2
                if j >= deg_t:
                    j -= deg_t
                    if tred is not None:
                        c *= tred
                        row = urows[e % n_u]
                    else:
                        row = urows_t[e]
                else:
                    row = urows[e % n_u]
                for i, rc in enumerate(row):
                    if rc:
                        acc[i][j] += rc * c
        return tuple(tuple(r) for r in acc)

    # -- cyclotomic (level-1) field helpers ---------------------------------

    def _cvec_mul(self, a, b):
        """Product of two cyclotomic vectors, reduced."""
        conv = [Q0] * (2 * self.phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bk in enumerate(b):
                    if bk:
                        conv[i + k] += ai * bk
        return tuple(self._ureduce(conv))

    def _cvec_inv(self, a):
        """Inverse in Q(u) via extended gcd against the cyclotomic polynomial."""
        if not any(a):
            raise ZeroInput("zero cyclotomic coefficient")
        r0 = list(self._phi_coeffs)
        r1 = list(a)
        s0, s1 = [Q0], [Q1]

        def deg(p):
            for k in range(len(p) - 1, -1, -1):
                if p[k]:
                    return k
            return -1

        while True:
            d1 = deg(r1)
            if d1 <= 0:
                break
            d0 = deg(r0)
            while d0 >= d1:
                c = r0[d0] / r1[d1]
                sh = d0 - d1
                for i in range(d1 + 1):
                    r0[sh + i] -= c * r1[i]
                s0 = s0 + [Q0] * (sh + len(s1) - len(s0))
                for i in range(len(s1)):
                    s0[sh + i] -= c * s1[i]
                d0 = deg(r0)
            r0, r1, s0, s1 = r1, r0, s1, s0
        c = r1[0]
        if not c:
            raise ZeroDivisor("cyclotomic gcd degenerate")
        inv = [si / c for si in s1]
        return tuple(self._ureduce(inv))

    # -- inversion (level 2) --------------------------------------------------

    def _as_tpoly(self, coeffs):
        """View normal-form coeffs as a t-polynomial with cyclotomic vectors."""
        return [tuple(coeffs[i][j] for i in range(self.phi))
                for j in range(self.deg_t)]

    def _from_tpoly(self, tpoly):
        rows = [[Q0] * self.deg_t for _ in range(self.phi)]
        for j, vec in enumerate(tpoly):
            for i, c in enumerate(vec):
                rows[i][j] = c
        return tuple(tuple(r) for r in rows)

    def invert(self, a: "FieldElement") -> "FieldElement":
        if a.field is not self:
            raise DegreeMismatch("element from a different field")
        nz = a.nonzero_terms()
        if not nz:
            raise ZeroInput("cannot invert zero")
        if len(nz) == 1:
            i, j, c = nz[0]
            # monomial fast path: (c u^i t^j)^-1 = c^-1 u^-i t^-j
            inv = self.monomial(-i, 0, Q1 / c)
            if j:
                if self.t_inv is None:
                    # bootstrap for t itself: t^-1 = t^(deg_t-1) / t^deg_t
                    red = self._tred_elem()
                    high = self.monomial(0, self.deg_t - 1)
                    return inv * high * self._invert_general(red)
                out = inv
                for _ in range(j):
                    out = out * self.t_inv
                return out
            return inv
        return self._invert_general(a)

    def _invert_general(self, a: "FieldElement") -> "FieldElement":
        """Extended Euclid in Q(u)[t] against the t-modulus."""
        zero_vec = tuple([Q0] * self.phi)
        one_vec = tuple(self._ureduce([Q1]))

        m = [zero_vec] * (self.deg_t + 1)
        m = list(m)
        if self._tred_scalar is not None:
            m[0] = tuple(self._ureduce([-self._tred_scalar]))
        else:
            m[0] = tuple(-c for c in self._tred_vec)
        m[self.deg_t] = one_vec

        r0, r1 = m, self._as_tpoly(a.coeffs)
        s0, s1 = [zero_vec], [one_vec]

        def deg(p):
            for k in range(len(p) - 1, -1, -1):
                if any(p[k]):
                    return k
            return -1

        while True:
            d1 = deg(r1)
            if d1 <= 0:
                break
            d0 = deg(r0)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            lead_inv = self._cvec_inv(r1[d1])
            while d0 >= d1:
                c = self._cvec_mul(r0[d0], lead_inv)
                sh = d0 - d1
                r0 = list(r0)
                for i in range(d1 + 1):
                    prod = self._cvec_mul(c, r1[i])
                    r0[sh + i] = tuple(x - y for x, y in zip(r0[sh + i], prod))
                if len(s0) < sh + len(s1):
                    s0 = list(s0) + [zero_vec] * (sh + len(s1) - len(s0))
                else:
                    s0 = list(s0)
                for i in range(len(s1)):
                    prod = self._cvec_mul(c, s1[i])
                    s0[sh + i] = tuple(x - y for x, y in zip(s0[sh + i], prod))
                d0 = deg(r0)
            r0, r1, s0, s1 = r1, r0, s1, s0

        d1 = deg(r1)
        if d1 < 0:
            # gcd is r0, a nonconstant common factor: the modulus is reducible
            raise ZeroDivisor("t-modulus has a nontrivial factor",
                              factor=self._from_coeffs(self._from_tpoly(r0)))
        lead_inv = self._cvec_inv(r1[0])
        inv_tpoly = [self._cvec_mul(vec, lead_inv) for vec in s1]
        inv_tpoly = inv_tpoly[: self.deg_t] + [zero_vec] * max(
            0, self.deg_t - len(inv_tpoly))
        return self._from_coeffs(self._from_tpoly(inv_tpoly))

    # -- embedding -------------------------------------------------------------

    def _embed_tables(self, prec):
        tables = self._emb_cache.get(prec)
        if tables is None:
            with mpmath.mp.workprec(prec):
                ub = ComplexBall(mpmath.exp(1j * mpmath.pi / self.d),
                                 float(2.0 ** (4 - prec)), prec)
                tb = ComplexBall(mpmath.mpf(2) ** (mpmath.mpf(1) / self.d),
                                 float(2.0 ** (4 - prec)), prec)
                upows = [ComplexBall(mpmath.mpc(1), 0.0, prec)]
                for _ in range(self.phi - 1):
                    upows.append(upows[-1] * ub)
                tpows = [ComplexBall(mpmath.mpc(1), 0.0, prec)]
                for _ in range(self.deg_t - 1):
                    tpows.append(tpows[-1] * tb)
            tables = (upows, tpows)
            self._emb_cache[prec] = tables
        return tables

    def embed(self, a: "FieldElement", precision_bits: int = 64) -> ComplexBall:
        prec = max(53, precision_bits)
        upows, tpows = self._embed_tables(prec)
        with mpmath.mp.workprec(prec):
            acc = ComplexBall(mpmath.mpc(0), 0.0, prec)
            for (i, j, c) in a.nonzero_terms():
                center = mpmath.mpf(int(c.numerator)) / int(c.denominator)
                cball = ComplexBall(center,
                                    abs(float(center)) * 2.0 ** (4 - prec),
                                    prec)
                acc = acc + upows[i] * tpows[j] * cball
        return acc

    def __repr__(self):
        return f"TowerField(d={self.d}, dim={self.phi * self.deg_t})"


class FieldElement:
    """Immutable element of K_d in normal form."""

    __slots__ = ("field", "coeffs", "_nz", "_hash")

    def __init__(self, field: TowerField, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._nz = None
        self._hash = None

    # -- structure -----------------------------------------------------------

    def nonzero_terms(self):
        if self._nz is None:
            self._nz = tuple((i, j, c)
                             for i, row in enumerate(self.coeffs)
                             for j, c in enumerate(row) if c)
        return self._nz

    def is_zero(self) -> bool:
        return not self.nonzero_terms()

    def is_rational(self):
        nz = self.nonzero_terms()
        if not nz:
            return Q0
        if len(nz) == 1 and nz[0][0] == 0 and nz[0][1] == 0:
            return nz[0][2]
        return None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.d, self.coeffs))
        return self._hash

    def __eq__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __ne__(self, other):
        out = self.__eq__(other)
        return out if out is NotImplemented else not out

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if other.field is not self.field:
            raise DegreeMismatch(
                f"mixed fields: d={self.field.d} vs d={other.field.d}")

    def __add__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        self._check(other)
        a, b = self, other
        if len(a.nonzero_terms()) < len(b.nonzero_terms()):
            a, b = b, a
        if b.is_zero():
            return a
        return FieldElement(self.field,
                            self.field._add(a.coeffs, b.nonzero_terms()))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return FieldElement(self.field, self.field._add(
            self.field.zero.coeffs,
            [(i, j, -c) for i, j, c in self.nonzero_terms()]))

    def __sub__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        self._check(other)
        return FieldElement(
            self.field,
            self.field._mul(self.nonzero_terms(), other.nonzero_terms()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return self * self.field.invert(other)

    def __rtruediv__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return other * self.field.invert(self)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.field.invert(self) ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "FieldElement":
        return self.field.invert(self)

    # -- io ---------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [[i, j, f"{c.numerator}/{c.denominator}"]
                 for (i, j, c) in sorted(self.nonzero_terms(),
                                         key=lambda t: (t[0], t[1]))]
        return {"d": self.field.d, "terms": terms}

    def __repr__(self):
        nz = self.nonzero_terms()
        if not nz:
            return "K[0]"
        bits = []
        for (i, j, c) in nz[:8]:
            part = str(c)
            if i:
                part += f"*u^{i}"
            if j:
                part += f"*t^{j}"
            bits.append(part)
        if len(nz) > 8:
            bits.append("...")
        return "K[" + " + ".join(bits) + "]"


def _coerce(field: TowerField, value):
    if isinstance(value, FieldElement):
        return value
    if isinstance(value, int) or type(value) is type(Q0):
        return field.from_rational(value)
    return None


@lru_cache(maxsize=None)
def tower_field(d: int) -> TowerField:
    """Shared, guarded field context for a given degree."""
    return TowerField(d)


def field_element_from_json(obj: dict) -> FieldElement:
    fld = tower_field(int(obj["d"]))
    rows = [[Q0] * fld.deg_t for _ in range(fld.phi)]
    for i, j, s in obj["terms"]:
        rows[int(i)][int(j)] += Q(s)
    return FieldElement(fld, tuple(tuple(r) for r in rows))


# -- spec-facing operation surface ------------------------------------------


def constants(d: int):
    """Generators (u, zeta, t) of K_d in normal form; zeta = u^2."""
    fld = tower_field(d)
    return fld.u, fld.zeta, fld.t


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    if a.field is not b.field:
        raise DegreeMismatch("operands from different fields")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def invert(a: FieldElement) -> FieldElement:
    return a.field.invert(a)


def is_zero(a: FieldElement) -> bool:
    return a.is_zero()


def embed(a: FieldElement, precision_bits: int = 64) -> ComplexBall:
    return a.field.embed(a, precision_bits)
