"""Exact tower-field arithmetic: defining relations, normal forms, inversion,
serialization, the integer reduction rows and the display embedding."""

import contextlib
import gc
import hashlib
import json
import random
import weakref
from functools import lru_cache
from math import gcd

import mpmath
import pytest

from conftest import random_element
from fermatosc.errors import CertificationFailure, FermatoscError
from fermatosc import tower
from fermatosc.tower import (D_MAX, D_MIN, FieldElement, Q, TowerField,
                             _int_terms, _zpoly_exact_div,
                             cyclotomic_int_coeffs, field_element_from_json,
                             memoized, tower_field)

DEGREES = (3, 4, 5, 6, 7, 8)


def _full_modulus(self):
    """t^d - 2 at every d: at 4 | d it factors, since sqrt(2) is in Q(u)."""
    return self.d, ((0, 2),)


def _reducible_ring():
    """Q(u)[t] / (t^4 - 2) over the 8th cyclotomic field, which has zero
    divisors: K_4 built with the full modulus and no certificate."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(TowerField, "_t_modulus", _full_modulus)
        m.setattr(TowerField, "_certify", lambda self: None)
        return TowerField(4)


def _euclid(fld, a):
    """Extended Euclid in Q(u)[t] against the t-modulus t^deg_t - c, the
    reference for `invert`: (g, s) with s a = g, g = gcd(a, modulus) as an
    element.  g is one, and s the inverse, when a is a unit; otherwise g is
    a factor of the modulus.  The t-polynomials are lists of t-free
    elements."""
    zero, one = fld.zero, fld.one

    def t_poly(p):
        """sum p[j] t^j, for t-free elements p[j]."""
        out = zero
        for j, c in enumerate(p):
            out = out + FieldElement(
                fld, tuple((i, j, n) for i, _, n in c.terms), c.den)
        return out

    def deg(p):
        return max((k for k, c in enumerate(p) if c), default=-1)

    r0 = [-fld.t ** fld.deg_t] + [zero] * (fld.deg_t - 1) + [one]
    r1 = [fld._make([(i, 0, n) for i, jj, n in a.terms if jj == j], a.den)
          for j in range(fld.deg_t)]
    s0, s1 = [zero], [one]
    while True:
        d1 = deg(r1)
        if d1 <= 0:
            break
        d0 = deg(r0)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        lead_inv = fld.invert(r1[d1])
        r0, s0 = list(r0), list(s0)
        while d0 >= d1:
            c = r0[d0] * lead_inv
            sh = d0 - d1
            for i in range(d1 + 1):
                r0[sh + i] = r0[sh + i] - c * r1[i]
            s0 += [zero] * (sh + len(s1) - len(s0))
            for i, b in enumerate(s1):
                s0[sh + i] = s0[sh + i] - c * b
            d0 = deg(r0)
        r0, r1, s0, s1 = r1, r0, s1, s0

    if deg(r1) < 0:
        # the gcd r0 is a nonconstant common factor: the modulus is reducible
        return t_poly(r0), t_poly(s0[: fld.deg_t])
    lead_inv = fld.invert(r1[0])
    return one, t_poly([c * lead_inv for c in s1[: fld.deg_t]])


@pytest.mark.parametrize("d", DEGREES)
def test_defining_relations(d):
    f = tower_field(d)
    u, zeta, t = f.u, f.zeta, f.t
    assert (u**d + 1).is_zero()
    assert (zeta**d - 1).is_zero()
    assert not (zeta - 1).is_zero()
    assert (t**d - 2).is_zero()
    assert (zeta - u * u).is_zero()


def test_rejects_small_degree():
    with pytest.raises(ValueError):
        tower_field(2)
    with pytest.raises(ValueError):
        tower_field(65)


def test_arith_examples():
    f6 = tower_field(6)
    assert f6.u * f6.u**11 == f6.one

    t3 = tower_field(3).t
    assert t3 * t3**2 == tower_field(3).from_rational(2)

    f4 = tower_field(4)
    r = f4.u - f4.u**3
    assert r * r == f4.from_rational(2)
    assert abs(complex(f4.embed(r, 128)) - 2**0.5) <= 1e-14


def test_arith_degree_mismatch():
    with pytest.raises(FermatoscError, match="mixed fields"):
        tower_field(3).u + tower_field(4).u


@pytest.mark.parametrize("d", DEGREES)
def test_invert_examples(d):
    f = tower_field(d)
    u, t = f.u, f.t
    assert t.inverse() == t**(d - 1) / 2
    assert u.inverse() == -(u**(d - 1))
    e = (f.one + u).inverse()
    assert (f.one + u) * e == f.one


def test_invert_zero_rejected():
    f = tower_field(3)
    with pytest.raises(FermatoscError, match="cannot invert zero"):
        f.zero.inverse()


@pytest.mark.parametrize("gen, message", (
    ("u", "norm to Q has a u-part"),
    ("t", r"norm to Q\(u\) has a t-part")), ids=("Q", "Q(u)"))
def test_norm_of_wrong_conjugates_raises(gen, message, monkeypatch):
    """With each conjugate replaced by the element itself, the norm of
    1 + u to Q keeps a u-part and the norm of 1 + t to Q(u) a t-part, and
    the inversion fails certification."""
    fld = tower_field(5)
    a = fld.one + getattr(fld, gen)
    monkeypatch.setattr(TowerField, "_conjugate",
                        lambda self, A, m, s: list(A))
    with pytest.raises(CertificationFailure, match=message):
        a.inverse()


def test_monomial_rejects_t_exponents_outside_normal_form():
    fld = tower_field(4)
    for te in (-1, fld.deg_t, 2 * fld.deg_t + 1):
        with pytest.raises(ValueError, match="t exponent"):
            fld.monomial(1, te)
    assert fld.monomial(-1, fld.deg_t - 1) == fld.u_pow(-1) * fld.t ** (
        fld.deg_t - 1)


@pytest.mark.parametrize("d", DEGREES)
def test_is_zero_cyclotomic_relation(d):
    f = tower_field(d)
    coeffs = cyclotomic_int_coeffs(2 * d)
    acc = f.zero
    for e, c in enumerate(coeffs):
        if c:
            acc = acc + f.monomial(e, 0) * c
    assert acc.is_zero()
    assert not (f.u + f.t).is_zero()


def test_is_zero_d4_sqrt2_branch():
    f = tower_field(4)
    u, t = f.u, f.t
    assert f.deg_t == 2
    assert (t * t - (u - u**3)).is_zero()
    assert abs(complex(f.embed(t * t, 128)) - 2**0.5) <= 1e-14


def test_deg_t_branches():
    assert tower_field(8).deg_t == 4
    assert tower_field(6).deg_t == 6
    f8 = tower_field(8)
    assert (f8.t**4 - (f8.u_pow(2) - f8.u_pow(6))).is_zero()


@pytest.mark.parametrize("d", DEGREES)
def test_ring_axioms_bulk(d):
    f = tower_field(d)
    rng = random.Random(1000 + d)
    for _ in range(1000):
        a, b, c = (random_element(f, rng, max_terms=3) for _ in range(3))
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a * b - b * a).is_zero()


@pytest.mark.parametrize("d", DEGREES)
def test_inversion_bulk(d):
    f = tower_field(d)
    rng = random.Random(2000 + d)
    done = 0
    while done < 200:
        a = random_element(f, rng, max_terms=3)
        if a.is_zero():
            continue
        assert (a * a.inverse() - f.one).is_zero()
        done += 1


def test_embedding_homomorphism_bulk():
    total = 0
    for d in DEGREES:
        f = tower_field(d)
        rng = random.Random(3000 + d)
        for _ in range(40):
            a = random_element(f, rng, max_terms=3)
            b = random_element(f, rng, max_terms=3)
            lhs = f.embed(a * b, 96)
            with mpmath.workprec(96):
                rhs = f.embed(a, 96) * f.embed(b, 96)
                assert abs(lhs - rhs) <= 2**-80 * abs(lhs)
            total += 1
    assert total >= 200


@pytest.mark.parametrize("d", DEGREES)
def test_zero_embeds_into_zero_ball(d):
    f = tower_field(d)
    rng = random.Random(4000 + d)
    samples = [f.zero, f.u**(2 * d) - f.one, f.t**d - 2]
    for _ in range(5):
        a = random_element(f, rng, max_terms=4)
        samples.append(a - a)
    for a in samples:
        assert a.is_zero()
        assert abs(f.embed(a, 256)) < 2**-200


def test_embed_sextactic_coordinate_modulus():
    f = tower_field(5)
    w = f.monomial(-1, 1)            # u^(-1) t, the third coordinate slot
    assert abs(abs(complex(f.embed(w, 128))) - 2 ** 0.2) < 1e-12


@pytest.mark.parametrize("d", (3, 4, 5, 8))
def test_serialization_roundtrip(d):
    f = tower_field(d)
    rng = random.Random(5000 + d)
    for _ in range(25):
        a = random_element(f, rng, max_terms=5)
        blob = a.to_json_dict()
        assert blob["d"] == d
        for i, j, s in blob["terms"]:
            num, den = s.split("/")
            assert int(den) > 0
            from math import gcd
            assert gcd(abs(int(num)), int(den)) == 1
            assert 0 <= i < f.phi and 0 <= j < f.deg_t
        assert field_element_from_json(blob) == a


def test_embedding_positions():
    import cmath
    f4, f3 = tower_field(4), tower_field(3)
    assert abs(complex(f4.embed(f4.u, 128))
               - cmath.exp(1j * cmath.pi / 4)) < 1e-14
    assert abs(complex(f3.embed(f3.t, 128)) - 2 ** (1 / 3)) < 1e-15


def test_pow_negative_exponent():
    f = tower_field(5)
    a = f.u + f.t
    assert (a**-2 * a**2 - f.one).is_zero()
    # the inverse's power, as a product of e inverses
    for e in range(1, 8):
        ref = f.one
        for _ in range(e):
            ref = ref * a.inverse()
        _assert_same(a**-e, ref)


def test_pow_product_count(monkeypatch):
    """Square-and-multiply from the top bit: bit_length - 1 squarings and
    popcount - 1 further products, and the value of e repeated products."""
    f = tower_field(5)
    a = f.u + f.t
    refs = [f.one]
    for _ in range(20):
        refs.append(refs[-1] * a)
    mul = FieldElement.__mul__
    calls = []
    monkeypatch.setattr(FieldElement, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    for e in range(1, 21):
        calls.clear()
        _assert_same(a**e, refs[e])
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
    calls.clear()
    _assert_same(a**0, f.one)
    assert not calls


def test_zero_divisor_raises_with_the_element():
    # keeping t^4 - 2 over the 8th cyclotomic field leaves a reducible
    # modulus; t^2 - sqrt(2) has norm zero, and inverting it must raise
    broken = _reducible_ring()
    zd = broken.t**2 - (broken.u - broken.u**3)
    assert not zd.is_zero()
    with pytest.raises(CertificationFailure,
                       match="zero norm of a nonzero element") as exc:
        broken.invert(zd)
    assert exc.value.witness is zd


def test_euclid_reference_reports_factor():
    broken = _reducible_ring()
    sqrt2 = broken.u - broken.u**3
    zd = broken.t**2 - sqrt2
    factor, s = _euclid(broken, zd)
    assert not factor.is_zero()
    assert s * zd == factor
    # a true factor of t^4 - 2 = (t^2 - sqrt(2)) (t^2 + sqrt(2))
    assert max(j for _, j, _ in factor.terms) == 2
    assert (factor * (broken.t**2 + sqrt2)).is_zero()


def test_larger_degree_construction():
    f = tower_field(12)
    assert f.deg_t == 6 and f.phi == 8
    u, t = f.u, f.t
    assert (t**12 - 2).is_zero()
    assert (u**12 + 1).is_zero()
    a = f.u + f.t
    assert (a * a.inverse() - f.one).is_zero()


@pytest.mark.parametrize("d", (3, 4, 5, 8))
def test_sparse_addition_matches_dense_reference(d):
    fld = tower_field(d)
    rng = random.Random(400 + d)

    def dense(a, b, sign):
        return tuple(tuple(x + sign * y for x, y in zip(ra, rb))
                     for ra, rb in zip(a.coeffs, b.coeffs))

    elems = [fld.zero, fld.one]
    for _ in range(12):
        elems.append(random_element(fld, rng,
                                    max_terms=rng.choice((1, 3, 40))))
    for _ in range(60):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a + b).coeffs == dense(a, b, 1)
        assert (a - b).coeffs == dense(a, b, -1)
        assert (-a).coeffs == dense(fld.zero, a, -1)
    for a in elems:
        assert a + fld.zero == a and fld.zero + a == a and a - fld.zero == a
        for zero in (a - a, a + (-a), -a + a, fld.zero - a + a):
            assert zero == fld.zero
            assert hash(zero) == hash(fld.zero)
            assert zero.is_zero()
        b = rng.choice(elems)
        partial = a + (b - a)          # cancels a coefficient by coefficient
        assert partial == b and hash(partial) == hash(b)
        assert partial.is_zero() == b.is_zero()


def test_inexact_polynomial_division_fails_certification():
    assert _zpoly_exact_div([-1, 0, 1], [-1, 1]) == [1, 1]
    with pytest.raises(CertificationFailure):
        _zpoly_exact_div([1, 0, 1], [1, 1])        # (x^2 + 1) / (x + 1)


KERNEL_DEGREES = tuple(range(3, 13))            # 4 | d at d = 4, 8, 12
BIG_PRIMES = (1, 3, 10**9 + 7, 2**61 - 1)


def _kernel_elements(fld, rng):
    """One-term through dense elements with numerators up to 10^30, both
    signs, and large prime denominators."""
    dim = fld.phi * fld.deg_t
    out = []
    for terms in (1, 2, 3, 7, dim // 2, 3 * dim):
        for bound in (9, 10**30):
            a = random_element(fld, rng, max_terms=terms, num_bound=bound,
                               den_choices=BIG_PRIMES)
            if not a.is_zero():
                out.append(a)
    return out


def _reduce_by_phi(d, poly):
    """The integer polynomial poly (ascending) mod Phi_2d, by long division,
    as a dense list of phi(2d) coefficients."""
    phi_c = cyclotomic_int_coeffs(2 * d)
    n = len(phi_c) - 1
    rem = list(poly) + [0] * max(0, n - len(poly))
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k]
        for i, pc in enumerate(phi_c):
            rem[k - n + i] -= c * pc
    return rem[:n]


@lru_cache(maxsize=None)
def _reduction_tables(d, deg_t):
    """(u^e for e < 2d, u^e t^deg_t for e < 2 phi - 1), dense over 1, u, ...:
    t^deg_t is 2, or u^(d/4) - u^(3d/4) = sqrt(2) when deg_t = d/2."""
    n = len(cyclotomic_int_coeffs(2 * d)) - 1
    upow = [_reduce_by_phi(d, [0] * e + [1]) for e in range(2 * d)]
    if deg_t == d:
        tval = [2]
    else:
        tval = [0] * (3 * d // 4 + 1)
        tval[d // 4], tval[3 * d // 4] = 1, -1
    tpow = [_reduce_by_phi(d, [0] * e + tval) for e in range(2 * n - 1)]
    return upow, tpow


def _rational_product(fld, a, b):
    """a * b term by term over the rationals, reduced by the test's own
    tables."""
    upow, tpow = _reduction_tables(fld.d, fld.deg_t)
    acc = [[Q(0)] * fld.deg_t for _ in range(fld.phi)]
    for i1, j1, c1 in a.nonzero_terms():
        for i2, j2, c2 in b.nonzero_terms():
            c, e, j = c1 * c2, i1 + i2, j1 + j2
            if j >= fld.deg_t:
                j -= fld.deg_t
                row = tpow[e]
            else:
                row = upow[e]
            for i, rc in enumerate(row):
                acc[i][j] += rc * c
    return tuple(tuple(r) for r in acc)


def _pairs(row):
    return tuple((i, c) for i, c in enumerate(row) if c)


@pytest.mark.parametrize("d", range(D_MIN, D_MAX + 1))
def test_integer_rows_match_long_division(d):
    fields = [tower_field(d)]
    if d == 4:
        fields.append(_reducible_ring())
    for fld in fields:
        upow, tpow = _reduction_tables(d, fld.deg_t)
        assert list(fld._zrows) == [_pairs(r) for r in upow]
        assert list(fld._zrows_t) == [_pairs(r) for r in tpow]


@pytest.mark.parametrize("d", KERNEL_DEGREES)
def test_integer_product_matches_rational(d):
    fld = tower_field(d)
    rng = random.Random(600 + d)
    elems = _kernel_elements(fld, rng)
    elems += [-a for a in elems[::3]] + [fld.one, fld.t, fld.u]
    checked = 0
    for _ in range(60):
        a, b = rng.choice(elems), rng.choice(elems)
        if len(a.nonzero_terms()) * len(b.nonzero_terms()) < 2500:
            assert (a * b).coeffs == _rational_product(fld, a, b)
            checked += 1
    assert checked >= 20
    # a dense product, and one that cancels down to one
    a = random_element(fld, rng, max_terms=3 * fld.phi * fld.deg_t,
                       num_bound=10**30, den_choices=BIG_PRIMES)
    assert (a * a).coeffs == _rational_product(fld, a, a)
    assert a * a.inverse() == fld.one


def test_integer_product_cancels_to_zero():
    # in Q(u)[t] / (t^4 - 2) over the 8th cyclotomic field,
    # (t^2 - sqrt(2)) (t^2 + sqrt(2)) = t^4 - 2 = 0
    broken = _reducible_ring()
    sqrt2 = broken.u - broken.u**3
    rng = random.Random(650)
    for _ in range(5):
        r1, r2 = (random_element(broken, rng, max_terms=40, num_bound=10**30,
                                 den_choices=BIG_PRIMES)
                  for _ in range(2))
        a = (broken.t**2 - sqrt2) * r1
        b = (broken.t**2 + sqrt2) * r2
        assert (a * b).coeffs == _rational_product(broken, a, b)
        assert (a * b).is_zero()


@pytest.mark.parametrize("d", DEGREES)
def test_norm_inverse_matches_euclid(d):
    fld = tower_field(d)
    rng = random.Random(700 + d)
    elems = [fld.one + fld.u + fld.t]
    # Euclid's coefficients grow fast: large numerators only on few terms
    for terms, bound, dens in ((2, 10**30, BIG_PRIMES), (3, 10**30, BIG_PRIMES),
                               (3, 9, (1, 2, 3)), (7, 9, (1, 2, 3)),
                               (fld.phi * fld.deg_t // 2, 9, (1, 2, 3))):
        for _ in range(3):
            elems.append(random_element(fld, rng, max_terms=terms,
                                        num_bound=bound, den_choices=dens))
    elems = [a for a in elems
             if len({j for _, j, _ in a.nonzero_terms()}) > 1]
    assert len(elems) >= 6
    for a in elems:
        g, s = _euclid(fld, a)
        assert g == fld.one
        assert a.inverse() == s
        assert a * a.inverse() == fld.one


def _dense_element(fld, rng):
    """Every one of the phi * deg_t coordinates nonzero."""
    return fld._make(*_int_terms([
        (i, j, Q(rng.choice((-1, 1)) * rng.randint(1, 10**6),
                 rng.choice((1, 2, 3, 5, 7))))
        for i in range(fld.phi) for j in range(fld.deg_t)]))


@pytest.mark.parametrize("d", (9, 10, 11, 12))
def test_norm_inverse_large_degrees(d):
    fld = tower_field(d)
    rng = random.Random(800 + d)
    for terms in (2, 3, 12):
        a = random_element(fld, rng, max_terms=terms)
        if not a.is_zero():
            assert a * a.inverse() == fld.one
    if d == 11:
        # all 110 coordinates: minutes through Euclid
        a = _dense_element(fld, rng)
        assert len(a.nonzero_terms()) == 110
        assert a * a.inverse() == fld.one


@pytest.mark.parametrize("d", KERNEL_DEGREES)
def test_single_t_power_inverse(d):
    fld = tower_field(d)
    rng = random.Random(900 + d)
    red = fld.t**fld.deg_t                      # the reduction constant
    assert fld.t.inverse() == fld.t**(fld.deg_t - 1) * red.inverse()
    assert fld.t.inverse() == fld.t_inv
    for j in range(fld.deg_t):
        tj = fld.t**j
        for terms in (1, 2, fld.phi):
            b = fld.zero                        # b = b(u), no t
            for _ in range(terms):
                b = b + fld.monomial(rng.randrange(fld.phi), 0) * Q(
                    rng.randint(-10**30, 10**30), rng.choice(BIG_PRIMES))
            if b.is_zero():
                continue
            a = b * tj
            assert {jj for _, jj, _ in a.nonzero_terms()} == {j}
            inv = a.inverse()
            assert a * inv == fld.one
            if d <= 10:
                g, s = _euclid(fld, a)
                assert g == fld.one and inv == s


NORMAL_FORM_DEGREES = (3, 4, 5, 8, 12)


def _assert_normal(a):
    """Sorted nonzero integer terms over a positive denominator that
    shares no factor with all numerators; zero is ((), 1)."""
    assert isinstance(a.den, int) and a.den > 0
    assert all(isinstance(n, int) and n for _, _, n in a.terms)
    keys = [(i, j) for i, j, _ in a.terms]
    assert keys == sorted(set(keys))
    assert all(0 <= i < a.field.phi and 0 <= j < a.field.deg_t
               for i, j in keys)
    if a.terms:
        assert gcd(a.den, *[n for _, _, n in a.terms]) == 1
    else:
        assert (a.terms, a.den) == ((), 1)


def _assert_same(a, b):
    assert a == b
    assert (a.terms, a.den) == (b.terms, b.den)
    assert hash(a) == hash(b)


@pytest.mark.parametrize("d", NORMAL_FORM_DEGREES)
def test_normal_form_invariants(d):
    fld = tower_field(d)
    rng = random.Random(1100 + d)
    elems = [fld.zero, fld.one, fld.u, fld.t, fld.t_inv,
             fld.from_rational(Q(-6, 4)), fld.from_rational(0),
             fld.monomial(-1, 1), fld.monomial(3, 0) * Q(10, 4) * fld.t ** -2,
             fld.monomial(1, 0) * Q(-3, 9) * fld.t ** (2 * fld.deg_t + 1),
             fld.monomial(2, 0) * 0]
    for terms in (1, 3, 12):
        elems.append(random_element(fld, rng, max_terms=terms, num_bound=10**6,
                                    den_choices=(1, 2, 6, 10**9 + 7)))
    for a in elems:
        _assert_normal(a)
        _assert_normal(-a)
        _assert_normal(field_element_from_json(a.to_json_dict()))
        _assert_same(field_element_from_json(a.to_json_dict()), a)
        if not a.is_zero():
            _assert_normal(a.inverse())
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(elems)
        for c in (a + b, a - b, a * b):
            _assert_normal(c)
    assert fld.from_rational(Q(-6, 4)).terms == ((0, 0, -3),)
    assert fld.from_rational(Q(-6, 4)).den == 2


@pytest.mark.parametrize("d", NORMAL_FORM_DEGREES)
def test_equal_values_have_equal_normal_forms(d):
    fld = tower_field(d)
    rng = random.Random(1200 + d)
    for _ in range(15):
        a, b = (random_element(fld, rng, max_terms=rng.choice((1, 3, 8)),
                               den_choices=(1, 2, 3, 4, 6))
                for _ in range(2))
        _assert_same(a + b - b, a)
        _assert_same((a * 2) / 2, a)
        _assert_same(a * Q(3, 7) * Q(7, 3), a)
        if not b.is_zero():
            _assert_same(a * b / b, a)
        _assert_same(a - a, fld.zero)
    _assert_same(fld.from_rational(Q(4, 2)), fld.one + fld.one)
    _assert_same(fld.t**fld.deg_t * fld.t_inv, fld.t**(fld.deg_t - 1))


@pytest.mark.parametrize("d", NORMAL_FORM_DEGREES)
def test_monomial_product_matches_general_product(d):
    """A one-term factor on either side gives the normal form of the
    product taken term by term over the rationals, whether a product term
    wraps in u, in t or in neither."""
    fld = tower_field(d)
    rng = random.Random(1300 + d)
    seen = set()
    for _ in range(60):
        mono = fld._make([(rng.randrange(fld.phi), rng.randrange(fld.deg_t),
                           rng.choice((-6, -1, 1, 2, 3)))],
                         rng.choice((1, 2, 4, 9)))
        b = random_element(fld, rng, max_terms=rng.choice((1, 2, 5, 12)),
                           den_choices=(1, 2, 3, 6))
        if b.is_zero():
            continue
        i1, j1, _ = mono.terms[0]
        wraps = {"u-wrap" for i, _, _ in b.terms if i + i1 >= fld.phi}
        wraps |= {"t-wrap" for _, j, _ in b.terms if j + j1 >= fld.deg_t}
        seen |= wraps or {"in range"}
        ref = _rational_product(fld, mono, b)
        for c in (mono * b, b * mono):
            _assert_normal(c)
            assert c.coeffs == ref
    assert seen == {"in range", "u-wrap", "t-wrap"}


DOT_MULTIPLIERS = (0, 1, -1, 2, -3, 7 * 2**70, -(10**30 + 1))


def _fold(fld, triples, start=None):
    """start + sum k x y by `*` and `+` alone."""
    acc = fld.zero if start is None else start
    for k, x, y in triples:
        acc = acc + (x * y) * k
    return acc


@pytest.mark.parametrize("d", (3, 5, 8))
def test_dot_matches_fold(d):
    """`dot` has the normal form of the fold of `*` and `+`, on dense
    elements with mixed denominators, zero operands, multipliers 0, +-1 and
    large ints, with and without a start, and on an empty triple list."""
    fld = tower_field(d)
    rng = random.Random(1400 + d)
    elems = [_dense_element(fld, rng) for _ in range(6)]
    elems += [-elems[0], elems[1] * Q(5, 9), fld.one, fld.t_inv, fld.zero]
    starts = (None, fld.zero, fld.one, elems[2], elems[3] * Q(-1, 7))
    for start in starts:
        _assert_same(fld.dot([], start), _fold(fld, [], start))
        _assert_same(fld.dot([(0, elems[0], elems[1])], start),
                     _fold(fld, [], start))
    for _ in range(40):
        triples = [(rng.choice(DOT_MULTIPLIERS), rng.choice(elems),
                    rng.choice(elems)) for _ in range(rng.randint(1, 6))]
        start = rng.choice(starts)
        got = fld.dot(triples, start)
        _assert_normal(got)
        _assert_same(got, _fold(fld, triples, start))
    # a sum that cancels to zero, and one that cancels down to its start
    a, b = elems[0], elems[1]
    _assert_same(fld.dot([(3, a, b), (-1, b, a * 3)]), fld.zero)
    _assert_same(fld.dot([(1, a, b), (1, -a, b)], elems[2]), elems[2])


def test_dot_of_two_fields_raises():
    f3, f4 = tower_field(3), tower_field(4)
    for block in (False, True):
        with memoized() if block else contextlib.nullcontext():
            for triples, start in (([(1, f3.u, f4.u)], None),
                                   ([(1, f4.u, f3.u)], None),
                                   ([(1, f3.u, f3.t), (0, f4.one, f3.u)],
                                    None),
                                   ([(1, f3.u, f3.t)], f4.one),
                                   ([], f4.zero)):
                with pytest.raises(FermatoscError, match="mixed fields"):
                    f3.dot(triples, start)
            if block:
                assert tower._MEMO.get() == ({}, {}, {}, {}, {}, {})


def test_dot_memo_builds_nothing_on_a_repeated_call(monkeypatch):
    """In a block a repeated call with the same operands returns the stored
    element and builds none; outside a block each call builds its own."""
    fld = tower_field(5)
    rng = random.Random(1450)
    a, b, c = (_dense_element(fld, rng) for _ in range(3))
    triples = [(2, a, b), (-1, b, c), (5, c, c)]
    made = []
    make = TowerField._make

    def counted(self, terms, den):
        made.append(den)
        return make(self, terms, den)
    monkeypatch.setattr(TowerField, "_make", counted)
    first, second = fld.dot(triples, a), fld.dot(triples, a)
    assert first is not second and len(made) == 2
    _assert_same(first, second)
    with memoized():
        del made[:]
        inside = fld.dot(triples, a)
        assert len(made) == 1
        assert fld.dot(list(triples), a) is inside and len(made) == 1
        _assert_same(inside, first)
        assert fld.dot(triples) is not inside and len(made) == 2


# -- field certificate ---------------------------------------------------------


def _primes_dividing(n):
    return [q for q in range(2, n + 1)
            if n % q == 0 and all(q % s for s in range(2, q))]


def test_reducible_modulus_fails_certification(monkeypatch):
    # t^4 - 2 over the 8th cyclotomic field has the factor t^2 - sqrt(2)
    monkeypatch.setattr(TowerField, "_t_modulus", _full_modulus)
    with pytest.raises(CertificationFailure):
        TowerField(4)


@pytest.mark.parametrize("d", range(D_MIN, D_MAX + 1))
def test_certificate_checks_independently(d):
    fld = tower_field(d)
    p, w, c = fld.certificate
    n, m = 2 * d, fld.deg_t
    assert p > 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))
    assert p % n == 1
    # w has order exactly 2d and is a root of the cyclotomic polynomial
    assert pow(w, n, p) == 1
    assert all(pow(w, k, p) != 1 for k in range(1, n))
    acc = 0
    for a in reversed(cyclotomic_int_coeffs(n)):
        acc = (acc * w + a) % p
    assert acc == 0
    # c is the image of t^m under u -> w, and c^(d/m) that of t^d = 2
    tm = (fld.t ** m).nonzero_terms()
    assert all(j == 0 for _, j, _ in tm)
    image = sum(int(q.numerator) * pow(int(q.denominator), p - 2, p)
                * pow(w, i, p) for i, _, q in tm) % p
    assert c == image and pow(c, d // m, p) == 2
    # Capelli: c is no l-th power mod p for any prime l | m
    assert c != 0
    for ell in _primes_dividing(m):
        assert pow(c, (p - 1) // ell, p) != 1


def test_smallest_certifying_primes():
    assert [tower_field(d).certificate[0] for d in range(3, 25)] == [
        7, 17, 11, 13, 29, 17, 19, 61, 23, 97, 53, 29, 61, 97, 103, 37, 191,
        41, 211, 397, 47, 97]


# (p, w, c) of `TowerField.certificate` at every degree, as the trial
# division primality test found them: the Miller-Rabin test finds the same
CERTIFICATES = {
    3: (7, 3, 2), 4: (17, 9, 11), 5: (11, 2, 2), 6: (13, 2, 2), 7: (29, 4, 2),
    8: (17, 3, 11), 9: (19, 2, 2), 10: (61, 8, 2), 11: (23, 5, 2),
    12: (97, 43, 14), 13: (53, 4, 2), 14: (29, 2, 2), 15: (61, 4, 2),
    16: (97, 28, 14), 17: (103, 27, 2), 18: (37, 2, 2), 19: (191, 38, 2),
    20: (41, 6, 24), 21: (211, 32, 2), 22: (397, 115, 2), 23: (47, 5, 2),
    24: (97, 25, 14), 25: (101, 4, 2), 26: (53, 2, 2), 27: (163, 8, 2),
    28: (449, 275, 30), 29: (59, 2, 2), 30: (61, 2, 2), 31: (311, 264, 2),
    32: (193, 125, 52), 33: (67, 2, 2), 34: (613, 512, 2), 35: (71, 7, 2),
    36: (1009, 200, 570), 37: (149, 4, 2), 38: (229, 8, 2), 39: (79, 3, 2),
    40: (401, 243, 348), 41: (83, 2, 2), 42: (421, 32, 2), 43: (173, 4, 2),
    44: (1409, 362, 209), 45: (181, 4, 2), 46: (277, 8, 2), 47: (283, 8, 2),
    48: (97, 5, 14), 49: (197, 4, 2), 50: (101, 2, 2), 51: (103, 5, 2),
    52: (313, 30, 120), 53: (107, 2, 2), 54: (541, 32, 2), 55: (661, 64, 2),
    56: (449, 81, 30), 57: (571, 32, 2), 58: (349, 8, 2), 59: (709, 64, 2),
    60: (1321, 389, 136), 61: (367, 27, 2), 62: (373, 8, 2), 63: (379, 8, 2),
    64: (641, 243, 574),
}


def test_certificates_unchanged_by_the_primality_test():
    assert {d: tower_field(d).certificate
            for d in range(D_MIN, D_MAX + 1)} == CERTIFICATES


def test_miller_rabin_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if tower._is_prime(n)] == [
        n for n in range(5000) if trial(n)]
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              561, 41041, 825265):
        assert not tower._is_prime(n)
    for n in ((1 << 61) - 1, (1 << 64) - 59, 2305843009213694173):
        assert tower._is_prime(n)
    with pytest.raises(ValueError, match="beyond"):
        tower._is_prime((1 << 89) - 1)


REDUCTION_DEGREES = tuple(range(3, 13)) + (16, 32, 48)


@pytest.mark.parametrize("d", REDUCTION_DEGREES)
def test_reduction_is_a_ring_map(d):
    """u -> w, t -> r sends sums to sums and products to products, and its
    prime, w and r have the properties the reduction checks."""
    fld = tower_field(d)
    p, w, r, image = fld.reduction()
    n, m = 2 * d, fld.deg_t
    assert tower._is_prime(p) and p % n == 1 and abs(p - (1 << 61)) < 1 << 40
    acc = 0
    for a in reversed(cyclotomic_int_coeffs(n)):
        acc = (acc * w + a) % p
    assert acc == 0
    assert (image(fld.u), image(fld.t)) == (w, r)
    assert pow(r, m, p) == image(fld.t ** m) != 0
    rng = random.Random(1000 + d)
    for _ in range(6):
        a = random_element(fld, rng, max_terms=8)
        b = random_element(fld, rng, max_terms=8)
        assert image(a * b) == image(a) * image(b) % p
        assert image(a + b) == (image(a) + image(b)) % p
        if b:
            assert image(a / b) == image(a) * pow(image(b), -1, p) % p


def test_reduction_is_built_on_first_use_and_kept():
    fld = TowerField(5)
    assert fld._reduction is None
    assert fld.reduction() is fld.reduction()


def test_a_denominator_divisible_by_p_maps_to_none():
    fld = tower_field(3)
    p, _, _, image = fld.reduction()
    assert image(fld.from_rational(Q(1, p))) is None
    assert image(fld.from_rational(Q(5, 3 * p)) * fld.u) is None
    assert image(fld.from_rational(Q(p, 2))) == 0


def test_wrong_root_of_unity_raises(monkeypatch):
    """A w off Phi_2d mod p fails both the field certificate and the
    reduction."""
    fld = TowerField(5)
    right = TowerField._root_of_unity
    monkeypatch.setattr(TowerField, "_root_of_unity",
                        lambda self, p: right(self, p) + 1)
    with pytest.raises(CertificationFailure, match="not a root of Phi_10"):
        fld.reduction()
    with pytest.raises(CertificationFailure, match="not a root of Phi_10"):
        TowerField(5)


def test_wrong_root_of_the_t_modulus_raises(monkeypatch):
    root = tower._mth_root
    monkeypatch.setattr(tower, "_mth_root", lambda c, m, p: root(c, m, p) + 1)
    with pytest.raises(CertificationFailure, match="not a root of t"):
        TowerField(7).reduction()


def test_mth_root_of_a_non_power_raises():
    # 3 generates F_7^*, so it is no cube
    assert tower._mth_root(6, 3, 7) ** 3 % 7 == 6
    with pytest.raises(CertificationFailure, match="not an 3-th power"):
        tower._mth_root(3, 3, 7)


def test_reduction_search_without_a_prime_raises(monkeypatch):
    monkeypatch.setattr(tower, "REDUCTION_PRIMES", 3)
    monkeypatch.setattr(TowerField, "_t_power_mod", lambda self, p, w: 0)
    fld = tower_field(3)
    with pytest.raises(CertificationFailure, match="no split prime"):
        TowerField._reduce(fld)


def test_construction_draws_no_random_number(monkeypatch):

    def no_random(*args, **kwargs):
        raise AssertionError("field construction drew a random number")

    monkeypatch.setattr(random, "Random", no_random)
    assert not hasattr(tower, "random")
    for d in (3, 4, 8, 11):
        assert TowerField(d).certificate is not None


def test_json_rejects_exponents_outside_normal_form():
    for term in ([5, 0, "1/1"], [-1, 0, "1/1"], [0, 7, "1/1"]):
        with pytest.raises(ValueError):
            field_element_from_json({"d": 3, "terms": [term]})
    top = field_element_from_json({"d": 3, "terms": [[1, 2, "1/1"]]})
    assert top == tower_field(3).u * tower_field(3).t**2


# SHA-256 of the JSON list of every "approx" array (sextactic, then
# inflection) of `points --degree d --kind all`, embedded at `bits` bits
APPROX_DIGESTS = {
    (4, 128): "cc487f0f74936d0ae2c8dae445aafb3e4b7d4a34b4086d78b0f0e4271a83a7f5",
    (7, 128): "fb5bf5f5d56db63780dec59c365c836c29a7cadcb14545175226f5e738dd6912",
}


@pytest.mark.parametrize("d, bits", sorted(APPROX_DIGESTS))
def test_approx_columns_pinned(d, bits, capsys):
    from fermatosc.cli import main
    assert main(["points", "--degree", str(d), "--kind", "all"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["precision_bits"] == bits
    pay = rep["payload"]
    arrays = [s["approx"] for s in pay["sextactic"] + pay["inflection"]]
    digest = hashlib.sha256(json.dumps(arrays).encode()).hexdigest()
    assert digest == APPROX_DIGESTS[d, bits]


# -- memoized blocks ------------------------------------------------------------


def _memo_operands(fld, rng):
    """Random elements and one-term factors, some of whose products wrap in
    u (i1 + i2 >= phi) and some in t (j1 + j2 >= deg_t)."""
    top_u = fld._make([(fld.phi - 1, 0, 3)], 2)
    top_t = fld._make([(0, fld.deg_t - 1, -5)], 1)
    elems = [fld.one, fld.u, fld.t, fld.t_inv, top_u, top_t,
             fld.monomial(fld.phi - 2, fld.deg_t - 1) * Q(7, 3)]
    for terms in (1, 1, 2, 4, 9):
        elems.append(random_element(fld, rng, max_terms=terms,
                                    den_choices=(1, 2, 3, 6)))
    return [a for a in elems if not a.is_zero()]


@pytest.mark.parametrize("d", NORMAL_FORM_DEGREES)
def test_memoized_results_match_plain_kernel(d):
    fld = tower_field(d)
    elems = _memo_operands(fld, random.Random(1500 + d))
    pairs = [(a, b) for a in elems for b in elems]
    ops = (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b)
    plain = [[op(a, b) for op in ops] for a, b in pairs]
    plain_inv = [a.inverse() for a in elems]
    with memoized():
        for _ in range(2):                     # computed, then looked up
            for (a, b), ref in zip(pairs, plain):
                for op, r in zip(ops, ref):
                    c = op(a, b)
                    _assert_normal(c)
                    _assert_same(c, r)
            for a, r in zip(elems, plain_inv):
                _assert_same(a.inverse(), r)
        # a second lookup returns the stored element itself
        a, b = elems[4], elems[-1]
        assert a * b is b * a and a + b is b + a and b.inverse() is b.inverse()


def test_memo_restored_after_blocks():
    fld = tower_field(5)
    assert tower._MEMO.get() is None
    with memoized():
        assert tower._MEMO.get() is not None
        fld.u * fld.t
    assert tower._MEMO.get() is None
    with pytest.raises(FermatoscError, match="cannot invert zero"):
        with memoized():
            fld.zero.inverse()
    assert tower._MEMO.get() is None


def test_memo_restored_after_cli_main(tmp_path):
    from fermatosc.cli import main
    assert main(["hessian2", "--degree", "3",
                 "--out", str(tmp_path / "h.json")]) == 0
    assert tower._MEMO.get() is None


def test_nested_memo_starts_empty():
    fld = tower_field(4)
    a, b = fld.u + fld.t, fld.t - 3
    with memoized():
        outer = tower._MEMO.get()
        ab, s, diff, inv = a * b, a + b, a - b, a.inverse()
        sdot = fld.dot([(2, a, b)], a)
        saved = [dict(t) for t in outer]
        assert len(outer) == 6 and all(saved)
        with memoized():
            inner = tower._MEMO.get()
            assert inner is not outer and inner == ({}, {}, {}, {}, {}, {})
            _assert_same(a * b, ab)
            _assert_same(fld.dot([(2, a, b)], a), sdot)
            fld.zeta * a
        assert tower._MEMO.get() is outer
        assert [dict(t) for t in outer] == saved
        assert a * b is ab and a + b is s and a - b is diff
        assert a.inverse() is inv and fld.dot([(2, a, b)], a) is sdot


def test_memoized_errors_store_nothing():
    f3, f4 = tower_field(3), tower_field(4)
    with memoized():
        memo = tower._MEMO.get()
        with pytest.raises(FermatoscError, match="mixed fields"):
            f3.u * f4.u
        with pytest.raises(FermatoscError, match="mixed fields"):
            f3.u + f4.u
        with pytest.raises(FermatoscError, match="mixed fields"):
            f3.u - f4.u
        with pytest.raises(FermatoscError, match="different field"):
            f3.invert(f4.u)
        with pytest.raises(FermatoscError, match="cannot invert zero"):
            f3.zero.inverse()
        with pytest.raises(FermatoscError, match="mixed fields"):
            f3.dot([(1, f3.u, f3.t), (1, f3.u, f4.u)])
        assert memo == ({}, {}, {}, {}, {}, {})


@pytest.mark.parametrize("d", (5, 8))
def test_memo_survives_id_reuse(d):
    """Operands built outside the intern table and dropped right after use
    free their ids for the next operands; an entry that kept only its
    result would then answer for a different value."""
    fld = tower_field(d)
    rng = random.Random(1800 + d)
    pool = [a for a in (random_element(fld, rng, max_terms=3,
                                       den_choices=(1, 2, 5))
                        for _ in range(16)) if not a.is_zero()]
    n = len(pool)
    plain = {(i, k): (pool[i] * pool[k], pool[i] + pool[k],
                      pool[i] - pool[k]) for i in range(n) for k in range(n)}
    plain_inv = [a.inverse() for a in pool]
    ops = (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b)
    with memoized():
        for _ in range(2000):
            i, k = rng.randrange(n), rng.randrange(n)
            a = FieldElement(fld, pool[i].terms, pool[i].den)
            b = FieldElement(fld, pool[k].terms, pool[k].den)
            for op, ref in zip(ops, plain[i, k]):
                _assert_same(op(a, b), ref)
            _assert_same(a.inverse(), plain_inv[i])
            del a, b


def test_memo_interns_equal_elements():
    fld = tower_field(6)
    with memoized():
        a = fld.u * fld.u                      # a product
        b = fld.monomial(2, 0)                 # a monomial
        c = -(-a)                              # negation
        assert a is b is c
        s = (fld.u + fld.t) * fld.t_inv - fld.from_rational(3)
        assert s is -(3 - fld.u * fld.t_inv - 1)
        # equal to, and hashing as, the element built outside the block
        assert a == fld.zeta and hash(a) == hash(fld.zeta)
        assert a is not fld.zeta
        ref = weakref.ref(fld.u * fld.t + 7)
        assert ref() is not None
    del a, b, c, s
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("d", NORMAL_FORM_DEGREES)
def test_product_by_one_is_the_other_factor(d):
    """A factor equal to one, the field's `one` or a one built inside a
    block, gives the plain kernel's product by returning the other factor
    as it is, in a block or not; the intern, product, sum, difference and
    inverse tables stay as they were."""
    fld = tower_field(d)
    elems = _memo_operands(fld, random.Random(1900 + d))
    plain = [(x._mul(fld.one), fld.one._mul(x)) for x in elems]
    for x, (right, left) in zip(elems, plain):
        _assert_same(x * fld.one, right)
        _assert_same(fld.one * x, left)
        assert x * fld.one is x and fld.one * x is x
    _assert_same(fld.one * fld.one, fld.one._mul(fld.one))
    with memoized():
        one = fld.from_rational(1)
        assert one is not fld.one
        memo = tower._MEMO.get()
        tables = [dict(t) for t in memo]
        for o in (fld.one, one):
            for x, (right, left) in zip(elems, plain):
                _assert_same(x * o, right)
                _assert_same(o * x, left)
                assert o * x is x and x * o is (o if x == fld.one else x)
            _assert_same(o * o, fld.one)
            _assert_same(o * fld.one, fld.one)
        assert [dict(t) for t in memo] == tables


@pytest.mark.parametrize("d", NORMAL_FORM_DEGREES)
def test_int_scalar_matches_rational_product(d, monkeypatch):
    """x * k and k * x for a Python int k have the normal form of
    x * from_rational(k), outside a block and inside one, and build no
    rational element for k.  Inside a block they are the interned element,
    and for k = 1 they are x itself."""
    fld = tower_field(d)
    elems = _memo_operands(fld, random.Random(2100 + d)) + [fld.zero]
    cases = [(x, k) for x in elems
             for k in (0, 1, -1, 2, -2, 3 * x.den, -6 * x.den, 2**70)]
    want = [x * fld.from_rational(k) for x, k in cases]
    for block in (False, True):
        with memoized() if block else contextlib.nullcontext():
            with monkeypatch.context() as m:
                def refuse(self, q):
                    raise AssertionError("int product built a rational")
                m.setattr(tower.TowerField, "from_rational", refuse)
                got = [(x * k, k * x) for x, k in cases]
            for (x, k), w, (right, left) in zip(cases, want, got):
                _assert_same(right, w)
                _assert_same(left, w)
                assert right.den > 0 and gcd(right.den, *[
                    n for _, _, n in right.terms]) == 1
                if block:
                    assert right is left
                    assert right is (x if k == 1 else
                                     fld._make(list(w.terms), w.den))


def test_product_by_another_fields_one_raises():
    f3, f4 = tower_field(3), tower_field(4)
    for block in (False, True):
        with memoized() if block else contextlib.nullcontext():
            for a, b in ((f4.one, f3.u), (f3.u, f4.one), (f4.one, f3.one),
                         (f4.from_rational(1), f3.from_rational(1))):
                with pytest.raises(FermatoscError, match="mixed fields"):
                    a * b
            if block:
                assert tower._MEMO.get()[1] == {}
