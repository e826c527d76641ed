"""Exact tower-field arithmetic: defining relations, normal forms, inversion,
serialization and the certified complex embedding."""

import random

import pytest

from fermatosc.errors import CertificationFailure, DegreeMismatch, ZeroInput
from fermatosc.tower import (Q, _zpoly_exact_div, arith, constants,
                             cyclotomic_int_coeffs, embed,
                             field_element_from_json, invert, is_zero,
                             tower_field)

DEGREES = (3, 4, 5, 6, 7, 8)


@pytest.mark.parametrize("d", DEGREES)
def test_defining_relations(d):
    u, zeta, t = constants(d)
    assert is_zero(u**d + 1)
    assert is_zero(zeta**d - 1)
    assert not is_zero(zeta - 1)
    assert is_zero(t**d - 2)
    assert is_zero(zeta - u * u)


def test_rejects_small_degree():
    with pytest.raises(ValueError):
        constants(2)
    with pytest.raises(ValueError):
        constants(65)


def test_arith_examples():
    u6, _, t6 = constants(6)
    assert arith(u6, u6**11, "mul") == tower_field(6).one

    _, _, t3 = constants(3)
    assert t3 * t3**2 == tower_field(3).from_rational(2)

    u4, _, t4 = constants(4)
    sq = arith(u4 - u4**3, u4 - u4**3, "mul")
    assert sq == tower_field(4).from_rational(2)
    ball = embed(u4 - u4**3, 128)
    assert abs(complex(ball.center) - 2**0.5) <= ball.radius + 1e-14


def test_arith_degree_mismatch():
    u3, _, _ = constants(3)
    u4, _, _ = constants(4)
    with pytest.raises(DegreeMismatch):
        arith(u3, u4, "add")
    with pytest.raises(ValueError):
        arith(u3, u3, "pow")


@pytest.mark.parametrize("d", DEGREES)
def test_invert_examples(d):
    f = tower_field(d)
    u, _, t = constants(d)
    assert invert(t) == t**(d - 1) / 2
    assert invert(u) == -(u**(d - 1))
    e = invert(f.one + u)
    assert (f.one + u) * e == f.one


def test_invert_zero_rejected():
    f = tower_field(3)
    with pytest.raises(ZeroInput):
        invert(f.zero)


@pytest.mark.parametrize("d", DEGREES)
def test_is_zero_cyclotomic_relation(d):
    f = tower_field(d)
    coeffs = cyclotomic_int_coeffs(2 * d)
    acc = f.zero
    for e, c in enumerate(coeffs):
        if c:
            acc = acc + f.monomial(e, 0, c)
    assert is_zero(acc)
    assert not is_zero(f.u + f.t)


def test_is_zero_d4_sqrt2_branch():
    f = tower_field(4)
    u, _, t = constants(4)
    assert f.deg_t == 2
    assert is_zero(t * t - (u - u**3))
    ball = embed(t * t, 128)
    assert abs(complex(ball.center) - 2**0.5) <= ball.radius + 1e-14


def test_deg_t_branches():
    assert tower_field(8).deg_t == 4
    assert tower_field(6).deg_t == 6
    f8 = tower_field(8)
    assert is_zero(f8.t**4 - (f8.u_pow(2) - f8.u_pow(6)))


@pytest.mark.parametrize("d", DEGREES)
def test_ring_axioms_bulk(d):
    f = tower_field(d)
    rng = random.Random(1000 + d)
    for _ in range(1000):
        a, b, c = (f.random_element(rng, max_terms=3) for _ in range(3))
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a * b - b * a).is_zero()


@pytest.mark.parametrize("d", DEGREES)
def test_inversion_bulk(d):
    f = tower_field(d)
    rng = random.Random(2000 + d)
    done = 0
    while done < 200:
        a = f.random_element(rng, max_terms=3)
        if a.is_zero():
            continue
        assert (a * invert(a) - f.one).is_zero()
        done += 1


def test_embedding_homomorphism_bulk():
    total = 0
    for d in DEGREES:
        f = tower_field(d)
        rng = random.Random(3000 + d)
        for _ in range(40):
            a = f.random_element(rng, max_terms=3)
            b = f.random_element(rng, max_terms=3)
            lhs = embed(a * b, 96)
            rhs = embed(a, 96) * embed(b, 96)
            diff = lhs - rhs
            assert abs(complex(diff.center)) <= lhs.radius + rhs.radius \
                + diff.radius
            total += 1
    assert total >= 200


@pytest.mark.parametrize("d", DEGREES)
def test_zero_embeds_into_zero_ball(d):
    f = tower_field(d)
    rng = random.Random(4000 + d)
    samples = [f.zero, f.u**(2 * d) - f.one, f.t**d - 2]
    for _ in range(5):
        a = f.random_element(rng)
        samples.append(a - a)
    for a in samples:
        assert is_zero(a)
        assert embed(a, 256).contains_zero()


def test_embed_sextactic_coordinate_modulus():
    f = tower_field(5)
    w = f.monomial(-1, 1)            # u^(-1) t, the third coordinate slot
    ball = embed(w, 128)
    assert ball.abs_min() > 0
    assert abs(abs(complex(ball.center)) - 2 ** 0.2) < 1e-12


@pytest.mark.parametrize("d", (3, 4, 5, 8))
def test_serialization_roundtrip(d):
    f = tower_field(d)
    rng = random.Random(5000 + d)
    for _ in range(25):
        a = f.random_element(rng, max_terms=5)
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
    u, _, t = constants(4)
    ball = embed(u, 128)
    import cmath
    assert abs(complex(ball.center) - cmath.exp(1j * cmath.pi / 4)) < 1e-14
    _, _, t3 = constants(3)
    ball = embed(t3, 128)
    assert abs(complex(ball.center) - 2 ** (1 / 3)) < 1e-15


def test_pow_negative_exponent():
    f = tower_field(5)
    a = f.u + f.t
    assert (a**-2 * a**2 - f.one).is_zero()


def test_zero_divisor_reports_factor():
    from fermatosc.errors import ZeroDivisor
    from fermatosc.tower import TowerField
    # keeping t^4 - 2 over the 8th cyclotomic field leaves a reducible
    # modulus; inverting t^2 - sqrt(2) must surface a factor
    broken = TowerField(4, guard=False, _force_full_modulus=True)
    zd = broken.t**2 - (broken.u - broken.u**3)
    assert not zd.is_zero()
    with pytest.raises(ZeroDivisor) as exc:
        broken.invert(zd)
    assert exc.value.factor is not None
    assert not exc.value.factor.is_zero()


def test_larger_degree_construction():
    f = tower_field(12)
    assert f.deg_t == 6 and f.phi == 8
    u, zeta, t = constants(12)
    assert is_zero(t**12 - 2)
    assert is_zero(u**12 + 1)
    a = f.u + f.t
    assert (a * invert(a) - f.one).is_zero()


@pytest.mark.parametrize("d", (3, 4, 5, 8))
def test_sparse_addition_matches_dense_reference(d):
    fld = tower_field(d)
    rng = random.Random(400 + d)

    def dense(a, b, sign):
        return tuple(tuple(x + sign * y for x, y in zip(ra, rb))
                     for ra, rb in zip(a.coeffs, b.coeffs))

    elems = [fld.zero, fld.one]
    for _ in range(12):
        elems.append(fld.random_element(rng, max_terms=rng.choice((1, 3, 40))))
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
