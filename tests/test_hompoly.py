"""Polynomial algebra, branch series, intersection multiplicities and the
two independent multiplicity oracles."""

import contextlib
import operator
import random

import pytest

from conftest import (compose_matrix, rand_curve_through, rand_homogeneous,
                      rand_line_through, rand_nonzero, rand_point,
                      random_element, z_slices)
from fermatosc import hompoly, tower
from fermatosc.errors import CertificationFailure, FermatoscError
from fermatosc.hompoly import (BinaryForm, HomPoly, ProjPoint,
                               _fiber_is_generic, _monomials,
                               _multinomial_slices, _online_norm,
                               _rank_le_one, _substitute,
                               branch_series, disc2, hessian, int_mult,
                               line_parametrization, osculating_conic_series,
                               parameter_of_point, pullback_to_line,
                               restrict_to_line, resultant_order)
from fermatosc.tower import Q, TowerField, tower_field


def fermat(d):
    f = tower_field(d)
    x, y, z = HomPoly.variables(f)
    return f, x**d + y**d + z**d


def form_at(bf, s, t):
    """The binary form sum coeffs[i] s^i t^(deg - i) at (s : t)."""
    return sum((c * s**i * t**(bf.deg - i) for i, c in enumerate(bf.coeffs)),
               bf.field.zero)


def test_pow_product_count(monkeypatch):
    """Square-and-multiply from the top bit: bit_length - 1 squarings and
    popcount - 1 further products, and the value of e repeated products."""
    fld = tower_field(4)
    x, y, z = HomPoly.variables(fld)
    a = x + y.scale(fld.u) - z
    refs = [HomPoly.monomial(fld, (0, 0, 0), 1)]
    for _ in range(20):
        refs.append(refs[-1] * a)
    mul = HomPoly.__mul__
    calls = []
    monkeypatch.setattr(HomPoly, "__mul__",
                        lambda p, q: calls.append(1) or mul(p, q))
    for e in range(21):
        calls.clear()
        assert a**e == refs[e]
        assert len(calls) == max(0, e.bit_length() - 1 + bin(e).count("1") - 1)
    with pytest.raises(ValueError):
        a**-1


def test_partial_examples():
    fld, F = fermat(5)
    assert F.partial("x") == HomPoly.monomial(fld, (4, 0, 0), 5)
    c = HomPoly.monomial(fld, (2, 0, 0), 7)
    assert c.partial("z").is_zero()
    x, y, z = HomPoly.variables(fld)
    euler = x * F.partial(0) + y * F.partial(1) + z * F.partial(2)
    assert euler == F.scale(5)


def test_euler_relation_randomized():
    rng = random.Random(42)
    for d in (3, 4):
        fld = tower_field(d)
        x, y, z = HomPoly.variables(fld)
        for _ in range(25):
            deg = rng.randint(1, 5)
            f = rand_homogeneous(fld, rng, deg)
            if f.is_zero():
                continue
            lhs = x * f.partial(0) + y * f.partial(1) + z * f.partial(2)
            assert lhs == f.scale(deg)


def test_evaluate_examples():
    fld, F = fermat(6)
    for k in (1, 3, 11):
        p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(k)])
        assert F.evaluate(p).is_zero()
    s = ProjPoint(fld, [fld.one, fld.one, fld.monomial(-1, 1)])
    assert F.evaluate(s).is_zero()
    fld3, F3 = fermat(3)
    p = ProjPoint(fld3, [fld3.one, fld3.one, fld3.one])
    assert F3.evaluate(p) == fld3.from_rational(3)


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_hessian_closed_form(d):
    fld, F = fermat(d)
    assert hessian(F) == HomPoly.monomial(fld, (d - 2, d - 2, d - 2),
                                          d**3 * (d - 1)**3)


def test_hessian_small_cases():
    fld = tower_field(3)
    x, y, z = HomPoly.variables(fld)
    h = hessian(x * y * z)
    assert h == (x * y * z).scale(2)
    assert h.evaluate(ProjPoint(fld, [fld.one, fld.zero, fld.zero])).is_zero()
    assert hessian(x).is_zero()


def test_branch_series_residual_and_tangent():
    fld, F = fermat(3)
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(1)])
    bs = branch_series(F, p, 8)
    assert all(v.is_zero() for v in bs.residual(F))
    # the tangent line vanishes on the branch's point and first-order term
    T = HomPoly.line(fld, fld.zero, fld.one, -fld.u_pow(-1))
    assert bs.valuation_of(T) >= 2


def test_branch_series_errors():
    fld, F = fermat(3)
    off = ProjPoint(fld, [fld.one, fld.one, fld.one])
    with pytest.raises(FermatoscError, match=r"f\(p\) != 0"):
        branch_series(F, off, 4)
    x, y, z = HomPoly.variables(fld)
    node = ProjPoint(fld, [fld.zero, fld.zero, fld.one])
    with pytest.raises(FermatoscError, match="gradient vanishes"):
        branch_series(x * y, node, 4)


def test_branch_lift_with_a_wrong_newton_inverse_raises():
    """A Newton step scaled by twice the inverse of the solved partial
    leaves a nonzero residual, which the lift's certificate refuses."""
    fld, F = fermat(4)
    s = ProjPoint(fld, [fld.one, fld.one, fld.monomial(-1, 1)])
    bs = branch_series(F, s, 2)
    f, df, dinv = bs._newton
    bs._newton = (f, df, dinv * 2)
    with pytest.raises(CertificationFailure, match="branch lifting failed"):
        bs.extend(8)


def test_branch_series_hyperosculating_valuation():
    fld, F = fermat(4)
    from fermatosc.fermat import FermatCurve, hyperosculating_conic, sextactic_points
    C = FermatCurve(4)
    s = [t for t in sextactic_points(C)
         if t.cluster == "z" and t.j == 0 and t.k == 1][0]
    O = hyperosculating_conic(C, s)
    bs = branch_series(F, s.point, 9)
    assert bs.valuation_of(O) == 6


def series_eval(f, series, n):
    """f on a triple of series forms mod w^n, one monomial at a time."""
    fld = f.field
    acc = [fld.zero] * n
    for exps, coef in f.terms.items():
        term = BinaryForm(fld, [fld.one] + [fld.zero] * (n - 1))
        for ser, e in zip(series, exps):
            for _ in range(e):
                term = term.mul(ser, n)
        acc = [a + c * coef for a, c in zip(acc, term.coeffs)]
    return BinaryForm(fld, acc)


def reference_lift(f, p, order):
    """The term-by-term lift: coefficient m of the solved coordinate from
    coefficient m of f along the series mod w^(m+1).  Returns
    (chart, param, solved, series)."""
    fld = f.field
    grads = [f.partial(i).evaluate(p) for i in range(3)]
    chart = next(i for i, c in enumerate(p.coords) if not c.is_zero())
    others = [i for i in range(3) if i != chart]
    solved = next(i for i in others if not grads[i].is_zero())
    param = next(i for i in others if i != solved)
    ser = [None, None, None]
    ser[chart] = BinaryForm(fld, [fld.one] + [fld.zero] * (order - 1))
    ser[param] = BinaryForm(fld, [p.coords[param], fld.one]
                            + [fld.zero] * (order - 2))
    sol = [p.coords[solved]] + [fld.zero] * (order - 1)
    dinv = fld.invert(grads[solved])
    for m in range(1, order):
        ser[solved] = BinaryForm(fld, sol)
        sol[m] = -series_eval(f, ser, m + 1).coeffs[m] * dinv
    ser[solved] = BinaryForm(fld, sol)
    return chart, param, solved, ser


def assert_lift_matches_reference(f, p, top=12):
    chart, param, solved, ref = reference_lift(f, p, top)
    for n in range(2, top + 1):
        bs = branch_series(f, p, n)
        assert (bs.chart, bs.param_var, bs.solved_var, bs.order) == \
            (chart, param, solved, n)
        assert [s.coeffs for s in bs.series] == \
            [s.coeffs[:n] for s in ref], n


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_branch_series_matches_term_by_term_lift(d):
    from fermatosc.fermat import (FermatCurve, inflection_points,
                                  sextactic_points)
    C = FermatCurve(d)
    rng = random.Random(900 + d)
    pts = [s.point for s in sextactic_points(C)]
    flexes = inflection_points(C)
    for p in rng.sample(pts, 3) + [flexes[0], flexes[d], flexes[2 * d]]:
        assert_lift_matches_reference(C.poly, p)


def test_branch_series_matches_term_by_term_lift_second_candidate():
    """A random smooth cubic whose partial in the first non-chart
    coordinate vanishes at p, so the lift solves for the second one."""
    rng = random.Random(31)
    fld = tower_field(3)
    x, y, z = HomPoly.variables(fld)
    checked = 0
    while checked < 3:
        p = ProjPoint(fld, [fld.one, random_element(fld, rng, 2),
                            random_element(fld, rng, 2)])
        f = rand_curve_through(fld, rng, 3, p)
        # h vanishes at p with dh/dy(p) = 1 and dh/dz(p) = 0
        h = (y - x.scale(p.coords[1])) * x * x
        f = f - h.scale(f.partial(1).evaluate(p))
        if f.partial(2).evaluate(p).is_zero():
            continue
        assert f.evaluate(p).is_zero() and f.partial(1).evaluate(p).is_zero()
        assert branch_series(f, p, 2).solved_var == 2
        assert_lift_matches_reference(f, p)
        checked += 1


def test_int_mult_of_a_curve_with_itself_is_exhausted():
    fld, F = fermat(3)
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(1)])
    with pytest.raises(FermatoscError, match="exceeds cap"):
        int_mult(F, F, p)


@pytest.mark.parametrize("d", (3, 4, 5, 8, 9))
def test_int_mult_inflection_tangent(d):
    fld, F = fermat(d)
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(1)])
    T = HomPoly.line(fld, fld.zero, fld.one, -fld.u_pow(-1))
    assert int_mult(F, T, p) == d


def test_int_mult_zero_when_not_through():
    fld, F = fermat(3)
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(1)])
    L = HomPoly.line(fld, fld.one, fld.one, fld.one)
    assert not L.evaluate(p).is_zero()
    assert int_mult(F, L, p) == 0


def test_int_mult_tangent_at_sextactic_is_two():
    for d in (3, 4, 5):
        fld, F = fermat(d)
        s = ProjPoint(fld, [fld.one, fld.one, fld.monomial(-1, 1)])
        T = HomPoly.line(fld, fld.one, fld.one, fld.monomial(-1, 1)**(d - 1))
        assert T.evaluate(s).is_zero()
        assert int_mult(F, T, s) == 2


def test_int_mult_generic_tangent_on_random_curves():
    rng = random.Random(7)
    fld = tower_field(3)
    hits = 0
    while hits < 8:
        p = rand_point(fld, rng)
        f = rand_curve_through(fld, rng, 3, p)
        grads = [f.partial(i).evaluate(p) for i in range(3)]
        T = HomPoly.line(fld, *grads)
        m = int_mult(f, T, p)
        assert m >= 2
        if m == 2:
            o, _ = resultant_order(f, T, p, seed=rng.randint(0, 10**6))
            assert o == 2
            hits += 1


def test_resultant_order_examples():
    fld, F = fermat(3)
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(1)])
    T = HomPoly.line(fld, fld.zero, fld.one, -fld.u_pow(-1))
    order, record = resultant_order(F, T, p, seed=11)
    assert order == 3
    assert record["seed"] == 11 and record["attempts"] >= 1

    L1 = HomPoly.line(fld, fld.one, fld.zero, fld.zero)
    L2 = HomPoly.line(fld, fld.zero, fld.one, fld.zero)
    q = ProjPoint(fld, [fld.zero, fld.zero, fld.one])
    assert resultant_order(L1, L2, q, seed=5)[0] == 1


def test_oracles_agree_randomized():
    rng = random.Random(99)
    fld = tower_field(3)
    checked = 0
    while checked < 50:
        p = rand_point(fld, rng)
        f = rand_curve_through(fld, rng, rng.choice((2, 3)), p)
        g = rand_line_through(fld, rng, p)
        if g.proportional(HomPoly.line(
                fld, *[f.partial(i).evaluate(p) for i in range(3)])):
            continue
        m = int_mult(f, g, p)
        o, _ = resultant_order(f, g, p, seed=rng.randint(0, 10**6))
        assert m == o, (m, o)
        checked += 1


def test_resultant_order_cofactor_path_and_swapped_degrees():
    """Two cubics (a 3 x 3 determinant) and a line given first agree with
    int_mult, at contacts from 1 to 4."""
    from fermatosc.fermat import (FermatCurve, inflection_points,
                                  sextactic_points, tangent_line)
    C = FermatCurve(3)
    F, fld = C.poly, C.field
    rng = random.Random(1100)
    pts = [s.point for s in rng.sample(sextactic_points(C), 3)]
    contacts = set()
    for p in pts + inflection_points(C)[::4]:
        T = tangent_line(C, p)
        # F + T Q meets F at p as T Q does: contact 3 or 4
        for g in (rand_curve_through(fld, rng, 3, p),
                  F + T * rand_curve_through(fld, rng, 2, p)):
            m = int_mult(F, g, p)
            assert resultant_order(F, g, p, seed=rng.randint(0, 10**6))[0] \
                == m
            contacts.add(m)
        for L in (T, rand_line_through(fld, rng, p)):
            m = int_mult(F, L, p)
            assert resultant_order(L, F, p, seed=rng.randint(0, 10**6))[0] \
                == m
            contacts.add(m)
    assert contacts == {1, 2, 3, 4}


def test_resultant_order_refusals():
    rng = random.Random(1300)
    fld = tower_field(3)
    p = rand_point(fld, rng)
    L = rand_line_through(fld, rng, p)
    A, B = rand_homogeneous(fld, rng, 2), rand_homogeneous(fld, rng, 1)
    with pytest.raises(FermatoscError, match="vanishes identically"):
        resultant_order(L * A, L * B, p)
    f = rand_curve_through(fld, rng, 3, p)
    with pytest.raises(FermatoscError, match=r"no generic coordinate change "
                       r"found \(extra common zero on the fiber line\)"):
        resultant_order(f, f, p)


def test_resultant_order_refuses_a_second_common_zero_on_the_fiber_line(
        monkeypatch):
    """A first center whose fiber line through p holds a second common zero
    q of the two curves is refused, and the next attempt, the unpatched
    first one, gives the unpatched order.  On the Fermat cubic, p = (1 : -1
    : 0) and q = (0 : 1 : -1) lie on x + y + z = 0, which holds the integer
    center (1, 1, -2), and g = (x + y)(y + z) passes through both."""
    fld, F = fermat(3)
    x, y, z = HomPoly.variables(fld)
    g = (x + y) * (y + z)
    p = ProjPoint(fld, [1, -1, 0])
    want, record = resultant_order(F, g, p, seed=4)
    assert want == int_mult(F, g, p) == 3 and record["attempts"] == 1
    # direction (1, 0, 0) off the fiber line, center (1, 1, -2) on it
    planted = [1, 0, 1, 0, 0, 1, 0, 0, -2]
    Random = random.Random

    class PlantedFirst(Random):
        def randint(self, a, b):
            return planted.pop(0) if planted else super().randint(a, b)

    monkeypatch.setattr(hompoly.random, "Random", PlantedFirst)
    order, again = resultant_order(F, g, p, seed=4)
    assert not planted
    assert order == want and again["attempts"] == 2
    assert (again["center"], again["direction"]) == (record["center"],
                                                      record["direction"])


def test_restrict_to_line_examples():
    fld, F = fermat(5)
    bf = restrict_to_line(F, HomPoly.line(fld, fld.one, fld.zero, fld.zero))
    assert bf.deg == 5
    assert bf.coeffs[0] == fld.one and bf.coeffs[5] == fld.one
    assert all(bf.coeffs[i].is_zero() for i in range(1, 5))

    # conic x^2 - yz against a secant and a tangent line
    x, y, z = HomPoly.variables(fld)
    conic = x * x - y * z
    secant = restrict_to_line(conic, y - z)
    assert not disc2(secant).is_zero()
    tangent = restrict_to_line(conic, y)
    assert disc2(tangent).is_zero()


def test_restriction_root_reproduces_common_point():
    fld, F = fermat(4)
    L = HomPoly.line(fld, fld.one, -fld.one, fld.zero)   # x = y
    bf = restrict_to_line(F, L)
    # (1 : 1 : u^-1 t) lies on both; its parameter must be a root
    s = ProjPoint(fld, [fld.one, fld.one, fld.monomial(-1, 1)])
    s0, t0 = parameter_of_point(s, L)
    assert form_at(bf, s0, t0).is_zero()


@pytest.mark.parametrize("d", (3, 4, 5))
def test_parameter_of_point_reads_coordinates_without_inverting(d, monkeypatch):
    rng = random.Random(250 + d)
    fld = tower_field(d)
    zero = fld.zero
    for pivot in range(3):
        coefs = [zero] * pivot + [rand_nonzero(fld, rng, max_terms=2)
                                  for _ in range(3 - pivot)]
        L = HomPoly.line(fld, *coefs)
        v1, v2 = line_parametrization(L)
        for _ in range(3):
            s, t = rand_nonzero(fld, rng), random_element(fld, rng)
            p = ProjPoint(fld, [s * a + t * b for a, b in zip(v1, v2)])
            with monkeypatch.context() as m:
                m.setattr(TowerField, "invert", None)
                s0, t0 = parameter_of_point(p, L)
            assert tuple(s0 * a + t0 * b for a, b in zip(v1, v2)) == p.coords
        off = ProjPoint(fld, [fld.one if i == pivot else zero
                              for i in range(3)])
        with pytest.raises(ValueError):
            parameter_of_point(off, L)
    with pytest.raises(ValueError):
        parameter_of_point(off, HomPoly.zero(fld, 1))


def test_canonical_line_rejects_non_lines():
    fld = tower_field(3)
    x, y, z = HomPoly.variables(fld)
    assert (x.scale(fld.u) + z).canonical_line() == x + z.scale(fld.u_pow(-1))
    with pytest.raises(ValueError):
        (x * y).canonical_line()
    with pytest.raises(ValueError):
        HomPoly.zero(fld, 1).canonical_line()


def test_canonical_line_keeps_a_unit_pivot(monkeypatch):
    fld = tower_field(5)
    x, y, _ = HomPoly.variables(fld)
    L = x - y.scale(fld.zeta)

    def no_invert(self, a):
        raise AssertionError("canonical_line inverted a unit pivot")

    monkeypatch.setattr(TowerField, "invert", no_invert)
    assert L.canonical_line() is L


@pytest.mark.parametrize("d", (3, 4, 11))
def test_single_nonzero_point_inverts_nothing(d, monkeypatch):
    """A point with one nonzero coordinate is the unit vector, built with
    no inversion, and equal to the point scaled by the inverse."""
    rng = random.Random(1490 + d)
    fld = tower_field(d)
    cases = []
    for i in range(3):
        for c in (fld.one, fld.from_rational(-3), rand_nonzero(fld, rng),
                  fld.u_pow(1) - fld.zeta_pow(2)):
            coords = [fld.zero] * 3
            coords[i] = c
            want = [v * fld.invert(c) for v in coords]
            cases.append((coords, want))

    def no_inverse(self, a):
        raise AssertionError("inversion of a single nonzero coordinate")
    monkeypatch.setattr(TowerField, "invert", no_inverse)
    for coords, want in cases:
        p = ProjPoint(fld, coords)
        assert p.coords == tuple(want)
        q = ProjPoint(fld, want)
        assert p == q and hash(p) == hash(q)
        assert p.to_json() == [v.to_json_dict() for v in want]


def test_disc2_examples():
    fld = tower_field(4)
    one = fld.one
    # (s + t)^2
    q = BinaryForm(fld, [one, fld.from_rational(2), one])
    assert disc2(q).is_zero()
    d = 4
    # restriction of the explicit conic to z = 0, as displayed with j = 0
    a = fld.from_rational(d * (d + 1))
    b = fld.from_rational(-2 * (d - 2) * (5 * d - 3))
    q = BinaryForm(fld, [a, b, a])
    assert disc2(q) == fld.from_rational(48 * (2 * d - 1) * (d - 3) * (d - 1)**2)


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_disc2_grid_restriction_values(d):
    fld = tower_field(d)
    a = fld.from_rational(d * (d + 1))
    b = fld.from_rational(-2 * (d - 2) * (5 * d - 3))
    q = BinaryForm(fld, [a, b, a])
    assert disc2(q) == fld.from_rational(48 * (2 * d - 1) * (d - 3) * (d - 1)**2)
    ym = fld.from_rational(d * (d + 1)) * fld.monomial(-1, 1)
    zm = fld.from_rational(-4 * (d + 1) * (2 * d - 3)) * fld.u_pow(1) \
        * fld.t_inv
    cr = fld.from_rational(8 * d * (d - 2))
    q2 = BinaryForm(fld, [ym, cr, zm])
    assert disc2(q2) == fld.from_rational(48 * d * (2 * d - 1) * (d - 1)**2)


def test_int_mult_positive_iff_through_point():
    rng = random.Random(12)
    fld = tower_field(3)
    for _ in range(10):
        p = rand_point(fld, rng)
        f = rand_curve_through(fld, rng, 3, p)
        g_through = rand_line_through(fld, rng, p)
        g_off = HomPoly.line(fld, fld.one, fld.from_rational(2),
                             fld.from_rational(3))
        assert int_mult(f, g_through, p) >= 1
        if not g_off.evaluate(p).is_zero():
            assert int_mult(f, g_off, p) == 0


def test_osculating_conic_series_generic_contact_five():
    rng = random.Random(21)
    fld = tower_field(3)
    hits = 0
    while hits < 4:
        p = rand_point(fld, rng)
        f = rand_curve_through(fld, rng, 3, p)
        try:
            conic = osculating_conic_series(f, p)
        except ValueError:
            continue
        m = int_mult(f, conic, p)
        assert m >= 5
        if m == 5:
            hits += 1


def test_proportionality_and_compose():
    fld = tower_field(4)
    x, y, z = HomPoly.variables(fld)
    f = x * x - y * z
    assert f.proportional(f.scale(fld.u_pow(3)))
    assert not f.proportional(x * x + y * z)
    g = compose_matrix(f, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert g == y * y - x * z


def test_restriction_of_explicit_conic_to_coordinate_lines():
    from fermatosc.fermat import FermatCurve, hyperosculating_conic, \
        sextactic_points
    for d in (4, 5):
        C = FermatCurve(d)
        fld = C.field
        for (j, k) in ((0, 1), (1, 3)):
            s = [t for t in sextactic_points(C)
                 if t.cluster == "z" and t.j == j and t.k == k][0]
            O = hyperosculating_conic(C, s)
            r = restrict_to_line(O, HomPoly.monomial(fld, (0, 0, 1), 1))
            disp = BinaryForm(fld, [
                fld.zeta_pow(j) * (d * (d + 1)),
                fld.from_rational(-2 * (d - 2) * (5 * d - 3)),
                fld.zeta_pow(-j) * (d * (d + 1))])
            assert r.proportional(disp), (d, j, k)
            r = restrict_to_line(O, HomPoly.monomial(fld, (1, 0, 0), 1))
            disp = BinaryForm(fld, [
                fld.from_rational(-4 * (d + 1) * (2 * d - 3))
                * fld.u_pow(2 * k) * fld.t_inv**2,
                fld.from_rational(8 * d * (d - 2)) * fld.u_pow(k) * fld.t_inv,
                fld.from_rational(d * (d + 1))])
            assert r.proportional(disp), (d, j, k)


# -- the dense univariate type ---------------------------------------------------


def form_from_roots(fld, roots, lead):
    """lead * prod (w - r) as a form in w."""
    out = BinaryForm(fld, [lead])
    for r in roots:
        out = out.mul(BinaryForm(fld, [-r, fld.one]), len(out.coeffs) + 1)
    return out


def rand_form(fld, rng, deg):
    """A form of actual degree deg with small random coefficients."""
    coeffs = [random_element(fld, rng, max_terms=2, num_bound=5)
              for _ in range(deg)]
    return BinaryForm(fld, coeffs + [rand_nonzero(fld, rng, max_terms=2,
                                                  num_bound=5)])


@pytest.mark.parametrize("d", (3, 4, 5))
def test_resultant_is_product_over_roots(d):
    rng = random.Random(100 + d)
    fld = tower_field(d)
    for da, db in ((1, 3), (2, 1), (3, 2), (3, 3)):
        roots = [random_element(fld, rng, max_terms=2, num_bound=5)
                 for _ in range(da)]
        lead = rand_nonzero(fld, rng, max_terms=2, num_bound=5)
        a = form_from_roots(fld, roots, lead)
        b = rand_form(fld, rng, db)
        expected = lead ** db
        for r in roots:
            expected = expected * form_at(b, r, fld.one)
        assert sylvester_det(a, b) == expected
        sign = -1 if da * db % 2 else 1
        assert sylvester_det(b, a) == expected * sign
    # a common root
    alpha = rand_nonzero(fld, rng, max_terms=2)
    a = form_from_roots(fld, (alpha, fld.one), rand_nonzero(fld, rng))
    b = form_from_roots(fld, (alpha, fld.zero, -fld.one), fld.one)
    assert sylvester_det(a, b).is_zero()


def sylvester_det(a, b):
    """Res(a, b) as the determinant of the Sylvester matrix, by Gauss
    elimination over K_d."""
    fld = a.field
    m, n = a.degree(), b.degree()
    size = m + n
    rows = []
    for form, deg, copies in ((a, m, n), (b, n, m)):
        top_first = list(form.coeffs[:deg + 1])[::-1]
        for i in range(copies):
            rows.append([fld.zero] * i + top_first
                        + [fld.zero] * (size - deg - 1 - i))
    det = fld.one
    for c in range(size):
        piv = next((r for r in range(c, size) if not rows[r][c].is_zero()),
                   None)
        if piv is None:
            return fld.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = fld.invert(rows[c][c])
        for r in range(c + 1, size):
            if not rows[r][c].is_zero():
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _times_z(form, k):
    """The coefficients of z^k times a form in z."""
    return [form.field.zero] * k + list(form.coeffs)


def _distinct_roots(fld, rng, n):
    roots = [fld.from_rational(k) + rand_nonzero(fld, rng, max_terms=2)
             for k in range(n)]
    assert all(roots) and len(set(roots)) == n
    return roots


@pytest.mark.parametrize("d", (3, 5, 8))
def test_fiber_check_refuses_a_shared_nonzero_root(d):
    rng = random.Random(200 + d)
    fld = tower_field(d)
    for i, j in ((0, 0), (1, 0), (2, 3)):
        alpha, beta, gamma = _distinct_roots(fld, rng, 3)
        a = form_from_roots(fld, (alpha, alpha, beta), rand_nonzero(fld, rng))
        b = form_from_roots(fld, (alpha, gamma), rand_nonzero(fld, rng))
        ra, rb = _times_z(a, i), _times_z(b, j)
        assert not _fiber_is_generic(ra, rb)
        assert not _fiber_is_generic(rb, ra)


@pytest.mark.parametrize("d", (3, 5, 8))
def test_fiber_check_accepts_a_shared_zero_at_the_origin_alone(d):
    rng = random.Random(300 + d)
    fld = tower_field(d)
    for i, j in ((0, 0), (1, 1), (3, 1)):
        roots = _distinct_roots(fld, rng, 4)
        a = form_from_roots(fld, roots[:2], fld.one)
        b = form_from_roots(fld, roots[2:], rand_nonzero(fld, rng))
        ra, rb = _times_z(a, i), _times_z(b, j)
        assert _fiber_is_generic(ra, rb) and _fiber_is_generic(rb, ra)
        # a constant quotient has no zero to share
        lone = _times_z(form_from_roots(fld, (), rand_nonzero(fld, rng)), j)
        assert _fiber_is_generic(ra, lone) and _fiber_is_generic(lone, ra)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_truncated_product_is_a_prefix(d):
    rng = random.Random(500 + d)
    fld = tower_field(d)
    a = rand_form(fld, rng, 3)
    b = BinaryForm(fld, [fld.zero] + list(rand_form(fld, rng, 2).coeffs))
    full = a.mul(b, a.deg + b.deg + 1)
    assert full.coeffs == b.mul(a, len(full.coeffs)).coeffs
    for n in range(1, len(full.coeffs) + 1):
        assert a.mul(b, n).coeffs == full.coeffs[:n]
    assert full.valuation() == a.valuation() + 1 and full.degree() == 6


@pytest.mark.parametrize("d", (3, 5))
def test_truncated_product_matches_schoolbook(d):
    """`BinaryForm.mul(other, n)`, one `dot` per coefficient, is the
    schoolbook product by `*` and `+` truncated to n, on dense forms with
    and without zero coefficients."""
    rng = random.Random(520 + d)
    fld = tower_field(d)

    def dense(length, zeros):
        return BinaryForm(fld, [
            fld.zero if i in zeros else
            random_element(fld, rng, max_terms=fld.phi * fld.deg_t,
                           num_bound=10**6, den_choices=(1, 2, 3, 7))
            for i in range(length)])

    def schoolbook(a, b, n):
        out = [fld.zero] * n
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                if i + j < n:
                    out[i + j] = out[i + j] + x * y
        return out

    forms = [dense(5, ()), dense(4, (0, 2)), dense(6, (1, 2, 5)),
             dense(1, ()), dense(3, (0, 1, 2))]
    for a in forms:
        for b in forms:
            for n in range(1, 9):
                got, want = a.mul(b, n).coeffs, schoolbook(a, b, n)
                assert [(c.terms, c.den) for c in got] == [
                    (w.terms, w.den) for w in want]


# -- the shared substitution loop ------------------------------------------------


@pytest.mark.parametrize("d", (3, 4, 5))
def test_compose_matrix_commutes_with_evaluate(d):
    rng = random.Random(600 + d)
    fld = tower_field(d)
    for deg in (1, 2, 3):
        f = rand_homogeneous(fld, rng, deg)
        m = [[random_element(fld, rng, max_terms=2) for _ in range(3)]
             for _ in range(3)]
        p = [random_element(fld, rng) for _ in range(3)]
        mp = [sum((m[i][j] * p[j] for j in range(3)), fld.zero)
              for i in range(3)]
        assert compose_matrix(f, m).evaluate(p) == f.evaluate(mp)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_pullback_commutes_with_evaluate(d):
    rng = random.Random(700 + d)
    fld = tower_field(d)
    for deg in (1, 2, 4):
        f = rand_homogeneous(fld, rng, deg)
        v1, v2 = ([random_element(fld, rng) for _ in range(3)]
                  for _ in range(2))
        s, t = random_element(fld, rng), random_element(fld, rng)
        bf = pullback_to_line(f, v1, v2)
        assert bf.deg == deg
        assert form_at(bf, s, t) == f.evaluate(
            [s * a + t * b for a, b in zip(v1, v2)])


def _monomials_all_powers(f, values, one, mul):
    """The plain substitution loop: every power 1..deg of every value, and
    each term a product from one; (term, coefficient) for each term of f,
    as `_monomials` lists them."""
    pows = []
    for v in values:
        pv = [one, v]
        for _ in range(f.deg - 1):
            pv.append(mul(pv[-1], v))
        pows.append(pv)
    out = []
    for exps, coef in f.terms.items():
        term = one
        for pv, e in zip(pows, exps):
            term = mul(term, pv[e])
        out.append((term, coef))
    return out


def _series(fld, rng, n):
    return BinaryForm(fld, [random_element(fld, rng, max_terms=2)
                            for _ in range(n)])


def test_substitute_builds_only_the_powers_used():
    """x^12 + y^12 + z^12 over series builds v^2 v, (v^3)^2 and (v^6)^2 of
    each value v: four products per value where the plain loop makes
    eleven, and the same monomials."""
    rng = random.Random(1470)
    fld, F = fermat(12)
    n = 4
    values = [_series(fld, rng, n) for _ in range(3)]
    calls = []

    def mul(a, b):
        calls.append(1)
        return a.mul(b, n)
    one = BinaryForm(fld, [fld.one] + [fld.zero] * (n - 1))
    got = _monomials(F, values, one, mul)
    assert len(calls) == 3 * 4
    assert got == _monomials_all_powers(F, values, one,
                                        lambda a, b: a.mul(b, n))
    assert F.exponents_used() == ((12,), (12,), (12,))


@pytest.mark.parametrize("d", (3, 4, 5))
def test_substitute_matches_all_powers(d):
    """Dense and sparse seeded polynomials give what the all-powers loop
    gives: the sum over field elements and over linear forms, and the
    monomials over series."""
    rng = random.Random(1480 + d)
    fld = tower_field(d)
    x1 = HomPoly.monomial(fld, (0, 0, 0), 1)
    curves = [rand_homogeneous(fld, rng, deg, n_terms=n)
              for deg in (1, 2, 3, 5, 7) for n in (3, 12)]
    curves += [fermat(d)[1], fermat(d)[1].partial(0),
               HomPoly.monomial(fld, (0, 0, 0), 3)]
    n = 5

    def smul(a, b):
        return a.mul(b, n)
    def fold(monomials, zero):
        return sum((term * coef for term, coef in monomials), zero)
    for f in curves:
        pts = [random_element(fld, rng) for _ in range(3)]
        assert _substitute(f, pts, fld.one, fld.zero, operator.mul) == fold(
            _monomials_all_powers(f, pts, fld.one, operator.mul), fld.zero)
        ser = [_series(fld, rng, n) for _ in range(3)]
        sone = BinaryForm(fld, [fld.one] + [fld.zero] * (n - 1))
        assert _monomials(f, ser, sone, smul) == \
            _monomials_all_powers(f, ser, sone, smul)
        forms = [HomPoly.line(fld, *(random_element(fld, rng, max_terms=1)
                                     for _ in range(3))) for _ in range(3)]
        fzero = HomPoly.zero(fld, f.deg)
        assert _substitute(f, forms, x1, fzero, operator.mul) == fold(
            _monomials_all_powers(f, forms, x1, operator.mul), fzero)


def _lines_of_each_pivot(fld, rng):
    """The coordinate lines, x - y, x - z, y - z, and random lines pivoting
    on x (with and without zero coefficients), on y and on z."""
    zero, one = fld.zero, fld.one

    def r():
        return rand_nonzero(fld, rng, max_terms=2)
    coefs = [(one, zero, zero), (zero, one, zero), (zero, zero, one),
             (one, -one, zero), (one, zero, -one), (zero, one, -one),
             (r(), r(), r()), (r(), zero, r()), (r(), r(), zero),
             (zero, r(), r()), (zero, zero, r())]
    return [HomPoly.line(fld, *c) for c in coefs]


@pytest.mark.parametrize("d", (3, 4, 5))
def test_restrict_to_line_matches_pullback(d):
    rng = random.Random(1400 + d)
    fld = tower_field(d)
    curves = [rand_homogeneous(fld, rng, deg, n_terms=6)
              for deg in (1, 2, 3, 4)]
    curves.append(HomPoly(fld, 3, {e: rand_nonzero(fld, rng) for e in
                                   ((3, 0, 0), (2, 1, 0), (1, 1, 1), (0, 2, 1),
                                    (1, 0, 2), (0, 0, 3))}))
    curves.append(fermat(d)[1])
    for L in _lines_of_each_pivot(fld, rng):
        v1, v2 = line_parametrization(L)
        for c in curves:
            assert restrict_to_line(c, L) == pullback_to_line(c, v1, v2)


def test_restriction_to_coordinate_lines_inverts_nothing(monkeypatch):
    """A restriction to a coordinate line, x - y, x - z or y - z inverts
    nothing and multiplies nothing, its chart included: the pivot
    coefficient is one, or scales nothing, and each row entry is one."""
    rng = random.Random(1450)
    fld = tower_field(5)
    zero, one = fld.zero, fld.one
    curves = [fermat(5)[1], rand_homogeneous(fld, rng, 4, n_terms=8),
              HomPoly(fld, 2, {e: rand_nonzero(fld, rng) for e in
                               ((2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2))})]
    coefs = ((one, zero, zero), (zero, one, zero), (zero, zero, one),
             (one, -one, zero), (one, zero, -one), (zero, one, -one),
             (zero, zero, 2 * one))
    want = [[pullback_to_line(c, *line_parametrization(HomPoly.line(fld, *v)))
             for v in coefs] for c in curves]
    lines = [HomPoly.line(fld, *v) for v in coefs]

    def no_product(*args):
        raise AssertionError("a product in a coordinate-line restriction")
    with monkeypatch.context() as m:
        m.setattr(TowerField, "invert", None)
        m.setattr(tower.FieldElement, "__mul__", no_product)
        m.setattr(tower.FieldElement, "__rmul__", no_product)
        got = [[restrict_to_line(c, L) for L in lines] for c in curves]
    assert got == want


@pytest.mark.parametrize("d", (3, 4, 5))
def test_line_chart_is_kept_across_polynomials_and_blocks(d):
    """One line object restricts curves of degree 1 to 4 through one chart,
    built in a first memo block and read again in a second: each
    restriction is the pullback along `line_parametrization`, computed
    outside any block on a copy of the line."""
    rng = random.Random(1470 + d)
    fld = tower_field(d)
    curves = [rand_homogeneous(fld, rng, deg, n_terms=6)
              for deg in (1, 2, 3, 4)] + [fermat(d)[1]]
    for L in _lines_of_each_pivot(fld, rng):
        copy = HomPoly(fld, 1, dict(L.terms))
        want = [pullback_to_line(c, *line_parametrization(copy))
                for c in curves]
        with tower.memoized():
            assert L._chart is None
            first = [restrict_to_line(c, L) for c in curves[:2]]
            chart = L._chart
            assert chart is not None and L.line_chart() is chart
        with tower.memoized():
            again = [restrict_to_line(c, L) for c in curves]
            assert line_parametrization(L) == line_parametrization(copy)
        assert L._chart is chart
        assert first == want[:2] and again == want


def test_rank_le_one_matches_all_minors():
    rng = random.Random(1460)
    fld = tower_field(4)

    def all_minors(a, b):
        return all((a[i] * b[k] - a[k] * b[i]).is_zero()
                   for i in range(len(a)) for k in range(i + 1, len(a)))

    def draw(n):
        return [fld.zero if rng.random() < 0.4
                else rand_nonzero(fld, rng, max_terms=2) for _ in range(n)]
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        a = draw(n)
        kind = rng.randrange(3)
        if kind == 2:
            b = draw(n)
        else:
            lam = draw(1)[0]
            b = [c * lam for c in a]
            if kind == 1:
                b[rng.randrange(n)] = draw(1)[0]
        want = all_minors(a, b)
        assert _rank_le_one(a, b) == want
        assert _rank_le_one(b, a) == want
        seen.add((want, all(c.is_zero() for c in a)))
    assert {(True, False), (False, False), (True, True)} <= seen


# -- the local resultant ---------------------------------------------------------


def z_form(h, s0):
    """h(s0, 1, z) as a form in z, for a rational s0."""
    fld = h.field
    out = [fld.zero] * (h.deg + 1)
    for (a, _, c), coef in h.terms.items():
        out[c] = out[c] + coef * fld.from_rational(Q(s0) ** a)
    return BinaryForm(fld, out)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_local_resultant_matches_sylvester(d):
    """At the full precision deg f deg g + 1 the online determinant is the
    whole resultant in s, times the constant _online_norm documents."""
    rng = random.Random(1000 + d)
    fld = tower_field(d)
    for df, dg in ((3, 2), (2, 3), (3, 3), (1, 3), (4, 1), (2, 2)):
        p = ProjPoint(fld, [rand_nonzero(fld, rng, max_terms=1)
                            for _ in range(3)])
        f = rand_curve_through(fld, rng, df, p)
        g = rand_curve_through(fld, rng, dg, p)
        while True:
            v, c = ([rng.randint(-5, 5) for _ in range(3)] for _ in range(2))
            if not (f.evaluate(c).is_zero() or g.evaluate(c).is_zero()):
                break
        a, b = (_multinomial_slices(h, v, p.coords, c) for h in (f, g))
        det = BinaryForm(fld, _online_norm(a, b, df * dg + 1))
        assert det.deg == df * dg
        rows = [(v[i], p.coords[i], c[i]) for i in range(3)]
        za, zb = compose_matrix(f, rows), compose_matrix(g, rows)
        scale = g.evaluate(c) ** (df * (dg - 1) + dg * (dg - 1) // 2)
        if df * dg % 2:
            scale = -scale
        for s0 in (0, 1, -2, Q(1, 3)):
            want = scale * sylvester_det(z_form(za, s0), z_form(zb, s0))
            assert form_at(det, fld.from_rational(s0), fld.one) == want, \
                (df, dg, s0)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_multinomial_slices_match_composition(d):
    """The z-slices expanded from f's terms are those of the composed form
    f(v x + p y + c z) at y = 1, for random f, points p over K_d, integer
    v and c (zero entries included) and truncations n."""
    rng = random.Random(1100 + d)
    fld = tower_field(d)
    for deg in (1, 2, 3, d):
        for _ in range(3):
            f = rand_homogeneous(fld, rng, deg, n_terms=rng.randint(1, 6))
            p = [random_element(fld, rng, max_terms=2) for _ in range(3)]
            v, c = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
            rows = [(v[i], p[i], c[i]) for i in range(3)]
            n = rng.randint(1, deg + 2)
            want = [s.coeffs for s in z_slices(compose_matrix(f, rows), n)]
            got = _multinomial_slices(f, v, p, c)
            assert len(got) == deg + 1
            for k, sl in enumerate(got):
                assert len(sl) == deg - k + 1
                assert tuple((sl + [fld.zero] * n)[:n]) == want[k], (deg, k)


# -- the oracles in the caller's memo block ---------------------------------------


def _record_blocks(monkeypatch):
    """The memo open at each branch lift and each online norm, in call
    order."""
    seen = []
    for name in ("branch_series", "_online_norm"):
        def traced(*args, _fn=getattr(hompoly, name)):
            seen.append(tower._MEMO.get())
            return _fn(*args)
        monkeypatch.setattr(hompoly, name, traced)
    return seen


def test_oracles_join_an_open_block(monkeypatch):
    seen = _record_blocks(monkeypatch)
    fld, F = fermat(4)
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(1)])
    T = HomPoly.line(fld, fld.zero, fld.one, -fld.u_pow(-1))
    with tower.memoized():
        outer = tower._MEMO.get()
        products = len(outer[1])
        assert int_mult(F, T, p) == 4
        grown = len(outer[1])
        assert grown > products
        assert resultant_order(F, T, p, seed=3)[0] == 4
        assert len(outer[1]) > grown
        assert tower._MEMO.get() is outer
    assert seen and all(m is outer for m in seen)


def _oracle_cases(d, rng):
    """Random lines and conics through sextactic points, and the tangents
    and hyperosculating conics there."""
    from fermatosc.fermat import (FermatCurve, hyperosculating_conic,
                                  sextactic_points, tangent_line)
    C = FermatCurve(d)
    for s in rng.sample(sextactic_points(C), 2):
        p = s.point
        for g in (rand_line_through(C.field, rng, p),
                  rand_curve_through(C.field, rng, 2, p),
                  tangent_line(C, p), hyperosculating_conic(C, s)):
            yield C.poly, g, p, rng.randint(0, 10**6)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_oracles_match_with_blocks_off(d, monkeypatch):
    """`int_mult` and the whole (order, record) of `resultant_order` are the
    same in a memo block and with every block turned off."""
    cases = list(_oracle_cases(d, random.Random(2000 + d)))
    with tower.memoized():
        on = [(int_mult(f, g, p), resultant_order(f, g, p, seed=s))
              for f, g, p, s in cases]
    monkeypatch.setattr(tower, "memoized", contextlib.nullcontext)
    seen = _record_blocks(monkeypatch)
    off = [(int_mult(f, g, p), resultant_order(f, g, p, seed=s))
           for f, g, p, s in cases]
    assert seen and all(m is None for m in seen)
    assert on == off
    assert {m for m, _ in on} >= {1, 2, 6}
