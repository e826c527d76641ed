"""Fermat-specific geometry: special points, the 2-Hessian, and the three
osculating-conic pipelines (covariant combination, closed form, explicit
grid formula) against each other and against branch-series contact orders."""

import random

import pytest

from fermatosc.errors import FermatoscError
from fermatosc.fermat import (CLUSTERS, FermatCurve, hyperosculating_conic,
                              inflection_points, osculating_conic_cayley,
                              osculating_conic_closed, rotate,
                              sextactic_count_formula, sextactic_points,
                              tangent_line, two_hessian, two_hessian_factored,
                              _cayley_conic_raw, _closed_conic_raw)
from fermatosc.hompoly import (HomPoly, ProjPoint, hessian, int_mult,
                               osculating_conic_series)
from fermatosc.tower import tower_field


def test_curve_basics():
    C = FermatCurve(5)
    assert C.genus == 6
    assert C.poly.deg == 5
    for p in inflection_points(C)[:3]:
        # the tangent line is the gradient, so a nonzero one means smooth
        assert not tangent_line(C, p).is_zero()


def test_tangent_line_examples():
    C = FermatCurve(5)
    fld = C.field
    k = 3
    p = ProjPoint(fld, [fld.zero, fld.one, fld.u_pow(k)])
    T = tangent_line(C, p)
    assert T.proportional(HomPoly.line(fld, fld.zero, fld.one,
                                       -fld.u_pow(-k)))
    w = fld.monomial(-k, 1)
    s = ProjPoint(fld, [w, fld.one, fld.one])       # on V(y - z)
    T = tangent_line(C, s)
    assert T.proportional(HomPoly.line(fld, w**(C.d - 1), fld.one, fld.one))
    assert int_mult(C.poly, T, s) >= 2
    with pytest.raises(FermatoscError, match="off the curve"):
        tangent_line(C, ProjPoint(fld, [fld.one, fld.one, fld.one]))


@pytest.mark.parametrize("d", (3, 4, 5, 6, 8))
def test_tangent_line_is_the_gradient_and_refuses_off_curve_points(d):
    C = FermatCurve(d)
    fld = C.field
    on = [ProjPoint(fld, [fld.one, fld.u, fld.zero])]          # 1 + u^d = 0
    on += [s.point for s in sextactic_points(C)[::d]]
    for p in on:
        grad = [C.poly.partial(i).evaluate(p) for i in range(3)]
        assert tangent_line(C, p).scale(d) == HomPoly.line(fld, *grad)
    for coords in ([fld.one, fld.zeta, fld.zero], [fld.one, fld.t, fld.u]):
        with pytest.raises(FermatoscError, match="off the curve"):
            tangent_line(C, ProjPoint(fld, coords))


@pytest.mark.parametrize("d", (4, 5, 12))
def test_tangent_powers_once_per_coordinate_value(d):
    C = FermatCurve(d)
    fld = C.field
    specials = C.specials
    for p in specials:
        assert tangent_line(C, p) == HomPoly.line(
            fld, *[c ** (d - 1) for c in p.coords])
    assert set(C._powers) == {c for p in specials for c in p.coords}
    # a point off the curve still raises once the table is filled
    x, y, z = specials[0].coords
    with pytest.raises(FermatoscError, match="off the curve"):
        tangent_line(C, ProjPoint(fld, [x, y, z + z]))


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_inflection_points_suite(d):
    C = FermatCurve(d)
    pts = inflection_points(C)
    assert len(pts) == 3 * d
    assert len(set(pts)) == 3 * d
    H = hessian(C.poly)
    for p in pts:
        assert C.poly.evaluate(p).is_zero()
        assert H.evaluate(p).is_zero()
    for p in pts[: 2] + pts[d: d + 1]:
        assert int_mult(C.poly, tangent_line(C, p), p) == d


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_two_hessian_identity(d):
    C = FermatCurve(d)
    H2 = two_hessian(C)
    assert H2 == two_hessian_factored(C)
    for s in sextactic_points(C)[:: max(1, d * d // 2)]:
        assert H2.evaluate(s.point).is_zero()


def test_two_hessian_d3_has_no_triangle_factor():
    C = FermatCurve(3)
    H2 = two_hessian(C)
    assert H2.deg == 9
    # with exponent 3d-9 = 0 some monomials contain no x (or y, or z)
    assert any(e[0] == 0 for e in H2.terms)


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_sextactic_counts(d):
    C = FermatCurve(d)
    pts = sextactic_points(C)
    assert len(pts) == 3 * d * d
    assert len({s.point for s in pts}) == 3 * d * d
    assert sextactic_count_formula(C) == 3 * d * d
    core = None
    fld = C.field
    x, y, z = HomPoly.variables(fld)
    core = (x**d - y**d) * (y**d - z**d) * (z**d - x**d)
    for s in pts[:: max(1, len(pts) // 9)]:
        assert C.poly.evaluate(s.point).is_zero()
        assert core.evaluate(s.point).is_zero()
        assert not tangent_line(C, s.point).is_zero()


@pytest.mark.parametrize("d", (3, 4, 5, 6, 9, 12))
def test_sextactic_point_matches_the_point_set(d):
    """One point from the cluster formula is the point set's entry with the
    same indices: the raw monomial coordinates rotated per cluster,
    normalized by inversion, with j and k read modulo d and 2d.  An even k
    is no point."""
    C = FermatCurve(d)
    fld = C.field
    by_index = {(s.cluster, s.j, s.k): s for s in sextactic_points(C)}
    assert len(by_index) == 3 * d * d
    for n, cluster in enumerate("zyx"):
        for j in range(d):
            for k in range(1, 2 * d, 2):
                s = C.sextactic_point(cluster, j, k)
                assert s == by_index[cluster, j, k]
                raw = (fld.zeta_pow(j), fld.one, fld.monomial(-k, 1))
                raw = raw[n:] + raw[:n]
                assert s.point == ProjPoint(
                    fld, [c * fld.invert(raw[0]) for c in raw])
                assert C.sextactic_point(cluster, j + d, k - 2 * d) == s
            assert C.sextactic_point(cluster, j, 2 * j) is None


def test_sextactic_on_one_line_per_grid():
    from fermatosc.arrangements import build
    d = 4
    C = FermatCurve(d)
    s = sextactic_points(C)[5]
    for token in ("B", "M", "N"):
        arr = build(token, C)
        hits = [L for L in arr.lines if L.evaluate(s.point).is_zero()]
        assert len(hits) == 1, token


def test_omega_psi_combination_identity():
    # -3*Omega*H + 4*Psi collapses to the single displayed multiple of
    # (xyz)^(2d-6) (x^d y^d + y^d z^d + z^d x^d)
    for d in (4, 5):
        fld = tower_field(d)
        x, y, z = HomPoly.variables(fld)
        q = (x * y)**d + (y * z)**d + (z * x)**d
        xyz = x * y * z
        omega = (xyz**(d - 4) * q).scale(d**5 * (d - 1)**5 * (d - 2) * (d - 3))
        psi = (xyz**(2 * d - 6) * q).scale(d**8 * (d - 1)**8 * (d - 2)**2)
        h = hessian(x**d + y**d + z**d)
        lhs = omega.scale(-3) * h + psi.scale(4)
        rhs = (xyz**(2 * d - 6) * q).scale(
            d**8 * (d - 1)**8 * (d + 1) * (d - 2))
        assert lhs == rhs


@pytest.mark.parametrize("d", (3, 4, 5))
def test_conic_pipelines_at_sextactic_points(d):
    C = FermatCurve(d)
    rng = random.Random(100 + d)
    pts = sextactic_points(C)
    for s in rng.sample(pts, 6):
        O = hyperosculating_conic(C, s)
        closed = osculating_conic_closed(C, s.point)
        cayley = osculating_conic_cayley(C, s.point)
        series = osculating_conic_series(C.poly, s.point)
        assert closed.proportional(O)
        assert cayley.proportional(closed)
        assert series.proportional(O)
        assert O.evaluate(s.point).is_zero()
        # the curve's memo builds the same conic, once per point
        assert C.hyperosculating(s) == O
        assert C.hyperosculating(s) is C.hyperosculating(s)


def test_conic_formal_identity_off_curve():
    # the covariant combination and the closed form are proportional as
    # polynomial constructions in the base point, beyond curve points
    rng = random.Random(77)
    for d in (3, 4):
        C = FermatCurve(d)
        fld = C.field
        for _ in range(6):
            coords = [fld.from_rational(rng.randint(1, 5)) for _ in range(3)]
            p = ProjPoint(fld, coords)
            cay = _cayley_conic_raw(C, p)
            clo = _closed_conic_raw(C, p)
            assert cay.proportional(clo)


def test_explicit_conic_coefficients():
    d = 5
    C = FermatCurve(d)
    fld = C.field
    for (j, k) in ((0, 1), (2, 3), (4, 9)):
        s = [t for t in sextactic_points(C)
             if t.cluster == "z" and t.j == j and t.k == k][0]
        O = hyperosculating_conic(C, s)
        assert O.coeff((2, 0, 0)) == fld.zeta_pow(-2 * j) * (d * (d + 1))
        assert O.coeff((0, 2, 0)) == fld.from_rational(d * (d + 1))
        assert O.coeff((1, 1, 0)) == fld.zeta_pow(-j) * (-2 * (d - 2) * (5 * d - 3))
        # z^2, yz coefficients do not involve j; xz carries a single zeta^-j
        assert O.coeff((0, 0, 2)) == fld.u_pow(2 * k) * fld.t_inv**2 \
            * (-4 * (d + 1) * (2 * d - 3))
        assert O.coeff((0, 1, 1)) == fld.u_pow(k) * fld.t_inv * (8 * d * (d - 2))
        assert O.coeff((1, 0, 1)) == fld.zeta_pow(-j) * fld.u_pow(k) \
            * fld.t_inv * (8 * d * (d - 2))


def _conic_by_products(fld, d, j, k):
    """O_{j,k} at the cluster-z point, each coefficient built from the
    field's powers of zeta, u and t^-1 by products."""
    tinv = fld.t_inv
    return HomPoly(fld, 2, {
        (2, 0, 0): fld.zeta_pow(-2 * j) * (d * (d + 1)),
        (0, 2, 0): fld.from_rational(d * (d + 1)),
        (0, 0, 2): fld.u_pow(2 * k) * tinv * tinv
        * (-4 * (d + 1) * (2 * d - 3)),
        (1, 1, 0): fld.zeta_pow(-j) * (-2 * (d - 2) * (5 * d - 3)),
        (1, 0, 1): fld.zeta_pow(-j) * fld.u_pow(k) * tinv * (8 * d * (d - 2)),
        (0, 1, 1): fld.u_pow(k) * tinv * (8 * d * (d - 2)),
    })


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_hyperosculating_conics_read_from_the_unit_table(d):
    """All 3d^2 hyperosculating conics, whose coefficients are read from
    the curve's units, equal the formula built by products, term by term;
    the conic of clusters y and x is the cluster-z conic with its
    variables rotated."""
    C = FermatCurve(d)
    for n, cluster in enumerate(CLUSTERS):
        want = {(j, k): _conic_by_products(C.field, d, j, k).permuted(
                    rotate((0, 1, 2), -n))
                for j in range(d) for k in range(1, 2 * d, 2)}
        for s in sextactic_points(C):
            if s.cluster == cluster:
                assert hyperosculating_conic(C, s).terms == \
                    want[s.j, s.k].terms, s.label()


@pytest.mark.parametrize("d", (3, 4, 5))
def test_hyperosculating_contact_six(d):
    C = FermatCurve(d)
    rng = random.Random(200 + d)
    for s in rng.sample(sextactic_points(C), 5):
        O = hyperosculating_conic(C, s)
        assert int_mult(C.poly, O, s.point) == 6


def test_conic_rejected_at_inflection_and_off_curve():
    C = FermatCurve(4)
    fld = C.field
    p = inflection_points(C)[0]
    with pytest.raises(FermatoscError, match="formula degenerates"):
        osculating_conic_closed(C, p)
    with pytest.raises(FermatoscError, match="off the curve"):
        osculating_conic_closed(C, ProjPoint(fld, [fld.one, fld.one, fld.one]))


def test_inflection_tangent_meets_nowhere_else():
    """The curve's restriction to a flex tangent is (t0 s - s0 t)^d up to
    scale, (s0 : t0) the flex's parameter: contact d there, none elsewhere."""
    from math import comb
    from fermatosc.hompoly import (BinaryForm, parameter_of_point,
                                   restrict_to_line)
    for d in (3, 4, 5):
        C = FermatCurve(d)
        for p in inflection_points(C)[::d]:
            T = tangent_line(C, p)
            s0, t0 = parameter_of_point(p, T)
            power = BinaryForm(C.field, [comb(d, i) * t0**i * (-s0)**(d - i)
                                         for i in range(d + 1)])
            assert restrict_to_line(C.poly, T).proportional(power)


def test_sextactic_set_closed_under_generators():
    from fermatosc.symmetry import generator_panel
    d = 4
    C = FermatCurve(d)
    point_set = {s.point for s in sextactic_points(C)}
    for name, g in generator_panel(C):
        for p in list(point_set)[:10]:
            assert g.apply_point(p) in point_set, name


def test_generic_contact_exactly_five_on_rational_curve():
    from conftest import rand_curve_through, rand_point
    rng = random.Random(31)
    fld = tower_field(3)
    found = 0
    while found < 3:
        p = rand_point(fld, rng)
        f = rand_curve_through(fld, rng, 4, p)
        try:
            conic = osculating_conic_series(f, p)
            m = int_mult(f, conic, p)
        except FermatoscError as exc:
            # reducible draw: the conic can be a component through p
            if "no conic" not in str(exc) and "exceeds cap" not in str(exc):
                raise
            continue
        if m == 5:
            found += 1


def test_conic_coefficient_k_and_j_structure():
    # along one grid line (fixed j) the x^2, y^2, xy coefficients of the
    # explicit conic do not move with k; across j the z^2 and yz entries
    # are j-free while xz carries a single power of zeta^-j
    d = 5
    C = FermatCurve(d)
    fld = C.field
    zs = [s for s in sextactic_points(C) if s.cluster == "z"]
    by_j = {}
    for s in zs:
        by_j.setdefault(s.j, []).append(hyperosculating_conic(C, s))
    for j, conics in by_j.items():
        for e in ((2, 0, 0), (0, 2, 0), (1, 1, 0)):
            vals = {conics[0].coeff(e) == c.coeff(e) for c in conics}
            assert vals == {True}, (j, e)
    ref = by_j[0][0]
    for j, conics in by_j.items():
        c = conics[0]
        assert c.coeff((0, 2, 0)) == ref.coeff((0, 2, 0))
        assert c.coeff((0, 0, 2)) == ref.coeff((0, 0, 2))
        assert c.coeff((0, 1, 1)) == ref.coeff((0, 1, 1))
        assert c.coeff((1, 0, 1)) == fld.zeta_pow(-j) * ref.coeff((1, 0, 1))
        assert c.coeff((1, 1, 0)) == fld.zeta_pow(-j) * ref.coeff((1, 1, 0))
        assert c.coeff((2, 0, 0)) == fld.zeta_pow(-2 * j) * ref.coeff((2, 0, 0))
