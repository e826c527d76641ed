"""Automorphism group, fixed lines, orbits, and the exact concurrency
certificates for tangents and hyperosculating conics along grid lines."""

import gc
import random
import weakref
from itertools import combinations

import pytest

from conftest import compose_matrix, identity, rand_nonzero, random_element
from fermatosc.arrangements import build
from fermatosc.errors import CertificationFailure, FermatoscError
from fermatosc.fermat import (FermatCurve, _hyperosc_conic_cluster_z,
                              hyperosculating_conic, inflection_points,
                              sextactic_points, tangent_line)
from fermatosc.hompoly import BinaryForm, HomPoly, ProjPoint, cross, disc2, \
    restrict_to_line
from fermatosc import cli, fermat, symmetry
from fermatosc.symmetry import (Automorphism, conic_common_points,
                                fixed_line, generator_panel, group_elements,
                                orbit, orbit_automorphism_for_line,
                                phi, points_on_line, psi, rho,
                                tangent_concurrency,
                                verify_invariant_intersection, y_scaling,
                                z_scaling)
from fermatosc.tower import tower_field


@pytest.mark.parametrize("d", (3, 4, 5))
def test_group_order_and_invariance(d):
    C = FermatCurve(d)
    G = group_elements(d)
    assert len(G) == 6 * d * d
    rng = random.Random(d)
    for g in rng.sample(G, 8):
        assert g.pullback(C.poly).proportional(C.poly)


def test_group_closure_and_inverse():
    d = 4
    G = group_elements(d)
    Gset = set(G)
    rng = random.Random(5)
    for _ in range(30):
        a, b = rng.choice(G), rng.choice(G)
        assert a.compose(b) in Gset
        assert a.inverse() in Gset
        assert a.compose(a.inverse()) == identity(a.field)


def _matrix(g):
    """The monomial matrix of g: row i holds scale[i] in column perm[i]."""
    m = [[g.field.zero] * 3 for _ in range(3)]
    for i in range(3):
        m[i][g.perm[i]] = g.scale[i]
    return m


@pytest.mark.parametrize("d", (3, 4))
def test_monomial_action_matches_matrix(d):
    # F is symmetric, so its invariance cannot tell perm from perm^-1; a
    # random cubic and a random point can
    fld = tower_field(d)
    rng = random.Random(40 + d)
    f = HomPoly(fld, 3, {(a, b, 3 - a - b): random_element(fld, rng)
                         for a in range(4) for b in range(4 - a)})
    p = ProjPoint(fld, [rand_nonzero(fld, rng) for _ in range(3)])
    for g in group_elements(d):
        m = _matrix(g)
        assert g.pullback(f) == compose_matrix(f, m)
        mp = [sum((m[i][j] * p.coords[j] for j in range(3)), fld.zero)
              for i in range(3)]
        assert g.apply_point(p) == ProjPoint(fld, mp)


@pytest.mark.parametrize("d", (3, 4))
def test_cluster_conics_match_permutation_matrices(d):
    # the conic at g(p) is O_p composed with g^-1, for g(x:y:z) = (y:z:x)
    # (cluster y) and g(x:y:z) = (z:x:y) (cluster x)
    C = FermatCurve(d)
    mats = {"y": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
            "x": ((0, 1, 0), (0, 0, 1), (1, 0, 0))}
    for s in sextactic_points(C):
        base = _hyperosc_conic_cluster_z(C, s.j, s.k)
        if s.cluster != "z":
            base = compose_matrix(base, mats[s.cluster])
        assert hyperosculating_conic(C, s) == base, s.label()


def test_fixed_line_examples():
    fld = tower_field(4)
    x, y, z = HomPoly.variables(fld)
    assert fixed_line(rho(fld)) == x
    assert fixed_line(phi(fld)) == (x - y).canonical_line()
    assert fixed_line(psi(fld)) == (x - z).canonical_line()
    assert fixed_line(y_scaling(fld)) == y
    assert fixed_line(z_scaling(fld)) == z
    assert fixed_line(rho(fld).compose(phi(fld))) is None
    assert fixed_line(identity(fld)) is None


def test_fixed_line_once_per_automorphism(monkeypatch):
    fld = tower_field(5)
    real, calls = symmetry._fixed_line, []
    monkeypatch.setattr(symmetry, "_fixed_line",
                        lambda g: calls.append(g) or real(g))
    gens = [g for _, g in generator_panel(FermatCurve(5))]
    gens.append(rho(fld).compose(phi(fld)))
    for g in gens:
        first = fixed_line(g)
        assert fixed_line(g) is first
    assert fixed_line(gens[-1]) is None
    assert calls == gens


def test_fixed_line_transposition_condition():
    fld = tower_field(4)
    # swap x, y composed with a scaling that breaks the eigenvalue match
    g = Automorphism(fld, (1, 0, 2), (fld.zeta, 1, 1))
    assert fixed_line(g) is None
    # and one that preserves it: entries b, c with bc = 1
    g = Automorphism(fld, (1, 0, 2), (fld.zeta, fld.zeta_pow(-1), 1))
    L = fixed_line(g)
    assert L is not None
    p = ProjPoint(fld, [fld.one, fld.zeta_pow(1), fld.from_rational(2)])
    # points of L are fixed: check with two explicit points on L
    from fermatosc.hompoly import line_parametrization
    v1, v2 = line_parametrization(L)
    for vec in (v1, v2):
        q = ProjPoint(fld, vec)
        assert g.apply_point(q) == q


def test_orbits():
    d = 5
    C = FermatCurve(d)
    fld = C.field
    s = sextactic_points(C)[2]
    orb = orbit(s.point, rho(fld))
    assert len(orb) == d
    p = ProjPoint(fld, [fld.u_pow(1), fld.one, fld.zero])
    assert len(orbit(p, rho(fld))) == d
    fixed = ProjPoint(fld, [fld.zero, fld.one, fld.from_rational(3)])
    assert orbit(fixed, rho(fld)) == [fixed]


def test_orbit_of_infinite_order_raises(monkeypatch):
    # (x : y : z) -> (2x : y : z) has infinite order
    fld = tower_field(3)
    g = Automorphism(fld, (0, 1, 2), (2, 1, 1))
    p = ProjPoint(fld, [fld.one, fld.one, fld.one])
    # the guard raises at call 6d^2 + 2 of apply_point; without it the loop
    # would never end, so a call past that fails the test at once
    apply_point, calls = Automorphism.apply_point, []

    def counted(self, q):
        calls.append(1)
        if len(calls) > 6 * fld.d ** 2 + 2:
            pytest.fail(f"orbit made {len(calls)} apply_point calls")
        return apply_point(self, q)
    monkeypatch.setattr(Automorphism, "apply_point", counted)
    with pytest.raises(CertificationFailure, match="did not close") as exc:
        orbit(p, g)
    assert exc.value.witness == {"point": p.to_json(), "perm": [0, 1, 2]}


def test_invariant_intersection_tangent_example():
    d = 4
    C = FermatCurve(d)
    fld = C.field
    k = 3
    px = ProjPoint(fld, [fld.zero, fld.u_pow(k), fld.one])
    py = ProjPoint(fld, [fld.u_pow(k), fld.zero, fld.one])
    g = phi(fld)
    assert orbit(px, g) in ([px, py], [py, px])
    assert verify_invariant_intersection(C, g, px, 1)
    meet = ProjPoint(fld, [fld.one, fld.one, fld.u_pow(-k)])
    for p in (px, py):
        assert tangent_line(C, p).evaluate(meet).is_zero()


def test_invariant_intersection_conics_and_orbit_of_one():
    d = 4
    C = FermatCurve(d)
    fld = C.field
    s = sextactic_points(C)[1]
    g = z_scaling(fld)
    assert verify_invariant_intersection(C, g, s.point, 2)
    # a sextactic point fixed by an automorphism: orbit of size one
    fixed_pt = ProjPoint(fld, [fld.zero, fld.one, fld.monomial(-1, 1)])
    if C.poly.evaluate(fixed_pt).is_zero():
        assert verify_invariant_intersection(C, rho(fld), fixed_pt, 1)


def test_invariant_intersection_requires_fixed_line():
    d = 4
    C = FermatCurve(d)
    fld = C.field
    g = rho(fld).compose(phi(fld))
    s = sextactic_points(C)[0]
    with pytest.raises(FermatoscError, match="no pointwise-fixed line"):
        verify_invariant_intersection(C, g, s.point, 1)


def test_osculating_degree_three_raises():
    # the range n in (1, 2) is checked once, by FermatCurve.osculating
    C = FermatCurve(4)
    p = sextactic_points(C)[0].point
    with pytest.raises(ValueError, match="must be 1 or 2"):
        C.osculating(p, 3)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        verify_invariant_intersection(C, rho(C.field), p, 3)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_invariant_suite_generators(d):
    C = FermatCurve(d)
    rng = random.Random(d)
    pts = rng.sample(sextactic_points(C), 4)
    for name, g in generator_panel(C):
        for s in pts:
            assert verify_invariant_intersection(C, g, s.point, 1), name
            assert verify_invariant_intersection(C, g, s.point, 2), name


def test_tangent_concurrency_b_line():
    d = 5
    C = FermatCurve(d)
    fld = C.field
    x, y, z = HomPoly.variables(fld)
    rep = tangent_concurrency(C, y - z)
    assert rep.count == 1
    assert rep.common_points[0] == ProjPoint(fld, [fld.zero, -fld.one, fld.one])
    assert rep.certificates["point_on_fixed_line"]
    assert rep.fixed_line == x


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_tangent_concurrency_m_lines(d):
    # common point of the tangents along z - u^(-k) t y is
    # (0 : u^k 2^((d-1)/d) : 1); the tangent formula forces the plus sign
    C = FermatCurve(d)
    fld = C.field
    for idx, L in enumerate(build("Mx", C).lines):
        k = 2 * idx + 1
        rep = tangent_concurrency(C, L)
        expected = ProjPoint(fld, [fld.zero, fld.u_pow(k) * fld.t**(d - 1),
                                   fld.one])
        assert rep.common_points[0] == expected
        mirrored = ProjPoint(fld, [fld.zero, -fld.u_pow(k) * fld.t**(d - 1),
                                   fld.one])
        assert rep.common_points[0] != mirrored


def test_tangent_concurrency_bz_lines():
    d = 4
    C = FermatCurve(d)
    fld = C.field
    for j, L in enumerate(build("Bz", C).lines):
        rep = tangent_concurrency(C, L)
        expected = ProjPoint(fld, [fld.zeta_pow(j), -fld.one, fld.zero])
        assert rep.common_points[0] == expected


def test_tangent_concurrency_rejects_non_grid_line():
    d = 4
    C = FermatCurve(d)
    fld = C.field
    x, y, z = HomPoly.variables(fld)
    with pytest.raises(CertificationFailure,
                       match="sextactic points on the line, need 4") as exc:
        tangent_concurrency(C, x + y + z)
    assert len(exc.value.witness) < d


def test_no_scaling_sweeps_a_line_with_three_coefficients():
    C = FermatCurve(4)
    s1, s2 = sextactic_points(C)[0], sextactic_points(C)[-1]
    L = HomPoly.line(C.field, *cross(s1.point.coords, s2.point.coords))
    assert len(L.terms) == 3
    pts = points_on_line(C, L)
    assert s1 in pts and s2 in pts
    with pytest.raises(CertificationFailure, match="one orbit"):
        orbit_automorphism_for_line(C, L, pts)


def test_no_scaling_sweeps_a_grid_line_missing_a_point():
    C = FermatCurve(4)
    L = build("Bz", C).lines[1]
    pts = points_on_line(C, L)
    assert orbit_automorphism_for_line(C, L, pts) == z_scaling(C.field)
    with pytest.raises(CertificationFailure, match="one orbit"):
        orbit_automorphism_for_line(C, L, pts[:-1])


def test_b_line_common_point_on_curve_iff_odd():
    for d in (3, 4, 5, 6):
        C = FermatCurve(d)
        fld = C.field
        p = ProjPoint(fld, [fld.zero, -fld.one, fld.one])
        on_curve = C.poly.evaluate(p).is_zero()
        assert on_curve == (d % 2 == 1)
        if on_curve:
            assert p in set(inflection_points(C))


@pytest.mark.parametrize("d", (4, 5, 6))
def test_conic_common_points_two(d):
    C = FermatCurve(d)
    for token in ("Bz", "Mx", "Ny"):
        L = build(token, C).lines[1]
        rep = conic_common_points(C, L)
        assert rep.count == 2, token
        assert rep.certificates["restrictions_pairwise_proportional"]
        assert not rep.certificates["disc2_is_zero"]
        excl = rep.certificates["off_line_exclusion"]
        assert excl.get("candidate_on_fixed_line") or "witness_value" in excl


def test_conic_common_points_d3_b_line():
    C = FermatCurve(3)
    fld = C.field
    for j, L in enumerate(build("Bz", C).lines):
        rep = conic_common_points(C, L)
        assert rep.count == 1
        expected = ProjPoint(fld, [fld.one, fld.zeta_pow(-j), fld.zero])
        assert rep.common_points[0] == expected
    for L in build("Mx", C).lines[:2]:
        rep = conic_common_points(C, L)
        assert rep.count == 2


def test_conic_restriction_discriminants():
    # restriction of the explicit conic to the fixed line, against the
    # closed-form discriminants 48(2d-1)(d-3)(d-1)^2 and 48d(2d-1)(d-1)^2
    for d in (3, 4, 5, 6):
        C = FermatCurve(d)
        fld = C.field
        repB = conic_common_points(C, build("Bz", C).lines[0])   # j = 0
        discB = disc2(restrict_to_line(
            _conic_at(C, "z", 0, 1), repB.fixed_line))
        assert discB == fld.from_rational(48 * (2 * d - 1) * (d - 3)
                                          * (d - 1)**2)
        repM = conic_common_points(C, build("Mx", C).lines[0])   # k = 1
        discM = disc2(restrict_to_line(
            _conic_at(C, "z", 0, 1), repM.fixed_line))
        expected = fld.from_rational(48 * d * (2 * d - 1) * (d - 1)**2) \
            * (fld.u_pow(1) * fld.t_inv)**2
        assert discM == expected


def _conic_at(C, cluster, j, k):
    from fermatosc.fermat import hyperosculating_conic
    s = [t for t in sextactic_points(C)
         if t.cluster == cluster and t.j == j and t.k == k][0]
    return hyperosculating_conic(C, s)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_pencil_cofactor_is_the_papers_line(d):
    """The pencil of O_{j,k1} and O_{j,k2} holds z * ell with
    ell = 2d(d-2)(zeta^-j x + y) - t^-1 (d+1)(2d-3)(u^k1 + u^k2) z, and ell
    meets O_{j,k1} in two distinct points."""
    C = FermatCurve(d)
    fld = C.field
    ks = range(1, 2 * d, 2)
    for j in (0, 1):
        conics = {k: C.hyperosculating(C.sextactic_point("z", j, k))
                  for k in ks}
        for k1, k2 in combinations(ks, 2):
            ell = symmetry._pencil_cofactor(conics[k1], conics[k2], 2, fld)
            zcoef = -(fld.t_inv * ((d + 1) * (2 * d - 3))
                      * (fld.u_pow(k1) + fld.u_pow(k2)))
            paper = HomPoly.line(fld, fld.zeta_pow(-j) * (2 * d * (d - 2)),
                                 2 * d * (d - 2), zcoef)
            assert ell.proportional(paper), (j, k1, k2)
            assert not disc2(restrict_to_line(conics[k1], ell)).is_zero()


def test_concurrency_point_on_fixed_line_all_grids():
    d = 4
    C = FermatCurve(d)
    for token in ("Bz", "Bx", "By", "Mx", "My", "Mz", "Nx", "Ny", "Nz"):
        for L in build(token, C).lines[:2]:
            rep = tangent_concurrency(C, L)
            assert rep.count == 1
            assert rep.certificates["point_on_fixed_line"], token


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_points_on_line_matches_scan(d):
    # the ratio lookup against a brute-force scan of every point, in the
    # same order: the grid, inflection-tangent and coordinate lines, plus
    # seeded lines with three nonzero coefficients
    C = FermatCurve(d)
    fld = C.field
    pts = sextactic_points(C)
    specials = [s.point for s in pts] + inflection_points(C)
    lines = build("A+B+M+N+triangle", C).lines
    rng = random.Random(500 + d)
    for _ in range(6):
        s1, s2 = rng.sample(pts, 2)
        lines.append(HomPoly.line(fld, *cross(s1.point.coords,
                                              s2.point.coords)))
        lines.append(HomPoly.line(fld, *(rng.randint(1, 5) for _ in range(3))))
    assert sum(len(L.terms) == 3 for L in lines) >= 6
    for L in lines:
        assert points_on_line(C, L) == [
            s for s in pts if L.evaluate(s.point).is_zero()]
        assert C.specials_on_line(L) == [
            p for p in specials if L.evaluate(p).is_zero()]


def test_ratio_table_per_coordinate_pair():
    C = FermatCurve(6)
    C.specials_on_line(build("Bz", C).lines[0])
    (a, b), = C._ratio_tables
    # the one table built covers every special with x_a and x_b nonzero
    assert sorted(i for idx in C._ratios(a, b).values() for i in idx) == [
        i for i, p in enumerate(C.specials)
        if not (p.coords[a].is_zero() or p.coords[b].is_zero())]


def test_ratio_lookup_rejects_a_point_off_its_line(monkeypatch):
    """A ratio table listing a sextactic point off the line fails the
    exact evaluation of each point the lookup returns."""
    C = FermatCurve(4)
    L = build("Bz", C).lines[0]
    wrong = next(i for i, s in enumerate(C.sextactic)
                 if not L.evaluate(s.point).is_zero())
    real = FermatCurve._ratios
    monkeypatch.setattr(FermatCurve, "_ratios", lambda self, a, b: {
        r: idx + [wrong] for r, idx in real(self, a, b).items()})
    with pytest.raises(CertificationFailure,
                       match="ratio table point off its line"):
        C.specials_on_line(L)


def test_ratio_lookup_checks_every_special_for_a_vertex():
    C = FermatCurve(4)
    fld = C.field
    vertex = ProjPoint(fld, [fld.zero, fld.zero, fld.one])
    C.specials = C.specials[:-1] + (vertex,)
    with pytest.raises(CertificationFailure, match="vertex"):
        C.specials_on_line(build("Bz", C).lines[0])


def test_failed_vertex_check_keeps_no_ratio_table():
    C = FermatCurve(4)
    fld = C.field
    C.specials = C.specials[:-1] + (
        ProjPoint(fld, [fld.zero, fld.zero, fld.one]),)
    line = build("Bz", C).lines[0]
    for _ in range(2):
        with pytest.raises(CertificationFailure, match="vertex"):
            C.specials_on_line(line)
    assert C._ratio_tables == {}


def test_both_certificates_share_one_line_family(monkeypatch):
    """The tangent and conic certificates of a grid line look its points up
    once, and the 9d grid lines share the three fixed lines of the curve's
    coordinate scalings."""
    C = FermatCurve(4)
    calls = []

    def counted(curve, line):
        calls.append(line)
        return points_on_line(curve, line)
    monkeypatch.setattr(symmetry, "points_on_line", counted)
    lines = [L for token in ("B", "M", "N") for L in build(token, C).lines]
    reports = [(tangent_concurrency(C, L), conic_common_points(C, L))
               for L in lines]
    assert calls == lines
    fixed = {id(rep.fixed_line) for pair in reports for rep in pair}
    assert len(fixed) == 3
    assert all(t.points is c.points for t, c in reports)


def test_curve_tables_die_with_the_curve():
    """The curve's tables make no reference cycle with it, the line table
    of the freeness stage included: the curve is freed when its last
    reference goes, with the cyclic collector off."""
    C = FermatCurve(3)
    L = build("Bz", C).lines[0]
    tangent_concurrency(C, L)
    conic_common_points(C, L)
    for n in (1, 2):
        assert verify_invariant_intersection(C, rho(C.field),
                                             sextactic_points(C)[0].point, n)
    for key in cli.paper_claims(3)["freeness"]:
        cli._freeness(build(key.removesuffix("+F"), C), key.endswith("+F"))
    assert C.lines and C.meets and C.line_contacts
    ref = weakref.ref(C)
    gc.disable()
    try:
        del C
        assert ref() is None
    finally:
        gc.enable()


def test_proportional_tangents_raise(monkeypatch):
    # the last tangent replaced by a multiple of the first
    C = FermatCurve(3)
    line = build("B", C).lines[0]
    pts = points_on_line(C, line)
    first = C.osculating(pts[0].point, 1)
    real = FermatCurve.osculating
    monkeypatch.setattr(C, "osculating", lambda p, n: (
        first.scale(2) if p == pts[-1].point else real(C, p, n)))
    with pytest.raises(CertificationFailure, match="coincident tangents"):
        tangent_concurrency(C, line)


def _plant_conic_family(monkeypatch, C, conics=None, fixed=None):
    """Line 0 of Bz with the fixed line of its family planted as `fixed`
    and the hyperosculating conics at its d points as `conics`."""
    L = build("Bz", C).lines[0]
    pts, real = symmetry._line_family(C, L)
    C.line_families[L] = (pts, real if fixed is None else fixed)
    if conics is not None:
        by_point = {s.point: c for s, c in zip(pts, conics)}
        monkeypatch.setattr(C, "hyperosculating", lambda s: by_point[s.point])
    return L


def test_conic_family_with_a_non_coordinate_fixed_line_raises(monkeypatch):
    C = FermatCurve(3)
    x, y, _ = HomPoly.variables(C.field)
    L = _plant_conic_family(monkeypatch, C, fixed=x + y)
    with pytest.raises(CertificationFailure, match="not a coordinate line"):
        conic_common_points(C, L)


def test_conics_that_contain_the_fixed_line_raise(monkeypatch):
    C = FermatCurve(3)
    x, y, z = HomPoly.variables(C.field)
    conics = [x * (y + i * z) for i in range(3)]
    L = _plant_conic_family(monkeypatch, C, conics, fixed=x)
    with pytest.raises(CertificationFailure, match="contains the fixed line"):
        conic_common_points(C, L)


def test_one_conic_repeated_has_no_pencil_cofactors(monkeypatch):
    # every pencil member of a conic with itself is zero
    C = FermatCurve(3)
    pts = points_on_line(C, build("Bz", C).lines[0])
    L = _plant_conic_family(monkeypatch, C,
                            [C.hyperosculating(pts[0])] * 3)
    with pytest.raises(CertificationFailure,
                       match="two independent pencil cofactors"):
        conic_common_points(C, L)


def test_conics_sharing_a_point_off_the_fixed_line_raise(monkeypatch):
    """The conics x * l_i + K with l_i = i (x - y) + i^2 (y - z) and
    K = y^2 - z^2 all pass through q = (1 : 1 : 1), off x = 0, and agree
    on x = 0; their pencil cofactors l_1, l_2 meet at q."""
    C = FermatCurve(3)
    fld = C.field
    x, y, z = HomPoly.variables(fld)
    conics = [x * ((x - y) * i + (y - z) * (i * i)) + y * y - z * z
              for i in range(3)]
    L = _plant_conic_family(monkeypatch, C, conics, fixed=x)
    with pytest.raises(CertificationFailure,
                       match="extra point off the fixed line") as failure:
        conic_common_points(C, L)
    assert failure.value.witness == ProjPoint(fld, [1, 1, 1]).to_json()


def test_pencil_member_off_the_coordinate_raises():
    # y^2 and z^2 have no pencil member divisible by x but zero
    fld = tower_field(3)
    _, y, z = HomPoly.variables(fld)
    with pytest.raises(CertificationFailure, match="not divisible"):
        symmetry._pencil_cofactor(y * y, z * z, 0, fld)


def test_panel_shares_the_curve_scalings():
    """The panel's three scalings are the curve's, the ones whose orbits
    are the grid lines' point sets, so the invariant stage reads the grid
    families' fixed lines and charts again rather than new ones."""
    C = FermatCurve(4)
    panel = dict(generator_panel(C))
    assert generator_panel(C)[0][1] is panel["rho"]
    lines = [L for token in ("B", "M", "N") for L in build(token, C).lines]
    fixed = {id(conic_common_points(C, L).fixed_line) for L in lines}
    assert fixed == {id(fixed_line(panel[name]))
                     for name in ("rho", "phi.rho.phi", "psi.rho.psi")}


@pytest.mark.parametrize("d", (3, 4, 5))
def test_contacts_carry_every_point(d, monkeypatch):
    """One `int_mult` per point set: every sextactic contact is 6 and every
    inflection contact d, each carried from point 0, and the hyperosculating
    conic is the osculating conic at every sextactic point."""
    C = FermatCurve(d)
    mult, calls = symmetry.int_mult, []
    monkeypatch.setattr(symmetry, "int_mult",
                        lambda f, g, p: calls.append(p) or mult(f, g, p))
    found = symmetry.contacts(C)
    assert found is symmetry.contacts(C) is C.contacts
    assert found.conic == (6,) * (3 * d * d)
    assert found.tangent == (d,) * (3 * d)
    assert calls == [C.sextactic[0].point, C.inflection[0]]
    assert found.osculating == {s.point: C.hyperosculating(s)
                                for s in C.sextactic}
    # the contacts make no reference cycle with their curve: the curve is
    # freed when its last reference goes, with no collection
    ref = weakref.ref(C)
    del C
    assert ref() is None


def test_contacts_of_a_curve_nothing_else_holds():
    """The contacts outlive a curve that only the call referred to."""
    found = symmetry.contacts(FermatCurve(4))
    assert found.conic == (6,) * 48 and found.tangent == (4,) * 12
    assert len(found.osculating) == 48


def test_orbit_elements_map_point_zero_and_invert_nothing(monkeypatch):
    """The element read off a special point's indices maps point 0 of its
    set to it, `maps` agrees with `apply_point`, and neither inverts."""
    C = FermatCurve(4)
    fld = C.field
    pts, infl = C.sextactic, C.inflection
    checks = [(pts[0].point, s.point, (fermat.CLUSTERS.index(s.cluster),
                                        (s.j, 0, (1 - s.k) // 2)))
              for s in pts]
    checks += [(infl[0], p, (-(i // 4), (0, 0, i % 4)))
               for i, p in enumerate(infl)]
    wrong = pts[1].point
    images = []

    def no_inverse(field, a):
        raise AssertionError("an element was inverted")
    monkeypatch.setattr(type(fld), "invert", no_inverse)
    for p0, q, (n, exps) in checks:
        g = symmetry._orbit_element(fld, n, exps)
        assert g.scale[2] is fld.one
        assert g.maps(p0, q) and (q == wrong or not g.maps(p0, wrong))
        images.append((g, p0, q))
    monkeypatch.undo()
    assert all(g.apply_point(p0) == q for g, p0, q in images)


def test_invariant_conics_need_no_closed_form(monkeypatch):
    """Once the contacts are on the curve, the invariant-intersection check
    reads at sextactic points the hyperosculating conics they prove
    osculating, and builds no closed-form conic."""
    C = FermatCurve(4)
    symmetry.contacts(C)

    def no_closed(curve, p):
        raise AssertionError("a closed-form conic was built")
    monkeypatch.setattr(fermat, "osculating_conic_closed", no_closed)
    for _, g in generator_panel(C):
        for s in C.sextactic[::5]:
            assert verify_invariant_intersection(C, g, s.point, 2)


def test_invariant_check_alone_builds_no_contacts(monkeypatch):
    """Without contacts on the curve, the invariant-intersection check reads
    the closed-form conics and builds no contact."""
    C = FermatCurve(4)

    def no_contacts(curve):
        raise AssertionError("the contacts were built")
    monkeypatch.setattr(symmetry, "contacts", no_contacts)
    for _, g in generator_panel(C):
        assert verify_invariant_intersection(C, g, C.sextactic[0].point, 2)
    assert C.contacts is None
    assert (2, C.sextactic[0].point) in C._osculating
