"""Arrangements: construction identities, censuses, Tjurina totals,
freeness verdicts, syzygy checks and the collinearity search."""

import random
from fractions import Fraction as Q
from collections import Counter
from itertools import combinations

import pytest

from conftest import identity
from fermatosc import arrangements
from fermatosc.arrangements import (GRID_TOKENS, build, census,
                                    collinear_sextactic,
                                    fermat_grid_product_poly, freeness_test,
                                    grid_component_poly, grid_product_poly,
                                    koszul_triple, multiplicity_multiset,
                                    syzygy_candidates, tjurina_total,
                                    token_lines, verify_syzygy)
from fermatosc.cli import _report_order, paper_claims
from fermatosc.errors import CertificationFailure, NonOrdinary
from fermatosc.fermat import FermatCurve, sextactic_points, tangent_line
from fermatosc.hompoly import HomPoly, ProjPoint, cross, det3, int_mult
from fermatosc.symmetry import Automorphism
from fermatosc.tower import TowerField, tower_field


def expect_multiset(*pairs):
    c = Counter()
    for mult, count in pairs:
        c[mult] += count
    return dict(c)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_build_products(d):
    C = FermatCurve(d)
    fld = C.field
    x, y, z = HomPoly.variables(fld)
    assert build("B", C).product_poly() == \
        (x**d - y**d) * (y**d - z**d) * (z**d - x**d)
    assert build("M", C).product_poly() == \
        (z**d + 2 * y**d) * (x**d + 2 * z**d) * (y**d + 2 * x**d)
    assert build("N", C).product_poly() == \
        (y**d + 2 * z**d) * (z**d + 2 * x**d) * (x**d + 2 * y**d)
    assert build("A", C).product_poly() == \
        (x**d + y**d) * (y**d + z**d) * (z**d + x**d)
    for label in ("A", "B", "M", "N"):
        assert len(build(label, C).lines) == 3 * d
    assert len(build("triangle", C).lines) == 3
    assert len(build("BzMxNy", C).lines) == 3 * d
    F = x**d + y**d + z**d
    assert grid_component_poly("Mx", fld, d) == F - (x**d - y**d)
    assert grid_component_poly("Ny", fld, d) == F + (x**d - y**d)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_grid_component_products(d):
    # each component on its own: a swap of two components of one group
    # (say Mx and My) leaves the group product unchanged
    C = FermatCurve(d)
    for token in GRID_TOKENS:
        assert build(token, C).product_poly() == \
            grid_component_poly(token, C.field, d), token


def test_build_rejects_bad_labels():
    C = FermatCurve(4)
    with pytest.raises(ValueError):
        build("Q", C)
    with pytest.raises(ValueError):
        build("", C)
    with pytest.raises(ValueError, match="duplicate lines"):
        build("B+B", C)


def _report_rows(entries):
    return [(e.point, e.multiplicity, e.ordinary, e.n_lines, e.on_curve)
            for e in _report_order(entries)]


# the ten censuses of `all`, and the labels that put A in the table too
SHARED_CENSUS_LABELS = ("A", "A+B", "triangle+A", "A+B+M+N+triangle")


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_table_census_matches_lines_built_alone(d):
    """Each census of `all`, and each census with A, read through one
    shared curve's line table, lists the points of the same census on a
    fresh curve that builds the label's lines alone, in report order."""
    C = FermatCurve(d)
    keys = list(paper_claims(d)["freeness"])
    keys += [label + suffix for label in SHARED_CENSUS_LABELS
             for suffix in ("", "+F")]
    for key in keys:
        label, with_curve = key.removesuffix("+F"), key.endswith("+F")
        shared = census(build(label, C), with_curve)
        alone = census(build(label, FermatCurve(d)), with_curve)
        assert _report_rows(shared) == _report_rows(alone), key


def test_table_arrangements_share_the_table_lines():
    """An arrangement holds the table's line objects, in label order; the
    table builds a token on its first use only, and no label repeating a
    token passes."""
    d = 4
    C = FermatCurve(d)
    bz = build("BzMxNy", C)
    assert set(C.lines) == {"Bz", "Mx", "Ny"}
    assert C.lines["Bz"] is token_lines(C, "Bz")
    assert len(C.line_keys) == 3 * d
    arr = build("M+triangle", C)
    assert arr.index == tuple(range(3 * d, 6 * d)) + tuple(
        range(12 * d, 12 * d + 3))
    assert all(L is C.lines[tok][i % d] for L, i, tok in zip(
        arr.lines, arr.index, ["Mx"] * d + ["My"] * d + ["Mz"] * d))
    assert arr.lines[-3:] == list(C.lines["triangle"])
    assert bz.lines[0] is build("B", C).lines[0]
    ab = build("A+B", C)
    assert ab.index == tuple(range(9 * d, 12 * d)) + tuple(range(3 * d))
    assert "Nx" not in C.lines and len(C.line_keys) == 10 * d + 3
    build("A+B+M+N+triangle", C)
    assert len(C.lines) == 13 and len(C.line_keys) == 12 * d + 3
    for label in ("B+Bz", "BzMxNy+Mx"):
        with pytest.raises(ValueError, match="duplicate lines"):
            build(label, C)


def test_table_certifies_each_token_distinct_from_the_lines_before_it(
        monkeypatch):
    """A token whose lines coincide with a line built before it, or with
    one another, fails the table's certificate."""
    C = FermatCurve(3)
    build("Bz", C)
    real = arrangements.grid_line
    monkeypatch.setattr(arrangements, "grid_line",
                        lambda token, field, d, i: real("Bz", field, d, i)
                        if token == "Bx" else real(token, field, d, i))
    with pytest.raises(CertificationFailure,
                       match="two lines of the curve's line table coincide"):
        build("Bx", C)
    monkeypatch.setattr(arrangements, "grid_line",
                        lambda token, field, d, i: real(token, field, d, 0))
    with pytest.raises(CertificationFailure,
                       match="two lines of the curve's line table coincide"):
        build("Mx", FermatCurve(3))


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_census_grid_arrangements(d):
    C = FermatCurve(d)
    cB = census(build("B", C))
    assert multiplicity_multiset(cB) == expect_multiset((3, d * d), (d, 3))
    for e in cB:
        assert e.ordinary
        assert not C.poly.evaluate(e.point).is_zero()
    for label in ("M", "N"):
        cM = census(build(label, C))
        assert multiplicity_multiset(cM) == expect_multiset((2, 3 * d * d),
                                                            (d, 3))
        for e in cM:
            assert not C.poly.evaluate(e.point).is_zero()
    cG = census(build("BzMxNy", C))
    assert multiplicity_multiset(cG) == expect_multiset((3, d * d), (d, 3))
    assert multiplicity_multiset(cG) == multiplicity_multiset(cB)


def test_census_triples_are_sextactic():
    d = 4
    C = FermatCurve(d)
    cG = census(build("BzMxNy", C))
    triples = {e.point for e in cG if e.multiplicity == 3}
    cluster_z = {s.point for s in sextactic_points(C) if s.cluster == "z"}
    assert triples == cluster_z


@pytest.mark.parametrize("d", (3, 4, 5))
def test_census_with_curve(d):
    C = FermatCurve(d)
    cGF = census(build("BzMxNy", C), True)
    assert multiplicity_multiset(cGF) == expect_multiset((4, d * d), (d, 3))
    assert tjurina_total(cGF) == 12 * d * d - 6 * d + 3
    cBF = census(build("B", C), True)
    assert multiplicity_multiset(cBF) == expect_multiset(
        (3, d * d), (d, 3), (2, 3 * d * d))
    on_curve = [e for e in cBF if e.on_curve]
    assert len(on_curve) == 3 * d * d
    assert all(e.ordinary for e in cBF)


def test_census_pair_conservation():
    C = FermatCurve(5)
    arr = build("triangle+BzMxNy", C)
    entries = census(arr)
    pairs = sum(e.n_lines * (e.n_lines - 1) // 2 for e in entries)
    n = len(arr.lines)
    assert pairs == n * (n - 1) // 2


def test_tjurina_values():
    d = 5
    C = FermatCurve(d)
    assert tjurina_total(census(build("BzMxNy", C))) == 7 * d * d - 6 * d + 3
    assert tjurina_total(census(build("triangle", C))) == 3
    assert tjurina_total(census(build("BzMxNy", C), True)) == \
        12 * d * d - 6 * d + 3


def test_tjurina_rejects_non_ordinary():
    # inflection tangents meet the curve with full contact: not ordinary
    d = 3
    C = FermatCurve(d)
    entries = census(build("A", C), True)
    assert any(not e.ordinary for e in entries)
    with pytest.raises(NonOrdinary):
        tjurina_total(entries)


CURVE_CENSUS_LABELS = ("B", "M", "N", "A", "triangle", "Bz", "BzMxNy",
                       "triangle+B", "M+triangle", "triangle+BzMxNy", "A+B")


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_census_curve_facts_match_evaluation_and_tangents(d):
    """The census reads on-curve and ordinariness from the curve-line
    contacts; evaluation of F and the tangent line agree with it."""
    C = FermatCurve(d)
    for label in CURVE_CENSUS_LABELS:
        arr = build(label, C)
        for e in census(arr, True):
            p = e.point
            assert e.on_curve == C.contains(p), (label, p)
            assert e.multiplicity == e.n_lines + e.on_curve
            if not e.on_curve:
                assert e.ordinary, (label, p)
                continue
            T = tangent_line(C, p)
            lines = [L for L in arr.lines if L.evaluate(p).is_zero()]
            assert len(lines) == e.n_lines
            touching = any(L.proportional(T) or int_mult(C.poly, L, p) > 1
                           for L in lines)
            assert e.ordinary == (not touching), (label, p)


def test_census_builds_no_tangent_and_evaluates_no_curve(monkeypatch):
    d = 4
    C = FermatCurve(d)
    arrs = [build(label, C) for label in ("A+B", "triangle+BzMxNy")]
    degrees = set()
    evaluate = HomPoly.evaluate

    def recording(self, coords):
        degrees.add(self.deg)
        return evaluate(self, coords)

    def no_osculating(self, p, n):
        raise AssertionError("census built an osculating curve")

    monkeypatch.setattr(HomPoly, "evaluate", recording)
    monkeypatch.setattr(FermatCurve, "osculating", no_osculating)
    for arr in arrs:
        assert any(e.on_curve for e in census(arr, True))
    assert d not in degrees


def test_census_rejects_a_contacts_map_without_one_line(monkeypatch):
    # x = 0 meets the curve at inflection points, which lie on A_x lines
    d = 3
    C = FermatCurve(d)
    arr = build("triangle+A", C)
    full = arrangements._curve_points_on_line
    monkeypatch.setattr(
        arrangements, "_curve_points_on_line",
        lambda curve, L: {} if L is arr.lines[0] else full(curve, L))
    with pytest.raises(CertificationFailure):
        census(arr, True)


def test_census_rejects_an_incomplete_curve_line_intersection(monkeypatch):
    """Special points that do not exhaust a line's intersection with the
    curve are a failed completeness certificate, not a non-ordinary point."""
    d = 3
    assert census(build("triangle", FermatCurve(d)), True)
    full = FermatCurve.specials_on_line
    monkeypatch.setattr(FermatCurve, "specials_on_line",
                        lambda self, line: full(self, line)[:-1])
    with pytest.raises(CertificationFailure, match="not exhausted"):
        census(build("triangle", FermatCurve(d)), True)


def test_census_rejects_a_candidate_off_the_curve(monkeypatch):
    """A candidate of a line's intersection with the curve where the
    curve does not vanish fails the certificate: (0 : 1 : 1) lies on
    x = 0 and off the curve x^3 + y^3 + z^3."""
    C = FermatCurve(3)
    fld = C.field
    off = ProjPoint(fld, (fld.zero, fld.one, fld.one))
    full = FermatCurve.specials_on_line
    monkeypatch.setattr(FermatCurve, "specials_on_line",
                        lambda self, line: full(self, line) + [off])
    with pytest.raises(CertificationFailure,
                       match="special point off the curve"):
        census(build("triangle", C), True)


def test_census_rejects_d_candidates_with_one_off_the_curve(monkeypatch):
    """d distinct candidates on a line are all of its intersection with the
    curve only when each is on the curve: x = 0 with its last inflection
    point replaced by (0 : 1 : 1) keeps the count d and fails."""
    C = FermatCurve(3)
    fld = C.field
    off = ProjPoint(fld, (fld.zero, fld.one, fld.one))
    full = FermatCurve.specials_on_line
    monkeypatch.setattr(FermatCurve, "specials_on_line",
                        lambda self, line: full(self, line)[:-1] + [off])
    with pytest.raises(CertificationFailure,
                       match="special point off the curve"):
        census(build("triangle", C), True)


@pytest.mark.parametrize("d", (3, 4))
def test_census_rejects_a_duplicated_candidate(d, monkeypatch):
    """d candidates of which two coincide are not d intersection points:
    each B line with its last sextactic point replaced by its first."""
    full = FermatCurve.specials_on_line

    def repeat_first(self, line):
        found = full(self, line)
        return found[:-1] + found[:1]
    monkeypatch.setattr(FermatCurve, "specials_on_line", repeat_first)
    with pytest.raises(CertificationFailure, match="not exhausted"):
        census(build("B", FermatCurve(d)), True)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_census_rejects_one_candidate_that_is_not_a_flex(d, monkeypatch):
    """A line with one candidate needs the curve's restriction to be a d-th
    power: a B line cut to its first sextactic point, whose restriction
    has d simple roots, fails, where an A line passes."""
    C = FermatCurve(d)
    assert all(m == d for i in range(d) for m in
               arrangements._curve_points_on_line(
                   C, token_lines(C, "Az")[i]).values())
    full = FermatCurve.specials_on_line
    monkeypatch.setattr(FermatCurve, "specials_on_line",
                        lambda self, line: full(self, line)[:1])
    with pytest.raises(CertificationFailure, match="not exhausted"):
        census(build("B", C), True)


def test_census_rejects_a_wrong_meet(monkeypatch):
    """A wrong point for the first pair of lines of Bz, which all pass
    through (0 : 0 : 1), leaves that point with all d lines and adds a
    double point: one pair too many."""
    C = FermatCurve(3)
    fld = C.field
    real, calls = arrangements.cross, []

    def wrong_first(a, b):
        calls.append((a, b))
        if len(calls) == 1:
            return (fld.one, fld.from_rational(2), fld.one)
        return real(a, b)
    monkeypatch.setattr(arrangements, "cross", wrong_first)
    with pytest.raises(CertificationFailure, match="pair conservation"):
        census(build("Bz", C))


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_freeness_paper_suite(d):
    C = FermatCurve(d)
    v = freeness_test(3 * d, tjurina_total(census(build("B", C))))
    assert v.free and v.exponents == (d + 1, 2 * d - 2)
    if d == 3:
        assert v.discriminant_sign == "zero"
    v = freeness_test(3 * d + 3,
                      tjurina_total(census(build("triangle+B", C))))
    assert v.free and v.exponents == (d + 1, 2 * d + 1)
    v = freeness_test(3 * d, tjurina_total(census(build("BzMxNy", C))))
    assert v.free and v.exponents == (d + 1, 2 * d - 2)
    assert v.tau == 7 * d * d - 6 * d + 3
    v = freeness_test(3 * d + 3,
                      tjurina_total(census(build("triangle+BzMxNy", C))))
    assert v.free and v.exponents == (d + 1, 2 * d + 1)
    assert v.tau == 7 * d * d + 9 * d + 3
    v = freeness_test(4 * d, tjurina_total(census(build("BzMxNy", C), True)))
    assert v.free and v.exponents == (2 * d - 2, 2 * d + 1)
    assert v.tau == 12 * d * d - 6 * d + 3

    v = freeness_test(4 * d, tjurina_total(census(build("B", C), True)))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(4 * d - 1), 6 * d * d - 2 * d - 2)
    v = freeness_test(3 * d, tjurina_total(census(build("M", C))))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(3 * d - 1), 3 * d * d - 2)
    v = freeness_test(3 * d + 3, tjurina_total(census(build("M+triangle", C))))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(3 * d + 2), 3 * d * d + 3 * d + 1)
    v = freeness_test(4 * d, tjurina_total(census(build("M", C), True)))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(4 * d - 1), 7 * d * d - 2 * d - 2)


def test_koszul_syzygies():
    for d in (3, 5):
        P = grid_product_poly(d)
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            assert verify_syzygy(koszul_triple(P, i, j), P)
        fld = tower_field(d)
        zeros = tuple(HomPoly.zero(fld, 1) for _ in range(3))
        assert verify_syzygy(zeros, P)


def test_syzygy_rejects_mixed_degrees():
    d = 3
    fld = tower_field(d)
    P = grid_product_poly(d)
    x, y, z = HomPoly.variables(fld)
    with pytest.raises(ValueError):
        verify_syzygy((x, y * y, z), P)


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_syzygy_candidate_verdicts(d):
    # verbatim candidate triples: the two for the grid product fail (one
    # carries the 4^(d+1) coefficient, the other has its components in the
    # wrong slots), both for the curve-augmented product pass
    results = {name: verify_syzygy(t, P) for name, t, P in syzygy_candidates(d)}
    assert results == {"grid-high": False, "grid-low": False,
                       "fermat-grid-high": True, "fermat-grid-low": True}


def test_syzygy_detects_non_syzygy():
    d = 3
    P = grid_product_poly(d)
    fld = tower_field(d)
    x, y, z = HomPoly.variables(fld)
    assert not verify_syzygy((x, y, z), P)


def test_collinear_d3():
    C = FermatCurve(3)
    lines = collinear_sextactic(C)
    assert len(lines) == 81
    assert sum(1 for L in lines if not L.mixed) == 27
    assert sum(1 for L in lines if L.mixed) == 54
    assert all(len(L.points) == 3 for L in lines)
    assert_members_match_scan(C, lines)


@pytest.mark.parametrize("d", (4, 5))
def test_collinear_matches_grids(d):
    C = FermatCurve(d)
    lines = collinear_sextactic(C)
    assert len(lines) == 9 * d
    assert all(len(L.points) == d for L in lines)
    assert all(not L.mixed for L in lines)
    grid_keys = set()
    for token in ("B", "M", "N"):
        grid_keys |= {L.line_key() for L in build(token, C).lines}
    assert {L.line.line_key() for L in lines} == grid_keys
    assert_members_match_scan(C, lines)


def assert_members_match_scan(C, lines):
    # members come from the confirmed triples; a scan of every point on
    # each line is the independent reference
    pts = sextactic_points(C)
    for L in lines:
        assert L.points == [s for s in pts
                            if L.line.evaluate(s.point).is_zero()]


def test_collinear_d9_uncapped():
    lines = collinear_sextactic(FermatCurve(9))
    assert len(lines) == 81
    assert all(len(L.points) == 9 for L in lines)
    assert all(not L.mixed for L in lines)


@pytest.mark.parametrize("d", (3, 4))
def test_collinear_matches_exhaustive_triples(d):
    # reference: every triple with a vanishing determinant, grouped by its
    # canonical line, in the report order
    C = FermatCurve(d)
    pts = sextactic_points(C)
    ref = {}
    for i, j, k in combinations(range(len(pts)), 3):
        a, b = pts[i].point.coords, pts[j].point.coords
        if det3((a, b, pts[k].point.coords)).is_zero():
            L = HomPoly.line(C.field, *cross(a, b)).canonical_line()
            ref.setdefault(L, set()).update((i, j, k))
    expected = [(L, [pts[i] for i in sorted(ref[L])])
                for L in sorted(ref, key=HomPoly.line_key)]
    assert [(L.line, L.points) for L in collinear_sextactic(C)] == expected


def _off_set(field):
    # (x : y : z) -> (2x : y : z) does not preserve the curve
    return Automorphism(field, (0, 1, 2), (2, 1, 1))


def test_collinear_image_off_the_set_raises(monkeypatch):
    monkeypatch.setattr(arrangements, "phi", _off_set)
    with pytest.raises(CertificationFailure, match="off the set"):
        collinear_sextactic(FermatCurve(3))


def test_collinear_intransitive_generators_raise(monkeypatch):
    # rho alone has orbits of d points
    monkeypatch.setattr(arrangements, "phi", identity)
    monkeypatch.setattr(arrangements, "psi", identity)
    with pytest.raises(CertificationFailure, match="transitively"):
        collinear_sextactic(FermatCurve(3))


def test_collinear_coinciding_points_raise(monkeypatch):
    C = FermatCurve(3)
    pts = sextactic_points(C)
    monkeypatch.setattr(arrangements, "sextactic_points",
                        lambda curve: pts[:1] + pts[:-1])
    with pytest.raises(CertificationFailure, match="coincide"):
        collinear_sextactic(C)


def test_collinear_carried_member_off_its_line_raises(monkeypatch):
    # a pullback that leaves every line in place carries members of the
    # lines through point 0 onto those same lines
    monkeypatch.setattr(Automorphism, "pullback", lambda g, f: f)
    with pytest.raises(CertificationFailure, match="off its line"):
        collinear_sextactic(FermatCurve(3))


# -- collinearity on F_p keys and on K_d keys ---------------------------------


def _spy_exact(monkeypatch):
    """Count the K_d passes of `collinear_sextactic`: the builds of its
    exact key ring."""
    calls, exact = [], arrangements._exact_keys
    monkeypatch.setattr(arrangements, "_exact_keys",
                        lambda field: calls.append(field) or exact(field))
    return calls


def _collinear(C):
    return [(L.line, L.points, L.clusters) for L in collinear_sextactic(C)]


def _plant_image(monkeypatch, d, plant):
    """`TowerField.reduction` with its image map replaced by plant(image)."""
    red = tower_field(d).reduction()
    monkeypatch.setattr(TowerField, "reduction",
                        lambda self: red._replace(image=plant(red.image)))


def _plant_fp_keys(monkeypatch, name, plant):
    """The F_p key ring with its key function `name` ("point" or "line")
    replaced by plant(key function)."""
    real = arrangements._fp_keys

    def fp_keys(field):
        keys = real(field)
        return keys._replace(**{name: plant(getattr(keys, name))})
    monkeypatch.setattr(arrangements, "_fp_keys", fp_keys)


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_collinear_keys_match_the_exact_path(d, monkeypatch):
    """F_p keys find the lines with no K_d pass, and the search on K_d
    keys finds the same lines in the same order, confirming each of the
    3 * 3d^2 generator images with `Automorphism.maps`."""
    C = FermatCurve(d)
    calls = _spy_exact(monkeypatch)
    found = _collinear(C)
    assert not calls
    maps, real = [], Automorphism.maps
    monkeypatch.setattr(Automorphism, "maps",
                        lambda g, p, q: maps.append(p) or real(g, p, q))
    pts = sextactic_points(C)
    gens = [(g, g.inverse()) for g in (arrangements.rho(C.field),
                                       arrangements.phi(C.field),
                                       arrangements.psi(C.field))]
    images, exact = arrangements._lines(C.field, pts, gens,
                                        arrangements._exact_keys(C.field))
    assert [(L, members) for L, members, _ in found] == exact
    assert images == C.generator_images
    assert len(maps) == 3 * len(pts) == 9 * d * d


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_collinear_planted_collision_gives_the_exact_result(d, monkeypatch):
    """F_p line keys that send every line to one key merge all lines
    through point 0; the member check refuses the merge, and one pass on
    K_d keys gives the same lines."""
    C = FermatCurve(d)
    want = _collinear(C)
    calls = _spy_exact(monkeypatch)
    _plant_fp_keys(monkeypatch, "line", lambda line: lambda a, b: (1, 0, 0))
    assert _collinear(FermatCurve(d)) == want
    assert len(calls) == 1
    if d == 3:
        assert len(want) == 81
        assert sum(1 for _, _, clusters in want
                   if len(set(clusters)) > 1) == 54


# image plants: a prime that divides the denominators 2 of the points' t^-1
# coordinates, an image of zero, and one key for every point
IMAGE_PLANTS = {
    "denominator": lambda image: lambda a: None if a.den % 2 == 0 else image(a),
    "zero": lambda image: lambda a: 0,
    "one-key": lambda image: lambda a: 1,
}


@pytest.mark.parametrize("plant", sorted(IMAGE_PLANTS))
def test_collinear_image_trouble_takes_the_exact_path(plant, monkeypatch):
    want = _collinear(FermatCurve(3))
    calls = _spy_exact(monkeypatch)
    _plant_image(monkeypatch, 3, IMAGE_PLANTS[plant])
    assert _collinear(FermatCurve(3)) == want
    assert len(calls) == 1


def _none_at(calls_none):
    """A plant of an F_p key function that gives None, the key of a zero
    image or of one with no image, at the calls numbered in `calls_none`
    (from one), and the real key at every other call."""
    calls = []

    def plant(real):
        def key(*args):
            calls.append(1)
            return None if len(calls) in calls_none else real(*args)
        return key
    return plant


def test_collinear_one_point_without_a_key_takes_the_exact_path(monkeypatch):
    """Point 0 alone keyed None, as a coordinate with no image would key
    it, makes the F_p search give up before any image is formed from the
    key."""
    want = _collinear(FermatCurve(3))
    calls = _spy_exact(monkeypatch)
    _plant_fp_keys(monkeypatch, "point", _none_at({1}))
    assert _collinear(FermatCurve(3)) == want
    assert len(calls) == 1


@pytest.mark.parametrize("call", (1, 27), ids=("through-p0", "closure"))
def test_collinear_zero_line_image_takes_the_exact_path(call, monkeypatch):
    """A zero image of one line makes the F_p search give up: at d = 3, the
    line through points 0 and 1 (call 1; kept, it would hide the orbit of
    the line {0, 1, 2} and give 72 lines), or the first line the closure
    reaches (call 27, after the 26 lines through point 0; kept, its None key
    would give that line a second entry and 82 lines)."""
    want = _collinear(FermatCurve(3))
    calls = _spy_exact(monkeypatch)
    _plant_fp_keys(monkeypatch, "line", _none_at({call}))
    assert _collinear(FermatCurve(3)) == want
    assert len(calls) == 1


def test_collinear_refused_image_takes_the_exact_path(monkeypatch):
    """An image found by F_p key that `Automorphism.maps` refuses makes the
    F_p search give up; on K_d keys `maps` confirms every image again."""
    want = _collinear(FermatCurve(3))
    calls = _spy_exact(monkeypatch)
    real = Automorphism.maps
    monkeypatch.setattr(Automorphism, "maps",
                        lambda g, p, q: bool(calls) and real(g, p, q))
    assert _collinear(FermatCurve(3)) == want
    assert len(calls) == 1


def test_collinear_generator_without_an_image_falls_back(monkeypatch):
    """A generator scale whose denominator the prime divides has no image:
    the F_p search gives up before it looks a point up."""
    C = FermatCurve(3)
    fld = C.field
    _plant_image(monkeypatch, 3, lambda image: lambda a: (
        None if a.den % 3 == 0 else image(a)))
    g = Automorphism(fld, (0, 1, 2), (fld.zeta * fld.from_rational(Q(1, 3)),
                                      1, 1))
    assert arrangements._lines(fld, sextactic_points(C), [(g, g.inverse())],
                               arrangements._fp_keys(fld)) is None
