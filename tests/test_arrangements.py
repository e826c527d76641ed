"""Arrangements: construction identities, censuses, Tjurina totals,
freeness verdicts, syzygy checks and the collinearity search."""

import random
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
                                    syzygy_candidates, table_lines,
                                    tjurina_total, verify_syzygy)
from fermatosc.cli import _report_order, paper_claims
from fermatosc.errors import CertificationFailure, NonOrdinary
from fermatosc.fermat import FermatCurve, sextactic_points, tangent_line
from fermatosc.hompoly import HomPoly, cross, det3, int_mult
from fermatosc.symmetry import Automorphism
from fermatosc.tower import tower_field


def expect_multiset(*pairs):
    c = Counter()
    for mult, count in pairs:
        c[mult] += count
    return dict(c)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_build_products(d):
    fld = tower_field(d)
    x, y, z = HomPoly.variables(fld)
    assert build("B", d).product_poly() == \
        (x**d - y**d) * (y**d - z**d) * (z**d - x**d)
    assert build("M", d).product_poly() == \
        (z**d + 2 * y**d) * (x**d + 2 * z**d) * (y**d + 2 * x**d)
    assert build("N", d).product_poly() == \
        (y**d + 2 * z**d) * (z**d + 2 * x**d) * (x**d + 2 * y**d)
    assert build("A", d).product_poly() == \
        (x**d + y**d) * (y**d + z**d) * (z**d + x**d)
    for label in ("A", "B", "M", "N"):
        assert len(build(label, d).lines) == 3 * d
    assert len(build("triangle", d).lines) == 3
    assert len(build("BzMxNy", d).lines) == 3 * d
    F = x**d + y**d + z**d
    assert grid_component_poly("Mx", fld, d) == F - (x**d - y**d)
    assert grid_component_poly("Ny", fld, d) == F + (x**d - y**d)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_grid_component_products(d):
    # each component on its own: a swap of two components of one group
    # (say Mx and My) leaves the group product unchanged
    fld = tower_field(d)
    for token in GRID_TOKENS:
        assert build(token, d).product_poly() == \
            grid_component_poly(token, fld, d), token


def test_build_rejects_bad_labels():
    with pytest.raises(ValueError):
        build("Q", 4)
    with pytest.raises(ValueError):
        build("", 4)
    with pytest.raises(ValueError, match="duplicate lines"):
        build("B+B", 4)


def _report_rows(entries):
    return [(e.point, e.multiplicity, e.ordinary, e.n_lines, e.on_curve)
            for e in _report_order(entries)]


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_table_census_matches_lines_built_alone(d):
    """Each census of `all`, read through one curve's line table, lists the
    points of a census of lines built alone, in report order."""
    C = FermatCurve(d)
    for key in paper_claims(d)["freeness"]:
        label = key.removesuffix("+F")
        curve = C if key.endswith("+F") else None
        shared = census(build(label, C), curve)
        assert _report_rows(shared) == \
            _report_rows(census(build(label, d), curve)), key


def test_table_arrangements_share_the_table_lines():
    """An arrangement built from a curve holds the table's line objects,
    in label order, and no label repeating a token passes."""
    d = 4
    C = FermatCurve(d)
    table = table_lines(C)
    assert table_lines(C) is table and len(table) == 9 * d + 3
    arr = build("M+triangle", C)
    assert arr.index == tuple(range(3 * d, 6 * d)) + tuple(
        range(9 * d, 9 * d + 3))
    assert all(L is table[i] for L, i in zip(arr.lines, arr.index))
    assert build("BzMxNy", C).lines[0] is build("B", C).lines[0]
    for label in ("B+Bz", "BzMxNy+Mx"):
        with pytest.raises(ValueError, match="duplicate lines"):
            build(label, C)
    with pytest.raises(ValueError, match="not a line of the curve's table"):
        build("A+B", C)


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_census_grid_arrangements(d):
    C = FermatCurve(d)
    cB = census(build("B", d))
    assert multiplicity_multiset(cB) == expect_multiset((3, d * d), (d, 3))
    for e in cB:
        assert e.ordinary
        assert not C.poly.evaluate(e.point).is_zero()
    for label in ("M", "N"):
        cM = census(build(label, d))
        assert multiplicity_multiset(cM) == expect_multiset((2, 3 * d * d),
                                                            (d, 3))
        for e in cM:
            assert not C.poly.evaluate(e.point).is_zero()
    cG = census(build("BzMxNy", d))
    assert multiplicity_multiset(cG) == expect_multiset((3, d * d), (d, 3))
    assert multiplicity_multiset(cG) == multiplicity_multiset(cB)


def test_census_triples_are_sextactic():
    d = 4
    C = FermatCurve(d)
    cG = census(build("BzMxNy", d))
    triples = {e.point for e in cG if e.multiplicity == 3}
    cluster_z = {s.point for s in sextactic_points(C) if s.cluster == "z"}
    assert triples == cluster_z


@pytest.mark.parametrize("d", (3, 4, 5))
def test_census_with_curve(d):
    C = FermatCurve(d)
    cGF = census(build("BzMxNy", d), C)
    assert multiplicity_multiset(cGF) == expect_multiset((4, d * d), (d, 3))
    assert tjurina_total(cGF) == 12 * d * d - 6 * d + 3
    cBF = census(build("B", d), C)
    assert multiplicity_multiset(cBF) == expect_multiset(
        (3, d * d), (d, 3), (2, 3 * d * d))
    on_curve = [e for e in cBF if e.on_curve]
    assert len(on_curve) == 3 * d * d
    assert all(e.ordinary for e in cBF)


def test_census_pair_conservation():
    d = 5
    arr = build("triangle+BzMxNy", d)
    entries = census(arr)
    pairs = sum(e.n_lines * (e.n_lines - 1) // 2 for e in entries)
    n = len(arr.lines)
    assert pairs == n * (n - 1) // 2


def test_tjurina_values():
    d = 5
    assert tjurina_total(census(build("BzMxNy", d))) == 7 * d * d - 6 * d + 3
    assert tjurina_total(census(build("triangle", d))) == 3
    C = FermatCurve(d)
    assert tjurina_total(census(build("BzMxNy", d), C)) == 12 * d * d - 6 * d + 3


def test_tjurina_rejects_non_ordinary():
    # inflection tangents meet the curve with full contact: not ordinary
    d = 3
    C = FermatCurve(d)
    entries = census(build("A", d), C)
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
        arr = build(label, d)
        for e in census(arr, C):
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
    arrs = [build(label, d) for label in ("A+B", "triangle+BzMxNy")]
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
        assert any(e.on_curve for e in census(arr, C))
    assert d not in degrees


def test_census_rejects_a_contacts_map_without_one_line(monkeypatch):
    # x = 0 meets the curve at inflection points, which lie on A_x lines
    d = 3
    C = FermatCurve(d)
    arr = build("triangle+A", d)
    full = arrangements._curve_points_on_line
    monkeypatch.setattr(
        arrangements, "_curve_points_on_line",
        lambda curve, L: {} if L is arr.lines[0] else full(curve, L))
    with pytest.raises(CertificationFailure):
        census(arr, C)


def test_census_rejects_an_incomplete_curve_line_intersection(monkeypatch):
    """Special points that do not exhaust a line's intersection with the
    curve are a failed completeness certificate, not a non-ordinary point."""
    d = 3
    C = FermatCurve(d)
    arr = build("triangle", d)
    assert census(arr, C)
    full = FermatCurve.specials_on_line
    monkeypatch.setattr(FermatCurve, "specials_on_line",
                        lambda self, line: full(self, line)[:-1])
    with pytest.raises(CertificationFailure, match="not exhausted"):
        census(arr, C)


@pytest.mark.parametrize("d", (3, 4, 5, 6, 7, 8))
def test_freeness_paper_suite(d):
    C = FermatCurve(d)
    v = freeness_test(3 * d, tjurina_total(census(build("B", d))))
    assert v.free and v.exponents == (d + 1, 2 * d - 2)
    if d == 3:
        assert v.discriminant_sign == "zero"
    v = freeness_test(3 * d + 3,
                      tjurina_total(census(build("triangle+B", d))))
    assert v.free and v.exponents == (d + 1, 2 * d + 1)
    v = freeness_test(3 * d, tjurina_total(census(build("BzMxNy", d))))
    assert v.free and v.exponents == (d + 1, 2 * d - 2)
    assert v.tau == 7 * d * d - 6 * d + 3
    v = freeness_test(3 * d + 3,
                      tjurina_total(census(build("triangle+BzMxNy", d))))
    assert v.free and v.exponents == (d + 1, 2 * d + 1)
    assert v.tau == 7 * d * d + 9 * d + 3
    v = freeness_test(4 * d, tjurina_total(census(build("BzMxNy", d), C)))
    assert v.free and v.exponents == (2 * d - 2, 2 * d + 1)
    assert v.tau == 12 * d * d - 6 * d + 3

    v = freeness_test(4 * d, tjurina_total(census(build("B", d), C)))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(4 * d - 1), 6 * d * d - 2 * d - 2)
    v = freeness_test(3 * d, tjurina_total(census(build("M", d))))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(3 * d - 1), 3 * d * d - 2)
    v = freeness_test(3 * d + 3, tjurina_total(census(build("M+triangle", d))))
    assert not v.free and v.discriminant_sign == "negative"
    assert v.quadratic == (1, -(3 * d + 2), 3 * d * d + 3 * d + 1)
    v = freeness_test(4 * d, tjurina_total(census(build("M", d), C)))
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
        grid_keys |= {L.line_key() for L in build(token, d).lines}
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
