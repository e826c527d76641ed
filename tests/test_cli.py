"""Command-line interface: report schema, exit codes, determinism."""

import argparse
import ast
import contextlib
import enum
import inspect
import json
import operator
import random
from fractions import Fraction

import pytest

import fermatosc
from conftest import identity, random_element
from fermatosc import arrangements, cli, hompoly, symmetry, tower
from fermatosc.cli import indented_json, main
from fermatosc.fermat import FermatCurve
from fermatosc.hompoly import HomPoly, resultant_order
from fermatosc.symmetry import ConcurrencyReport


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


def test_points_sextactic_d3(capsys):
    code, rep = run_json(["points", "--degree", "3", "--kind", "sextactic"],
                         capsys)
    assert code == 0
    assert rep["schema"] == 1
    assert rep["status"] == "ok"
    assert rep["payload"]["sextactic_count"] == 27
    assert len(rep["payload"]["sextactic"]) == 27
    labels = {(s["cluster"], s["j"], s["k"])
              for s in rep["payload"]["sextactic"]}
    assert len(labels) == 27


def test_points_inflection(capsys):
    code, rep = run_json(["points", "--degree", "4", "--kind", "inflection"],
                         capsys)
    assert code == 0
    assert rep["payload"]["inflection_count"] == 12


def test_conic_report(capsys):
    code, rep = run_json(["conic", "--degree", "4", "--j", "1", "--k", "3"],
                         capsys)
    assert code == 0
    pay = rep["payload"]
    assert pay["contact_order"] == 6
    assert pay["closed_vs_explicit_proportional"]
    assert pay["covariant_vs_closed_proportional"]
    assert pay["series_vs_explicit_proportional"]
    assert pay["conic"]["deg"] == 2


def _drop_first(found):
    return lambda *args: found(*args)[1:]


def _wrong_xy(make):
    """`make` with the xy coefficient of its conic raised by one."""
    def wrong(*args):
        conic = make(*args)
        return conic + HomPoly.monomial(conic.field, (1, 1, 0), 1)
    return wrong


CONIC_D3 = ["conic", "--degree", "3"]


# (record, argv, name in cli, its planted fault, the failures expected)
PLANTED_FAULTS = [
    ("sextactic-count", ["points", "--degree", "3"], "sextactic_points",
     _drop_first, [{"check": "sextactic-count", "got": 26},
                   {"check": "count-formula", "got": 27}]),
    ("count-formula", ["points", "--degree", "3"], "sextactic_count_formula",
     lambda count: lambda curve: count(curve) + 1,
     [{"check": "count-formula", "got": 28}]),
    ("inflection-count", ["points", "--degree", "3", "--kind", "inflection"],
     "inflection_points", _drop_first,
     [{"check": "inflection-count", "got": 8}]),
    ("contact-order", CONIC_D3, "int_mult",
     lambda mult: lambda *args: mult(*args) + 1,
     [{"check": "contact-order", "got": 7}]),
    ("closed_vs_explicit_proportional", CONIC_D3, "osculating_conic_closed",
     _wrong_xy, [{"check": "closed_vs_explicit_proportional"},
                 {"check": "covariant_vs_closed_proportional"}]),
    ("covariant_vs_closed_proportional", CONIC_D3, "osculating_conic_cayley",
     _wrong_xy, [{"check": "covariant_vs_closed_proportional"}]),
    ("series_vs_explicit_proportional", CONIC_D3, "osculating_conic_series",
     _wrong_xy, [{"check": "series_vs_explicit_proportional"}]),
]


@pytest.mark.parametrize("record, argv, name, plant, want", PLANTED_FAULTS,
                         ids=[row[0] for row in PLANTED_FAULTS])
def test_points_and_conic_records_fire(record, argv, name, plant, want,
                                       monkeypatch, capsys):
    """Each record of `points` and `conic` fires on a planted fault in its
    input at d = 3: a dropped point, a count formula off by one, a contact
    order off by one, a conic with one wrong coefficient."""
    monkeypatch.setattr(cli, name, plant(getattr(cli, name)))
    code, rep = run_json(argv, capsys)
    assert (code, rep["status"], rep["failures"]) == (1, "failed", want)
    assert record in [f["check"] for f in want]


def _next_coordinate_line(fixed):
    """`fixed` with the coefficients of its line rotated, which turns a
    coordinate line into another one."""
    def wrong(g):
        c = fixed(g).line_coeffs()
        return HomPoly.line(g.field, c[2], c[0], c[1])
    return wrong


def _wrong_tangent(at):
    """A plant of `FermatCurve.osculating`: the x coefficient of the tangent
    at the point `at(curve)` raised by one."""
    def plant(osculating):
        def wrong(curve, p, n):
            out = osculating(curve, p, n)
            if n == 1 and p == at(curve):
                out = out + HomPoly.monomial(out.field, (1, 0, 0), 1)
            return out
        return wrong
    return plant


def _verify_line(index):
    return ["verify", "--theorem", "main", "--degree", "3",
            "--line-index", str(index)]


# (record, argv, dotted name under fermatosc, its planted fault, the
# failures expected); line 0 is B[0] and line 9 is M[0]
VERIFY_PLANTED_FAULTS = [
    ("tangent-concurrency", _verify_line(0),
     "fermat.FermatCurve.sextactic_on_line", _drop_first,
     [{"check": "tangent-concurrency", "line": "B[0]",
       "detail": "2 sextactic points on the line, need 3"},
      {"check": "conic-common-points", "line": "B[0]",
       "detail": "2 sextactic points on the line, need 3"}]),
    ("tangent-certificates", _verify_line(0), "symmetry.fixed_line",
     _next_coordinate_line,
     [{"check": "tangent-certificates", "line": "B[0]"},
      {"check": "conic-common-points", "line": "B[0]",
       "detail": "restrictions to the fixed line disagree"}]),
    ("conic-common-count", _verify_line(9), "symmetry.disc2",
     lambda disc2: lambda q: q.field.zero,
     [{"check": "conic-common-count", "line": "M[0]",
       "got": 1, "expected": 2}]),
    ("invariant-intersection",
     ["verify", "--theorem", "invariant-intersection", "--degree", "3",
      "--osc-degree", "1"],
     "fermat.FermatCurve.osculating",
     _wrong_tangent(lambda curve: curve.sextactic[0].point),
     [{"check": "invariant-intersection", "automorphism": name,
       "osc_degree": 1, "kind": "sextactic"}
      for name in ("psi", "phi.rho.phi", "psi.rho.psi")]),
]


@pytest.mark.parametrize("record, argv, name, plant, want",
                         VERIFY_PLANTED_FAULTS,
                         ids=[row[0] for row in VERIFY_PLANTED_FAULTS])
def test_verify_records_fire(record, argv, name, plant, want, monkeypatch,
                             capsys):
    """Each record of `verify` fires on a planted fault at d = 3: a point
    dropped from a grid line (which both `FermatoscError` catches record), a
    wrong fixed line, a restricted discriminant forced to zero, one wrong
    tangent coefficient."""
    original = operator.attrgetter(name)(fermatosc)
    monkeypatch.setattr(f"fermatosc.{name}", plant(original))
    code, rep = run_json(argv, capsys)
    assert (code, rep["status"], rep["failures"]) == (1, "failed", want)
    assert record in [f["check"] for f in want]


def _plus_x_power(make):
    """`make` with its polynomial's x^deg coefficient raised by one."""
    def wrong(*args):
        poly = make(*args)
        return poly + HomPoly.monomial(poly.field, (poly.deg, 0, 0), 1)
    return wrong


ALL_D3 = ["all", "--min-degree", "3", "--max-degree", "3"]

# (record, argv, dotted name under fermatosc, its planted fault, the
# failures expected): the records of `hessian2` and of `all`'s opening
# stages
SUITE_PLANTED_FAULTS = [
    ("hessian_matches_closed_form", ["hessian2", "--degree", "3"],
     "fermat.hessian", _plus_x_power,
     [{"check": "hessian_matches_closed_form"}]),
    ("two_hessian_matches_factored_form", ["hessian2", "--degree", "3"],
     "cli.two_hessian", _plus_x_power,
     [{"check": "two_hessian_matches_factored_form"}]),
    ("inflection-suite", ALL_D3, "cli.inflection_points", _drop_first,
     [{"check": "inflection-suite", "degree": 3}]),
    ("sextactic-suite", ALL_D3, "cli.sextactic_count_formula",
     lambda count: lambda curve: count(curve) + 1,
     [{"check": "sextactic-suite", "degree": 3}]),
]


@pytest.mark.parametrize("record, argv, name, plant, want",
                         SUITE_PLANTED_FAULTS,
                         ids=[row[0] for row in SUITE_PLANTED_FAULTS])
def test_hessian2_and_suite_records_fire(record, argv, name, plant, want,
                                         monkeypatch, capsys):
    """Each record of `hessian2` and of `all`'s inflection and sextactic
    stages fires on a planted fault at d = 3: a Hessian or a 2-Hessian with
    one wrong coefficient, an inflection point dropped, a count formula off
    by one."""
    original = operator.attrgetter(name)(fermatosc)
    monkeypatch.setattr(f"fermatosc.{name}", plant(original))
    code, rep = run_json(argv, capsys)
    assert (code, rep["status"], rep["failures"]) == (1, "failed", want)
    assert record in [f["check"] for f in want]


def _wrong_last_conic(hyperosculating):
    """`FermatCurve.hyperosculating` with the xy coefficient of the conic at
    the last sextactic point raised by one."""
    def wrong(curve, s):
        out = hyperosculating(curve, s)
        if s == curve.sextactic[-1]:
            out = out + HomPoly.monomial(out.field, (1, 1, 0), 1)
        return out
    return wrong


ALL_D4 = ["all", "--min-degree", "4", "--max-degree", "4"]

# (id, argv, dotted name under fermatosc, its planted fault, the failures
# expected): a wrong osculating curve at the last point of its set, outside
# the fixed points where `all` compares the conic pipelines
# (`cli.PIPELINE_POINTS`), which `symmetry.contacts` checks directly
CONTACT_PLANTED_FAULTS = [
    ("last-sextactic-conic", ALL_D4, "fermat.FermatCurve.hyperosculating",
     _wrong_last_conic,
     [{"check": "sextactic-suite", "degree": 4},
      {"check": "conic-common-points", "line": "N[10]",
       "detail": "restrictions to the fixed line disagree"}]),
    ("last-inflection-tangent", ALL_D4, "fermat.FermatCurve.osculating",
     _wrong_tangent(lambda curve: curve.inflection[-1]),
     [{"check": "inflection-suite", "degree": 4},
      {"check": "invariant-intersection", "automorphism": "psi",
       "osc_degree": 1, "kind": "inflection"}]),
]


@pytest.mark.parametrize("argv, name, plant, want",
                         [row[1:] for row in CONTACT_PLANTED_FAULTS],
                         ids=[row[0] for row in CONTACT_PLANTED_FAULTS])
def test_contacts_are_checked_at_every_point(argv, name, plant, want,
                                             monkeypatch, capsys):
    """`all` fails on a wrong hyperosculating conic at the last sextactic
    point and on a wrong tangent at the last inflection point, at d = 4,
    where the pipeline comparison leaves the last sextactic point out: the
    contact at every special point is certified."""
    original = operator.attrgetter(name)(fermatosc)
    monkeypatch.setattr(f"fermatosc.{name}", plant(original))
    code, rep = run_json(argv, capsys)
    assert (code, rep["status"], rep["failures"]) == (1, "failed", want)


def _wrong_cayley_at(label):
    """A plant of `cli.osculating_conic_cayley`: the xy coefficient of the
    conic at the sextactic point `label` raised by one."""
    def plant(cayley):
        def wrong(curve, p):
            out = cayley(curve, p)
            if p == curve.sextactic_point(*label).point:
                out = out + HomPoly.monomial(out.field, (1, 1, 0), 1)
            return out
        return wrong
    return plant


def test_a_wrong_cayley_conic_at_a_fixed_point_fails_at_every_seed(
        monkeypatch, capsys):
    """A wrong Cayley conic at the sextactic point (y, 1, 3) fails the
    sextactic suite at d = 4 whatever the seed: `--seed` draws nothing."""
    monkeypatch.setattr(cli, "osculating_conic_cayley",
                        _wrong_cayley_at(("y", 1, 3))(
                            cli.osculating_conic_cayley))
    for seed in range(10):
        code, rep = run_json(ALL_D4 + ["--seed", str(seed)], capsys)
        assert (code, rep["seed"], rep["failures"]) == (
            1, seed, [{"check": "sextactic-suite", "degree": 4}])


def test_the_conic_pipelines_are_compared_at_six_fixed_points(monkeypatch,
                                                              capsys):
    """`all` compares the conic pipelines at point 0 and at the point
    (1, 3) of each cluster, the same six points for every seed."""
    cayley, called = cli.osculating_conic_cayley, []

    def record(curve, p):
        called.append(next((s.cluster, s.j, s.k) for s in curve.sextactic
                           if s.point == p))
        return cayley(curve, p)
    monkeypatch.setattr(cli, "osculating_conic_cayley", record)
    want = [("z", 0, 1), ("z", 1, 3), ("y", 0, 1), ("y", 1, 3), ("x", 0, 1),
            ("x", 1, 3)]
    for d in (3, 5):
        for seed in (0, 7):
            called.clear()
            code, rep = run_json(["all", "--min-degree", str(d),
                                  "--max-degree", str(d), "--seed", str(seed)],
                                 capsys)
            assert (code, called) == (0, want)
            assert rep["payload"]["degrees"][str(d)]["sextactic"][
                "sampled"] == 6


def test_a_wrong_group_element_changes_no_contact(monkeypatch, tmp_path):
    """With the identity for every carrying element, no contact is carried:
    `int_mult` runs once at every special point, and `all` writes the same
    bytes.  Unpatched it runs once per point set."""
    argv = ["all", "--min-degree", "3", "--max-degree", "4", "--out"]
    mult, points = symmetry.int_mult, []
    monkeypatch.setattr(symmetry, "int_mult",
                        lambda f, g, p: points.append(p) or mult(f, g, p))
    plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
    assert main(argv + [str(plain)]) == 0
    assert len(points) == 4
    points.clear()
    monkeypatch.setattr(symmetry, "_orbit_element",
                        lambda field, n, exps: identity(field))
    assert main(argv + [str(patched)]) == 0
    assert plain.read_bytes() == patched.read_bytes()
    assert len(points) == len(set(points)) == (27 + 9) + (48 + 12)


def _identity_carrier(line_carriers):
    """`line_carriers` giving the identity for every pair of lines."""
    return lambda curve, L0, L: [identity(curve.field)]


def _uncertified_collinearity(collinear_sextactic):
    """`collinear_sextactic` that keeps no generator images on the curve."""
    def search(curve):
        lines = collinear_sextactic(curve)
        curve.generator_images = None
        return lines
    return search


def _contacts_not_invariant(contacts):
    """`contacts` that leaves on the curve contacts marked not invariant."""
    def found(curve):
        out = contacts(curve)
        curve.contacts = out._replace(invariant=False)
        return out
    return found


class _Everything:
    """A container that holds every item."""

    def __contains__(self, item):
        return True


def _every_ratio_a_zeta_power(zeta_powers):
    """`FermatCurve.zeta_powers` holding every field element, so that
    `line_carriers` also gives the elements whose scalars are no powers of
    zeta: they map B[0]'s and M[0]'s first points off the sextactic
    points."""
    return property(lambda curve: _Everything())


# (id, dotted name under fermatosc, its plant, whether `all` still carries
# every grid line but B[0] and M[0])
CARRIER_PLANTS = [
    ("identity-carrier", "cli.line_carriers", _identity_carrier, False),
    ("no-collinearity-certificate", "cli.collinear_sextactic",
     _uncertified_collinearity, False),
    ("contacts-not-invariant", "cli.contacts", _contacts_not_invariant,
     False),
    ("every-ratio-a-zeta-power", "fermat.FermatCurve.zeta_powers",
     _every_ratio_a_zeta_power, True),
]


@pytest.mark.parametrize("name, plant, carried",
                         [row[1:] for row in CARRIER_PLANTS],
                         ids=[row[0] for row in CARRIER_PLANTS])
def test_a_wrong_carrier_changes_no_line_outcome(name, plant, carried,
                                                 monkeypatch, tmp_path):
    """`all` checks B[0] and M[0] directly and carries every other grid
    line.  With the identity for every carrier, or with a curve that lacks
    either premise of the carry, no line is carried: the direct line check
    runs at all 9d lines, and `all` writes the same bytes.  Candidates with
    scalars that are no powers of zeta are refused, and the lines are
    carried by the others."""
    argv = ["all", "--min-degree", "3", "--max-degree", "4", "--out"]
    check, labels = cli._verify_line, []
    monkeypatch.setattr(cli, "_verify_line", lambda curve, label, line:
                        labels.append(label) or check(curve, label, line))
    plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
    assert main(argv + [str(plain)]) == 0
    firsts = ["B[0]", "M[0]"] * 2
    assert labels == firsts
    labels.clear()
    monkeypatch.setattr(f"fermatosc.{name}",
                        plant(operator.attrgetter(name)(fermatosc)))
    assert main(argv + [str(patched)]) == 0
    assert plain.read_bytes() == patched.read_bytes()
    assert labels == (firsts if carried else [
        label for d in (3, 4) for label, _ in cli._grid_lines(FermatCurve(d))])


def test_a_carried_line_is_checked_against_its_own_group(monkeypatch,
                                                         capsys):
    """With the paper's count for N lines planted as 1, every N line fails
    its count, each carried from M[0], whose count of 2 passes."""
    claims = cli.paper_claims

    def planted(d):
        out = claims(d)
        out["conic_common_points"]["N"] = 1
        return out
    monkeypatch.setattr(cli, "paper_claims", planted)
    code, rep = run_json(ALL_D3, capsys)
    assert code == 1
    assert rep["failures"] == [
        {"check": "conic-common-count", "line": f"N[{i}]", "got": 2,
         "expected": 1} for i in range(9)]
    assert rep["payload"]["degrees"]["3"]["concurrency"] == {
        "lines_verified": 27, "failures": 9}


def _wrong_tangents_where_b1_is_carried(osculating):
    """`FermatCurve.osculating` with the x coefficient of the tangent raised
    by one at each point of B[1] that a carrier from B[0] maps B[0]'s first
    point to."""
    def wrong(curve, p, n):
        out = osculating(curve, p, n)
        (_, L0), (_, L) = cli._grid_lines(curve)[:2]
        p0 = curve.sextactic_on_line(L0)[0].point
        if n == 1 and p in {h.apply_point(p0)
                            for h in symmetry.line_carriers(curve, L0, L)}:
            out = out + HomPoly.monomial(out.field, (1, 0, 0), 1)
        return out
    return wrong


def test_a_wrong_tangent_at_the_carried_point_is_checked_directly(
        monkeypatch, capsys):
    """A grid line whose carried point has a tangent that is not the image
    of the tangent at B[0]'s first point is not carried: it is checked
    directly, and its tangents fail to meet in one point."""
    monkeypatch.setattr(fermatosc.fermat.FermatCurve, "osculating",
                        _wrong_tangents_where_b1_is_carried(
                            fermatosc.fermat.FermatCurve.osculating))
    code, rep = run_json(ALL_D3, capsys)
    assert code == 1
    assert {"check": "tangent-concurrency", "line": "B[1]",
            "detail": "tangents are not concurrent"} in rep["failures"]


def _flipped_verdict(verdict_of):
    """`freeness_test` with its verdict flipped."""
    def flipped(degree_hat, tau):
        verdict = verdict_of(degree_hat, tau)
        verdict.free = not verdict.free
        return verdict
    return flipped


def _unsigned_koszul(triple_of):
    """`koszul_triple` with its middle entry negated."""
    def unsigned(P, i, j):
        a, b, c = triple_of(P, i, j)
        return a, -b, c
    return unsigned


def _one_grid_line(grid_line):
    """`grid_line` returning line 0 of its group for every index."""
    return lambda token, field, d, i: grid_line(token, field, d, 0)


def _plus_off_line_index(ratios):
    """`FermatCurve._ratios` with each ratio's points followed by the first
    point of another ratio, which lies off every line of the first."""
    def wrong(curve, a, b):
        table = ratios(curve, a, b)
        firsts = [idx[0] for idx in table.values()]
        return {r: idx + [next(i for i in firsts if i not in idx)]
                for r, idx in table.items()}
    return wrong


# (record, argv, dotted name under fermatosc, its planted fault, the
# failures expected): the records of `collinear`, `freeness` and the
# `fatal` record of any command, and the concurrency check of one line
QUERY_PLANTED_FAULTS = [
    ("collinear", ["collinear", "--degree", "4"], "cli.collinear_sextactic",
     _drop_first, [{"check": "collinear", "degree": 4}]),
    ("freeness", ["freeness", "--arrangement", "B", "--degree", "4"],
     "cli.freeness_test", _flipped_verdict,
     [{"check": "freeness", "arrangement": "B", "degree": 4}]),
    ("koszul-syzygy", ["freeness", "--arrangement", "BzMxNy", "--degree", "3"],
     "cli.koszul_triple", _unsigned_koszul,
     [{"check": "koszul-syzygy", "degree": 3}]),
    ("fatal", ["verify", "--theorem", "main", "--degree", "3"],
     "arrangements.grid_line", _one_grid_line,
     [{"check": "fatal",
       "detail": "two lines of the curve's line table coincide"}]),
    ("fatal", ["census", "--arrangement", "B", "--degree", "3",
               "--with-fermat"],
     "fermat.FermatCurve._ratios", _plus_off_line_index,
     [{"check": "fatal", "detail": "ratio table point off its line"}]),
    # line 0 at d = 4 is x - y, whose sextactic points are the first four
    # of `sextactic`; the tangents at the first two meet at (1 : -1 : 0),
    # which the third tangent, raised by x, misses
    ("tangent-concurrency",
     ["verify", "--theorem", "main", "--degree", "4", "--line-index", "0"],
     "fermat.FermatCurve.osculating",
     _wrong_tangent(lambda curve: curve.sextactic[2].point),
     [{"check": "tangent-concurrency", "line": "B[0]",
       "detail": "tangents are not concurrent"}]),
]


def _row_ids(table):
    """Each row's record, with its command appended where an earlier row
    of the table fires the same record."""
    seen, out = set(), []
    for record, argv, *_ in table:
        out.append(f"{record}-{argv[0]}" if record in seen else record)
        seen.add(record)
    return out


@pytest.mark.parametrize("record, argv, name, plant, want",
                         QUERY_PLANTED_FAULTS,
                         ids=_row_ids(QUERY_PLANTED_FAULTS))
def test_collinear_freeness_and_fatal_records_fire(record, argv, name, plant,
                                                   want, monkeypatch, capsys):
    """Each record of `collinear` and `freeness`, and the `fatal` record,
    fires on a planted fault: a line dropped from the collinear lines, a
    flipped freeness verdict, a Koszul triple with a wrong sign, two grid
    lines made equal and a ratio-table point off its line (each a failed
    certificate, exit 1, not a usage error), and a tangent of one line's
    family that misses the others' point."""
    original = operator.attrgetter(name)(fermatosc)
    monkeypatch.setattr(f"fermatosc.{name}", plant(original))
    code, rep = run_json(argv, capsys)
    assert (code, rep["status"], rep["failures"]) == (1, "failed", want)
    assert record in [f["check"] for f in want]


def test_every_failure_record_has_a_planted_fault():
    """The record kinds `cli.py` writes, as `{"check": ...}` literals or
    through a loop over a tuple of names, are exactly the records that the
    planted-fault tables' rows fire: a new record cannot land without a
    row."""
    tree = ast.parse(inspect.getsource(cli))
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            loops.setdefault(node.target.id, set()).update(
                e.value for e in node.iter.elts
                if isinstance(e, ast.Constant))
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "check":
                    kinds |= ({value.value} if isinstance(value, ast.Constant)
                              else loops[value.id])
    tables = (PLANTED_FAULTS, VERIFY_PLANTED_FAULTS, SUITE_PLANTED_FAULTS,
              CONTACT_PLANTED_FAULTS, QUERY_PLANTED_FAULTS)
    assert len(kinds) == 20
    assert kinds == {f["check"] for table in tables for row in table
                     for f in row[-1]}


def test_all_fails_when_a_line_check_fails(monkeypatch, capsys):
    """`all` counts the failed line checks that `verify` reports, under the
    `tangent-concurrency` plant of `VERIFY_PLANTED_FAULTS`, and exits 1."""
    _, _, name, plant, _ = VERIFY_PLANTED_FAULTS[0]
    monkeypatch.setattr(f"fermatosc.{name}",
                        plant(operator.attrgetter(name)(fermatosc)))
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "3"],
                         capsys)
    assert code == 1 and rep["failures"]
    code, suite = run_json(ALL_D3, capsys)
    assert (code, suite["status"]) == (1, "failed")
    concurrency = suite["payload"]["degrees"]["3"]["concurrency"]
    assert concurrency == {"lines_verified": 27,
                           "failures": len(rep["failures"])}


def test_failed_series_oracle_is_a_failed_certificate(monkeypatch, capsys):
    """A branch series whose five conditions admit no conic fails `conic`
    (exit 1, a fatal record), not as a usage error."""
    monkeypatch.setattr(hompoly, "_nullspace", lambda rows, ncols, field: [])
    code, rep = run_json(CONIC_D3, capsys)
    assert (code, rep["status"]) == (1, "failed")
    assert rep["failures"] == [{"check": "fatal", "detail":
                                "no conic with the required contact"}]


def test_hessian2(capsys):
    code, rep = run_json(["hessian2", "--degree", "5"], capsys)
    assert code == 0
    assert rep["payload"]["hessian_matches_closed_form"]
    assert rep["payload"]["two_hessian_matches_factored_form"]


def test_census_with_fermat(capsys):
    code, rep = run_json(["census", "--arrangement", "B", "--degree", "5",
                          "--with-fermat"], capsys)
    assert code == 0
    ms = rep["payload"]["multiplicity_multiset"]
    assert ms == {"2": 75, "3": 25, "5": 3}
    assert rep["payload"]["tjurina_total"] == 4 * 25 + 3 * 16 + 75


def test_freeness_reports(capsys):
    code, rep = run_json(["freeness", "--arrangement", "BzMxNy",
                          "--degree", "4"], capsys)
    assert code == 0
    v = rep["payload"]["verdict"]
    assert v["free"] and v["exponents"] == [5, 6]
    checks = {c["candidate"]: c["is_syzygy"]
              for c in rep["payload"]["syzygy_checks"]}
    assert checks == {"grid-high": False, "grid-low": False,
                      "fermat-grid-high": True, "fermat-grid-low": True,
                      "koszul-xy": True}

    code, rep = run_json(["freeness", "--arrangement", "M", "--degree", "4"],
                         capsys)
    assert code == 0
    v = rep["payload"]["verdict"]
    assert not v["free"]
    assert v["discriminant_sign"] == "negative"


@pytest.mark.parametrize("label, checked", [
    ("BzMxNy", True), ("NyBzMx", True), ("Bz+Mx+Ny", True),
    ("ByMzNx", False)])
def test_freeness_syzygy_checks_only_of_bz_mx_ny(label, checked, capsys):
    # the checks are of (x^d - y^d)(z^d + 2y^d)(z^d + 2x^d), the product of
    # Bz, Mx and Ny; the rotation ByMzNx has another polynomial
    code, rep = run_json(["freeness", "--arrangement", label,
                          "--degree", "3"], capsys)
    assert code == 0
    assert ("syzygy_checks" in rep["payload"]) == checked


@pytest.mark.parametrize("label, extra, claim", [
    ("NyBzMx", [], "BzMxNy"), ("Bz+Mx+Ny", [], "BzMxNy"),
    ("B+triangle", [], "triangle+B"),
    ("BzMxNy", ["--with-fermat"], "BzMxNy+F"), ("A", [], None),
    ("Bz", [], None)])
def test_freeness_checks_the_papers_verdict(label, extra, claim, monkeypatch,
                                             capsys):
    """`freeness` fails, as `all` does, when its verdict misses the paper's
    claim on the same lines, in any label order; here every verdict is
    flipped.  A label the paper states nothing about is not checked."""
    monkeypatch.setattr(cli, "freeness_test",
                        _flipped_verdict(cli.freeness_test))
    code, rep = run_json(["freeness", "--arrangement", label,
                          "--degree", "4"] + extra, capsys)
    want = [] if claim is None else [
        {"check": "freeness", "arrangement": claim, "degree": 4}]
    assert (code, rep["failures"]) == (1 if want else 0, want)


def test_freeness_checks_the_koszul_relation(monkeypatch, capsys):
    """A Koszul triple that is no relation fails `freeness` of BzMxNy."""
    monkeypatch.setattr(cli, "koszul_triple",
                        _unsigned_koszul(cli.koszul_triple))
    code, rep = run_json(["freeness", "--arrangement", "BzMxNy",
                          "--degree", "3"], capsys)
    assert code == 1 and rep["status"] == "failed"
    assert rep["failures"] == [{"check": "koszul-syzygy", "degree": 3}]
    assert rep["payload"]["syzygy_checks"][-1] == {"candidate": "koszul-xy",
                                                   "is_syzygy": False}


def test_collinear_d3(capsys):
    code, rep = run_json(["collinear", "--degree", "3"], capsys)
    assert code == 0
    pay = rep["payload"]
    assert (pay["line_count"], pay["intra_cluster"], pay["mixed_cluster"]) \
        == (81, 27, 54)


def test_collinear_checks_the_papers_counts(monkeypatch, capsys):
    """`collinear` fails, as `all` does, when the lines found miss the
    paper's counts: here one line of the 36 at d = 4 is dropped."""
    monkeypatch.setattr(cli, "collinear_sextactic",
                        _drop_first(cli.collinear_sextactic))
    code, rep = run_json(["collinear", "--degree", "4"], capsys)
    assert code == 1 and rep["status"] == "failed"
    assert rep["failures"] == [{"check": "collinear", "degree": 4}]
    assert rep["payload"]["line_count"] == 35


def test_verify_main_single_line(capsys):
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "4",
                          "--line-index", "0"], capsys)
    assert code == 0
    assert rep["payload"]["line_count"] == 1
    entry = rep["payload"]["lines"][0]
    assert entry["tangent"]["count"] == 1
    assert entry["conic"]["count"] == 2


def test_verify_line_index_matches_the_full_report(capsys):
    """`--line-index i` builds only the lines of line i's token; its entry
    is the full report's entry i, label included, for every grid line at
    d = 4."""
    code, full = run_json(["verify", "--theorem", "main", "--degree", "4"],
                          capsys)
    assert code == 0 and full["payload"]["line_count"] == 36
    for i, entry in enumerate(full["payload"]["lines"]):
        code, rep = run_json(["verify", "--theorem", "main", "--degree", "4",
                              "--line-index", str(i)], capsys)
        assert code == 0
        assert rep["payload"]["lines"] == [entry]
    for i in (-1, 36):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "main", "--degree", "4",
                  "--line-index", str(i)])
        assert exc.value.code == 2
        assert "line index out of range 0..35" in capsys.readouterr().err


@pytest.mark.parametrize("argv, tokens", [
    (["verify", "--theorem", "main", "--degree", "4", "--line-index", "13"],
     {"Mx"}),
    (["freeness", "--arrangement", "BzMxNy", "--degree", "4",
      "--with-fermat"], {"Bz", "Mx", "Ny"}),
    (["census", "--arrangement", "triangle+A", "--degree", "4"],
     {"Az", "Ax", "Ay", "triangle"}),
], ids=("verify", "freeness", "census"))
def test_queries_build_only_their_tokens(argv, tokens, monkeypatch, capsys):
    """A query builds the lines of its own tokens in the curve's table and
    no other line."""
    curves, make_curve = [], cli.FermatCurve
    monkeypatch.setattr(cli, "FermatCurve",
                        lambda d: curves.append(make_curve(d)) or curves[-1])
    code, _ = run_json(argv, capsys)
    [C] = curves
    assert code == 0 and set(C.lines) == tokens
    assert len(C.line_keys) == sum(len(C.lines[tok]) for tok in tokens)


def test_main_calls_share_no_state(capsys):
    """The parser is built once per process, and a second call sees only
    its own arguments: no flag or value of the first survives."""
    assert cli._parser() is cli._parser()
    argv_a = ["points", "--degree", "4", "--kind", "all"]
    argv_b = ["points", "--degree", "4"]
    argv_c = ["all", "--max-degree", "3", "--seed", "7"]
    fresh = cli.build_parser()
    for argv in (argv_a, argv_b, argv_c, argv_a, argv_b):
        assert cli._parser().parse_args(argv) == fresh.parse_args(argv)
    code_a, rep_a = run_json(argv_a, capsys)
    code_b, rep_b = run_json(argv_b, capsys)
    code_c, rep_c = run_json(argv_c, capsys)
    assert code_a == code_b == code_c == 0
    assert (rep_a["seed"], rep_a["precision_bits"]) == (None, 128)
    assert (rep_b["seed"], rep_b["precision_bits"]) == (None, 128)
    assert (rep_c["degree"], rep_c["seed"], rep_c["precision_bits"]) \
        == (None, 7, None)
    assert rep_a["payload"] != rep_b["payload"]
    assert rep_b == run_json(argv_b, capsys)[1]
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "3",
                          "--line-index", "2"], capsys)
    assert rep["payload"]["line_count"] == 1
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "3"],
                         capsys)
    assert rep["payload"]["line_count"] == 27


def test_verify_invariant(capsys):
    code, rep = run_json(["verify", "--theorem", "invariant-intersection",
                          "--degree", "3", "--osc-degree", "2"], capsys)
    assert code == 0
    assert rep["payload"]["all_invariant"]


def test_panel_member_without_a_fixed_line_fails(monkeypatch, capsys):
    """A panel automorphism with no pointwise-fixed line fails the run
    instead of dropping its checks."""
    panel = cli.generator_panel
    monkeypatch.setattr(cli, "generator_panel", lambda curve: (
        panel(curve) + (("id", identity(curve.field)),)))
    code, rep = run_json(["verify", "--theorem", "invariant-intersection",
                          "--degree", "3", "--osc-degree", "1"], capsys)
    assert code == 1 and rep["status"] == "failed"
    assert [f["check"] for f in rep["failures"]] == ["fatal"]


def test_verify_main_full_d3(capsys):
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "3"],
                         capsys)
    assert code == 0
    assert rep["payload"]["line_count"] == 27
    for entry in rep["payload"]["lines"]:
        assert entry["tangent"]["count"] == 1
        expected = 1 if entry["line_label"].startswith("B") else 2
        assert entry["conic"]["count"] == expected


def test_usage_error_exit_code(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--degree", "4"])     # missing --arrangement
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--arrangement", "nonsense", "--degree", "4"])
    assert exc.value.code == 2
    # every command runs in one process: there is no --jobs flag
    with pytest.raises(SystemExit) as exc:
        main(["points", "--degree", "3", "--jobs", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["all", "--max-degree", "3", "--collinear-cap", "9"])
    assert exc.value.code == 2
    capsys.readouterr()
    # sextactic points have odd k
    with pytest.raises(SystemExit) as exc:
        main(["conic", "--degree", "4", "--k", "2"])
    assert exc.value.code == 2
    assert "no sextactic point (z, 0, 2)" in capsys.readouterr().err

    def no_suite(d):
        raise RuntimeError(f"a suite started at d = {d}")

    monkeypatch.setattr(cli, "FermatCurve", no_suite)
    with pytest.raises(SystemExit) as exc:
        main(["all", "--max-degree", "13"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["collinear", "--degree", "13"])
    assert exc.value.code == 2


def test_byte_stability(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["verify", "--theorem", "main", "--degree", "3",
                 "--out", str(p1)]) == 0
    assert main(["verify", "--theorem", "main", "--degree", "3",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_all_small_range(tmp_path):
    out = tmp_path / "all.json"
    assert main(["all", "--min-degree", "3", "--max-degree", "3",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "ok"
    sec = rep["payload"]["degrees"]["3"]
    assert sec["collinear"]["line_count"] == 81
    assert sec["sextactic"]["count"] == 27
    assert sec["freeness"]["B"]["free"]
    assert sec["invariant_intersection"]["all_invariant"]


def test_all_freeness_matches_the_freeness_command(capsys):
    """`all` reads its ten arrangements through the curve's line table; its
    freeness section is what the `freeness` command reports for each
    arrangement on a curve of its own."""
    code, suite = run_json(["all", "--min-degree", "3", "--max-degree", "4"],
                           capsys)
    assert code == 0
    for d in (3, 4):
        frees = suite["payload"]["degrees"][str(d)]["freeness"]
        assert list(frees) == list(cli.paper_claims(d)["freeness"])
        for key, got in frees.items():
            argv = ["freeness", "--arrangement", key.removesuffix("+F"),
                    "--degree", str(d)] + (["--with-fermat"]
                                           if key.endswith("+F") else [])
            code, rep = run_json(argv, capsys)
            verdict = rep["payload"]["verdict"]
            assert code == 0
            assert got == {k: verdict[k] for k in got}, (d, key)


def test_all_meets_each_pair_and_certifies_each_line_once(monkeypatch,
                                                         capsys):
    """At d = 6 the ten censuses of `all` cross 1,701 pairs of lines, of
    which 696 are distinct, and read the curve's contacts with 54 lines, of
    which 42 are distinct: each distinct pair is met once and each distinct
    line's contacts certified once, by Bezout's count with no restriction
    of the curve to the line.  The concurrency stage reads the same line
    objects, and no stage builds the A lines."""
    curves, crossed, restricted, inside, sizes = [], [], [], [], []
    make_curve, real_census = cli.FermatCurve, cli.census
    real_cross = arrangements.cross
    real_contacts = arrangements._curve_points_on_line
    real_restrict, restrictions = arrangements.restrict_to_line, []

    def census(arr, with_curve=False):
        sizes.append((len(arr.lines), with_curve))
        inside.append(arr)
        try:
            return real_census(arr, with_curve)
        finally:
            inside.pop()
    monkeypatch.setattr(cli, "FermatCurve",
                        lambda d: curves.append(make_curve(d)) or curves[-1])
    monkeypatch.setattr(cli, "census", census)
    monkeypatch.setattr(arrangements, "cross", lambda a, b: (
        crossed.append(1) if inside else None) or real_cross(a, b))
    monkeypatch.setattr(arrangements, "_curve_points_on_line",
                        lambda curve, L: restricted.append(L)
                        or real_contacts(curve, L))
    monkeypatch.setattr(arrangements, "restrict_to_line",
                        lambda c, L: restrictions.append(L)
                        or real_restrict(c, L))
    code, _ = run_json(["all", "--min-degree", "6", "--max-degree", "6"],
                       capsys)
    assert code == 0
    [C] = curves
    assert sum(n * (n - 1) // 2 for n, _ in sizes) == 1701
    assert sum(n for n, with_curve in sizes if with_curve) == 54
    assert len(crossed) == len(C.meets) == 696
    assert len(restricted) == len({id(L) for L in restricted}) == 42
    assert len(C.line_contacts) == 42
    assert restrictions == []
    assert set(C.lines) == set(arrangements.TABLE_TOKENS[:9] + ("triangle",))
    table = [L for tok in arrangements.TABLE_TOKENS[:9] for L in C.lines[tok]]
    assert all(L is table[i] for i, (_, L) in enumerate(cli._grid_lines(C)))
    assert {id(L) for L in C.line_families} <= {id(L) for L in table}


def test_all_renders_no_line_report(tmp_path, monkeypatch):
    """`all` reports only counts of the per-line certificates, so it writes
    the same bytes when a concurrency report cannot be rendered."""
    plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
    argv = ["all", "--max-degree", "3", "--out"]
    assert main(argv + [str(plain)]) == 0

    def no_render(self):
        raise AssertionError("a per-line report rendered")
    monkeypatch.setattr(ConcurrencyReport, "to_json_dict", no_render)
    assert main(argv + [str(patched)]) == 0
    assert plain.read_bytes() == patched.read_bytes()


def test_all_checks_every_inflection_point(tmp_path):
    """The tangent contact is certified at all 3d inflection points and the
    conic contact at all 3d^2 sextactic points, above d = 6 too; the conic
    pipelines are compared at the six fixed points."""
    out = tmp_path / "all.json"
    assert main(["all", "--min-degree", "7", "--max-degree", "7",
                 "--out", str(out)]) == 0
    section = json.loads(out.read_text())["payload"]["degrees"]["7"]
    assert section["inflection"] == {"count": 21, "checked": 21,
                                     "tangent_contacts": [7]}
    assert (section["sextactic"]["sampled"],
            section["sextactic"]["conic_contacts"]) == (6, [6])


@pytest.mark.parametrize("argv", [
    ["all", "--min-degree", "3", "--max-degree", "5"],
    ["verify", "--theorem", "main", "--degree", "5"],
    ["census", "--arrangement", "triangle+BzMxNy", "--degree", "6",
     "--with-fermat"],
], ids=("all", "verify", "census"))
def test_memo_leaves_reports_unchanged(argv, tmp_path, monkeypatch):
    """The same bytes with the tower memo and without it.  Patching
    `tower.memoized` turns off every block, the collinearity search's own
    included: each branch lift records the block it runs in."""
    lift, blocks = hompoly.branch_series, []

    def traced_lift(*args):
        blocks.append(tower._MEMO.get())
        return lift(*args)

    monkeypatch.setattr(hompoly, "branch_series", traced_lift)
    memo, plain = tmp_path / "memo.json", tmp_path / "plain.json"
    assert main(argv + ["--out", str(memo)]) == 0
    assert all(m is not None for m in blocks)
    lifts = len(blocks)
    assert lifts or argv[0] != "all"
    blocks.clear()
    monkeypatch.setattr(tower, "memoized", contextlib.nullcontext)
    assert main(argv + ["--out", str(plain)]) == 0
    assert len(blocks) == lifts and all(m is None for m in blocks)
    assert memo.read_bytes() == plain.read_bytes()


def test_failure_exit_code(monkeypatch, capsys):
    import fermatosc.cli as cli

    def synthetic(args):
        return {"value": 1}, [{"check": "synthetic-failure"}]

    monkeypatch.setitem(cli.COMMANDS, "hessian2", synthetic)
    assert cli.main(["hessian2", "--degree", "3"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "failed"
    assert rep["failures"] == [{"check": "synthetic-failure"}]


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path
    # the subprocess does not see the sys.path entry conftest.py adds
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "fermatosc", "points", "--degree", "3"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["payload"]["sextactic_count"] == 27


def test_unwritable_out_exits_before_work(tmp_path, monkeypatch):
    def no_suite(d):
        raise RuntimeError(f"a suite started at d = {d}")

    monkeypatch.setattr(cli, "FermatCurve", no_suite)
    argv = ["all", "--min-degree", "3", "--max-degree", "4", "--out"]
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(out)])
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    # a directory, or an existing file, that the process may not write
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    for denied, out in ((tmp_path, tmp_path / "x.json"), (kept, kept)):
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode, denied=str(denied):
                            path != denied)
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(out)])
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "kept\n"


def test_verify_rejects_options_its_theorem_ignores(monkeypatch, capsys):
    def no_curve(d):
        raise RuntimeError(f"a curve was built at d = {d}")

    monkeypatch.setattr(cli, "FermatCurve", no_curve)
    for argv, flag in (
            (["--theorem", "invariant-intersection", "--degree", "3",
              "--line-index", "99999"], "--line-index"),
            (["--theorem", "invariant-intersection", "--degree", "3",
              "--line-index", "0"], "--line-index"),
            (["--theorem", "main", "--degree", "3", "--osc-degree", "2"],
             "--osc-degree")):
        with pytest.raises(SystemExit) as exc:
            main(["verify"] + argv)
        assert exc.value.code == 2
        assert f"{flag} does not apply" in capsys.readouterr().err


def test_each_option_only_on_the_commands_that_read_it(monkeypatch, capsys):
    """`--seed` is defined on `all` only, which echoes it in the header and
    draws nothing, and no command defines `--precision`: any other command
    exits 2 on `--seed` before a curve is built, as every command does on
    the deleted `--precision` and `--format`, and `resultant_order` takes
    no attempt budget."""
    commands = next(a.choices for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert len(commands) == 9
    takes = {name: {opt for a in sp._actions for opt in a.option_strings}
             for name, sp in commands.items()}
    assert {n for n, opts in takes.items() if "--seed" in opts} == {"all"}
    assert not any("--precision" in opts for opts in takes.values())
    assert all({"--degree", "--out"} <= opts
               for n, opts in takes.items() if n != "all")

    def no_curve(d):
        raise RuntimeError(f"a curve was built at d = {d}")

    monkeypatch.setattr(cli, "FermatCurve", no_curve)
    required = {"census": ["--arrangement", "B"],
                "freeness": ["--arrangement", "B"],
                "verify": ["--theorem", "main"]}
    for name in commands:
        base = [name] + (["--max-degree", "3"] if name == "all"
                         else ["--degree", "3"]) + required.get(name, [])
        for flag in ("--seed", "--precision", "--format"):
            if flag in takes[name]:
                continue
            with pytest.raises(SystemExit) as exc:
                main(base + [flag, "64"])
            assert exc.value.code == 2, (name, flag)
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert "max_attempts" not in inspect.signature(resultant_order).parameters


def test_freeness_of_a_non_ordinary_arrangement_is_a_usage_error(capsys):
    """A+F has tangential contacts, which the quadratic criterion cannot
    judge: exit 2, as for any usage error; its census still runs."""
    argv = ["--arrangement", "A", "--with-fermat", "--degree", "4"]
    with pytest.raises(SystemExit) as exc:
        main(["freeness"] + argv)
    assert exc.value.code == 2
    assert "non-ordinary point" in capsys.readouterr().err
    code, rep = run_json(["census"] + argv, capsys)
    assert code == 0 and rep["payload"]["tjurina_total"] is None


# -- the report writer ----------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Label(str):
    pass


WRITER_SCALARS = [
    "", "plain", 'quote " and \\ backslash', "tab\tnewline\nnul\x00bell\x07",
    "\u00e9 \u2211 \U0001d53d \u2028", "lone \ud800 surrogate",
    0, 1, -7, 10**40, -(10**25), True, False, None,
    0.1, -2.5, 1e16, -1e-300, -0.0, 0.0,
]
WRITER_KEYS = ["", "k", "\u00e9\n\"", "lone \udfff", "\u2028"]


def _writer_value(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(WRITER_SCALARS)
    items = [_writer_value(rng, depth - 1)
             for _ in range(rng.choice((0, 0, 1, 2, 3, 5)))]
    if rng.random() < 0.5:
        return items
    return {rng.choice(WRITER_KEYS): v for v in items}


def test_indented_json_matches_json_dumps():
    """On the types a report holds, the writer is `json.dumps`."""
    rng = random.Random(1600)
    for _ in range(400):
        value = _writer_value(rng, 6)
        assert indented_json(value) == json.dumps(value, indent=2,
                                                  allow_nan=False)


def test_indented_json_rejects_other_keys():
    """A key that is no str, and a tuple, an IntEnum, a str subclass or a
    Fraction anywhere, raise TypeError; a NaN or an infinity anywhere
    raises ValueError."""
    for value in ({(1, 2): 0}, [{"a": {b"x": 1}}], {Fraction(1, 2): 0},
                  {3: 0}, {None: 0}, (1, 2), [{"k": (1,)}], Level.HIGH,
                  [Level.LOW], {"k": Label('sub"str')}, Fraction(-3, 4)):
        with pytest.raises(TypeError):
            indented_json(value)
    for value in (float("nan"), [float("inf")], {"k": float("-inf")}):
        with pytest.raises(ValueError):
            indented_json(value)


@pytest.mark.parametrize("argv", [
    ["points", "--degree", "3", "--kind", "all"],
    ["tangents", "--degree", "4", "--kind", "all"],
    ["conic", "--degree", "4", "--j", "1", "--k", "3"],
    ["hessian2", "--degree", "3"],
    ["census", "--arrangement", "B", "--degree", "4", "--with-fermat"],
    ["freeness", "--arrangement", "BzMxNy", "--degree", "3"],
    ["collinear", "--degree", "3"],
    ["verify", "--theorem", "main", "--degree", "4"],
    ["verify", "--theorem", "invariant-intersection", "--degree", "3"],
    ["all", "--min-degree", "3", "--max-degree", "3"],
], ids=lambda argv: argv[0])
def test_reports_match_json_dumps(argv, monkeypatch, capsys):
    """Every text the writer makes, whole report or nested value, equals
    the standard library's at the same indent."""
    writer, written = cli.indented_json, []

    def checked(obj, pad=""):
        text = writer(obj, pad)
        ref = json.dumps(obj, indent=2, allow_nan=False).replace("\n",
                                                               "\n" + pad)
        assert text == ref
        written.append(pad)
        return text

    monkeypatch.setattr(cli, "indented_json", checked)
    assert main(argv) == 0
    capsys.readouterr()
    assert "" in written


@pytest.mark.parametrize("d", [3, 4, 5, 8, 12])
def test_element_json_matches_fraction_form(d):
    fld = tower.tower_field(d)
    rng = random.Random(1610 + d)
    elems = [random_element(fld, rng, max_terms=6, num_bound=60,
                            den_choices=(1, 2, 3, 4, 6, 9, 35))
             for _ in range(40)]
    elems += [a * b for a, b in zip(elems, elems[1:])]
    assert any(e.den > 1 for e in elems)
    assert any(n < 0 for e in elems for _, _, n in e.terms)
    for e in elems:
        ref = [[i, j, f"{c.numerator}/{c.denominator}"]
               for i, j, c in e.nonzero_terms()]
        assert e.to_json_dict() == {"d": d, "terms": ref}
