"""Command-line front end: exact reports as JSON.

Every subcommand assembles a Report object:

    {"schema": 1, "command": ..., "degree": ..., "seed": ...,
     "precision_bits": ..., "status": "ok"|"failed",
     "failures": [...], "payload": {...}}

An option is defined only on the commands that read it: `--seed` on `all`.
A header key that does not apply to the command is null, as "degree" is
for `all`; e.g. `census` reports "seed": null, "precision_bits": null.

The exit code is 0 iff no certificate failed; usage errors exit 2.  All
numbers in payloads are exact (serialized field elements or integers)
except fields named "approx", which are display-only complex evaluations
of `points` and `conic`; only those commands load `mpmath`.  Their
embedding runs at a fixed 128 bits, the "precision_bits" of their
reports.  Every command runs in one process, and none loads
`multiprocessing`.

A report holds dicts with str keys, lists, str, int, finite float, bool
and None, and nothing else.  `indented_json` writes exactly these types,
as `json.dumps(report, indent=2)` writes them, and raises on any other:
CPython's `json` encodes in C only without an indent, and its pure-Python
indenting encoder was the slowest step of the largest reports.  An
unwritable `--out` is a usage error, raised before any work starts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from . import __version__
from .arrangements import (TABLE_TOKENS, build, census, collinear_sextactic,
                           freeness_test, grid_product_poly, koszul_triple,
                           multiplicity_multiset, parse_label,
                           syzygy_candidates, tjurina_total, token_lines,
                           verify_syzygy)
from .errors import FermatoscError, NonOrdinary
from .fermat import (FermatCurve, hyperosculating_conic, inflection_points,
                     osculating_conic_cayley, osculating_conic_closed,
                     sextactic_count_formula, sextactic_points, tangent_line,
                     two_hessian, two_hessian_factored)
from .hompoly import HomPoly, int_mult, osculating_conic_series
from .symmetry import (conic_common_points, contacts, curve_orbit,
                       generator_panel, tangent_concurrency,
                       verify_invariant_intersection)
from . import tower

KINDS = ("sextactic", "inflection", "all")

# highest degree `all` and `collinear` accept: the highest any workload or
# test runs; the suite's cost grows steeply with d
ALL_MAX_DEGREE = 12

# bits of the display embedding behind the approx columns: the columns are
# doubles, so more bits change only the rounding noise of exact zeros
APPROX_BITS = 128


def paper_claims(d: int) -> dict:
    """The paper's values at degree d that the reports are checked against."""
    return {
        "inflection_count": 3 * d,
        "inflection_tangent_contact": d,
        "sextactic_count": 3 * d * d,
        "conic_contact": 6,
        # common points of the d hyperosculating conics along a grid line,
        # by grid group
        "conic_common_points": {"B": 1 if d == 3 else 2, "M": 2, "N": 2},
        # (free, exponents) per arrangement, in report order; "+F" adds the
        # curve itself
        "freeness": {
            "B": (True, [d + 1, 2 * d - 2]),
            "M": (False, None),
            "N": (False, None),
            "BzMxNy": (True, [d + 1, 2 * d - 2]),
            "triangle+B": (True, [d + 1, 2 * d + 1]),
            "triangle+BzMxNy": (True, [d + 1, 2 * d + 1]),
            "M+triangle": (False, None),
            "B+F": (False, None),
            "BzMxNy+F": (True, [2 * d - 2, 2 * d + 1]),
            "M+F": (False, None)},
        # (lines, intra-cluster, mixed-cluster) through three or more
        # sextactic points; every such line holds exactly d of them
        "collinear": (81, 27, 54) if d == 3 else (9 * d, 9 * d, 0),
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fermatosc",
        description="Exact osculating geometry of Fermat curves: special "
                    "points, conics, arrangements, freeness and concurrency "
                    "verification.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, degree=True):
        if degree:
            sp.add_argument("--degree", type=int, required=True,
                            help="curve degree d >= 3")
        sp.add_argument("--out", help="write the JSON report to this path")

    sp = sub.add_parser("points", help="list special points")
    common(sp)
    sp.add_argument("--kind", choices=KINDS, default="sextactic")

    sp = sub.add_parser("tangents", help="tangent lines at special points")
    common(sp)
    sp.add_argument("--kind", choices=KINDS, default="sextactic")

    sp = sub.add_parser("conic", help="osculating conic data at one sextactic point")
    common(sp)
    sp.add_argument("--cluster", choices=("z", "y", "x"), default="z")
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--k", type=int, default=1)

    sp = sub.add_parser("hessian2", help="Hessian and 2-Hessian identities")
    common(sp)

    sp = sub.add_parser("census", help="singularity census of an arrangement")
    common(sp)
    sp.add_argument("--arrangement", required=True)
    sp.add_argument("--with-fermat", action="store_true")

    sp = sub.add_parser("freeness", help="Tjurina total and freeness verdict")
    common(sp)
    sp.add_argument("--arrangement", required=True)
    sp.add_argument("--with-fermat", action="store_true")

    sp = sub.add_parser("collinear", help="lines through three or more sextactic points")
    common(sp)

    sp = sub.add_parser("verify", help="mechanized concurrency verification")
    common(sp)
    sp.add_argument("--theorem", choices=("main", "invariant-intersection"),
                    required=True)
    sp.add_argument("--line-index", type=int, default=None,
                    help="restrict to one grid line (index into B+M+N)")
    sp.add_argument("--osc-degree", type=int, choices=(1, 2), default=None)

    sp = sub.add_parser("all", help="full verification suite over a degree range")
    common(sp, degree=False)
    sp.add_argument("--min-degree", type=int, default=3)
    sp.add_argument("--max-degree", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the sampled check that the conic "
                         "pipelines agree")
    return p


# -- payload helpers ----------------------------------------------------------


def _point_payload(s):
    approx = s.point.approx(APPROX_BITS)
    return {"cluster": s.cluster, "j": s.j, "k": s.k,
            "coords": s.point.to_json(),
            "approx": [[v.real, v.imag] for v in approx]}


def _inflection_payload(p, idx):
    approx = p.approx(APPROX_BITS)
    return {"index": idx, "coords": p.to_json(),
            "approx": [[v.real, v.imag] for v in approx]}


def _grid_lines(curve):
    """The 9d grid lines of B+M+N with their labels, certified distinct:
    the curve's own lines (`token_lines`)."""
    return [_grid_line(curve, i) for i in range(9 * curve.d)]


def _grid_line(curve, index):
    """Grid line `index` of B+M+N, in group order, with its label: line
    `index % d` of its token's lines in the curve's table, so a one-line
    query builds only its token's d lines."""
    d = curve.d
    if not 0 <= index < 9 * d:
        raise ValueError(f"line index out of range 0..{9 * d - 1}")
    token = TABLE_TOKENS[index // d]
    line = token_lines(curve, token)[index % d]
    return f"{token[0]}[{index % (3 * d)}]", line


def cmd_points(args):
    curve = FermatCurve(args.degree)
    claims = paper_claims(args.degree)
    payload, failures = {}, []
    if args.kind in ("sextactic", "all"):
        pts = sextactic_points(curve)
        payload["sextactic"] = [_point_payload(s) for s in pts]
        payload["sextactic_count"] = len(pts)
        payload["count_formula"] = sextactic_count_formula(curve)
        if len(pts) != claims["sextactic_count"]:
            failures.append({"check": "sextactic-count", "got": len(pts)})
        if payload["count_formula"] != len(pts):
            failures.append({"check": "count-formula",
                             "got": payload["count_formula"]})
    if args.kind in ("inflection", "all"):
        pts = inflection_points(curve)
        payload["inflection"] = [_inflection_payload(p, i)
                                 for i, p in enumerate(pts)]
        payload["inflection_count"] = len(pts)
        if len(pts) != claims["inflection_count"]:
            failures.append({"check": "inflection-count", "got": len(pts)})
    return payload, failures


def cmd_tangents(args):
    curve = FermatCurve(args.degree)
    payload, failures = {"tangents": []}, []
    if args.kind in ("sextactic", "all"):
        for s in sextactic_points(curve):
            T = tangent_line(curve, s.point)
            payload["tangents"].append(
                {"at": {"cluster": s.cluster, "j": s.j, "k": s.k},
                 "line": T.to_json_dict()})
    if args.kind in ("inflection", "all"):
        for i, p in enumerate(inflection_points(curve)):
            T = tangent_line(curve, p)
            payload["tangents"].append(
                {"at": {"inflection_index": i}, "line": T.to_json_dict()})
    return payload, failures


def cmd_conic(args):
    curve = FermatCurve(args.degree)
    s = curve.sextactic_point(args.cluster, args.j, args.k)
    if s is None:
        raise ValueError(f"no sextactic point ({args.cluster}, {args.j}, {args.k})")
    O = hyperosculating_conic(curve, s)
    closed = osculating_conic_closed(curve, s.point)
    cayley = osculating_conic_cayley(curve, s.point)
    series = osculating_conic_series(curve.poly, s.point)
    mult = int_mult(curve.poly, O, s.point)
    payload = {
        "point": _point_payload(s),
        "conic": O.to_json_dict(),
        "closed_form": closed.to_json_dict(),
        "closed_vs_explicit_proportional": closed.proportional(O),
        "covariant_vs_closed_proportional": cayley.proportional(closed),
        "series_vs_explicit_proportional": series.proportional(O),
        "contact_order": mult,
    }
    failures = []
    for key in ("closed_vs_explicit_proportional",
                "covariant_vs_closed_proportional",
                "series_vs_explicit_proportional"):
        if not payload[key]:
            failures.append({"check": key})
    if mult != paper_claims(args.degree)["conic_contact"]:
        failures.append({"check": "contact-order", "got": mult})
    return payload, failures


def cmd_hessian2(args):
    return _hessian2(FermatCurve(args.degree))


def _hessian2(curve):
    d = curve.d
    H = curve.hessian
    expected = HomPoly.monomial(curve.field, (d - 2, d - 2, d - 2),
                                d**3 * (d - 1)**3)
    H2 = two_hessian(curve)
    factored = two_hessian_factored(curve)
    payload = {
        "hessian_matches_closed_form": H == expected,
        "hessian": H.to_json_dict(),
        "two_hessian_matches_factored_form": H2 == factored,
        "two_hessian_terms": len(H2.terms),
    }
    failures = [{"check": k} for k in
                ("hessian_matches_closed_form",
                 "two_hessian_matches_factored_form") if not payload[k]]
    return payload, failures


def _census_payload(entries):
    return {
        "points": [{"coords": e.point.to_json(),
                    "multiplicity": e.multiplicity,
                    "n_lines": e.n_lines,
                    "ordinary": e.ordinary,
                    "on_curve": e.on_curve} for e in entries],
        "multiplicity_multiset": {str(k): v for k, v in
                                  sorted(multiplicity_multiset(entries).items())},
    }


def _report_order(entries):
    """Census entries in report order: by the dense view of each coordinate
    as a string, built once per distinct coordinate."""
    coord_keys = {}
    for e in entries:
        for c in e.point.coords:
            if c not in coord_keys:
                coord_keys[c] = str(c.coeffs)
    return sorted(entries,
                  key=lambda e: tuple(coord_keys[c] for c in e.point.coords))


def cmd_census(args):
    arr = build(args.arrangement, FermatCurve(args.degree))
    entries = _report_order(census(arr, args.with_fermat))
    payload = {"arrangement": args.arrangement,
               "n_lines": len(arr.lines),
               "with_fermat": bool(args.with_fermat)}
    payload.update(_census_payload(entries))
    payload["tjurina_total"] = (tjurina_total(entries)
                                if all(e.ordinary for e in entries) else None)
    return payload, []


def _freeness(arr, with_curve):
    """Freeness verdict of an arrangement, joined with its curve if
    `with_curve`, and the failures of its check against the paper's claim
    on the same lines (with the curve or without, as here), in any label
    order.  An arrangement the paper states nothing about is not checked."""
    d = arr.curve.d
    tau = tjurina_total(census(arr, with_curve))
    degree_hat = len(arr.lines) + (d if with_curve else 0)
    verdict = freeness_test(degree_hat, tau)
    tokens = sorted(parse_label(arr.label))
    for key, (free, exps) in paper_claims(d)["freeness"].items():
        if (key.endswith("+F") == with_curve
                and sorted(parse_label(key.removesuffix("+F"))) == tokens):
            ok = verdict.free == free and (
                not free or list(verdict.exponents) == exps)
            return verdict, [] if ok else [
                {"check": "freeness", "arrangement": key, "degree": d}]
    return verdict, []


def cmd_freeness(args):
    try:
        verdict, failures = _freeness(
            build(args.arrangement, FermatCurve(args.degree)),
            args.with_fermat)
    except NonOrdinary as exc:
        # a usage error, not a failed certificate: the criterion needs
        # ordinary points, and `census` reports the arrangement as it is
        raise ValueError(f"{exc}: the freeness criterion needs ordinary "
                         f"points (see census)") from exc
    payload = {"arrangement": args.arrangement,
               "with_fermat": bool(args.with_fermat),
               "degree_hat": verdict.degree_hat,
               "tjurina_total": verdict.tau,
               "verdict": verdict.to_json_dict(),
               "criterion": "integer exponent solution of the quadratic "
                            "necessary condition"}
    if sorted(parse_label(args.arrangement)) == ["Bz", "Mx", "Ny"]:
        payload["syzygy_checks"], fails = _syzygy_payload(args.degree)
        failures += fails
    return payload, failures


def _syzygy_payload(d):
    """The documented candidate syzygies of the grid product and its Koszul
    relation, and the failure of the Koszul relation, which must hold."""
    out = []
    for name, triple, P in syzygy_candidates(d):
        out.append({"candidate": name,
                    "is_syzygy": verify_syzygy(triple, P)})
    P = grid_product_poly(d)
    koszul = verify_syzygy(koszul_triple(P, 0, 1), P)
    out.append({"candidate": "koszul-xy", "is_syzygy": koszul})
    return out, [] if koszul else [{"check": "koszul-syzygy", "degree": d}]


def _collinear(curve):
    """The lines through three or more sextactic points: their counts, the
    failures of the check against the paper's counts, and the lines."""
    d = curve.d
    lines = collinear_sextactic(curve)
    intra = sum(1 for L in lines if not L.mixed)
    counts = {"line_count": len(lines), "intra_cluster": intra,
              "mixed_cluster": len(lines) - intra}
    failures = []
    if (tuple(counts.values()) != paper_claims(d)["collinear"]
            or any(len(L.points) != d for L in lines)):
        failures.append({"check": "collinear", "degree": d})
    return counts, failures, lines


def cmd_collinear(args):
    if args.degree > ALL_MAX_DEGREE:
        raise ValueError(f"collinear needs degree <= {ALL_MAX_DEGREE}")
    payload, failures, lines = _collinear(FermatCurve(args.degree))
    payload["lines"] = [{"line": L.line.to_json_dict(),
                         "points": [{"cluster": s.cluster, "j": s.j, "k": s.k}
                                    for s in L.points]} for L in lines]
    return payload, failures


def _verify_line(curve, label, line):
    """The tangent and conic reports of a grid line, each a
    `ConcurrencyReport` or the message of the `FermatoscError` it raised,
    and the line's failures.  Only `verify` renders the reports."""
    failures = []
    try:
        tangent = tangent_concurrency(curve, line)
        if not all(tangent.certificates.values()):
            failures.append({"check": "tangent-certificates", "line": label})
    except FermatoscError as exc:
        tangent = str(exc)
        failures.append({"check": "tangent-concurrency", "line": label,
                         "detail": tangent})
    try:
        conic = conic_common_points(curve, line)
        expected = paper_claims(curve.d)["conic_common_points"][label[0]]
        if conic.count != expected:
            failures.append({"check": "conic-common-count", "line": label,
                             "got": conic.count, "expected": expected})
    except FermatoscError as exc:
        conic = str(exc)
        failures.append({"check": "conic-common-points", "line": label,
                         "detail": conic})
    return (tangent, conic), failures


def cmd_verify(args):
    curve = FermatCurve(args.degree)
    if args.theorem == "main":
        done, failures = _verify_main(curve, args.line_index)
        results = []
        for label, line, reports, _ in done:
            entry = {"line_label": label, "line": line.to_json_dict()}
            for key, rep in zip(("tangent", "conic"), reports):
                entry[key] = ({"error": rep} if isinstance(rep, str)
                              else rep.to_json_dict())
            results.append(entry)
        return {"lines": results, "line_count": len(results)}, failures
    degrees = (1, 2) if args.osc_degree is None else (args.osc_degree,)
    return _verify_invariant(curve, degrees)


def _verify_main(curve, line_index=None):
    """(label, line, reports, failures) for every grid line, or for line
    `line_index` alone, and all their failures."""
    if line_index is None:
        lines = _grid_lines(curve)
    else:
        lines = [_grid_line(curve, line_index)]
    done = [(label, L, *_verify_line(curve, label, L)) for label, L in lines]
    return done, [f for *_, fails in done for f in fails]


def _verify_invariant(curve, degrees):
    checks, failures = [], []
    panel = generator_panel(curve)
    specials = [("sextactic", s.point) for s in sextactic_points(curve)]
    specials += [("inflection", p) for p in inflection_points(curve)]
    for n in degrees:
        for name, g in panel:
            seen = set()
            for kind, p in specials:
                if kind == "inflection" and n == 2:
                    continue
                if p in seen:
                    continue
                orb = curve_orbit(curve, p, g)
                seen.update(orb)
                ok = verify_invariant_intersection(curve, g, p, n)
                checks.append({"automorphism": name, "osc_degree": n,
                               "orbit_size": len(orb), "kind": kind,
                               "invariant": ok})
                if not ok:
                    failures.append({"check": "invariant-intersection",
                                     "automorphism": name,
                                     "osc_degree": n, "kind": kind})
    payload = {"checks": checks, "check_count": len(checks),
               "all_invariant": all(c["invariant"] for c in checks)}
    return payload, failures


def cmd_all(args):
    if not (3 <= args.min_degree <= args.max_degree <= ALL_MAX_DEGREE):
        raise ValueError(
            f"need 3 <= min-degree <= max-degree <= {ALL_MAX_DEGREE}")
    rng = random.Random(args.seed)
    payload, failures = {"degrees": {}}, []
    for d in range(args.min_degree, args.max_degree + 1):
        # one memo per degree: the memory held is one degree's working set
        with tower.memoized():
            section, sec_fail = _all_degree(d, rng)
        payload["degrees"][str(d)] = section
        failures.extend(sec_fail)
    return payload, failures


def _all_degree(d, rng):
    """The suite at degree d: its report section and its failures."""
    claims = paper_claims(d)
    section = {}
    sec_fail = []
    # one curve for every stage, so its tables are built once
    curve = FermatCurve(d)

    pay, fails = _hessian2(curve)
    section["hessian"] = {k: v for k, v in pay.items()
                          if not isinstance(v, dict)}
    sec_fail += fails

    # the contact at every special point, carried by symmetry
    certified = contacts(curve)
    infl = inflection_points(curve)
    mults = certified.tangent
    section["inflection"] = {"count": len(infl),
                             "checked": len(mults),
                             "tangent_contacts": sorted(set(mults))}
    if (len(infl) != claims["inflection_count"]
            or set(mults) != {claims["inflection_tangent_contact"]}):
        sec_fail.append({"check": "inflection-suite", "degree": d})

    pts = sextactic_points(curve)
    idx = rng.sample(range(len(pts)), min(6, len(pts)))
    prop_ok = True
    for i in idx:
        s = pts[i]
        O = curve.hyperosculating(s)
        closed = curve.osculating(s.point, 2)
        cay = osculating_conic_cayley(curve, s.point)
        prop_ok = prop_ok and closed.proportional(O) \
            and cay.proportional(closed)
    section["sextactic"] = {"count": len(pts),
                            "count_formula": sextactic_count_formula(curve),
                            "sampled": len(idx),
                            "conic_contacts": sorted(set(certified.conic)),
                            "conic_pipelines_proportional": prop_ok}
    if (len(pts) != claims["sextactic_count"]
            or set(certified.conic) != {claims["conic_contact"]}
            or not prop_ok
            or sextactic_count_formula(curve) != len(pts)):
        sec_fail.append({"check": "sextactic-suite", "degree": d})

    # every arrangement reads the curve's line table: each line is built,
    # each pair met and each curve contact certified once per degree
    frees = {}
    for key in claims["freeness"]:
        verdict, fails = _freeness(build(key.removesuffix("+F"), curve),
                                   key.endswith("+F"))
        frees[key] = {"tau": verdict.tau, "free": verdict.free,
                      "exponents": (list(verdict.exponents)
                                    if verdict.exponents else None),
                      "discriminant_sign": verdict.discriminant_sign}
        sec_fail += fails
    section["freeness"] = frees

    section["syzygies"], fails = _syzygy_payload(d)
    sec_fail += fails

    section["collinear"], fails, _ = _collinear(curve)
    sec_fail += fails

    done, vfails = _verify_main(curve)
    section["concurrency"] = {
        "lines_verified": len(done),
        "failures": len(vfails)}
    sec_fail += vfails

    ipay, ifails = _verify_invariant(curve, (1, 2))
    section["invariant_intersection"] = {
        "checks": ipay["check_count"],
        "all_invariant": ipay["all_invariant"]}
    sec_fail += ifails
    return section, sec_fail


COMMANDS = {
    "points": cmd_points,
    "tangents": cmd_tangents,
    "conic": cmd_conic,
    "hessian2": cmd_hessian2,
    "census": cmd_census,
    "freeness": cmd_freeness,
    "collinear": cmd_collinear,
    "verify": cmd_verify,
    "all": cmd_all,
}


# -- rendering -----------------------------------------------------------------


_ESCAPE = json.encoder.encode_basestring_ascii
_INT_TEXT = int.__repr__


def indented_json(obj, pad: str = "") -> str:
    """`json.dumps(obj, indent=2)` of a report value, with the lines after
    the first indented by `pad`.

    A report value is a dict with str keys, a list, a str, an int, a
    finite float, a bool or None.  Any other value raises TypeError (the
    escaper raises it for a non-str key), and a NaN or an infinity raises
    ValueError.  CPython's `json.dumps` runs its C encoder only when
    `indent` is None; with an indent it yields every bracket, separator and
    scalar from a pure-Python generator.  Here each container is one
    `str.join` of its items, an item that is an exact `str` or `int` is
    written in the loop without a call, and strings go through `json`'s
    own C escaper.  Cycles are not detected: reports have none.
    """
    cls = type(obj)
    inner = pad + "  "
    if cls is dict:
        if not obj:
            return "{}"
        texts = [_ESCAPE(k) + ": "
                 + (_ESCAPE(v) if type(v) is str
                    else _INT_TEXT(v) if type(v) is int
                    else indented_json(v, inner)) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "}"
    if cls is list:
        if not obj:
            return "[]"
        texts = [_ESCAPE(v) if type(v) is str
                 else _INT_TEXT(v) if type(v) is int
                 else indented_json(v, inner) for v in obj]
        return ("[\n" + inner + (",\n" + inner).join(texts)
                + "\n" + pad + "]")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if cls is float:
        if not math.isfinite(obj):
            raise ValueError(f"a report holds no non-finite float: {obj}")
        return float.__repr__(obj)
    if cls is str:
        return _ESCAPE(obj)
    if cls is int:
        return _INT_TEXT(obj)
    raise TypeError(f"a report holds no {cls.__name__}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first call in a process.  Parsing
    leaves the parser as it was, so calls share nothing through it; a caller
    that runs `main` more than once (tests, the benchmark, library use)
    builds it once, while a one-shot command gains nothing."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # each theorem reads one of verify's two selectors; the other is an error
    if args.command == "verify":
        flag, value = (("--osc-degree", args.osc_degree)
                       if args.theorem == "main"
                       else ("--line-index", args.line_index))
        if value is not None:
            parser.error(f"{flag} does not apply to --theorem {args.theorem}")
    # a report that cannot be written fails before the work, not after it
    if args.out is not None:
        folder = os.path.dirname(args.out) or "."
        if (os.path.isdir(args.out) or not os.path.isdir(folder)
                or not os.access(folder, os.W_OK | os.X_OK)
                or (os.path.exists(args.out)
                    and not os.access(args.out, os.W_OK))):
            parser.error(f"--out {args.out}: not a writable file path in an "
                         f"existing directory")
    handler = COMMANDS[args.command]
    try:
        with tower.memoized():
            payload, failures = handler(args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except FermatoscError as exc:
        payload = {"error": str(exc)}
        failures = [{"check": "fatal", "detail": str(exc)}]
    report = {
        "schema": 1,
        "command": args.command,
        "degree": getattr(args, "degree", None),
        # null where the command does not take the option
        "seed": getattr(args, "seed", None),
        # null where the command prints no approx columns
        "precision_bits": (APPROX_BITS if args.command in ("points", "conic")
                           else None),
        "status": "ok" if not failures else "failed",
        "failures": failures,
        "payload": payload,
    }
    text = indented_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
