"""Seeded workload items and the benchmark's own copy of the paper's values.

An item is a small JSON-able dict made from the workload seed alone; the
measured process turns it into program calls (`run_item`) and checks the
outcome against values written down here (`check_*`), independently of
the `status` the program reports.

Workloads (see README.md for why each exists):

* ``paper-suite``: ``fermatosc all`` once per degree d = 3..6.
* ``oracle``: random lines and conics through sextactic points, tangents
  and hyperosculating conics at d = 3, 4, 5, each through both
  intersection-multiplicity oracles.
* ``query-high``: one-shot CLI queries at d = 9..12.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

WORKLOADS = ("paper-suite", "oracle", "query-high")

DEGREES = {
    "paper-suite": (3, 4, 5, 6),
    "oracle": (3, 4, 5),
    "query-high": (9, 10, 11, 12),
}

# Oracle cases per degree: (random lines, random conics, tangents,
# hyperosculating conics).  Fixed counts keep the work of a pass the same
# across seeds; the seed picks the points and coefficients.  The grid index
# j of the points cycles through 0..d-1 within each kind, because a point
# with j = 0 has a rational coordinate and its case costs about a third.
# resultant_order runs with its default coordinate-change seed: with a
# seeded one per case, the cost of a case varied twice as much, and at
# d = 5 a single conic case cost 1.5-9.5 s, so a pass of affordable length
# would not repeat within the benchmark's bounds.  d = 5 contributes lines
# and tangents only.
ORACLE_MIX = {3: (9, 9, 6, 6), 4: (12, 16, 8, 12), 5: (10, 0, 10, 0)}

# query-high: one of each query kind per degree.
QUERY_KINDS = ("conic", "verify", "freeness", "tangents")


def items(workload: str, seed: int, k: int = 0) -> list:
    """The items of pass k, a pure function of the seed and k."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    if workload == "paper-suite":
        return [{"kind": "all", "degree": d, "seed": rng.randrange(10**6)}
                for d in DEGREES[workload]]
    if workload == "oracle":
        return _oracle_items(rng)
    if workload == "query-high":
        return _query_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _oracle_items(rng) -> list:
    out = []
    for d, counts in ORACLE_MIX.items():
        for kind, n in zip(("line", "conic", "tangent", "hyperosculating"),
                           counts):
            for i in range(n):
                # sextactic_points() order: cluster, then j, then k
                point = (rng.randrange(3) * d + i % d) * d + rng.randrange(d)
                out.append(_oracle_case(rng, kind, d, point))
    return out


def _oracle_case(rng, kind, d, point):
    item = {"kind": kind, "degree": d, "point": point}
    if kind == "line":
        item["coeffs"] = _nonzero_draw(rng, 2, 5)
    elif kind == "conic":
        item["coeffs"] = _nonzero_draw(rng, 5, 4)
    return item


def _nonzero_draw(rng, n, bound):
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(n)]
        if any(coeffs):
            return coeffs


def _query_items(rng) -> list:
    out = []
    for d in DEGREES["query-high"]:
        for kind in QUERY_KINDS:
            if kind == "conic":
                argv = ["conic", "--cluster", rng.choice("zyx"),
                        "--j", str(rng.randrange(d)),
                        "--k", str(2 * rng.randrange(d) + 1)]
            elif kind == "verify":
                argv = ["verify", "--theorem", "main",
                        "--line-index", str(rng.randrange(9 * d))]
            elif kind == "freeness":
                argv = ["freeness", "--arrangement", "BzMxNy"]
            else:
                argv = ["tangents", "--kind", "all"]
            out.append({"kind": kind, "degree": d,
                        "argv": argv + ["--degree", str(d)]})
    return out


def label(item: dict) -> str:
    return f"{item['kind']}.d{item['degree']}"


# -- set-up ---------------------------------------------------------------


def setup(workload: str) -> None:
    """Import the package and build the field and the curve for every degree
    the workload uses."""
    import fermatosc.cli  # noqa: F401  (imports every layer)
    from fermatosc.fermat import FermatCurve
    from fermatosc.tower import tower_field
    for d in DEGREES[workload]:
        tower_field(d)
        FermatCurve(d)


# -- running and checking one item -----------------------------------------


def run_item(item: dict) -> list:
    """Run one item; returns the list of failed checks (empty when correct)."""
    if item["kind"] == "all":
        report = _cli(["all", "--min-degree", str(item["degree"]),
                       "--max-degree", str(item["degree"]),
                       "--seed", str(item["seed"])])
        return check_all(report, item["degree"])
    if "argv" in item:
        report = _cli(item["argv"])
        return CHECKS[item["kind"]](report, item["degree"])
    return run_oracle_case(item)


def _cli(argv) -> dict:
    from fermatosc import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue())
    report["exit_code"] = code
    return report


def _status_misses(report) -> list:
    misses = []
    if report["exit_code"] != 0:
        misses.append(f"exit code {report['exit_code']}")
    if report["status"] != "ok":
        misses.append(f"status {report['status']}")
    return misses


def _expect(misses, what, got, want):
    if got != want:
        misses.append(f"{what}: got {got!r}, want {want!r}")


def expected_freeness(d: int) -> dict:
    """Freeness verdicts of the suite: key -> (free, exponents, tau)."""
    free = {
        "B": ([d + 1, 2 * d - 2], 7 * d * d - 6 * d + 3),
        "BzMxNy": ([d + 1, 2 * d - 2], 7 * d * d - 6 * d + 3),
        "triangle+B": ([d + 1, 2 * d + 1], 7 * d * d + 9 * d + 3),
        "triangle+BzMxNy": ([d + 1, 2 * d + 1], 7 * d * d + 9 * d + 3),
        "BzMxNy+F": ([2 * d - 2, 2 * d + 1], 12 * d * d - 6 * d + 3),
    }
    out = {key: (True, exps, tau) for key, (exps, tau) in free.items()}
    for key in ("B+F", "M", "N", "M+triangle", "M+F"):
        out[key] = (False, None, None)
    return out


# non-free verdicts whose quadratic condition has a negative discriminant
NEGATIVE_DISCRIMINANT = ("B+F", "M", "M+triangle", "M+F")


def check_all(report, d) -> list:
    misses = _status_misses(report)
    sec = report["payload"]["degrees"][str(d)]
    _expect(misses, "hessian closed form",
            sec["hessian"]["hessian_matches_closed_form"], True)
    _expect(misses, "2-Hessian factored form",
            sec["hessian"]["two_hessian_matches_factored_form"], True)
    _expect(misses, "inflection count", sec["inflection"]["count"], 3 * d)
    _expect(misses, "inflection contacts",
            sec["inflection"]["tangent_contacts"], [d])
    _expect(misses, "sextactic count", sec["sextactic"]["count"], 3 * d * d)
    _expect(misses, "sextactic count formula",
            sec["sextactic"]["count_formula"], 3 * d * d)
    _expect(misses, "conic contacts", sec["sextactic"]["conic_contacts"], [6])
    _expect(misses, "conic pipelines",
            sec["sextactic"]["conic_pipelines_proportional"], True)
    for key, (free, exps, tau) in expected_freeness(d).items():
        got = sec["freeness"][key]
        _expect(misses, f"{key} free", got["free"], free)
        if free:
            _expect(misses, f"{key} exponents", got["exponents"], exps)
            _expect(misses, f"{key} tau", got["tau"], tau)
        elif key in NEGATIVE_DISCRIMINANT:
            _expect(misses, f"{key} discriminant", got["discriminant_sign"],
                    "negative")
    koszul = [e["is_syzygy"] for e in sec["syzygies"]
              if e["candidate"] == "koszul-xy"]
    _expect(misses, "koszul syzygy", koszul, [True])
    col = sec["collinear"]
    if d == 3:
        _expect(misses, "collinear lines",
                (col["line_count"], col["intra_cluster"],
                 col["mixed_cluster"]), (81, 27, 54))
    else:
        _expect(misses, "collinear lines", col["line_count"], 9 * d)
    _expect(misses, "concurrency lines",
            sec["concurrency"]["lines_verified"], 9 * d)
    _expect(misses, "concurrency failures", sec["concurrency"]["failures"], 0)
    _expect(misses, "invariants",
            sec["invariant_intersection"]["all_invariant"], True)
    return misses


def check_conic(report, d) -> list:
    misses = _status_misses(report)
    pay = report["payload"]
    _expect(misses, "contact order", pay["contact_order"], 6)
    for key in ("closed_vs_explicit_proportional",
                "covariant_vs_closed_proportional",
                "series_vs_explicit_proportional"):
        _expect(misses, key, pay[key], True)
    return misses


def check_verify(report, d) -> list:
    misses = _status_misses(report)
    lines = report["payload"]["lines"]
    _expect(misses, "lines", len(lines), 1)
    for entry in lines:
        _expect(misses, "tangent count", entry["tangent"].get("count"), 1)
        _expect(misses, "conic count", entry["conic"].get("count"), 2)
    return misses


def check_freeness(report, d) -> list:
    misses = _status_misses(report)
    verdict = report["payload"]["verdict"]
    _expect(misses, "free", verdict["free"], True)
    _expect(misses, "exponents", verdict["exponents"], [d + 1, 2 * d - 2])
    return misses


def check_tangents(report, d) -> list:
    misses = _status_misses(report)
    _expect(misses, "tangent entries", len(report["payload"]["tangents"]),
            3 * d * d + 3 * d)
    return misses


CHECKS = {"conic": check_conic, "verify": check_verify,
          "freeness": check_freeness, "tangents": check_tangents}


def run_oracle_case(item) -> list:
    """Both multiplicity oracles on one case; they must agree with each other
    and with the contact the geometry fixes."""
    from fermatosc.fermat import (FermatCurve, hyperosculating_conic,
                                  sextactic_points, tangent_line)
    from fermatosc.hompoly import int_mult, resultant_order

    d = item["degree"]
    curve = FermatCurve(d)
    s = sextactic_points(curve)[item["point"]]
    kind = item["kind"]
    if kind == "line":
        g = _line_through(curve.field, s.point, item["coeffs"])
    elif kind == "conic":
        g = _conic_through(curve.field, s.point, item["coeffs"])
    elif kind == "tangent":
        g = tangent_line(curve, s.point)
    else:
        g = hyperosculating_conic(curve, s)
    m = int_mult(curve.poly, g, s.point)
    order, _ = resultant_order(curve.poly, g, s.point)
    misses = []
    _expect(misses, "int_mult vs resultant_order", order, m)
    if kind == "tangent":
        _expect(misses, "tangent contact", m, 2)
    elif kind == "hyperosculating":
        _expect(misses, "hyperosculating contact", m, 6)
    else:
        _expect(misses, "contact", m, 1 if _transverse(curve, g, s.point)
                else max(m, 2))
    return misses


def _line_through(field, p, coeffs):
    """a*X + b*Y + c*Z through p, with (a, b) drawn and c solved for."""
    from fermatosc.hompoly import HomPoly
    idx = max(i for i in range(3) if not p.coords[i].is_zero())
    others = [i for i in range(3) if i != idx]
    coefs = [field.zero] * 3
    for i, c in zip(others, coeffs):
        coefs[i] = field.from_rational(c)
    s = coefs[others[0]] * p.coords[others[0]] \
        + coefs[others[1]] * p.coords[others[1]]
    coefs[idx] = -s * field.invert(p.coords[idx])
    exps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return HomPoly(field, 1, {e: c for e, c in zip(exps, coefs)
                              if not c.is_zero()})


_CONIC_MONOS = ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                (0, 2, 0), (0, 1, 1), (0, 0, 2))


def _conic_through(field, p, coeffs):
    """Five drawn coefficients; the one of the pure power of p's last nonzero
    coordinate is solved for so that the conic passes through p."""
    from fermatosc.hompoly import HomPoly
    idx = max(i for i in range(3) if not p.coords[i].is_zero())
    solved = tuple(2 if i == idx else 0 for i in range(3))
    drawn = [e for e in _CONIC_MONOS if e != solved]
    conic = HomPoly(field, 2, {e: field.from_rational(c)
                               for e, c in zip(drawn, coeffs) if c})
    val = conic.evaluate(p)
    lead = p.coords[idx] * p.coords[idx]
    return conic + HomPoly.monomial(field, solved, -val * field.invert(lead))


def _transverse(curve, g, p) -> bool:
    """The gradients of the curve and of g at p are not proportional."""
    a = [curve.poly.partial(i).evaluate(p) for i in range(3)]
    b = [g.partial(i).evaluate(p) for i in range(3)]
    return any(not (a[i] * b[j] - a[j] * b[i]).is_zero()
               for i, j in ((0, 1), (0, 2), (1, 2)))
