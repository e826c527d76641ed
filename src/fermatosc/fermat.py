"""Fermat-curve geometry: special points and osculating conics.

The curve is x^d + y^d + z^d over K_d.  Inflection points carry maximal
tangents; sextactic points are cut out by the core of the 2-Hessian and are
organized in three clusters of d^2 points:

    cluster z: (zeta^j : 1 : u^(-k) t)
    cluster y: (1 : u^(-k) t : zeta^j)
    cluster x: (u^(-k) t : zeta^j : 1)

for j mod d and k odd in (0, 2d), with zeta = u^2 and t = 2^(1/d).  Each
cluster is the cluster-z family rotated once more by (a, b, c) -> (b, c, a);
`FermatCurve.sextactic_point` is the one place this formula is written, and
the full point set and the `conic` query build their points through it.  The
inflection points (0 : 1 : u^k) and their two rotations by
(a, b, c) -> (c, a, b) are written down the same way, once per curve.  The
curve is the one incidence table of its degree: it keeps both point sets,
finds the special points on a line by a coordinate-ratio lookup, and holds
the orbits of its points under automorphisms, the line table of every
arrangement with the points where its lines meet, and the curve's contacts
with each line.

Osculating conics come from two independent pipelines: the evaluated
covariant combination 9H^3(p) D2F_p - (6H^2(p) DH_p + W(p) DF_p) DF_p with
W = -3*Omega*H + 4*Psi, and a six-term closed form in the coordinates of p.
At a sextactic point the conic specializes to the hyperosculating conic
O_{j,k} whose coefficients are explicit monomials; the conics of clusters y
and x are the cluster-z conic with its variables permuted.  The contact of
O_{j,k} with the curve, 6, and of the tangent at each inflection point, d,
are certified at every point by symmetry (`symmetry.contacts`), which
also proves O_{j,k} the osculating conic wherever it carries the contact;
the closed form then serves the `conic` query and the check that the
pipelines agree at six fixed points (`cli.PIPELINE_POINTS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CertificationFailure, FermatoscError
from .hompoly import HomPoly, ProjPoint, det3, hessian
from .tower import tower_field

CLUSTERS = ("z", "y", "x")


def rotate(v, n: int) -> tuple:
    """The triple v rotated n times by (a, b, c) -> (b, c, a); a negative n
    rotates by (a, b, c) -> (c, a, b)."""
    n %= 3
    return tuple(v[n:]) + tuple(v[:n])


class FermatCurve:
    """The plane curve x^d + y^d + z^d = 0 over K_d.

    What depends on the curve alone (its special points and their line
    incidences, tangents, osculating conics) is built on first use and kept
    on this object, so it is dropped together with the curve.

    `sextactic` is the order `sextactic_points` returns (one point alone is
    `sextactic_point`), and `inflection` the order `inflection_points`
    returns.  They and `specials` (the sextactic points followed by the
    inflection points) are each built on first use, so a query of one kind
    builds no point of the other, and `specials_on_curve` holds those of
    them certified on the curve.  The ratio table of a coordinate pair
    a < b, built on the first lookup of a line in that pair, maps
    x_b / x_a to the specials with that coordinate ratio.  `orbits`,
    `scalings`, `line_families` and `contacts` are the memos that
    `symmetry` fills: the orbit of a point under an automorphism
    (`curve_orbit`), the scaling of each coordinate (`coordinate_scaling`),
    the sextactic points and fixed line of each grid line (`_line_family`),
    and the contact at every special point (`contacts`).
    `generator_images` is what `arrangements.collinear_sextactic` certified
    of rho, phi and psi: for each, the index in `sextactic` of the image of
    each sextactic point, so each maps the sextactic points into
    themselves; it is None until the search has run.  `zeta_powers` is the
    set of the d powers of zeta, the scalars of the monomial group.

    `lines`, `line_keys`, `meets` and `line_contacts` are the line table
    that `arrangements` fills, and every arrangement of the degree reads:
    the lines of each token of B, M, N, A and the triangle, one object
    each, built on the token's first use (`arrangements.token_lines`); the
    canonical keys of every line built, which certify each new line
    distinct from them; the point where two lines meet, keyed by the pair
    of their table indices; and the contacts of the curve with each line,
    keyed by its index, certified by Bezout's theorem: the curve meets a
    line in d points counted with contact, so d distinct special points on
    the line and on the curve are all of them, each of contact 1, and a
    line with one (a flex tangent) has contact d there when the curve's
    restriction is a d-th power (`arrangements._curve_points_on_line`).
    The grid stages of `cli` read the same line objects, so their charts
    and families are shared too.
    """

    def __init__(self, d: int):
        self.d = d
        self.field = tower_field(d)
        one = self.field.one
        self.poly = HomPoly(self.field, d, {(d, 0, 0): one, (0, d, 0): one,
                                            (0, 0, d): one})
        self._units = {}
        self._powers = {}
        self._osculating = {}
        self._hyperosculating = {}
        self._ratio_tables = {}
        self.orbits = {}
        self.scalings = {}
        self.line_families = {}
        self.contacts = None
        self.generator_images = None
        self.lines = {}
        self.line_keys = set()
        self.meets = {}
        self.line_contacts = {}

    @cached_property
    def sextactic(self) -> tuple:
        d = self.d
        return tuple(
            self.sextactic_point(cluster, j, k) for cluster in CLUSTERS
            for j in range(d) for k in range(1, 2 * d, 2))

    @cached_property
    def inflection(self) -> tuple:
        field = self.field
        return tuple(
            ProjPoint(field, rotate((field.zero, field.one, field.u_pow(k)),
                                    -n))
            for n in range(3) for k in range(1, 2 * self.d, 2))

    @cached_property
    def zeta_powers(self) -> frozenset:
        return frozenset(self.field.zeta_pow(e) for e in range(self.d))

    @cached_property
    def specials(self) -> tuple:
        return tuple(s.point for s in self.sextactic) + self.inflection

    @cached_property
    def specials_on_curve(self) -> frozenset:
        """The special points on the curve, each checked once by the sum of
        the d-th powers of its coordinates (`powers`)."""
        out = set()
        for p in self.specials:
            (_, fx), (_, fy), (_, fz) = map(self.powers, p.coords)
            if (fx + fy + fz).is_zero():
                out.add(p)
        return frozenset(out)

    @cached_property
    def _checked_specials(self) -> tuple:
        """`specials`, after checking that no special point is a vertex."""
        for p in self.specials:
            if sum(c.is_zero() for c in p.coords) > 1:
                raise CertificationFailure("special point at a vertex")
        return self.specials

    def _ratios(self, a: int, b: int) -> dict:
        """The ratio table of the pair (a, b), built on its first lookup:
        x_b / x_a -> the indices of the specials with both coordinates
        nonzero and that ratio."""
        ratios = self._ratio_tables.get((a, b))
        if ratios is None:
            # the coordinates are monomials taking few distinct values, so
            # the ratios cost few inversions, each of one term
            ratios, inverses = {}, {}
            for idx, p in enumerate(self._checked_specials):
                xa, xb = p.coords[a], p.coords[b]
                if xa.is_zero() or xb.is_zero():
                    continue
                if xa not in inverses:
                    inverses[xa] = xa.inverse()
                ratios.setdefault(xb * inverses[xa], []).append(idx)
            self._ratio_tables[a, b] = ratios
        return ratios

    def _on_line(self, line: HomPoly, stop: int) -> list:
        """Ascending indices below `stop` of the specials on the line.

        A line c_a x_a + c_b x_b = 0 with both coefficients nonzero contains
        a point other than the vertex x_a = x_b = 0 exactly when x_a and x_b
        are nonzero and x_b / x_a = -c_a / c_b.  No special point is a
        vertex (`_checked_specials`), and the ratio table of the pair holds
        every special point with x_a and x_b nonzero, so the lookup of that
        ratio returns every special point on the line: completeness comes
        from the table.  Each point returned is certified on the line by
        one exact evaluation.  Lines with one or three nonzero coefficients
        are scanned point by point.
        """
        coeffs = line.line_coeffs()
        support = [i for i, c in enumerate(coeffs) if not c.is_zero()]
        if len(support) != 2:
            return [i for i in range(stop)
                    if line.evaluate(self.specials[i]).is_zero()]
        a, b = support
        ratio = -coeffs[a] * coeffs[b].inverse()
        out = [i for i in self._ratios(a, b).get(ratio, ()) if i < stop]
        for i in out:
            if not line.evaluate(self.specials[i]).is_zero():
                raise CertificationFailure(
                    "ratio table point off its line",
                    witness=self.specials[i].to_json())
        return out

    def sextactic_on_line(self, line: HomPoly) -> list:
        """The sextactic points on a line, in `sextactic` order."""
        return [self.sextactic[i]
                for i in self._on_line(line, len(self.sextactic))]

    def specials_on_line(self, line: HomPoly) -> list:
        """The sextactic and inflection points on a line, in `specials` order."""
        return [self.specials[i]
                for i in self._on_line(line, len(self.specials))]

    def osculating(self, p: ProjPoint, n: int) -> HomPoly:
        """The tangent line (n = 1) or the closed-form osculating conic
        (n = 2) at p, built once per point."""
        key = (n, p)
        out = self._osculating.get(key)
        if out is None:
            if n == 1:
                out = tangent_line(self, p)
            elif n == 2:
                out = osculating_conic_closed(self, p)
            else:
                raise ValueError("osculating degree must be 1 or 2")
            self._osculating[key] = out
        return out

    def hyperosculating(self, s: "SextacticPoint") -> HomPoly:
        """The hyperosculating conic at a sextactic point, built once per
        point."""
        key = (s.cluster, s.j, s.k)
        out = self._hyperosculating.get(key)
        if out is None:
            out = self._hyperosculating[key] = hyperosculating_conic(self, s)
        return out

    def sextactic_point(self, cluster: str, j: int, k: int):
        """The sextactic point (cluster, j mod d, k mod 2d), or None for an
        even k.  Its coordinates are written down already scaled to a first
        coordinate of one, so building it inverts nothing."""
        if k % 2 == 0:
            return None
        d, one = self.d, self.field.one
        j, k = j % d, k % (2 * d)
        n = CLUSTERS.index(cluster)
        unit = self._unit
        # (zeta^j : 1 : w), (1 : w : zeta^j) and (w : zeta^j : 1) with
        # w = u^(-k) t, scaled: each coordinate is one unit, no product
        if n == 0:
            coords = (one, unit(-2 * j, 0), unit(-2 * j - k, 1))
        elif n == 1:
            coords = (one, unit(-k, 1), unit(2 * j, 0))
        else:
            coords = (one, unit(2 * j + k, -1), unit(k, -1))
        return SextacticPoint(cluster, j, k, ProjPoint(self.field, coords))

    def _unit(self, a: int, b: int):
        """u^a t^b for b in (-2, -1, 0, 1), built once per curve and kept
        by a mod 2d (u has order 2d): the points and hyperosculating conics
        of one cluster share d values of each.  A negative b is a product
        by t^-1, so building a unit inverts nothing."""
        a %= 2 * self.d
        out = self._units.get((a, b))
        if out is None:
            field = self.field
            out = (self._unit(a, b + 1) * field.t_inv if b < 0
                   else field.monomial(a, b))
            self._units[a, b] = out
        return out

    def powers(self, c):
        """(c^(d-1), c^d) for a coordinate value c, built once per curve:
        the special points share few coordinate values."""
        out = self._powers.get(c)
        if out is None:
            top = c ** (self.d - 1)
            out = self._powers[c] = (top, top * c)
        return out

    @cached_property
    def hessian(self) -> HomPoly:
        return hessian(self.poly)

    @property
    def genus(self) -> int:
        return (self.d - 1) * (self.d - 2) // 2

    def contains(self, p: ProjPoint) -> bool:
        return self.poly.evaluate(p).is_zero()

    def __repr__(self):
        return f"FermatCurve(d={self.d})"


@dataclass(frozen=True)
class SextacticPoint:
    """A sextactic point with its cluster label and grid indices."""

    cluster: str            # which coordinate closes the cluster: z, y or x
    j: int                  # index mod d
    k: int                  # odd index in (0, 2d)
    point: ProjPoint

    def label(self) -> str:
        return f"s^{self.cluster}_{self.j},{self.k}"


def tangent_line(curve: FermatCurve, p: ProjPoint) -> HomPoly:
    """p_x^(d-1) x + p_y^(d-1) y + p_z^(d-1) z.

    The powers come from the curve's table (`FermatCurve.powers`), which also
    gives F(p) = sum p_i^d, the check that p is on the curve."""
    (cx, fx), (cy, fy), (cz, fz) = [curve.powers(c) for c in p.coords]
    if not (fx + fy + fz).is_zero():
        raise FermatoscError("tangent line requested off the curve")
    return HomPoly.line(curve.field, cx, cy, cz)


def inflection_points(curve: FermatCurve):
    """The 3d inflection points (0:1:u^k), (u^k:0:1), (1:u^k:0), k odd."""
    return list(curve.inflection)


def two_hessian(curve: FermatCurve) -> HomPoly:
    """Cayley's second Hessian for the Fermat curve.

    Determinant of the power matrix with columns x^(3d-9), x^(4d-9),
    x^(5d-9) (and the y, z rows); with this column order the determinant
    factors exactly as (xyz)^(3d-9) (x^d-y^d)(y^d-z^d)(z^d-x^d).
    """
    field = curve.field
    d = curve.d
    rows = []
    for var in range(3):
        row = []
        for e in (3 * d - 9, 4 * d - 9, 5 * d - 9):
            exps = [0, 0, 0]
            exps[var] = e
            row.append(HomPoly.monomial(field, tuple(exps), 1))
        rows.append(row)
    return det3(rows)


def two_hessian_factored(curve: FermatCurve) -> HomPoly:
    field = curve.field
    d = curve.d
    x, y, z = HomPoly.variables(field)
    core = (x**d - y**d) * (y**d - z**d) * (z**d - x**d)
    return HomPoly.monomial(field, (3 * d - 9,) * 3, 1) * core


def sextactic_points(curve: FermatCurve):
    """All 3d^2 sextactic points, cluster by cluster."""
    return list(curve.sextactic)


def sextactic_count_formula(curve: FermatCurve) -> int:
    """6(2d + 5g - 5) - 3d(4 + 4d - 15), which collapses to 3d^2."""
    d, g = curve.d, curve.genus
    return 6 * (2 * d + 5 * g - 5) - 3 * d * (4 + 4 * d - 15)


# -- osculating conics ---------------------------------------------------------


def _polar_form(f: HomPoly, p: ProjPoint, order: int) -> HomPoly:
    """Directional polar: sum over multi-derivatives of f at p times monomials."""
    field = f.field
    if order == 1:
        parts = [f.partial(i).evaluate(p) for i in range(3)]
        return HomPoly.line(field, parts[0], parts[1], parts[2])
    if order == 2:
        acc = HomPoly.zero(field, 2)
        for i in range(3):
            for j in range(3):
                c = f.partial(i).partial(j).evaluate(p)
                if not c.is_zero():
                    exps = [0, 0, 0]
                    exps[i] += 1
                    exps[j] += 1
                    acc = acc + HomPoly.monomial(field, tuple(exps), c)
        return acc
    raise ValueError("only first and second polars are needed")


def _omega_psi_at(curve: FermatCurve, p: ProjPoint):
    """The two Fermat covariant evaluations feeding the conic combination."""
    field = curve.field
    d = curve.d
    px, py, pz = p.coords
    q = px**d * py**d + py**d * pz**d + pz**d * px**d
    if d == 3:
        omega = field.zero
    else:
        pi = (px * py * pz) ** (d - 4)
        omega = field.from_rational(
            d**5 * (d - 1)**5 * (d - 2) * (d - 3)) * pi * q
    pi2 = (px * py * pz) ** (2 * d - 6)
    psi = field.from_rational(d**8 * (d - 1)**8 * (d - 2)**2) * pi2 * q
    return omega, psi


def _cayley_conic_raw(curve: FermatCurve, p: ProjPoint) -> HomPoly:
    """Covariant-combination conic; valid wherever the Hessian is nonzero."""
    field = curve.field
    F = curve.poly
    H = curve.hessian
    hp = H.evaluate(p)
    if hp.is_zero():
        raise FermatoscError("Hessian vanishes at p")
    h2, h3 = hp * hp, hp * hp * hp
    df = _polar_form(F, p, 1)
    d2f = _polar_form(F, p, 2)
    dh = _polar_form(H, p, 1)
    omega, psi = _omega_psi_at(curve, p)
    w = -3 * omega * hp + 4 * psi
    return d2f.scale(9 * h3) - (dh.scale(6 * h2) + df.scale(w)) * df


def _closed_conic_raw(curve: FermatCurve, p: ProjPoint) -> HomPoly:
    """Six-term closed form of the osculating conic in the coordinates of p:
    one square and one cross term, under the three rotations of the
    coordinates."""
    field = curve.field
    d = curve.d
    c2 = field.from_rational(2 - d)
    a, b = 2 * (d + 1) * (d - 2), 4 * (2 * d - 1) * (d - 2)
    pows = [curve.powers(c) for c in p.coords]
    terms = {}
    for n in range(3):
        (l0, h0), (l1, h1), (_, h2) = rotate(pows, n)
        terms[rotate((2, 0, 0), -n)] = l0 * l0 * (
            (2 * d - 1) * h1 * h2 + c2 * (h1 + h2) * h0) * (d + 1)
        terms[rotate((1, 1, 0), -n)] = -(l0 * l1 * (
            a * h0 * h1 + b * (h0 + h1) * h2))
    return HomPoly(field, 2, terms)


def _require_conic_point(curve: FermatCurve, p: ProjPoint):
    if not curve.contains(p):
        raise FermatoscError("conic requested off the curve")
    if (p.coords[0] * p.coords[1] * p.coords[2]).is_zero():
        raise FermatoscError(
            "point lies on xyz = 0; the conic formula degenerates there")


def osculating_conic_cayley(curve: FermatCurve, p: ProjPoint) -> HomPoly:
    _require_conic_point(curve, p)
    return _cayley_conic_raw(curve, p)


def osculating_conic_closed(curve: FermatCurve, p: ProjPoint) -> HomPoly:
    _require_conic_point(curve, p)
    return _closed_conic_raw(curve, p)


def _hyperosc_conic_cluster_z(curve: FermatCurve, j: int, k: int) -> HomPoly:
    """O_{j,k} for the cluster-z point (zeta^j : 1 : u^(-k) t): each
    coefficient is a unit u^a t^b of the curve's table (`_unit`) times an
    integer."""
    d, unit = curve.d, curve._unit
    mixed = 8 * d * (d - 2)                     # of xz and of yz
    terms = {
        (2, 0, 0): unit(-4 * j, 0) * (d * (d + 1)),
        (0, 2, 0): curve.field.from_rational(d * (d + 1)),
        (0, 0, 2): unit(2 * k, -2) * (-4 * (d + 1) * (2 * d - 3)),
        (1, 1, 0): unit(-2 * j, 0) * (-2 * (d - 2) * (5 * d - 3)),
        (1, 0, 1): unit(k - 2 * j, -1) * mixed,
        (0, 1, 1): unit(k, -1) * mixed,
    }
    return HomPoly(curve.field, 2, terms)


def hyperosculating_conic(curve: FermatCurve, s: SextacticPoint) -> HomPoly:
    """The explicit hyperosculating conic at a sextactic point.

    A point of cluster n (z, y, x = 0, 1, 2) is g^n(p) for the cluster-z
    point p and g(a, b, c) = (b, c, a); its conic is O_p composed with g^-n,
    x_i -> x_(i - n mod 3).
    """
    base = _hyperosc_conic_cluster_z(curve, s.j, s.k)
    return base.permuted(rotate((0, 1, 2), -CLUSTERS.index(s.cluster)))
