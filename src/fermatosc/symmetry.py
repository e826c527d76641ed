"""Automorphisms of the Fermat curve and exact concurrency certificates.

The monomial automorphism group of order 6d^2 is generated by coordinate
permutations and the scalings rho(x:y:z) = (zeta x : y : z).  An element
is a permutation with three scalars, (g.p)_i = scale[i] * p[perm[i]], and
acts on points and polynomials by permuting indices.  Some elements fix a
line pointwise (a two-dimensional eigenspace); osculating curves at
points of one orbit then meet that line in the same points, which pins the
common intersections of tangent lines and hyperosculating conics along the
grid lines.

All certificates are statements about K_d coefficients: proportionality of
restricted binary forms, exact zero tests of discriminants, and evaluation
at explicitly constructed candidate points.  The two common points of a
conic family have coordinates outside K_d, so they are certified through
the restriction rather than solved for.

The sextactic points of a grid line come from the curve's incidence lookup
(`FermatCurve.sextactic_on_line`): a lookup by coordinate ratio, complete
by construction of the ratio table, with each point certified on the line
by one exact evaluation.  The orbits under an automorphism, the tangents
and osculating conics at each point, the three coordinate scalings and the
family of each grid line are built once per curve and kept on it.
`_line_family` gives both certificates of a grid line its d points and the
line fixed by the scaling whose orbit they are, so the 9d grid lines share
three fixed lines, each restricted through one chart
(`HomPoly.line_chart`).  The invariant-intersection panel takes its three
scalings from the curve too (`coordinate_scaling`).

Intersection multiplicity is invariant under the automorphisms, so the
contact at every special point comes from one `int_mult` per point set
(`contacts`): each other point gets it through an element read off its
indices, checked exactly to map point 0 to it and its osculating curve to
point 0's, or, when a check fails, from `int_mult` at the point.
Where the contact is carried, the hyperosculating conic is the osculating
conic, and the invariant-intersection check reads it once the contacts are
on the curve.

The concurrency certificates of a grid line carry by symmetry too.  The
group splits the 9d grid lines into two orbits, B and M with N, and `cli`
checks the first line L0 of each directly.  Two premises are read off the
curve (`carry_premises`): the contacts found F invariant and prove the
hyperosculating conic osculating at every sextactic point, and the
collinearity search certified that rho, phi and psi map the sextactic
points into themselves.  Every other line L then gets an element h read
off the coefficients of L and L0 (`line_carriers`), accepted after exact
checks (`carries`): L o h is proportional to L0; h maps the first point p0
of L0's family to a sextactic point q on L; and the tangent and conic at q,
composed with h, are proportional to those at p0.  A line that no
candidate passes, and every line of an orbit whose first line failed or of
a curve without the premises, is checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import permutations
from typing import NamedTuple, Optional

from .errors import CertificationFailure, FermatoscError
from .fermat import CLUSTERS, FermatCurve, rotate
from .hompoly import (HomPoly, ProjPoint, cross, disc2, int_mult,
                      line_parametrization, restrict_to_line)
from .tower import FieldElement, TowerField, tower_field


class Automorphism:
    """A monomial map (g.p)_i = scale[i] * p[perm[i]], normalized so that
    scale[2] = 1.

    Built from the permutation and the three scalars, which may be field
    elements or rationals; scalars whose last entry is one already are kept
    as given, so building them inverts nothing.  The slot `_fixed` is unset
    until `fixed_line(self)` fills it.
    """

    __slots__ = ("field", "perm", "scale", "_hash", "_fixed")

    def __init__(self, field: TowerField, perm, scale):
        scale = [v if isinstance(v, FieldElement) else field.from_rational(v)
                 for v in scale]
        if scale[2] != field.one:
            unit = field.invert(scale[2])
            scale = [v * unit for v in scale]
        self.field = field
        self.perm = tuple(perm)
        self.scale = tuple(scale)
        self._hash = None

    # -- group structure -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Automorphism) and self.field is other.field
                and self.perm == other.perm and self.scale == other.scale)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.perm, self.scale))
        return self._hash

    def compose(self, other: "Automorphism") -> "Automorphism":
        """(self . other)(p) = self(other(p))."""
        return Automorphism(self.field, [other.perm[j] for j in self.perm],
                            [s * other.scale[j]
                             for s, j in zip(self.scale, self.perm)])

    def inverse(self) -> "Automorphism":
        perm = [self.perm.index(j) for j in range(3)]
        return Automorphism(self.field, perm,
                            [self.field.invert(self.scale[i]) for i in perm])

    # -- actions ---------------------------------------------------------------

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.field, [s * p.coords[j]
                                      for s, j in zip(self.scale, self.perm)])

    def maps(self, p: ProjPoint, q: ProjPoint) -> bool:
        """Whether g.p = q, exactly, without normalizing g.p: q is stored
        with its pivot coordinate one, so g.p = q when the image's pivot
        coordinate is nonzero and times q is the image."""
        image = [s * p.coords[j] for s, j in zip(self.scale, self.perm)]
        k = next(i for i, c in enumerate(q.coords) if not c.is_zero())
        lam = image[k]
        return not lam.is_zero() and all(
            v == lam * c for v, c in zip(image, q.coords))

    def pullback(self, f: HomPoly) -> HomPoly:
        """f composed with this map; vanishes on the preimage of V(f)."""
        return f.permuted(self.perm, self.scale)

    def __repr__(self):
        return f"Automorphism(perm={self.perm})"


def rho(field: TowerField) -> Automorphism:
    """(x : y : z) -> (zeta x : y : z); fixes V(x) pointwise."""
    return Automorphism(field, (0, 1, 2), (field.zeta, 1, 1))


def phi(field: TowerField) -> Automorphism:
    """Swap x and y; fixes V(x - y) pointwise."""
    return Automorphism(field, (1, 0, 2), (1, 1, 1))


def psi(field: TowerField) -> Automorphism:
    """Swap x and z; fixes V(x - z) pointwise."""
    return Automorphism(field, (2, 1, 0), (1, 1, 1))


def y_scaling(field: TowerField) -> Automorphism:
    """phi . rho . phi: (x : y : z) -> (x : zeta y : z)."""
    return Automorphism(field, (0, 1, 2), (1, field.zeta, 1))


def z_scaling(field: TowerField) -> Automorphism:
    """psi . rho . psi: (x : y : z) -> (x : y : zeta z)."""
    return Automorphism(field, (0, 1, 2), (1, 1, field.zeta))


def coordinate_scaling(curve: FermatCurve, i: int) -> Automorphism:
    """The scaling of coordinate i by zeta (`rho`, `y_scaling`,
    `z_scaling`), built once per curve and kept on it
    (`FermatCurve.scalings`), so its fixed line, that line's chart and its
    orbits are built once per curve too."""
    g = curve.scalings.get(i)
    if g is None:
        g = curve.scalings[i] = (rho, y_scaling, z_scaling)[i](curve.field)
    return g


def generator_panel(curve: FermatCurve):
    """The generator automorphisms with pointwise-fixed lines, plus the two
    conjugate scalings used for the other coordinate lines; the three
    scalings are the curve's own (`coordinate_scaling`)."""
    field = curve.field
    return (("rho", coordinate_scaling(curve, 0)), ("phi", phi(field)),
            ("psi", psi(field)),
            ("phi.rho.phi", coordinate_scaling(curve, 1)),
            ("psi.rho.psi", coordinate_scaling(curve, 2)))


def group_elements(d_or_curve) -> list:
    """All 6d^2 monomial automorphisms {permutation . diag(zeta^a, zeta^b, 1)}."""
    if isinstance(d_or_curve, FermatCurve):
        field = d_or_curve.field
        d = d_or_curve.d
    else:
        d = d_or_curve
        field = tower_field(d)
    out = []
    for pr in permutations(range(3)):
        for a in range(d):
            for b in range(d):
                diag = (field.zeta_pow(a), field.zeta_pow(b), field.one)
                out.append(Automorphism(field, pr, [diag[j] for j in pr]))
    return out


def fixed_line(g: Automorphism) -> Optional[HomPoly]:
    """The line fixed pointwise by g (a 2-dimensional eigenspace), if any,
    computed once per automorphism.

    The identity fixes every line and returns None, since no single line is
    distinguished.
    """
    try:
        return g._fixed
    except AttributeError:
        g._fixed = _fixed_line(g)
        return g._fixed


def _fixed_line(g: Automorphism) -> Optional[HomPoly]:
    field, perm, a = g.field, g.perm, g.scale
    if perm == (0, 1, 2):
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if (a[i] - a[j]).is_zero() and not (a[i] - a[k]).is_zero():
                exps = [0, 0, 0]
                exps[k] = 1
                return HomPoly.monomial(field, tuple(exps), 1)
        return None
    fixed = [i for i in range(3) if perm[i] == i]
    if len(fixed) == 1:
        k = fixed[0]
        i, j = [v for v in range(3) if v != k]
        b, c, e = a[i], a[j], a[k]
        if (e * e - b * c).is_zero():
            # eigenspace span{e_k, v} with v_i = b, v_j = e; its annihilator
            # is the pointwise-fixed line e*x_i - b*x_j
            coefs = [field.zero] * 3
            coefs[i] = e
            coefs[j] = -b
            return HomPoly.line(field, *coefs).canonical_line()
        return None
    return None   # 3-cycles have three simple eigenvalues


def orbit(p: ProjPoint, g: Automorphism) -> list:
    """p, g.p, g^2.p, ... up to the return to p.  An element of the group
    of the curve has order at most 6d^2; an orbit longer than that raises
    `CertificationFailure` with the point and g's permutation."""
    out = [p]
    q = g.apply_point(p)
    guard = 0
    while q != p:
        out.append(q)
        q = g.apply_point(q)
        guard += 1
        if guard > 6 * g.field.d ** 2:
            raise CertificationFailure(
                "orbit iteration did not close",
                witness={"point": p.to_json(), "perm": list(g.perm)})
    return out


def curve_orbit(curve: FermatCurve, p: ProjPoint, g: Automorphism) -> list:
    """`orbit(p, g)`, built once per point and automorphism on the curve."""
    orbits = curve.orbits
    key = (g, p)
    if key not in orbits:
        orbits[key] = orbit(p, g)
    return orbits[key]


# -- contacts by symmetry ----------------------------------------------------


def _orbit_element(field: TowerField, n: int, exps) -> Automorphism:
    """p -> rotate(diag(zeta^e0, zeta^e1, zeta^e2) p, n), written down with
    scale[2] = 1, so building it inverts nothing."""
    e = rotate(exps, n)
    return Automorphism(field, rotate((0, 1, 2), n),
                        (field.zeta_pow(e[0] - e[2]),
                         field.zeta_pow(e[1] - e[2]), field.one))


class Contacts(NamedTuple):
    """The contacts at the special points (`contacts`): `conic` and
    `tangent` in `sextactic` and `inflection` order, `osculating`, the
    hyperosculating conic of each sextactic point where it is proved the
    osculating conic, and `invariant`, whether zeta^d = 1 and F is
    x^d + y^d + z^d, so that every element of the monomial group keeps F."""
    conic: tuple
    tangent: tuple
    osculating: dict
    invariant: bool


def _carried(curve: FermatCurve, invariant: bool, points, osc,
             element) -> list:
    """(contact of osc(i) at point i, whether it was carried from point 0)
    for each point i."""
    F = curve.poly
    p0, base = points[0], osc(0)
    contact = int_mult(F, base, p0)
    out = []
    for i, q in enumerate(points):
        g = element(i)
        if (invariant and g.maps(p0, q)
                and base.proportional(g.pullback(osc(i)))):
            out.append((contact, True))
        else:
            out.append((int_mult(F, osc(i), q), False))
    return out


def contacts(curve: FermatCurve) -> Contacts:
    """The contact with the curve of the hyperosculating conic at every
    sextactic point and of the tangent at every inflection point, from one
    `int_mult` per point set, at its point 0; built on first use and kept
    on the curve (`FermatCurve.contacts`).

    Intersection multiplicity is invariant under a projective change of
    coordinates (Fulton, Algebraic Curves, 3.3).  A monomial map g whose
    scalars are powers of zeta keeps F = x^d + y^d + z^d once zeta^d = 1,
    checked once per curve.  So when g.p0 = q and the osculating curve at q
    composed with g is proportional to the one at p0, both checked exactly,
    the contact at q is the contact at p0.  g is read off q's indices
    (`_orbit_element`): cluster n, j and k for the sextactic point
    rotate((zeta^j : 1 : u^-k t), n), and n and k for the inflection point
    (0 : 1 : u^k) rotated n times by (a, b, c) -> (c, a, b).  A point that
    fails a check gets its contact from `int_mult` directly, so the result
    is what direct checks at every point would give.

    The hyperosculating conic is the osculating conic at each sextactic
    point carried from point 0 when point 0 is no flex (the Hessian is
    nonzero there) and its contact is at least 5: the osculating conic at a
    point that is no flex is the one conic of contact at least 5 there, and
    an automorphism of the curve maps flexes to flexes.
    """
    if curve.contacts is None:
        field, d, one = curve.field, curve.d, curve.field.one
        invariant = (field.zeta ** d == one and curve.poly.terms == {
            (d, 0, 0): one, (0, d, 0): one, (0, 0, d): one})
        pts, infl = curve.sextactic, curve.inflection
        conics = _carried(
            curve, invariant, [s.point for s in pts],
            lambda i: curve.hyperosculating(pts[i]),
            lambda i: _orbit_element(
                field, CLUSTERS.index(pts[i].cluster),
                (pts[i].j, 0, (1 - pts[i].k) // 2)))
        tangents = _carried(
            curve, invariant, infl, lambda i: curve.osculating(infl[i], 1),
            lambda i: _orbit_element(field, -(i // d), (0, 0, i % d)))
        osculating = {}
        if (conics[0][0] >= 5
                and not curve.hessian.evaluate(pts[0].point).is_zero()):
            osculating = {s.point: curve.hyperosculating(s)
                          for s, (_, carried) in zip(pts, conics) if carried}
        curve.contacts = Contacts(tuple(c for c, _ in conics),
                                  tuple(c for c, _ in tangents), osculating,
                                  invariant)
    return curve.contacts


def _osculating(curve: FermatCurve, p: ProjPoint, n: int) -> HomPoly:
    """The tangent (n = 1) or the osculating conic (n = 2) at p: the
    hyperosculating conic where the curve's contacts prove it the
    osculating conic, and otherwise `FermatCurve.osculating`'s.

    Only contacts already on the curve are read: `all` builds them for its
    contact checks, while a query that needs no contact builds none, since
    at d = 24 and 32 they cost more than the closed forms they replace."""
    if n == 2 and curve.contacts is not None:
        conic = curve.contacts.osculating.get(p)
        if conic is not None:
            return conic
    return curve.osculating(p, n)


# -- invariant intersections -------------------------------------------------


def verify_invariant_intersection(curve: FermatCurve, g: Automorphism,
                                  p: ProjPoint, n: int) -> bool:
    """Whether the degree-n osculating curves along the orbit of p cut the
    fixed line of g in one shared point set (with multiplicities)."""
    L = fixed_line(g)
    if L is None:
        raise FermatoscError("automorphism has no pointwise-fixed line")
    restrictions = [restrict_to_line(_osculating(curve, q, n), L)
                    for q in curve_orbit(curve, p, g)]
    first = restrictions[0]
    if first.is_zero():
        return all(r.is_zero() for r in restrictions)
    return all(first.proportional(r) for r in restrictions[1:])


# -- concurrency reports --------------------------------------------------------


@dataclass
class ConcurrencyReport:
    kind: str                      # "tangent" or "conic"
    line: HomPoly
    points: list                   # the d sextactic points on the line
    fixed_line: Optional[HomPoly]
    count: int                     # certified number of common points
    common_points: list            # exact coordinates when they live in K_d
    certificates: dict = dc_field(default_factory=dict)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "line": self.line.to_json_dict(),
            "points": [{"cluster": s.cluster, "j": s.j, "k": s.k,
                        "coords": s.point.to_json()} for s in self.points],
            "fixed_line": (self.fixed_line.to_json_dict()
                           if self.fixed_line is not None else None),
            "count": self.count,
            "common_points": [q.to_json() for q in self.common_points],
            "certificates": self.certificates,
        }


def points_on_line(curve: FermatCurve, line: HomPoly):
    """The sextactic points on a line, through the curve's ratio lookup."""
    return curve.sextactic_on_line(line)


def orbit_automorphism_for_line(curve: FermatCurve, line: HomPoly, pts):
    """The coordinate scaling whose orbit is the point set `pts` of a line.

    Only the scaling of a coordinate missing from the line maps the line to
    itself, so that scaling is the one candidate; its orbit through the
    first point, kept on the curve by `curve_orbit`, must be the point set.
    The scaling is the curve's own (`coordinate_scaling`).
    """
    zeros = [i for i, c in enumerate(line.line_coeffs()) if c.is_zero()]
    if len(zeros) == 1:
        g = coordinate_scaling(curve, zeros[0])
        orb = curve_orbit(curve, pts[0].point, g)
        point_set = {s.point for s in pts}
        if len(orb) == len(point_set) and set(orb) == point_set:
            return g
    raise CertificationFailure(
        "no scaling automorphism has the line's points as one orbit")


def _line_family(curve: FermatCurve, grid_line: HomPoly):
    """The d sextactic points of a grid line and the line fixed pointwise by
    the scaling whose orbit they are, built once per line and kept on the
    curve (`FermatCurve.line_families`); fewer than d points raise
    `CertificationFailure` with the points found as its witness, and keep
    nothing."""
    family = curve.line_families.get(grid_line)
    if family is None:
        d = curve.d
        pts = points_on_line(curve, grid_line)
        if len(pts) != d:
            raise CertificationFailure(
                f"{len(pts)} sextactic points on the line, need {d}",
                witness=pts)
        g = orbit_automorphism_for_line(curve, grid_line, pts)
        family = curve.line_families[grid_line] = (pts, fixed_line(g))
    return family


# -- grid lines by orbit ------------------------------------------------------


def carry_premises(curve: FermatCurve) -> bool:
    """Whether the curve holds both premises of carrying a grid line's
    concurrency certificates (`carries`), read off the curve and never
    built: its contacts (`contacts`) found F invariant and prove the
    hyperosculating conic the osculating conic at all 3d^2 sextactic
    points, and the collinearity search certified that rho, phi and psi,
    which generate the monomial group, map the sextactic points into
    themselves (`FermatCurve.generator_images`)."""
    found = curve.contacts
    return (found is not None and found.invariant
            and len(found.osculating) == len(curve.sextactic)
            and curve.generator_images is not None)


def line_carriers(curve: FermatCurve, L0: HomPoly, L: HomPoly) -> list:
    """The elements h of the monomial group with L o h proportional to L0,
    read off the two lines' coefficients, for lines with two nonzero
    coefficients each: at most one per bijection of the supports.

    h(p)_i = s_i p[perm[i]], so L o h has the coefficient a_i s_i at
    x_perm[i].  perm sends L's support {i, j} (i < j) onto L0's support
    and L's missing coordinate to L0's; L o h is then proportional to L0
    when s_i / s_j = b_perm[i] a_j / (b_perm[j] a_i), a and b the
    coefficients of L and L0.  That ratio must be a power of zeta
    (`FermatCurve.zeta_powers`); it is s_i, and the other two scalars are
    one, so s_2 = 1.  The caller checks each candidate (`carries`)."""
    a, b = L.line_coeffs(), L0.line_coeffs()
    support = [i for i, c in enumerate(a) if not c.is_zero()]
    support0 = [i for i, c in enumerate(b) if not c.is_zero()]
    if len(support) != 2 or len(support0) != 2:
        return []
    (i, j), one = support, curve.field.one
    out = []
    for pi, pj in (support0, support0[::-1]):
        ratio = b[pi] * a[j] * (b[pj] * a[i]).inverse()
        if ratio in curve.zeta_powers:
            perm, scale = [3 - pi - pj] * 3, [one] * 3
            perm[i], perm[j], scale[i] = pi, pj, ratio
            out.append(Automorphism(curve.field, perm, scale))
    return out


def carries(curve: FermatCurve, h: Automorphism, L0: HomPoly,
            L: HomPoly) -> bool:
    """Whether an element h of the monomial group, as `line_carriers`
    gives, carries the concurrency certificates of the grid line L0 to L,
    on a curve that holds the premises (`carry_premises`), checked
    exactly: L o h is proportional to L0; h maps p0, the first point of
    L0's family (`_line_family`), to a point q on L that is a sextactic
    point with a proved osculating conic; and the tangent and that conic at
    q, composed with h, are proportional to the tangent and conic at p0.

    h is then an automorphism of F (F is invariant under the group) that
    maps the sextactic points S onto themselves (the group is generated by
    rho, phi and psi), and h(L0) = L, so S meets L in h(S meets L0).
    Tangents move with h because F o h = F, and conics because each is the
    unique osculating conic at its point.  So the d tangents along L meet
    in one point, the image of L0's, on L's fixed line, the image of L0's
    (h conjugates the scaling of L0's missing coordinate into the scaling
    of L's), and the d conics along L share as many points as those along
    L0.  The checks at q test the tangent and the conic at one point of L;
    at its other points they follow from this argument.  q is on L, as
    L(h(p0)) is a multiple of L0(p0), which `_line_family` certified zero."""
    if not h.pullback(L).proportional(L0):
        return False
    osculating = curve.contacts.osculating
    p0 = _line_family(curve, L0)[0][0].point
    q = h.apply_point(p0)
    conic = osculating.get(q)
    return (conic is not None
            and h.pullback(curve.osculating(q, 1)).proportional(
                curve.osculating(p0, 1))
            and h.pullback(conic).proportional(osculating[p0]))


def tangent_concurrency(curve: FermatCurve, grid_line: HomPoly) -> ConcurrencyReport:
    """Certify that the d tangents at the d sextactic points of a grid line
    meet in exactly one point, a d-fold point of their union."""
    d = curve.d
    pts, L = _line_family(curve, grid_line)
    tangents = [curve.osculating(s.point, 1) for s in pts]
    if len({t.canonical_line() for t in tangents}) != d:
        raise CertificationFailure("coincident tangents in the family")
    q = ProjPoint(curve.field, cross(tangents[0].line_coeffs(),
                                     tangents[1].line_coeffs()))
    vals = [t.evaluate(q) for t in tangents]
    if not all(v.is_zero() for v in vals):
        raise CertificationFailure("tangents are not concurrent",
                                   witness=[v.to_json_dict() for v in vals])
    cert = {
        "tangents_pairwise_distinct": True,
        "all_tangents_vanish_at_point": True,
        "point_on_fixed_line": L.evaluate(q).is_zero(),
    }
    return ConcurrencyReport("tangent", grid_line, pts, L, 1, [q], cert)


def _coordinate_index(L: HomPoly) -> Optional[int]:
    nz = [i for i, c in enumerate(L.line_coeffs()) if not c.is_zero()]
    return nz[0] if len(nz) == 1 else None


def conic_common_points(curve: FermatCurve, grid_line: HomPoly) -> ConcurrencyReport:
    """Certify the exact number of common points of the d hyperosculating
    conics along a grid line: two when the restricted discriminant is
    nonzero, one (with the fixed line tangent to every conic) when it is
    zero.  No common point lies off the fixed line x_var = 0: each conic's
    cofactor against conic 0, the member of their pencil that vanishes on
    the line divided by x_var, passes through every such point, and two of
    them that are not proportional leave one candidate, on the line or
    missed by some conic (`_exclude_off_line`).  The cofactor of any other
    pair of conics is a combination of two of these, so it adds nothing.
    """
    field = curve.field
    pts, L = _line_family(curve, grid_line)
    conics = [curve.hyperosculating(s) for s in pts]
    var = _coordinate_index(L)
    if var is None:
        raise CertificationFailure("fixed line is not a coordinate line")

    restrictions = [restrict_to_line(c, L) for c in conics]
    base = restrictions[0]
    if base.is_zero():
        raise CertificationFailure("conic contains the fixed line")
    if not all(base.proportional(r) for r in restrictions[1:]):
        raise CertificationFailure("restrictions to the fixed line disagree")
    disc = disc2(base)
    on_line = 1 if disc.is_zero() else 2

    common = []
    if on_line == 1:
        # double root of the restricted quadratic: (s0 : t0) = (-b : 2a),
        # or (1 : 0) when the quadratic degenerates to a multiple of t^2
        a, b = base.coeffs[2], base.coeffs[1]
        v1, v2 = line_parametrization(L)
        if a.is_zero():
            s0, t0 = field.one, field.zero
        else:
            s0, t0 = -b, 2 * a
        coords = [s0 * v1[i] + t0 * v2[i] for i in range(3)]
        common.append(ProjPoint(field, coords))

    excl = _exclude_off_line(conics, var, field)

    cert = {
        "restrictions_pairwise_proportional": True,
        "restriction_disc2": disc.to_json_dict(),
        "disc2_is_zero": disc.is_zero(),
        "off_line_exclusion": excl,
    }
    return ConcurrencyReport("conic", grid_line, pts, L, on_line, common, cert)


def _exclude_off_line(conics, var: int, field) -> dict:
    """Certify that no point off the coordinate line x_var = 0 lies on all
    conics, from their cofactors against conic 0 (`_cofactor`).

    The caller has checked that conic 0 does not contain the line and that
    every conic c restricts to it as mu_c times conic 0, so each pencil
    member c(e0) c_0 - c_0(e0) c, e0 conic 0's first term free of x_var,
    is x_var times a linear cofactor m_c.  Two cofactors that are not
    proportional meet in one point q, and every common point off the line
    is q.  The cofactor of conics 1 and i is a combination of m_1 and m_i,
    (b / c_0(e0)) (mu_1 m_i - mu_i m_1) with b conic 0's coefficient at
    conic 1's first term free of x_var, so the pairs (1, i) add no
    direction: when the m_c are pairwise proportional, so is every
    cofactor of two conics."""
    c0 = conics[0]
    e0 = next(e for e in c0.terms if e[var] == 0)
    cofactors = (m for c in conics[1:]
                 if not (m := _cofactor(c0, c, e0, var)).is_zero())
    first = next(cofactors, None)
    second = next((m for m in cofactors if not first.proportional(m)), None)
    if second is None:
        raise CertificationFailure(
            "could not find two independent pencil cofactors")
    q = ProjPoint(field, cross(first.line_coeffs(), second.line_coeffs()))
    if q.coords[var].is_zero():
        return {"candidate_on_fixed_line": True}
    # the first conic that misses the candidate is the witness
    for i, c in enumerate(conics):
        value = c.evaluate(q)
        if not value.is_zero():
            return {"candidate_on_fixed_line": False,
                    "candidate": q.to_json(),
                    "witness_conic_index": i,
                    "witness_value": value.to_json_dict()}
    raise CertificationFailure(
        "family shares an extra point off the fixed line",
        witness=q.to_json())


def _cofactor(c0: HomPoly, c: HomPoly, e0, var: int) -> HomPoly:
    """The linear form (c(e0) c0 - c0(e0) c) / x_var, read from the terms
    divisible by x_var alone, in ascending exponent order; the terms free
    of x_var cancel when c and c0 agree on x_var = 0 up to a factor and
    e0 is a term of c0 free of x_var."""
    a, b = c0.coeff(e0), c.coeff(e0)
    return HomPoly(c0.field, c0.deg - 1, {
        e[:var] + (e[var] - 1,) + e[var + 1:]: c0.coeff(e) * b - c.coeff(e) * a
        for e in sorted(c0.terms.keys() | c.terms.keys()) if e[var]})
