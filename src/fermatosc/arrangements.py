"""Grid-line arrangements, singularity censuses, freeness and collinearity.

The arrangements attached to the Fermat curve of degree d:

    A: (x^d + y^d)(y^d + z^d)(z^d + x^d)     inflection tangents
    B: (x^d - y^d)(y^d - z^d)(z^d - x^d)     core of the 2-Hessian
    M: (z^d + 2y^d)(x^d + 2z^d)(y^d + 2x^d)
    N: (y^d + 2z^d)(z^d + 2x^d)(x^d + 2y^d)

Subscripts name the variable missing from the defining binary form, so
B_z = V(x^d - y^d), M_x = V(z^d + 2y^d), N_y = V(z^d + 2x^d); those three
host the cluster-z sextactic points with d points per line.

The census lists all singular points of the union (optionally together with
the curve itself), the freeness test solves the quadratic necessary
condition r^2 - (dh-1) r + (dh-1)^2 = tau for an integer exponent
r <= (dh-1)/2, and the collinearity search enumerates every line through
three or more sextactic points exactly, using reductions modulo two primes
as a pre-filter before exact confirmation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import CertificationFailure, NonOrdinary
from .fermat import FermatCurve, rotate, sextactic_points
from .hompoly import (HomPoly, ProjPoint, cross, det3, parameter_of_point,
                      restrict_to_line)
from .tower import (TowerField, _find_modular_hom, _reduce_element_mod,
                    tower_field)

GRID_TOKENS = ("Bz", "Bx", "By", "Mx", "My", "Mz", "Nx", "Ny", "Nz",
               "Az", "Ax", "Ay")
GROUP_TOKENS = {"A": ("Az", "Ax", "Ay"), "B": ("Bz", "Bx", "By"),
                "M": ("Mx", "My", "Mz"), "N": ("Nx", "Ny", "Nz")}

@dataclass
class LineArrangement:
    label: str
    field: TowerField
    lines: list                       # degree-1 HomPoly, pairwise non-proportional

    def __post_init__(self):
        keys = [L.line_key() for L in self.lines]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate lines in arrangement {self.label}")

    def __len__(self):
        return len(self.lines)

    def product_poly(self) -> HomPoly:
        out = HomPoly.monomial(self.field, (0, 0, 0), 1)
        for L in self.lines:
            out = out * L
        return out


@dataclass
class CensusEntry:
    point: ProjPoint
    multiplicity: int                 # members through the point (curve counts)
    ordinary: bool
    n_lines: int
    on_curve: Optional[bool] = None


@dataclass
class FreenessVerdict:
    degree_hat: int
    tau: int
    quadratic: tuple                  # (1, -(dh-1), (dh-1)^2 - tau)
    discriminant: int
    discriminant_sign: str            # negative / zero / positive
    exponents: Optional[tuple]
    free: bool

    def to_json_dict(self):
        return {"degree_hat": self.degree_hat, "tau": self.tau,
                "quadratic": list(self.quadratic),
                "discriminant": self.discriminant,
                "discriminant_sign": self.discriminant_sign,
                "exponents": list(self.exponents) if self.exponents else None,
                "free": self.free}


def _grid_lines(token: str, field: TowerField, d: int):
    """Linear factors of one binary-form grid component.

    Each group has one representative line family, written for its first
    token in `GROUP_TOKENS`; the next two tokens are its rotations by
    (a, b, c) -> (c, a, b) of the coefficient triple:

        B_z: x - zeta^j y       A_z: x - u^k y  (k odd)
        M_x: z - u^(-k) t y     N_x: y - u^(-k) t z
    """
    group = token[0]
    if group == "B":
        params = [field.zeta_pow(j) for j in range(d)]
    elif group == "A":
        params = [field.u_pow(k) for k in range(1, 2 * d, 2)]
    else:
        params = [field.monomial(-k, 1) for k in range(1, 2 * d, 2)]
    n = GROUP_TOKENS[group].index(token)
    # positions of the coefficients 1 and -c in the representative
    one_at, c_at = {"M": (2, 1), "N": (1, 2)}.get(group, (0, 1))
    out = []
    for c in params:
        coefs = [field.zero] * 3
        coefs[one_at], coefs[c_at] = field.one, -c
        out.append(HomPoly.line(field, *rotate(coefs, -n)))
    return out


def grid_component_poly(token: str, field: TowerField, d: int) -> HomPoly:
    """The defining binary form of a grid component, e.g. Mx -> z^d + 2y^d."""
    x, y, z = HomPoly.variables(field)
    v = {"x": x, "y": y, "z": z}
    forms = {"Bz": v["x"]**d - v["y"]**d, "Bx": v["y"]**d - v["z"]**d,
             "By": v["z"]**d - v["x"]**d,
             "Az": v["x"]**d + v["y"]**d, "Ax": v["y"]**d + v["z"]**d,
             "Ay": v["z"]**d + v["x"]**d,
             "Mx": v["z"]**d + 2 * v["y"]**d, "My": v["x"]**d + 2 * v["z"]**d,
             "Mz": v["y"]**d + 2 * v["x"]**d,
             "Nx": v["y"]**d + 2 * v["z"]**d, "Ny": v["z"]**d + 2 * v["x"]**d,
             "Nz": v["x"]**d + 2 * v["y"]**d}
    return forms[token]


def parse_label(label: str):
    """Split an arrangement label into grid/triangle tokens."""
    tokens = []
    for part in label.replace(" ", "").split("+"):
        if not part:
            continue
        if part in ("triangle", "xyz"):
            tokens.append("triangle")
            continue
        if part in GROUP_TOKENS:
            tokens.extend(GROUP_TOKENS[part])
            continue
        i = 0
        while i < len(part):
            tok = part[i:i + 2]
            if tok in GRID_TOKENS:
                tokens.append(tok)
                i += 2
            elif part[i] in GROUP_TOKENS:
                tokens.extend(GROUP_TOKENS[part[i]])
                i += 1
            else:
                raise ValueError(f"cannot parse arrangement label {label!r}")
    if not tokens:
        raise ValueError("empty arrangement label")
    return tokens


def build(label: str, d: int) -> LineArrangement:
    """Assemble an arrangement from a label such as B, M+triangle, BzMxNy."""
    field = tower_field(d)
    lines = []
    for tok in parse_label(label):
        if tok == "triangle":
            for exps in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                lines.append(HomPoly.monomial(field, exps, 1))
        else:
            lines.extend(_grid_lines(tok, field, d))
    return LineArrangement(label, field, lines)


# -- census ----------------------------------------------------------------


def _curve_points_on_line(curve: FermatCurve, L: HomPoly):
    """Exact intersection of the curve with a line, certified complete.

    Candidates are the special points (sextactic and inflection) the
    curve's incidence table finds on the line; the restriction of the curve
    to the line must factor completely into the corresponding parameter
    roots (with multiplicity), which certifies that no intersection point
    was missed.
    """
    pts = curve.incidence.specials_on_line(L)
    rest = restrict_to_line(curve.poly, L)
    mults = {}
    for p in pts:
        m = rest.root_multiplicity(*parameter_of_point(p, L))
        if m == 0:
            raise CertificationFailure("special point not on restriction")
        mults[p] = m
    if sum(mults.values()) != curve.d:
        raise NonOrdinary(
            "curve-line intersections not exhausted by special points")
    return mults


def census(arr: LineArrangement, extra_curve: Optional[FermatCurve] = None):
    """All singular points of the union, grouped with exact multiplicities.

    With a curve, every curve fact comes from the certified contacts of the
    curve with each line, which hold every point where the curve meets the
    arrangement: a point is on the curve exactly when it has a contact, and
    an on-curve point is ordinary exactly when every line through it has
    contact 1 there (the curve is smooth, so contact 2 or more means the
    line is the tangent).
    """
    field = arr.field
    coeffs = [L.line_coeffs() for L in arr.lines]
    through = {}
    for i in range(len(arr.lines)):
        for k in range(i + 1, len(arr.lines)):
            p = ProjPoint(field, cross(coeffs[i], coeffs[k]))
            through.setdefault(p, set()).update((i, k))

    curve_contact = {}
    if extra_curve is not None:
        for i, L in enumerate(arr.lines):
            for p, m in _curve_points_on_line(extra_curve, L).items():
                curve_contact.setdefault(p, {})[i] = m
                through.setdefault(p, set()).add(i)

    entries = []
    for p, line_idx in through.items():
        n_lines = len(line_idx)
        on_curve = None
        mult = n_lines
        ordinary = True
        if extra_curve is not None:
            on_curve = p in curve_contact
            if on_curve:
                mult += 1
                contacts = curve_contact[p]
                if not line_idx <= contacts.keys():
                    raise CertificationFailure(
                        "on-curve point without a contact on one of its lines",
                        witness=p.to_json())
                ordinary = all(contacts[i] == 1 for i in line_idx)
        if mult >= 2:
            entries.append(CensusEntry(p, mult, ordinary, n_lines, on_curve))
    # report order: the dense view of each coordinate as a string, built
    # once per distinct coordinate
    coord_keys = {}
    for e in entries:
        for c in e.point.coords:
            if c not in coord_keys:
                coord_keys[c] = str(c.coeffs)
    entries.sort(key=lambda e: tuple(coord_keys[c] for c in e.point.coords))

    n_pairs = sum(e.n_lines * (e.n_lines - 1) // 2 for e in entries
                  if e.n_lines >= 2)
    if n_pairs != len(arr.lines) * (len(arr.lines) - 1) // 2:
        raise CertificationFailure("pair conservation failed",
                                   witness=n_pairs)
    return entries


def multiplicity_multiset(entries):
    out = {}
    for e in entries:
        out[e.multiplicity] = out.get(e.multiplicity, 0) + 1
    return out


def tjurina_total(entries) -> int:
    """Sum of (m-1)^2 over ordinary m-fold points."""
    for e in entries:
        if not e.ordinary:
            raise NonOrdinary(f"non-ordinary point of multiplicity "
                              f"{e.multiplicity}")
    return sum((e.multiplicity - 1) ** 2 for e in entries)


def freeness_test(degree_hat: int, tau: int) -> FreenessVerdict:
    """Integer-exponent solution of r^2 - (dh-1) r + (dh-1)^2 = tau."""
    dm1 = degree_hat - 1
    const = dm1 * dm1 - tau
    disc = dm1 * dm1 - 4 * const
    if disc < 0:
        sign = "negative"
    elif disc == 0:
        sign = "zero"
    else:
        sign = "positive"
    exponents = None
    free = False
    if disc >= 0:
        s = math.isqrt(disc)
        if s * s == disc and (dm1 - s) % 2 == 0:
            r = (dm1 - s) // 2
            if 0 <= r <= dm1 - r:
                exponents = (r, dm1 - r)
                free = True
    return FreenessVerdict(degree_hat, tau, (1, -dm1, const), disc, sign,
                           exponents, free)


# -- syzygies -----------------------------------------------------------------


def verify_syzygy(triple, P: HomPoly) -> bool:
    """True iff a*P_x + b*P_y + c*P_z vanishes identically."""
    degs = {t.deg for t in triple if not t.is_zero()}
    if len(degs) > 1:
        raise ValueError("syzygy components must have uniform degree")
    acc = None
    for comp, var in zip(triple, range(3)):
        term = comp * P.partial(var)
        acc = term if acc is None else acc + term
    return acc.is_zero()


def koszul_triple(P: HomPoly, i: int, j: int):
    """The antisymmetric relation (P_j, -P_i) placed in slots i, j."""
    field = P.field
    comps = [HomPoly.zero(field, max(P.deg - 1, 0)) for _ in range(3)]
    comps[i] = P.partial(j)
    comps[j] = -P.partial(i)
    return tuple(comps)


def grid_product_poly(d: int) -> HomPoly:
    """(x^d - y^d)(z^d + 2y^d)(z^d + 2x^d)."""
    field = tower_field(d)
    x, y, z = HomPoly.variables(field)
    return (x**d - y**d) * (z**d + 2 * y**d) * (z**d + 2 * x**d)


def fermat_grid_product_poly(d: int) -> HomPoly:
    field = tower_field(d)
    x, y, z = HomPoly.variables(field)
    return (x**d + y**d + z**d) * grid_product_poly(d)


def syzygy_candidates(d: int):
    """The documented candidate generator triples, evaluated verbatim.

    Returns a list of (name, triple, polynomial) entries; verify_syzygy on
    each records whether the candidate actually annihilates the Jacobian.
    """
    field = tower_field(d)

    def mono(e, c):
        return HomPoly.monomial(field, e, c)

    p_grid = grid_product_poly(d)
    p_full = fermat_grid_product_poly(d)

    hi_grid = (
        mono((d + 1, 0, 0), 2) + mono((1, d, 0), -4) + mono((1, 0, d), 2),
        mono((d, 1, 0), -4) + mono((0, d + 1, 0), 2) + mono((0, 1, d), 2),
        mono((d, 0, 1), -(4 ** (d + 1))) + mono((0, d, 1), -(4 ** (d + 1)))
        + mono((0, 0, d + 1), -1),
    )
    lo_grid = (
        mono((d - 1, d - 1, 0), 2),
        mono((0, d - 1, d - 1), -1),
        mono((d - 1, 0, d - 1), -1),
    )
    hi_full = (
        mono((2 * d + 1, 0, 0), 2) + mono((1, 2 * d, 0), -6)
        + mono((d + 1, 0, d), 6) + mono((1, d, d), -6) + mono((1, 0, 2 * d), 3),
        mono((2 * d, 1, 0), -6) + mono((0, 2 * d + 1, 0), 2)
        + mono((d, 1, d), -6) + mono((0, d + 1, d), 6) + mono((0, 1, 2 * d), 3),
        mono((2 * d, 0, 1), -6) + mono((0, 2 * d, 1), -6)
        + mono((d, 0, d + 1), -6) + mono((0, d, d + 1), -6)
        + mono((0, 0, 2 * d + 1), -1),
    )
    lo_full = (
        mono((0, d - 1, d - 1), -1),
        mono((d - 1, 0, d - 1), -1),
        mono((d - 1, d - 1, 0), 2),
    )
    return [
        ("grid-high", hi_grid, p_grid),
        ("grid-low", lo_grid, p_grid),
        ("fermat-grid-high", hi_full, p_full),
        ("fermat-grid-low", lo_full, p_full),
    ]


# -- collinearity search -------------------------------------------------------


@dataclass
class CollinearLine:
    line: HomPoly
    points: list                      # SextacticPoint members
    clusters: tuple

    @property
    def mixed(self) -> bool:
        return len(set(self.clusters)) > 1


def _reduced_line(a, b, p: int) -> tuple:
    """The line through two points of P^2(F_p), scaled so that its first
    nonzero entry is 1; points that coincide mod p fail certification."""
    line = [c % p for c in cross(a, b)]
    pivot = next((c for c in line if c), 0)
    if not pivot:
        raise CertificationFailure(f"two sextactic points coincide mod {p}")
    inv = pow(pivot, p - 2, p)
    return tuple(c * inv % p for c in line)


def collinear_sextactic(curve: FermatCurve):
    """Every line through at least three sextactic points, found exactly.

    Each pair of points is hashed by its line reduced modulo two primes.
    Points collinear over K_d stay collinear modulo every prime, so a line
    through m >= 3 sextactic points puts all m of them in one group.  A
    group of three or more is confirmed exactly: the line through its first
    two points is evaluated at every member.  A group that also holds a
    point collinear only modulo both primes is confirmed triple by triple
    with exact 3x3 determinants, grouped by canonical line.
    """
    field = curve.field
    pts = sextactic_points(curve)
    n = len(pts)

    reduced = []
    for (p, w, r) in (_find_modular_hom(field, skip=0),
                      _find_modular_hom(field, skip=1)):
        reduced.append((p, [[_reduce_element_mod(c, p, w, r)
                             for c in s.raw_coords] for s in pts]))
    groups = {}
    for i in range(n):
        for j in range(i + 1, n):
            key = tuple(_reduced_line(red[i], red[j], p) for p, red in reduced)
            groups.setdefault(key, set()).update((i, j))

    # line key -> (line, indices of the points on it)
    lines = {}
    for group in groups.values():
        if len(group) < 3:
            continue
        idx = sorted(group)
        a, b = pts[idx[0]].raw_coords, pts[idx[1]].raw_coords
        L = HomPoly.line(field, *cross(a, b)).canonical_line()
        if all(L.evaluate(pts[k].raw_coords).is_zero() for k in idx[2:]):
            lines.setdefault(L.line_key(), (L, set()))[1].update(idx)
            continue
        for i, j, k in itertools.combinations(idx, 3):
            a, b = pts[i].raw_coords, pts[j].raw_coords
            if not det3((a, b, pts[k].raw_coords)).is_zero():
                continue
            L = HomPoly.line(field, *cross(a, b)).canonical_line()
            lines.setdefault(L.line_key(), (L, set()))[1].update((i, j, k))

    out = []
    for key in sorted(lines):
        L, idx = lines[key]
        members = [pts[i] for i in sorted(idx)]
        for s in members:
            if not L.evaluate(s.point).is_zero():
                raise CertificationFailure(
                    "collinear member off its line", witness=s.label())
        out.append(CollinearLine(L, members,
                                 tuple(s.cluster for s in members)))
    return out
