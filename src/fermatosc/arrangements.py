"""Grid-line arrangements, singularity censuses, freeness and collinearity.

The arrangements attached to the Fermat curve of degree d:

    A: (x^d + y^d)(y^d + z^d)(z^d + x^d)     inflection tangents
    B: (x^d - y^d)(y^d - z^d)(z^d - x^d)     core of the 2-Hessian
    M: (z^d + 2y^d)(x^d + 2z^d)(y^d + 2x^d)
    N: (y^d + 2z^d)(z^d + 2x^d)(x^d + 2y^d)

Subscripts name the variable missing from the defining binary form, so
B_z = V(x^d - y^d), M_x = V(z^d + 2y^d), N_y = V(z^d + 2x^d); those three
host the cluster-z sextactic points with d points per line.  Each group is
written once, by its first component in `GROUP_TOKENS` (A_z, B_z, M_x, N_x):
the other two components are its rotations (a, b, c) -> (c, a, b) of the
coefficients, of the binary form in `grid_component_poly` and of each
linear factor in `grid_line`.

An arrangement is built from a curve, and its lines are the curve's own:
its line table (`token_lines`) holds one object for each of the 9d grid
lines of B+M+N, the 3d inflection tangents of A and the three triangle
lines, built one token at a time on first use, each line certified
distinct from every line built before it.  The table also keeps the point
where each pair of its lines meets and the certified contacts of the curve
with each line, so the ten arrangements of `all` at one degree build each
line once, meet each pair once and certify each line's contacts once.

The census lists all singular points of the union (optionally together with
the curve itself), the freeness test solves the quadratic necessary
condition r^2 - (dh-1) r + (dh-1)^2 = tau for an integer exponent
r <= (dh-1)/2, and the collinearity search finds every line through three
or more sextactic points exactly, on keys in F_p or, when those give up,
in K_d: the monomial automorphism group acts transitively on the points,
so the orbit of the lines through one point holds every such line.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from .errors import CertificationFailure, NonOrdinary
from .fermat import FermatCurve, rotate, sextactic_points
from .hompoly import (LINEAR_EXPS, BinaryForm, HomPoly, ProjPoint, _powers,
                      cross, parameter_of_point, restrict_to_line)
from .symmetry import phi, psi, rho
from .tower import TowerField, in_block, tower_field

GROUP_TOKENS = {"B": ("Bz", "Bx", "By"), "M": ("Mx", "My", "Mz"),
                "N": ("Nx", "Ny", "Nz"), "A": ("Az", "Ax", "Ay")}
GRID_TOKENS = tuple(tok for toks in GROUP_TOKENS.values() for tok in toks)
# the tokens of a curve's line table (`token_lines`), in table order: the 9d
# grid lines of B+M+N as `cli` numbers them, then A, then the triangle
TABLE_TOKENS = GRID_TOKENS + ("triangle",)
# the (x^d, y^d, z^d) coefficients of each group's first component
GROUP_FORMS = {"B": (1, -1, 0), "M": (0, 2, 1), "N": (0, 1, 2),
               "A": (1, 1, 0)}


@dataclass
class LineArrangement:
    label: str
    curve: FermatCurve                # whose line table holds the lines
    lines: list                       # degree-1 HomPoly, the table's objects
    index: tuple                      # the table index of each line

    def __post_init__(self):
        # the table's lines are certified pairwise distinct, so lines with
        # distinct indices are distinct
        if len(set(self.index)) != len(self.index):
            raise ValueError(f"duplicate lines in arrangement {self.label}")

    def product_poly(self) -> HomPoly:
        out = HomPoly.monomial(self.curve.field, (0, 0, 0), 1)
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


def grid_line(token: str, field: TowerField, d: int, i: int) -> HomPoly:
    """Linear factor i (0 <= i < d) of one binary-form grid component.

    Each group has one representative line family, written for its first
    token in `GROUP_TOKENS`; the next two tokens are its rotations by
    (a, b, c) -> (c, a, b) of the coefficient triple:

        B_z: x - zeta^i y       A_z: x - u^k y  (k = 2i + 1)
        M_x: z - u^(-k) t y     N_x: y - u^(-k) t z
    """
    group = token[0]
    if group == "B":
        c = field.zeta_pow(i)
    elif group == "A":
        c = field.u_pow(2 * i + 1)
    else:
        c = field.monomial(-(2 * i + 1), 1)
    n = GROUP_TOKENS[group].index(token)
    # positions of the coefficients 1 and -c in the representative
    one_at, c_at = {"M": (2, 1), "N": (1, 2)}.get(group, (0, 1))
    coefs = [field.zero] * 3
    coefs[one_at], coefs[c_at] = field.one, -c
    return HomPoly.line(field, *rotate(coefs, -n))


def grid_component_poly(token: str, field: TowerField, d: int) -> HomPoly:
    """The defining binary form of a grid component, e.g. Mx -> z^d + 2y^d:
    its group's `GROUP_FORMS` entry, rotated as `grid_line` rotates."""
    n = GROUP_TOKENS[token[0]].index(token)
    coefs = rotate(GROUP_FORMS[token[0]], -n)
    return HomPoly(field, d, {(d * a, d * b, d * c): field.from_rational(v)
                              for (a, b, c), v in zip(LINEAR_EXPS, coefs)})


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


def token_lines(curve: FermatCurve, token: str) -> tuple:
    """The lines of one token in the curve's line table (`FermatCurve.lines`):
    the d lines of a grid token or the triangle x, y, z, built on the
    token's first use, each certified distinct from every line of the table
    built before it by its canonical key (`FermatCurve.line_keys`)."""
    lines = curve.lines.get(token)
    if lines is None:
        field, d = curve.field, curve.d
        if token == "triangle":
            lines = tuple(HomPoly.monomial(field, exps, 1)
                          for exps in LINEAR_EXPS)
        else:
            lines = tuple(grid_line(token, field, d, i) for i in range(d))
        keys = {L.canonical_line() for L in lines}
        # a triangle line has one nonzero coefficient and every other line
        # two, so lines that coincide are grid lines of one variable pair
        if len(keys) != len(lines) or not keys.isdisjoint(curve.line_keys):
            raise CertificationFailure(
                "two lines of the curve's line table coincide")
        curve.line_keys |= keys
        curve.lines[token] = lines
    return lines


def build(label: str, curve: FermatCurve) -> LineArrangement:
    """Assemble an arrangement from a label such as B, M+triangle, BzMxNy.

    The lines are the curve's own (`token_lines`), so that every
    arrangement of the degree shares one object per line, its chart, the
    meets of each pair and its contacts with the curve.
    """
    d = curve.d
    lines, index = [], []
    for tok in parse_label(label):
        own = token_lines(curve, tok)
        start = TABLE_TOKENS.index(tok) * d
        lines.extend(own)
        index.extend(range(start, start + len(own)))
    return LineArrangement(label, curve, lines, tuple(index))


# -- census ----------------------------------------------------------------


def _curve_points_on_line(curve: FermatCurve, L: HomPoly):
    """The points where the curve meets a line, each with its contact,
    certified complete by Bezout's theorem.

    The curve is smooth, hence irreducible, so it contains no line: its
    restriction to L is a nonzero form of degree d, and the contacts on L
    sum to d.  The candidates are the special points on L
    (`FermatCurve.specials_on_line`, which certifies each on L by one exact
    evaluation), each checked on the curve
    (`FermatCurve.specials_on_curve`).  Exactly d pairwise distinct
    candidates are then all of the intersection, each of contact 1, and no
    restriction is built.  One candidate (a flex tangent of A), with
    parameter (s0 : t0) on L, has contact d exactly when the restriction
    is proportional to (t0 s - s0 t)^d.  Any other candidate set fails the
    certificate.
    """
    d = curve.d
    pts = curve.specials_on_line(L)
    for p in pts:
        if p not in curve.specials_on_curve:
            raise CertificationFailure("special point off the curve",
                                       witness=p.to_json())
    if len(pts) == d == len(set(pts)):
        return dict.fromkeys(pts, 1)
    if len(pts) == 1:
        s0, t0 = parameter_of_point(pts[0], L)
        sp, tp = _powers(-s0, d), _powers(t0, d)
        power = BinaryForm(curve.field, [tp[i] * sp[d - i] * math.comb(d, i)
                                         for i in range(d + 1)])
        if restrict_to_line(curve.poly, L).proportional(power):
            return {pts[0]: d}
    raise CertificationFailure(
        "curve-line intersections not exhausted by special points")


def census(arr: LineArrangement, with_curve: bool = False):
    """All singular points of the union, joined with the arrangement's
    curve if `with_curve`, grouped with exact multiplicities, in the order
    their first pair of lines is met (`cli` sorts the entries it reports).

    Each pair of lines is met once per curve, the point kept by the pair of
    their table indices (`FermatCurve.meets`), and the contacts of the
    curve with each line are certified once per curve
    (`FermatCurve.line_contacts`).

    With the curve, every curve fact comes from the contacts of the curve
    with each line, certified by Bezout's count (`_curve_points_on_line`:
    d distinct special points on the line and on the curve, each of
    contact 1, or one flex of contact d), which hold every point where the
    curve meets the arrangement: a point is on the curve exactly when it
    has a contact, and an on-curve point is ordinary exactly when every
    line through it has contact 1 there (the curve is smooth, so contact 2
    or more means the line is the tangent).
    """
    curve, lines, index = arr.curve, arr.lines, arr.index
    field, meets = curve.field, curve.meets
    n = len(lines)
    coeffs = [L.line_coeffs() for L in lines]
    through = {}
    for i in range(n):
        a = index[i]
        for k in range(i + 1, n):
            b = index[k]
            key = (a, b) if a < b else (b, a)
            p = meets.get(key)
            if p is None:
                p = meets[key] = ProjPoint(field,
                                           cross(coeffs[i], coeffs[k]))
            through.setdefault(p, set()).update((i, k))

    curve_contact = {}
    if with_curve:
        known = curve.line_contacts
        for i, a in enumerate(index):
            mults = known.get(a)
            if mults is None:
                mults = known[a] = _curve_points_on_line(curve, lines[i])
            for p, m in mults.items():
                curve_contact.setdefault(p, {})[i] = m
                through.setdefault(p, set()).add(i)

    entries = []
    for p, line_idx in through.items():
        n_lines = len(line_idx)
        on_curve = None
        mult = n_lines
        ordinary = True
        if with_curve:
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

    n_pairs = sum(e.n_lines * (e.n_lines - 1) // 2 for e in entries
                  if e.n_lines >= 2)
    if n_pairs != n * (n - 1) // 2:
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
    """An admissible integer root r of r^2 - (D-1) r + (D-1)^2 - tau = 0,
    D = degree_hat, tau the census total of (m-1)^2: the Milnor number mu,
    an upper bound for the Tjurina number.  A free curve has Tjurina
    number (D-1)^2 - r (D-1-r) >= 3 (D-1)^2 / 4 (du Plessis-Wall), so a
    negative discriminant 4 mu - 3 (D-1)^2 proves "not free".  Every other
    verdict, "free" above all, is only this quadratic necessary condition
    (ROADMAP item 2), not a proof."""
    dm1 = degree_hat - 1
    const = dm1 * dm1 - tau
    disc = dm1 * dm1 - 4 * const
    sign = "negative" if disc < 0 else "zero" if disc == 0 else "positive"
    exponents = None
    if disc >= 0:
        s = math.isqrt(disc)
        r = (dm1 - s) // 2
        if s * s == disc and (dm1 - s) % 2 == 0 and 0 <= r <= dm1 - r:
            exponents = (r, dm1 - r)
    return FreenessVerdict(degree_hat, tau, (1, -dm1, const), disc, sign,
                           exponents, exponents is not None)


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
    """(x^d - y^d)(z^d + 2y^d)(z^d + 2x^d), the product of Bz, Mx and Ny."""
    field = tower_field(d)
    bz, mx, ny = (grid_component_poly(tok, field, d)
                  for tok in ("Bz", "Mx", "Ny"))
    return bz * mx * ny


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


@in_block
def collinear_sextactic(curve: FermatCurve):
    """Every line through at least three sextactic points, certified exactly.

    The generators rho, phi and psi of the monomial group permute the
    sextactic points, which must be pairwise distinct, and must act
    transitively on them.  Their certified images are kept on the curve
    (`FermatCurve.generator_images`), where the carried concurrency stage
    of `cli` reads them as the proof that every element of the group maps
    the sextactic points onto themselves.  The lines through point 0 that
    hold two or more other points are closed under the generators, where g
    carries a line L to L o g^-1 and its members to their images under g.

    The orbit is complete.  Let a line l hold three or more points, q one
    of them.  Transitivity gives a g with q = g.p0, so g^-1 l passes through
    p0 and holds three or more points: it is a line through p0, and l lies
    in its orbit.

    One search, `_lines`, finds the lines on keys: a point's key is its
    coordinates up to scale, a line's the key of the cross product of two
    of its points.  It runs on keys in F_p first (`_fp_keys`), through the
    ring map of `TowerField.reduction`, which proves only inequality, so
    each key match is checked exactly: every generator image by
    `Automorphism.maps`, every member on its line.  A zero key, a key with
    no image (p divides a denominator), two points with one key, or a match
    refused makes the F_p search give up; it then runs on the exact keys of
    K_d (`_exact_keys`), which never collide, and where a refused match
    raises `CertificationFailure`.  Giving up costs time and never changes
    an answer.
    """
    field = curve.field
    pts = sextactic_points(curve)
    gens = [(g, g.inverse()) for g in (rho(field), phi(field), psi(field))]
    found = _lines(field, pts, gens, _fp_keys(field))
    if found is None:
        found = _lines(field, pts, gens, _exact_keys(field))
    curve.generator_images, lines = found
    return [CollinearLine(L, members, tuple(s.cluster for s in members))
            for L, members in lines]


# a key ring of `_lines`: the key of a coordinate, of a triple up to scale
# (None on trouble) and of the line through two keyed points, and the
# policy for a key match that an exact check refuses
_Keys = namedtuple("_Keys", "coord point line refuse")


def _fp_keys(field: TowerField) -> _Keys:
    """Keys in F_p: coordinates mapped by `TowerField.reduction`, a triple
    scaled mod p to a first nonzero entry of one, None for zero or for an
    entry with no image.  A refused match gives up: `_lines` returns None."""
    p, _, _, image_of = field.reduction()

    def point(v):
        if None in v:
            return None
        a, b, c = v[0] % p, v[1] % p, v[2] % p
        pivot = a or b or c
        if pivot == 1:
            return a, b, c
        if not pivot:
            return None
        inv = pow(pivot, -1, p)
        return a * inv % p, b * inv % p, c * inv % p

    return _Keys(image_of, point, lambda a, b: point(cross(a, b)),
                 lambda message, witness=None: None)


def _exact_keys(field: TowerField) -> _Keys:
    """Keys in K_d: each coordinate itself, a triple scaled as `ProjPoint`
    scales it.  Exact keys never collide, so a refused match raises
    `CertificationFailure`."""
    def point(v):
        return ProjPoint(field, v).coords

    def refuse(message, witness=None):
        raise CertificationFailure(message, witness=witness)

    return _Keys(lambda c: c, point, lambda a, b: point(cross(a, b)), refuse)


def _lines(field, pts, gens, keys: _Keys):
    """The generator images and the lines of `collinear_sextactic`,
    found on `keys` and certified exactly: for each generator, the index
    of the image of each point, and the lines as (line, members) in report
    order (`HomPoly.line_key`), the members in `pts` order; a key match
    refused goes to `keys.refuse`."""
    n = len(pts)
    pkeys = [keys.point([keys.coord(c) for c in s.point.coords]) for s in pts]
    index = {k: i for i, k in enumerate(pkeys)}
    if None in index or len(index) != n:
        return keys.refuse("two sextactic points coincide")
    images = []
    for g, _ in gens:
        scale = [keys.coord(c) for c in g.scale]
        if None in scale:
            return keys.refuse("a generator's scale has no key")
        image = []
        for s, k in zip(pts, pkeys):
            j = index.get(keys.point([a * k[i]
                                      for a, i in zip(scale, g.perm)]))
            if j is None or not g.maps(s.point, pts[j].point):
                return keys.refuse(
                    "a generator maps a sextactic point off the set",
                    witness=s.label())
            image.append(j)
        images.append(tuple(image))
    reached, seen = [0], {0}
    for i in reached:
        new = {image[i] for image in images} - seen
        seen |= new
        reached += new
    if len(reached) != n:
        raise CertificationFailure(
            "the generators do not act transitively on the sextactic points",
            witness=len(reached))

    through = {}
    for i in range(1, n):
        through.setdefault(keys.line(pkeys[0], pkeys[i]), [0]).append(i)
    # key -> (the line, indices of the points on it)
    p0 = pts[0].point.coords
    lines = {k: (HomPoly.line(field, *cross(p0, pts[idx[1]].point.coords))
                 .canonical_line(), set(idx))
             for k, idx in through.items() if len(idx) >= 3}
    queue = list(lines)
    for k in queue:
        L, idx = lines[k]
        for (_, g_inv), image in zip(gens, images):
            moved = sorted(image[i] for i in idx)
            key = keys.line(pkeys[moved[0]], pkeys[moved[1]])
            if key not in lines:
                lines[key] = (g_inv.pullback(L).canonical_line(), set())
                queue.append(key)
            lines[key][1].update(moved)
    # a None key (a zero image) may hide a line or key one line twice
    if None in through or None in lines:
        return keys.refuse("a line through two sextactic points has no key")
    found = []
    for L, idx in sorted(lines.values(),
                         key=lambda pair: HomPoly.line_key(pair[0])):
        members = [pts[i] for i in sorted(idx)]
        for s in members:
            if not L.evaluate(s.point).is_zero():
                return keys.refuse("collinear member off its line",
                                   witness=s.label())
        found.append((L, members))
    return tuple(images), found
