import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import operator  # noqa: E402

from fermatosc.hompoly import (BinaryForm, HomPoly, ProjPoint,  # noqa: E402
                               _substitute)
from fermatosc.symmetry import Automorphism  # noqa: E402
from fermatosc.tower import Q, _int_terms, tower_field  # noqa: E402


def compose_matrix(f, mat):
    """f with x_i -> sum_j mat[i][j] x_j (rows give the new forms), as a
    substitution of linear forms: the reference for the engine's direct
    coordinate changes."""
    field = f.field
    forms = [HomPoly.line(field, *row) for row in mat]
    return _substitute(f, forms, HomPoly.monomial(field, (0, 0, 0), 1),
                       HomPoly.zero(field, f.deg), operator.mul)


def z_slices(h, n):
    """h(s, 1, z) as a list, over the powers of z, of series in s mod s^n."""
    field = h.field
    out = [[field.zero] * n for _ in range(h.deg + 1)]
    for (a, _, c), coef in h.terms.items():
        if a < n:
            out[c][a] = coef
    return [BinaryForm(field, s) for s in out]


def random_element(field, rng, max_terms=3, num_bound=9,
                   den_choices=(1, 2, 3)):
    """Up to max_terms terms c u^i t^j of `field` at random positions, each
    c a numerator in [-num_bound, num_bound] over one of den_choices; two
    terms drawn at one position add."""
    acc = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randrange(field.phi), rng.randrange(field.deg_t))
        num = rng.randint(-num_bound, num_bound)
        acc[key] = acc.get(key, Q(0)) + Q(num, rng.choice(den_choices))
    return field._make(*_int_terms([(*k, c) for k, c in acc.items()]))


def identity(field):
    """The identity of the automorphism group, for monkeypatching a
    generator away."""
    return Automorphism(field, (0, 1, 2), (1, 1, 1))


def rand_nonzero(field, rng, **kw):
    while True:
        a = random_element(field, rng, **kw)
        if not a.is_zero():
            return a


def rand_homogeneous(field, rng, deg, n_terms=4):
    """Random homogeneous polynomial with small rational coefficients."""
    terms = {}
    exps = [(a, b, deg - a - b) for a in range(deg + 1)
            for b in range(deg + 1 - a)]
    for _ in range(n_terms):
        e = rng.choice(exps)
        c = field.from_rational(Q(rng.randint(-6, 6), rng.choice((1, 2))))
        if e in terms:
            terms[e] = terms[e] + c
        else:
            terms[e] = c
    return HomPoly(field, deg, {e: c for e, c in terms.items()
                                if not c.is_zero()})


def rand_point(field, rng):
    while True:
        coords = [field.from_rational(rng.randint(-4, 4)) for _ in range(3)]
        if any(not c.is_zero() for c in coords):
            return ProjPoint(field, coords)


def rand_curve_through(field, rng, deg, p, max_tries=60):
    """Random curve of the given degree through p, smooth at p."""
    for _ in range(max_tries):
        f = rand_homogeneous(field, rng, deg, n_terms=6)
        # shift a monomial that is nonzero at p so that f(p) = 0
        val = f.evaluate(p)
        mono = None
        for e in [(deg, 0, 0), (0, deg, 0), (0, 0, deg)]:
            mv = HomPoly.monomial(field, e, 1).evaluate(p)
            if not mv.is_zero():
                mono = (e, mv)
                break
        if mono is None:
            continue
        e, mv = mono
        f = f + HomPoly.monomial(field, e, -val * field.invert(mv))
        if not f.evaluate(p).is_zero():
            continue
        grads = [f.partial(i).evaluate(p) for i in range(3)]
        if all(g.is_zero() for g in grads):
            continue
        return f
    raise RuntimeError("could not build a smooth random curve")


def rand_line_through(field, rng, p):
    """Random line through p (not the tangent generically)."""
    while True:
        a = field.from_rational(rng.randint(-4, 4))
        b = field.from_rational(rng.randint(-4, 4))
        # solve a*px + b*py + c*pz = 0 for c when pz != 0, else permute
        for idx in (2, 1, 0):
            if not p.coords[idx].is_zero():
                others = [i for i in range(3) if i != idx]
                coefs = [field.zero] * 3
                coefs[others[0]] = a
                coefs[others[1]] = b
                s = coefs[others[0]] * p.coords[others[0]] \
                    + coefs[others[1]] * p.coords[others[1]]
                coefs[idx] = -s * field.invert(p.coords[idx])
                L = HomPoly(field, 1, {e: c for e, c in
                                       zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                           coefs) if not c.is_zero()})
                if not L.is_zero():
                    return L
        # all-zero draw; retry
