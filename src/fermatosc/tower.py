"""Exact arithmetic in the tower field K_d = Q(u, t).

Here u is a primitive 2d-th root of unity (u^d = -1, reduced modulo the
cyclotomic polynomial of order 2d) and t is the real positive d-th root of 2.

The minimal polynomial of t over the cyclotomic part depends on d:

* d not divisible by 4:  t^d - 2  (deg_t = d);
* d divisible by 4:      t^(d/2) - (u^(d/4) - u^(3d/4))  (deg_t = d/2),

because in the second case the cyclotomic field already contains
sqrt(2) = u^(d/4) - u^(3d/4) and t^d - 2 would factor, leaving zero
divisors.  The choice of root is pinned by the distinguished embedding
eps(u) = exp(i*pi/d), eps(t) = 2^(1/d) real positive.

Every element is stored in one normal form, integer numerators over one
denominator: `terms`, the nonzero triples (i, j, n) sorted by (i, j), and
`den > 0` with gcd(den, n, ...) = 1, representing sum n u^i t^j / den,
0 <= i < phi(2d), 0 <= j < deg_t.  Zero is ((), 1).  Equal values have
equal normal forms, so equality and hashing compare (terms, den).
`TowerField._make` is the one constructor that brings raw integer terms to
this form: every product, sum, scale, negation and inverse hands it its
terms.  The per-coefficient rationals (`nonzero_terms`) and the dense
phi(2d) x deg_t table (`coeffs`) are views built on demand.  Q(u) has no
representation of its own: its elements are the t-free elements of K_d.

Multiplication multiplies the integer numerators by one term loop (`_imul`):
each term pair is added along one precomputed integer row, u^e for the
product's u-degree e, times t^deg_t when the t-degrees wrap; the rows are
built from the monic integer Phi_2d alone, so they are integral.
`TowerField.dot` (start + sum k x y, ints k) runs all its products through
the loop over one denominator and normalises once (delayed reduction, as in
FFLAS-FFPACK).  A factor equal to one (terms ((0, 0, 1),) over 1, tested by
value) returns the other factor as it is.  An int k scales the numerators,
with no Fraction and no element for k built; k = 1 returns the element.

Inversion goes through norms.  An element b(u) t^j times t^(deg_t - j)
lies in Q(u).  Any other element is inverted through its norm to Q(u): K
is a Kummer extension of Q(u), so the product of the element's deg_t
conjugates under t -> zeta^k t lies in Q(u), and a t-part in it fails
certification.  Elements of Q(u) are inverted through their norm to Q in
the same way.  The field is certified when it is built (below), so a
nonzero element has a nonzero norm; a zero norm raises
`CertificationFailure` with the element as its witness.

`embed` evaluates the distinguished embedding in floating point for the
display-only `approx` columns; it is not certified, and no computation
reads it.  It imports `mpmath` on first use, so a command that prints no
`approx` column never loads it.

Each field construction is certified (`TowerField._certify`): the
t-modulus is irreducible by Capelli's criterion at one prime p = 1
(mod 2d), reached through the ring map u -> w of `split_primes`, and the
witness (p, w, c mod p) is kept as `TowerField.certificate`.  Primality
is decided by a deterministic Miller-Rabin test (`_is_prime`), a proof for
every number below `_MR_LIMIT`, about 3.3 * 10^24.

`TowerField.reduction()` gives a ring map K_d -> F_p at a split prime p
near 2^61, built on its first call and kept on the field, so building a
field does not pay for it.  p = 1 (mod 2d) is prime, u -> w with w a root
of Phi_2d mod p (checked in `split_primes`, as for the certificate), and
t -> r with r a root of t^m - c(w) mod p (checked), found by splitting off
the m-primary part of p - 1 (`_mth_root`); a failed check raises
`CertificationFailure`.  An element whose denominator p divides maps to
None.  A ring map proves only inequality: a != b when their images
differ, never a = b when they agree.  `arrangements.collinear_sextactic`
uses the images as keys to group the lines through sextactic points, and
certifies every equality it reports in K_d.

`memoized()` opens a block, in the manner of `decimal.localcontext()`, in
which the kernel follows one memo rule.  The paper's objects are orbits of
the monomial automorphism group, so a command multiplies the same few
root-of-unity coefficients again and again, and building an element is the
kernel's main cost.  Inside a block `_make` interns each element it builds,
keyed by (field, terms, den), so equal elements built in one block are one
object, and a repeated `*`, `+`, `-`, `invert` or `dot` is answered by the
`id()` of its operands (the pair ordered by id for `*` and `+`; for `dot`
the start and the triples in order), with no element hashed or compared.
Each entry holds its operands, so no operand is freed and its id reused
while the block is open.  A `dot` entry answers only the whole sum again,
where `*` and `+` entries answer each product and partial sum that recurs,
so the sites whose operands recur (restriction to a line, products of
forms, evaluation) stay on the operators, and the oracles' series and
resultant loops use `dot`.  Equality and hashing stay by value; `==` tests
identity first.  The checks that raise (mixed fields, inverting zero) come
first, so a rejected call stores nothing.  A block starts empty, restores
the enclosing one when it closes, and nothing in its tables outlives it.
The CLI opens one around each command and one per degree in `all`, where
the oracles run, and `in_block` one around the collinearity search.
Outside a block the kernel interns, looks up and holds nothing: a memo
without an end would keep every element a long-lived caller ever made.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction as Q
from functools import lru_cache, wraps
from itertools import islice
from math import gcd, lcm
from typing import Callable, NamedTuple

from .errors import CertificationFailure, FermatoscError

Q0 = Q(0)
Q1 = Q(1)
_ONE = ((0, 0, 1),)                           # the terms of 1, over den 1

D_MIN = 3
D_MAX = 64
# the split primes of `TowerField.reduction` are searched from here up,
# at most this many of them
REDUCTION_START = 1 << 61
REDUCTION_PRIMES = 4096

# the memo of the innermost open `memoized()` block, or None: interned
# elements by (field, terms, den); products, sums, differences, inverses
# and `dot` sums by operand ids, each entry holding its operands
_MEMO = ContextVar("fermatosc_tower_memo", default=None)


@contextmanager
def memoized():
    """A block in which the kernel interns each element it builds and
    answers a repeated `*`, `+`, `-`, `invert` or `dot` by operand
    identity; see the module docstring."""
    token = _MEMO.set(({}, {}, {}, {}, {}, {}))
    try:
        yield
    finally:
        _MEMO.reset(token)


def in_block(fn):
    """`fn` in the caller's open block, or else in a `memoized()` of its own
    (looked up at call time) that closes when `fn` returns or raises.  Only
    the collinearity search is wrapped, where a block was measured to pay."""
    @wraps(fn)
    def call(*args, **kwargs):
        if _MEMO.get() is not None:
            return fn(*args, **kwargs)
        with memoized():
            return fn(*args, **kwargs)
    return call


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_m over proper divisors m of n
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for m in range(1, n):
        if n % m == 0:
            div = cyclotomic_int_coeffs(m)
            num = _zpoly_exact_div(num, list(div))
    return tuple(num)


def _zpoly_exact_div(num, den):
    """Exact division of integer polynomial lists (ascending coefficients)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] // den[dd]
        out[k - dd] = c
        if c:
            for i, dc in enumerate(den):
                num[k - dd + i] -= c * dc
    if any(num):
        raise CertificationFailure("non-exact polynomial division")
    return out


# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below this bound (Sorenson-Webster 2015), so the test is a proof there
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by the deterministic Miller-Rabin test; n at or
    above `_MR_LIMIT`, where no proof is known, raises `ValueError`."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    s, e = 0, n - 1
    while not e & 1:
        s, e = s + 1, e >> 1
    for a in _MR_BASES:
        x = pow(a, e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = set()
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    if m > 1:
        out.add(m)
    return out


def _primary_part(n: int, m: int) -> int:
    """The largest divisor of n whose prime factors all divide m."""
    out = 1
    for q in _prime_factors(m):
        while n % q == 0:
            n //= q
            out *= q
    return out


def _mth_root(c: int, m: int, p: int) -> int:
    """An r with r^m = c mod p, for a nonzero m-th power c and m | p - 1.

    Write p - 1 = A B with A the m-primary part (`_primary_part`), so B is
    prime to m, and c = c_A c_B with c_A = c^(B b), c_B = c^(A a) for
    A a = 1 (mod B) and B b = 1 (mod A).  c_B has order dividing B, so its
    root is c_B^(m^-1 mod B); c_A lies in the cyclic group of order A,
    which a search over the powers of one generator h of it solves.
    """
    A = _primary_part(p - 1, m)
    B = (p - 1) // A
    r = pow(c, A * pow(A, -1, B) * pow(m, -1, B), p) if B > 1 else 1
    c_a = pow(c, B * pow(B, -1, A), p)
    h = next(h for h in (pow(g, B, p) for g in range(2, p))
             if all(pow(h, A // q, p) != 1 for q in _prime_factors(A)))
    step, x, root = pow(h, m, p), 1, 1
    for _ in range(A):
        if x == c_a:
            return r * root % p
        x, root = x * step % p, root * h % p
    raise CertificationFailure(f"{c} is not an {m}-th power mod {p}")


def _image_map(field, p: int, w: int, r: int):
    """The map sum n u^i t^j / den -> sum n w^i r^j / den mod p, with None
    for an element whose denominator p divides."""
    table = [[pow(w, i, p) * pow(r, j, p) % p for j in range(field.deg_t)]
             for i in range(field.phi)]
    inverses = {}

    def image(a):
        den = a.den
        inv = inverses.get(den)
        if inv is None:
            if den % p == 0:
                return None
            inv = inverses[den] = pow(den, -1, p)
        return sum(n * table[i][j] for i, j, n in a.terms) * inv % p
    return image


class Reduction(NamedTuple):
    """A ring map K_d -> F_p, u -> w, t -> r, on the elements whose
    denominator p does not divide: p = 1 (mod 2d) is prime, w a root of
    Phi_2d mod p and r a root of t^m - c(w) mod p, each checked.  `image`
    sends an element to its image, or to None when p divides its
    denominator.  It proves only inequalities: a != b when the images
    differ."""

    p: int
    w: int
    r: int
    image: Callable


def _power_rows(phi_coeffs, n: int):
    """u^e for e < n as sparse integer pairs (i, c) over 1, u, u^2, ...,
    where u is a root of the monic integer polynomial `phi_coeffs`
    (ascending): each row is the previous one times u, reduced."""
    vec = [1] + [0] * (len(phi_coeffs) - 2)
    rows = []
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(vec) if c))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [v - top * c for v, c in zip(vec, phi_coeffs)]
    return rows


class TowerField:
    """Arithmetic context for K_d; holds reduction tables and constants.

    `certificate` is the witness (p, w, c) of `_certify` that the
    t-modulus is irreducible, so that K_d is a field.
    """

    def __init__(self, d: int):
        if not (D_MIN <= d <= D_MAX):
            raise ValueError(f"degree d must be in [{D_MIN}, {D_MAX}], got {d}")
        self.d = d
        self.n_u = 2 * d                       # u has order 2d
        self.phi = len(cyclotomic_int_coeffs(self.n_u)) - 1
        self.deg_t, tval = self._t_modulus()

        # integer rows, as sparse pairs (i, c): u^e for e < 2d, reduced by
        # the monic Phi_2d, and u^e * t^deg_t for the products' u-degrees e
        self._zrows = _power_rows(cyclotomic_int_coeffs(self.n_u), self.n_u)
        self._zrows_t = zrows_t = []
        for e in range(2 * self.phi - 1):
            acc = {}
            for k, s in tval:
                for i, c in self._zrows[(e + k) % self.n_u]:
                    acc[i] = acc.get(i, 0) + s * c
            zrows_t.append(tuple(sorted((i, c) for i, c in acc.items() if c)))

        # the automorphisms u -> u^m of Q(u) other than the identity
        self._units = [m for m in range(2, self.n_u) if gcd(m, self.n_u) == 1]
        self.certificate = self._certify()
        self._reduction = None                 # built by `reduction()`

        self.zero = FieldElement(self, (), 1)
        self.one = self.from_rational(Q1)
        self.u = self.monomial(1, 0)
        self.zeta = self.monomial(2, 0)        # zeta = u^2, primitive d-th root
        self.t = self.monomial(0, 1)
        self.t_inv = self.invert(self.t)
        self._emb_cache = {}

    # -- construction -----------------------------------------------------

    def _t_modulus(self):
        """(deg_t, tval) for the t-modulus t^deg_t - c, with c = sum s u^k
        over the pairs (k, s) of tval: 2, or sqrt(2) = u^(d/4) - u^(3d/4)
        when 4 | d."""
        d = self.d
        if d % 4:
            return d, ((0, 2),)
        return d // 2, ((d // 4, 1), (3 * d // 4, -1))

    def split_primes(self, start: int = 1):
        """The primes p = 1 (mod 2d) above `start`, ascending, each with w
        from `_root_of_unity`.

        w is a root of Phi_2d mod p, which is checked, so u -> w is a ring
        map Z[u] -> F_p.
        """
        n = self.n_u
        phi_coeffs = cyclotomic_int_coeffs(n)
        p = start - (start - 1) % n
        while True:
            p += n
            if not _is_prime(p):
                continue
            w = self._root_of_unity(p)
            acc = 0
            for c in reversed(phi_coeffs):
                acc = (acc * w + c) % p
            if acc:
                raise CertificationFailure(
                    f"w = {w} is not a root of Phi_{n} mod {p}")
            yield p, w

    def _root_of_unity(self, p: int) -> int:
        """The first c^((p-1)/2d), c = 2, 3, ..., of exact order 2d mod a
        prime p = 1 (mod 2d)."""
        n = self.n_u
        cofactors = [n // q for q in _prime_factors(n)]
        return next(w for w in (pow(c, (p - 1) // n, p) for c in range(2, p))
                    if all(pow(w, e, p) != 1 for e in cofactors))

    def _t_power_mod(self, p: int, w: int) -> int:
        """The image of t^deg_t, an element of Z[u], in F_p under u -> w."""
        return sum(s * pow(w, k, p) for k, s in self._t_modulus()[1]) % p

    def _certify(self):
        """The witness (p, w, c) that the t-modulus t^m - c (m = deg_t) is
        irreducible over Q(u), so that K_d is a field.

        Phi_2d is irreducible over Q, and Z[u] is the ring of integers of
        Q(u).  The modulus is monic over Z[u], so the roots of a monic factor
        over Q(u) are integral and its coefficients lie in Z[u]: a
        factorization reduces mod (p, u - w) to one of t^m - (c mod p) over
        F_p, for each (p, w) of `split_primes`.  By Capelli's criterion
        (Lidl-Niederreiter, Finite Fields, Thm 3.75) t^m - c is irreducible
        over F_p when c is nonzero and no l-th power for any prime l | m;
        since l | m | p - 1, that is c^((p-1)/l) != 1.  Its clause for 4 | m,
        c not in -4 F_p^4, adds nothing: 4 | m forces p = 1 (mod 8), where
        -4 = (1 + i)^4 is a fourth power.  The first of at most 64 split
        primes that passes is the witness; none raises
        `CertificationFailure`.
        """
        ells = _prime_factors(self.deg_t)
        for p, w in islice(self.split_primes(), 64):
            c = self._t_power_mod(p, w)
            if c and all(pow(c, (p - 1) // l, p) != 1 for l in ells):
                return p, w, c
        raise CertificationFailure(
            f"no split prime certifies the t-modulus of K_{self.d}")

    def reduction(self) -> "Reduction":
        """The ring map of K_d onto F_p at a split prime near 2^61
        (`Reduction`), found on the first call and kept on the field."""
        if self._reduction is None:
            self._reduction = self._reduce()
        return self._reduction

    def _reduce(self) -> "Reduction":
        """The first split prime p above `REDUCTION_START` at which c, the
        image of t^m (m = deg_t) under u -> w, is a nonzero m-th power and
        the m-primary part of p - 1 is at most 8d, with a root r of
        t^m - c from `_mth_root`.  r^m = c is checked; a failure raises
        `CertificationFailure`, and so does a search that finds no prime
        among the first `REDUCTION_PRIMES`."""
        m = self.deg_t
        for p, w in islice(self.split_primes(REDUCTION_START),
                           REDUCTION_PRIMES):
            c = self._t_power_mod(p, w)
            if not c or pow(c, (p - 1) // m, p) != 1:
                continue
            if _primary_part(p - 1, m) > 4 * self.n_u:
                continue
            r = _mth_root(c, m, p)
            if pow(r, m, p) != c:
                raise CertificationFailure(
                    f"r = {r} is not a root of t^{m} - {c} mod {p}")
            return Reduction(p, w, r, _image_map(self, p, w, r))
        raise CertificationFailure(f"no split prime reduces K_{self.d}")

    # -- element constructors ----------------------------------------------

    def _make(self, terms, den) -> "FieldElement":
        """The element sum n u^i t^j / den of integer terms (i, j, n) with
        distinct (i, j), in normal form: zero terms dropped, the content
        gcd(den, n, ...) divided out, den > 0, terms sorted by (i, j).
        Inside a `memoized()` block the first element built with this
        value is returned."""
        terms = [t for t in terms if t[2]]
        if not terms:
            return self.zero
        if den != 1:
            g = gcd(den, *[n for _, _, n in terms])
            if den < 0:
                g = -g
            if g != 1:
                terms = [(i, j, n // g) for i, j, n in terms]
                den //= g
        terms = tuple(sorted(terms))
        memo = _MEMO.get()
        if memo is None:
            return FieldElement(self, terms, den)
        key = (self, terms, den)
        out = memo[0].get(key)
        if out is None:
            out = memo[0][key] = FieldElement(self, terms, den)
        return out

    def from_rational(self, q) -> "FieldElement":
        q = Q(q)
        return self._make([(0, 0, q.numerator)], q.denominator)

    def monomial(self, ue: int, te: int) -> "FieldElement":
        """u^ue * t^te, for any integer ue (u has order 2d) and
        0 <= te < deg_t; another t exponent raises `ValueError`."""
        if not 0 <= te < self.deg_t:
            raise ValueError(f"t exponent {te} outside [0, {self.deg_t})")
        row = self._zrows[ue % self.n_u]
        return self._make([(i, te, c) for i, c in row], 1)

    def u_pow(self, e: int) -> "FieldElement":
        return self.monomial(e, 0)

    def zeta_pow(self, e: int) -> "FieldElement":
        return self.monomial(2 * e, 0)

    # -- arithmetic kernel ---------------------------------------------------

    def _imul(self, *triples):
        """The reduced sum of f A B over the triples (f, A, B) of ints f and
        integer term lists (i, j, n), as its nonzero terms: each term pair is
        added along one integer row of the reduction table."""
        deg_t, phi = self.deg_t, self.phi
        zrows, zrows_t = self._zrows, self._zrows_t
        acc = {}                               # i * deg_t + j -> coefficient
        get = acc.get
        for f, A, B in triples:
            for i1, j1, n1 in A:
                n1 *= f
                for i2, j2, n2 in B:
                    v = n1 * n2
                    j = j1 + j2
                    e = i1 + i2
                    if j >= deg_t:
                        j -= deg_t
                        row = zrows_t[e]
                    elif e < phi:
                        k = e * deg_t + j
                        acc[k] = get(k, 0) + v
                        continue
                    else:
                        row = zrows[e]
                    for r, c in row:
                        k = r * deg_t + j
                        acc[k] = get(k, 0) + c * v
        return [(*divmod(k, deg_t), v) for k, v in acc.items() if v]

    def dot(self, triples, start=None) -> "FieldElement":
        """start + sum k x y over the triples (k, x, y) of elements x, y and
        ints k: one `_imul` over a common denominator, one `_make`; in a
        `memoized()` block a repeated call (by operand ids) is looked up."""
        if start is not None:
            triples = [*triples, (1, start, self.one)]
        live, key = [], []
        for t in triples:
            k, x, y = t
            if x.field is not self or y.field is not self:
                raise FermatoscError(f"mixed fields in a sum over K_{self.d}")
            if k and x.terms and y.terms:
                live.append(t)
                key += k, id(x), id(y)
        memo = _MEMO.get()
        if memo is not None and (hit := memo[5].get(key := tuple(key))):
            return hit[1]
        den = lcm(*[x.den * y.den for _, x, y in live])
        out = self._make(self._imul(*[(k * (den // (x.den * y.den)), x.terms,
                                       y.terms) for k, x, y in live]), den)
        if memo is not None:
            memo[5][key] = (live, out)
        return out

    # -- inversion ----------------------------------------------------------

    def _unorm(self, A):
        """(P, N) with A^-1 = P / N, for nonzero integer terms A of Q(u).

        Q(u) is Galois over Q, with the automorphisms u -> u^m for m prime
        to 2d.  P is the product of the conjugates with m != 1, so A P = N
        is the norm of A, a nonzero integer; a u-part in it raises
        `CertificationFailure`.
        """
        if len(A) == 1:
            # (n u^i)^-1 = u^(2d - i) / n
            i, _, n = A[0]
            return [(r, 0, c) for r, c in self._zrows[-i % self.n_u]], n
        P = None
        for m in self._units:
            conj = self._conjugate(A, m, 0)
            P = conj if P is None else self._imul((1, P, conj))
        N = self._imul((1, A, P))
        if len(N) != 1 or N[0][0]:
            raise CertificationFailure("norm to Q has a u-part")
        return P, N[0][2]

    def invert(self, a: "FieldElement") -> "FieldElement":
        """The inverse of a nonzero element, exact.

        * One power of t, a = A t^j / den with A in Q(u): B = A t^s with
          s = -j mod deg_t lies in Q(u), and a^-1 = den t^s B^-1, with the
          inverse in Q(u) from `_unorm`.
        * Otherwise by the norm (`_invert_norm`).  The field is certified,
          so the norm of a nonzero element is nonzero; a zero norm raises
          `CertificationFailure` with a as its witness.

        In a `memoized()` block an inverse already computed is reused.
        """
        if a.field is not self:
            raise FermatoscError("element from a different field")
        if not a.terms:
            raise FermatoscError("cannot invert zero")
        memo = _MEMO.get()
        if memo is None:
            return self._invert(a)
        hit = memo[4].get(id(a))
        if hit is None:
            out = self._invert(a)
            memo[4][id(a)] = (a, out)
            return out
        return hit[1]

    def _invert(self, a: "FieldElement") -> "FieldElement":
        A = a.terms
        j = A[0][1]
        if any(jj != j for _, jj, _ in A):
            return self._invert_norm(a)
        s = -j % self.deg_t
        P, norm = self._unorm(self._imul((1, A, [(0, s, 1)])) if s else A)
        return self._make([(i, s, n * a.den) for i, _, n in P], norm)

    def _invert_norm(self, a: "FieldElement") -> "FieldElement":
        """a^-1 = P / N by the norm N = a P to Q(u).

        K is a Kummer extension of Q(u): sigma_k(t) = zeta^k t, with
        zeta = u^(2d / deg_t) of order deg_t, fixes Q(u) and the t-modulus.
        P is the product of the conjugates sigma_k(a), k = 1..deg_t-1, so
        N is fixed by every sigma_k and has no t-part; a t-part or a zero N
        raises `CertificationFailure`.  The products run on the integer
        numerators A through `_imul`: with a = A / den, a^-1 = den * P(A) /
        N(A).
        """
        A = a.terms
        step = self.n_u // self.deg_t          # zeta = u^step
        P = self._conjugate(A, 1, step)
        for k in range(2, self.deg_t):
            P = self._imul((1, P, self._conjugate(A, 1, k * step)))
        N = self._imul((1, A, P))
        if not N:
            raise CertificationFailure("zero norm of a nonzero element",
                                       witness=a)
        if any(j for _, j, _ in N):
            raise CertificationFailure("norm to Q(u) has a t-part")
        V, norm = self._unorm(N)
        return self._make(self._imul((a.den, P, V)), norm)

    def _conjugate(self, A, m, s):
        """The integer terms A under u^i t^j -> u^(m i + s j) t^j, reduced
        by the integer rows `_zrows`."""
        acc = {}
        for i, j, n in A:
            for r, c in self._zrows[(m * i + s * j) % self.n_u]:
                acc[r, j] = acc.get((r, j), 0) + c * n
        return [(r, j, v) for (r, j), v in acc.items() if v]

    # -- embedding -------------------------------------------------------------

    def _embed_tables(self, prec):
        tables = self._emb_cache.get(prec)
        if tables is None:
            import mpmath
            with mpmath.mp.workprec(prec):
                ub = mpmath.exp(1j * mpmath.pi / self.d)
                tb = mpmath.mpf(2) ** (mpmath.mpf(1) / self.d)
                upows = [mpmath.mpc(1)]
                for _ in range(self.phi - 1):
                    upows.append(upows[-1] * ub)
                tpows = [mpmath.mpc(1)]
                for _ in range(self.deg_t - 1):
                    tpows.append(tpows[-1] * tb)
            tables = (upows, tpows)
            self._emb_cache[prec] = tables
        return tables

    def embed(self, a: "FieldElement", precision_bits: int) -> mpmath.mpc:
        """eps(a) at `precision_bits` bits, for display only: the rounding
        is not bounded, and no certificate reads the value."""
        import mpmath
        upows, tpows = self._embed_tables(precision_bits)
        with mpmath.mp.workprec(precision_bits):
            acc = mpmath.mpc(0)
            for (i, j, c) in a.nonzero_terms():
                acc += upows[i] * tpows[j] * (mpmath.mpf(c.numerator)
                                              / c.denominator)
        return acc

    def __repr__(self):
        return f"TowerField(d={self.d}, dim={self.phi * self.deg_t})"


def _int_terms(nz):
    """Terms (i, j, c) as integer numerators over one common denominator:
    (terms, den)."""
    dens = [c.denominator for _, _, c in nz]
    den = lcm(*dens)
    return [(i, j, c.numerator * (den // dn))
            for (i, j, c), dn in zip(nz, dens)], den


class FieldElement:
    """Immutable element of K_d: sum n u^i t^j / den over `terms`.

    `terms` holds the nonzero integer triples (i, j, n) sorted by (i, j),
    and `den > 0` with gcd(den, n, ...) = 1; zero is ((), 1).  Built by
    `TowerField._make` alone, which brings raw integer terms to this form
    and interns them inside a `memoized()` block.
    """

    __slots__ = ("field", "terms", "den", "_hash", "__weakref__")

    def __init__(self, field: TowerField, terms: tuple, den: int):
        self.field = field
        self.terms = terms
        self.den = den
        self._hash = None

    # -- views ---------------------------------------------------------------

    def nonzero_terms(self):
        """The terms (i, j, c) with reduced rationals c, in (i, j) order."""
        return tuple((i, j, Q(n, self.den)) for i, j, n in self.terms)

    @property
    def coeffs(self):
        """The dense phi x deg_t table of rational coefficients."""
        fld = self.field
        rows = [[Q0] * fld.deg_t for _ in range(fld.phi)]
        for i, j, c in self.nonzero_terms():
            rows[i][j] = c
        return tuple(tuple(r) for r in rows)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.d, self.terms, self.den))
        return self._hash

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not FieldElement:
            other = _coerce(self.field, other)
            if other is None:
                return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.terms == other.terms)

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def _mixed(self, other):
        raise FermatoscError(
            f"mixed fields: d={self.field.d} vs d={other.field.d}")

    def __add__(self, other):
        if other.__class__ is not FieldElement:
            other = _coerce(self.field, other)
            if other is None:
                return NotImplemented
        if other.field is not self.field:
            self._mixed(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        memo = _MEMO.get()
        if memo is None:
            return self._add(other, 1)
        a, b = id(self), id(other)
        key = (a, b) if a <= b else (b, a)
        hit = memo[2].get(key)
        if hit is None:
            out = self._add(other, 1)
            memo[2][key] = (self, other, out)
            return out
        return hit[2]

    def _add(self, other, sign):
        """self + sign * other, for sign in (1, -1)."""
        den = lcm(self.den, other.den)
        acc = {}
        for e, f in ((self, den // self.den), (other, sign * den // other.den)):
            for i, j, n in e.terms:
                acc[i, j] = acc.get((i, j), 0) + n * f
        return self.field._make([(i, j, n) for (i, j), n in acc.items()], den)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return self.field._make([(i, j, -n) for i, j, n in self.terms],
                                self.den)

    def __sub__(self, other):
        if other.__class__ is not FieldElement:
            other = _coerce(self.field, other)
            if other is None:
                return NotImplemented
        if other.field is not self.field:
            self._mixed(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        memo = _MEMO.get()
        if memo is None:
            return self._add(other, -1)
        key = (id(self), id(other))
        hit = memo[3].get(key)
        if hit is None:
            out = self._add(other, -1)
            memo[3][key] = (self, other, out)
            return out
        return hit[2]

    def __rsub__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not FieldElement:
            if other.__class__ is int:
                return self._scale(other)
            other = _coerce(self.field, other)
            if other is None:
                return NotImplemented
        if other.field is not self.field:
            self._mixed(other)
        if not self.terms or not other.terms:
            return self.field.zero
        if self.den == 1 and self.terms == _ONE:
            return other
        if other.den == 1 and other.terms == _ONE:
            return self
        memo = _MEMO.get()
        if memo is None:
            return self._mul(other)
        a, b = id(self), id(other)
        key = (a, b) if a <= b else (b, a)
        hit = memo[1].get(key)
        if hit is None:
            out = self._mul(other)
            memo[1][key] = (self, other, out)
            return out
        return hit[2]

    def _mul(self, other):
        fld = self.field
        return fld._make(fld._imul((1, self.terms, other.terms)),
                         self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, k: int) -> "FieldElement":
        """self * k for a Python int k: the numerators times k over den,
        with no Fraction and no element for k built."""
        if not k or not self.terms:
            return self.field.zero
        if k == 1:
            return self
        return self.field._make([(i, j, n * k) for i, j, n in self.terms],
                                self.den)

    def __truediv__(self, other):
        other = _coerce(self.field, other)
        if other is None:
            return NotImplemented
        return self * self.field.invert(other)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.field.invert(self) ** (-e)
        return power(self, e) if e else self.field.one

    def inverse(self) -> "FieldElement":
        return self.field.invert(self)

    # -- io ---------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"d": d, "terms": [[i, j, "p/q"], ...]}, each coefficient n/den
        reduced by one gcd."""
        den = self.den
        terms = [[i, j, f"{n // (g := gcd(n, den))}/{den // g}"]
                 for i, j, n in self.terms]
        return {"d": self.field.d, "terms": terms}

    def __repr__(self):
        nz = self.nonzero_terms()
        if not nz:
            return "K[0]"
        bits = []
        for (i, j, c) in nz[:8]:
            part = str(c)
            if i:
                part += f"*u^{i}"
            if j:
                part += f"*t^{j}"
            bits.append(part)
        if len(nz) > 8:
            bits.append("...")
        return "K[" + " + ".join(bits) + "]"


def power(base, e: int):
    """base^e for e >= 1 by square-and-multiply from the top bit of e:
    bit_length - 1 squarings and popcount - 1 further products."""
    out = base
    for bit in bin(e)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


def _coerce(field: TowerField, value):
    if isinstance(value, FieldElement):
        return value
    if isinstance(value, int) or type(value) is type(Q0):
        return field.from_rational(value)
    return None


@lru_cache(maxsize=None)
def tower_field(d: int) -> TowerField:
    """Shared, certified field context for a given degree."""
    return TowerField(d)


def field_element_from_json(obj: dict) -> FieldElement:
    fld = tower_field(int(obj["d"]))
    acc = {}
    for i, j, s in obj["terms"]:
        key = (int(i), int(j))
        if not (0 <= key[0] < fld.phi and 0 <= key[1] < fld.deg_t):
            raise ValueError(f"term exponents {key} outside the normal form "
                             f"of K_{fld.d}")
        acc[key] = acc.get(key, Q0) + Q(s)
    return fld._make(*_int_terms([(*k, c) for k, c in acc.items()]))
