"""Exact arithmetic in Q(u) and exact linear algebra over it.

The deformation parameter is q = u^4 (so v = q^{1/2} = u^2 is also a
monomial).  Working over the rational function field in u keeps every
exponent that shows up downstream -- half-integer powers of q from weight
pairings, the Cartan factor of the R-matrix on integral weights -- an
integer power of u.

A Scalar is a reduced fraction of integer-coefficient polynomials in u.
A polynomial is a flat tuple (e0, c0, e1, c1, ...) of its nonzero terms
c_i u^{e_i}, exponents ascending (() is the zero polynomial, (0, 1) the
unit); reduction divides out the full Z[u] gcd and fixes the sign of the
denominator's leading coefficient, so equal field elements have equal
representations and ``==``/``hash`` are structural.  Every path below
produces exactly this canonical form, and no other module reads it: the
constructor takes ints and dense coefficient sequences (index = degree).
Almost every polynomial the verifier meets is u^v P(u^8), since the
q-numbers [n] = (q^n - q^-n)/(q - q^-1) with q = u^4 are polynomials in
q^2, so sums and products touch the nonzero terms only (Johnson 1974):
a sum merges two exponent runs, a monomial factor shifts and scales the
other one, and a binomial factor adds two such copies.

Normalisation.  Every gcd goes through `_pgcd`, which first splits off
the common power of u, the integer contents and a common exponent stride
(most operands are polynomials in u^8), so a monomial or constant gcd
needs no polynomial arithmetic; `_primitive_gcd` reads the gcd of the
compressed primitive cofactors, and both cofactors, off one integer gcd
at u = 2^k and certifies them by a coefficient bound (Char, Geddes and
Gonnet 1989).  A shift or an integer multiple of a polynomial compresses
to the same tuple, so compressed pairs recur much more often than the
polynomials, and `_primitive_gcd` keeps the last
PRIMITIVE_GCD_CACHE_SIZE of them.  Arithmetic on reduced fractions skips
the constructor (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1).  Products
and quotients cancel the two cross gcds (each skipped when its
denominator is 1) and multiply the cofactors.  Sums cancel
g = gcd(b, d) of the denominators first: a/b + c/d = t / (b1 d1 g) with
t = a d1 + c b1 prime to b1 d1, so only gcd(t, g) is left to divide
out.  Both results are already reduced.  A gcd always comes with its
two cofactors, and `_cancel` keeps the last CANCEL_CACHE_SIZE results:
the same denominator pairs recur close together in time.

A sum of many products cancels once per entry instead.  `add_row` adds
x * y for each (key, y) of a row into a dict of unreduced pairs
(numerator, denominator): a product multiplies the numerators over the
product of the denominators, and two entries over different
denominators meet over their lcm (Henrici 1956; Gustavson 1978 for the
row-wise product).  Few denominators occur, so the products and the
lcms with their cofactors are looked up in two tables that keep the
last DEN_TABLE_SIZE pairs each.  `finish_sum` then cancels each nonzero
entry with one gcd, outside the `_cancel` cache, and returns canonical
Scalars, so nothing outside such a sum sees an unreduced value.  A
vanishing sum has the numerator (), so a window check can read the
unreduced entries.

Sparse vectors.  `LinComb` is the one sparse linear-combination type:
nonzero Scalars keyed by basis labels, with the vector-space operations;
the elements of U_q, U_q (x) U_q and T_q subclass it and add their own
products.  `Tensor` is the LinComb keyed by pairs of leg keys, and both
tensor squares, where the two coproducts land, subclass it, and so does
`Matrix`, keyed by (row, column) pairs.  A Matrix is never changed
after it is built, so it groups its entries by row once and by column
once, each the first time a row or a column is read; a column is read
in place, with no transposed Matrix built.  `accumulate` adds one term
into such a dict, and `add_row` a whole row of products into an
unreduced sum.  `LinComb.combination` is the one builder of a linear
combination sum s_i x_i: it adds every term into one dict through
`accumulate`.  Every linear operation builds its result through
`LinComb._new`, which takes nonzero terms and so skips the
constructor's zero filter, kept for outside input; the internal
builders of U_q, T_q, their tensors and matrices take their nonzero
terms unfiltered too, through `_new` or `LinComb._of`.  No Scalar and
no LinComb is changed after it is built, so a unit factor costs
nothing (a product with the unit returns the other factor, and scaling
by the unit the element itself) and a LinComb computes its hash once.
`Span` gives the rank of a family of sparse vectors and the coordinates
of a vector in it (NoSolution outside), through an `Echelon` whose rows
carry tags that record which inputs they combine.
`Echelon` is the only elimination, over Q(u) and over F_p: a `Matrix`
reads its rank, rref and kernel off an `Echelon` of its rows and solves
through a `Span` of its columns.

Ranks by specialization.  `rank_lower_bound` is the rank of an `Echelon`
over F_p (of `Fp`) of a matrix under u -> U0, p = PRIME.  The fractions
whose denominator does not vanish at U0 mod p form a local ring, and
specialization is a ring map from it onto F_p; so a nonzero minor mod p
comes from a nonzero minor over Q(u), and the rank over Q(u) is at least
the rank mod p.  At the column count the bound certifies full column
rank with no Q(u) elimination; below it, or at a pole mod p, it says
nothing, and the caller takes the exact rank.

There is no floating point anywhere.  `Scalar.monomial` reads c u^n off
the canonical form, with no evaluation.  Specialization at a rational
point (`eval_at`, through fractions.Fraction) is left to three reads: the
classical limit in calculus.BraidingSplit, and Haar positivity in
cli._suite_haar and cli.cmd_haar.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd


class PoleError(ArithmeticError):
    """Raised when a Scalar is specialized at a zero of its denominator."""


class NoSolution(Exception):
    """Raised when an exact linear system has no solution."""


def _residual_witness(residual):
    """The smallest key of a nonzero sparse residual with its Scalar, cut
    to about 80 characters, and the residual's size."""
    key = min(residual)
    s = str(residual[key])
    if len(s) > 80:
        s = s[:77] + "..."
    return "residual %r -> %s (%d nonzero %s)" % (
        key, s, len(residual), "entry" if len(residual) == 1 else "entries")


# ----------------------------------------------------------------------
# integer-coefficient polynomials as flat tuples of nonzero terms

# the polynomial 1
_P1 = (0, 1)


def _sparse(c):
    """The flat form of a dense coefficient sequence (index = degree)."""
    out = []
    for e, x in enumerate(c):
        if x:
            out += e, x
    return tuple(out)


def _padd(a, b):
    """Sum of two polynomials, by one merge of their exponent runs."""
    if not a:
        return b
    if not b:
        return a
    if a[-2] < b[0]:
        return a + b
    if b[-2] < a[0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, eb = a[i], b[j]
        if ea < eb:
            out += ea, a[i + 1]
            i += 2
        elif eb < ea:
            out += eb, b[j + 1]
            j += 2
        else:
            x = a[i + 1] + b[j + 1]
            if x:
                out += ea, x
            i += 2
            j += 2
    if i < na:
        out += a[i:]
    elif j < nb:
        out += b[j:]
    return tuple(out)


def _pneg(a):
    out = list(a)
    out[1::2] = [-x for x in a[1::2]]
    return tuple(out)


def _pmul(a, b):
    """Product of two polynomials.  A monomial operand shifts and scales
    the other one (the unit returns it), and a binomial one adds two such
    copies."""
    if not a or not b:
        return ()
    if a == _P1:
        return b
    if b == _P1:
        return a
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 2:
        e, c = b
        if len(a) == 2:
            return a[0] + e, a[1] * c
        out = []
        for i in range(0, len(a), 2):
            out += a[i] + e, a[i + 1] * c
        return tuple(out)
    if len(b) == 4:
        # a binomial factor: the sum of two shifted and scaled copies
        e, c, f, d = b
        p, q = [], []
        for i in range(0, len(a), 2):
            p += a[i] + e, a[i + 1] * c
            q += a[i] + f, a[i + 1] * d
        return _padd(tuple(p), tuple(q))
    # a dense accumulator over the exponent range: a dict of the same
    # terms was about 10 % faster here but raised the peak RSS of the
    # connection suites by 1.8 %
    a0, b0 = a[0], b[0]
    acc = [0] * (a[-2] + b[-2] - a0 - b0 + 1)
    terms = [(e - b0, y) for e, y in zip(b[::2], b[1::2])]
    for i in range(0, len(a), 2):
        k, ca = a[i] - a0, a[i + 1]
        for j, cb in terms:
            acc[k + j] += ca * cb
    lo = a0 + b0
    out = []
    for k, x in enumerate(acc):
        if x:
            out += lo + k, x
    return tuple(out)


def _unshift(a, v, c):
    """a / (c u^v) for a monomial c u^v that divides a."""
    if not v and c == 1:
        return a
    out = list(a)
    if v:
        out[::2] = [x - v for x in a[::2]]
    if c != 1:
        out[1::2] = [x // c for x in a[1::2]]
    return tuple(out)


def _compress(a, s, c):
    """The dense tuple of P with a = c u^v P(u^s), v the lowest exponent
    of a."""
    v = a[0]
    n = (a[-2] - v) // s + 1
    if 2 * n == len(a):
        # no gaps: the coefficients in order
        return a[1::2] if c == 1 else tuple([x // c for x in a[1::2]])
    out = [0] * n
    for e, x in zip(a[::2], a[1::2]):
        out[(e - v) // s] = x // c
    return tuple(out)


def _expand(p, v, s, c):
    """c u^v P(u^s) for the dense sequence p of P."""
    out = []
    for k, x in enumerate(p):
        if x:
            out += v + s * k, c * x
    return tuple(out)


def _digits(n, k):
    """The symmetric 2^k-adic digits of the integer n, lowest first, each
    in (-2^(k-1), 2^(k-1)]."""
    mask, half, out = (1 << k) - 1, 1 << (k - 1), []
    while n:
        d = n & mask
        if d > half:
            d -= mask + 1
        out.append(d)
        n = (n - d) >> k
    return out


def _gcd_at(A, B, k):
    """`_primitive_gcd` read off g = gcd(A(2^k), B(2^k)): a certified
    (G, A/G, B/G), None when g has one digit, False when not certified.

    G is the primitive part, lc(G) > 0, of H, whose coefficients are the
    symmetric 2^k-adic digits of g.  The cofactor Q of P in (A, B) has
    the digits of P(2^k) / G(2^k), which must be exact, and G Q = P once
    ||G||_1 ||Q||_oo + ||P||_oo < 2^(k-1): both sides then have
    coefficients below 2^(k-1) in size and agree at 2^k."""
    values = [sum(c << k * i for i, c in enumerate(P)) for P in (A, B)]
    g = _igcd(*values)
    H = _digits(g, k)
    if len(H) == 1:
        return None
    c = _igcd(*H) if H[-1] > 0 else -_igcd(*H)
    G = tuple([h // c for h in H])
    gx, norm, out = g // c, sum(map(abs, G)), [G]
    for P, x in zip((A, B), values):
        q, r = divmod(x, gx)
        Q = _digits(q, k)
        bound = norm * max(map(abs, Q), default=0) + max(map(abs, P))
        if r or 2 * bound >= 1 << k:
            return False
        out.append(tuple(Q))
    return tuple(out)


# how many compressed gcds `_primitive_gcd` keeps: shifts and integer
# multiples of a polynomial compress to one tuple, so pairs recur (on the
# connection suites 51 % are found at 128 entries, 61 % at 256 and 74 %
# at 1,024); a larger cache trades peak memory for fewer gcds
PRIMITIVE_GCD_CACHE_SIZE = 128


@lru_cache(maxsize=PRIMITIVE_GCD_CACHE_SIZE)
def _primitive_gcd(A, B):
    """(G, A/G, B/G) for primitive dense tuples A, B of length 2 or more
    with nonzero constant terms and their gcd G of positive leading
    coefficient, all tuples; None when G = 1.

    The heuristic gcd (Char, Geddes and Gonnet 1989): `_gcd_at` from
    k = bitlen(max(|A|, |B|)) + max(len A, len B) + 4, |.| the largest
    coefficient size, doubling k until it certifies; x = 2^k is then at
    least 2 M + 2 for M = min(|A|, |B|).
    Exact: G (1 when g has one digit) divides A and B, so it divides
    their gcd D, and F = D / G divides both cofactors, so F(x) divides
    g / G(x), the content of H, at most x/2 in size.  F divides the
    operand of size M, whose roots are below 1 + M in size, so |F(x)| >
    (x - 1 - M)^deg F >= x/2 unless F is constant, hence a unit.
    It ends: A/D and B/D are coprime, so m = gcd(A/D(x), B/D(x))
    divides their resultant, whatever x, and g = m D(x).  Once x/2
    exceeds the coefficients of m D and the bound of `_gcd_at`, g has
    the digits of m D, and G = D certifies."""
    k = max(map(abs, A + B)).bit_length() + max(len(A), len(B)) + 4
    while True:
        found = _gcd_at(A, B, k)
        if found is not False:
            return found
        k *= 2


def _pgcd(a, b):
    """(g, a/g, b/g) for nonzero polynomials a, b and their gcd g in
    Z[u]: content gcd times the primitive gcd, positive leading
    coefficient; a and b themselves when g = 1.

    What needs no polynomial gcd is split off first: the common power
    u^v, the integer contents, and a common exponent stride s (both
    cofactors are polynomials in u^s; gcd commutes with u^s -> u).  A
    monomial operand ends there with g = c*u^v; otherwise the compressed
    primitive cofactors go through `_primitive_gcd`, which divides both
    by their gcd before they are expanded again."""
    va, vb = a[0], b[0]
    v = va if va < vb else vb
    if len(a) == 2 or len(b) == 2:
        c = _igcd(a[1], *b[1::2]) if len(a) == 2 else _igcd(b[1], *a[1::2])
    else:
        s = _igcd(*[e - va for e in a[2::2]], *[e - vb for e in b[2::2]])
        ca, cb = _igcd(*a[1::2]), _igcd(*b[1::2])
        c = _igcd(ca, cb)
        found = _primitive_gcd(_compress(a, s, ca), _compress(b, s, cb))
        if found:
            G, QA, QB = found
            return (_expand(G, v, s, c), _expand(QA, va - v, s, ca // c),
                    _expand(QB, vb - v, s, cb // c))
    if not v and c == 1:
        return _P1, a, b
    return (v, c), _unshift(a, v, c), _unshift(b, v, c)


# how many gcd results `_cancel` keeps: repeated argument pairs recur
# close together in time, and each entry holds up to five polynomials, so
# a larger cache trades peak memory for fewer gcds
CANCEL_CACHE_SIZE = 256


@lru_cache(maxsize=CANCEL_CACHE_SIZE)
def _cancel(a, b):
    """`_pgcd`, keeping the last CANCEL_CACHE_SIZE results: the inputs
    themselves come back when g = 1, so a coprime pair keeps no new
    tuples."""
    return _pgcd(a, b)


def _peval(a, x):
    return sum((c * x ** e for e, c in zip(a[::2], a[1::2])), Fraction(0))


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 2, -1, -2):
        e, c = a[i], a[i + 1]
        if e == 0:
            t = str(abs(c))
        elif e == 1:
            t = "u" if abs(c) == 1 else "%d*u" % abs(c)
        else:
            t = "u^%d" % e if abs(c) == 1 else "%d*u^%d" % (abs(c), e)
        if not parts:
            parts.append(t if c > 0 else "-" + t)
        else:
            parts.append((" + " if c > 0 else " - ") + t)
    return "".join(parts)


# ----------------------------------------------------------------------
# the field Q(u)

# the powers u^n that Scalar.u_power has built, by n
_U_POWERS = {}


class Scalar:
    """An element of Q(u) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = _sparse((num,) if isinstance(num, int) else num)
        den = _sparse((den,) if isinstance(den, int) else den)
        if not den:
            raise ZeroDivisionError("zero denominator in Scalar")
        if den == _P1:
            den = _P1
        if not num:
            self.num, self.den = (), _P1
            return
        _, num, den = _cancel(num, den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self.num, self.den = num, den

    # -- constructors

    @staticmethod
    def u_power(n):
        """u^n for any integer n, built in its canonical form (u^n over 1,
        or 1 over u^-n) with no constructor and no gcd.  Powers are
        interned in _U_POWERS, so every call with one n returns one
        object; that is safe because a Scalar is never changed after it
        is built."""
        s = _U_POWERS.get(n)
        if s is None:
            s = Scalar.__new__(Scalar)
            s.num, s.den = ((n, 1), _P1) if n >= 0 else (_P1, (-n, 1))
            _U_POWERS[n] = s
        return s

    @staticmethod
    def q_power(n):
        return Scalar.u_power(4 * n)

    # -- predicates

    def __bool__(self):
        return bool(self.num)

    def monomial(self):
        """(c, n) when this Scalar is c u^n with c a nonzero integer, read
        off the canonical form (c u^n over 1, or c over u^-n); else None."""
        num, den = self.num, self.den
        if len(num) != 2 or len(den) != 2 or den[1] != 1:
            return None
        return num[1], num[0] - den[0]

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if not self.num:
            return other
        if not other.num:
            return self
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num, s.den = _pneg(self.num), self.den
        return s

    def __sub__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product; a unit operand returns the other one, which is
        safe to share because a Scalar is never changed after it is
        built."""
        if isinstance(other, int):
            other = Scalar(other)
        if self.num == _P1 and self.den == _P1:
            return other
        if other.num == _P1 and other.den == _P1:
            return self
        if not self.num or not other.num:
            return ZERO
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if not other.num:
            raise ZeroDivisionError("division by zero Scalar")
        if not self.num:
            return ZERO
        c, d = other.num, other.den
        if c[-1] < 0:
            c, d = _pneg(c), _pneg(d)
        return _product(self.num, self.den, d, c)

    def __rtruediv__(self, other):
        return Scalar(other) / self

    def __pow__(self, n):
        if n == 0:
            return ONE
        base = self if n > 0 else ONE / self
        n = abs(n)
        acc = ONE
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def conj(self):
        """Complex conjugation.  Coefficients are rational and u is kept
        real (q real positive), so conjugation is the identity."""
        return self

    # -- comparison / hashing (canonical forms make these structural)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- specialization

    def eval_at(self, u0):
        u0 = Fraction(u0)
        d = _peval(self.den, u0)
        if d == 0:
            raise PoleError("denominator vanishes at u0 = %s" % u0)
        return _peval(self.num, u0) / d

    def __str__(self):
        if self.den == _P1:
            return _pstr(self.num)
        ns, ds = _pstr(self.num), _pstr(self.den)
        # a numerator of positive degree or a negative constant, and a
        # denominator of positive degree, are parenthesised
        if self.num[-2] or self.num[-1] < 0:
            ns = "(" + ns + ")"
        if self.den[-2]:
            ds = "(" + ds + ")"
        return ns + "/" + ds

    __repr__ = __str__


def _product(a, b, c, d):
    """(a/b) * (c/d) for reduced fractions whose denominators have positive
    leading coefficients.  Cancelling the cross gcds g1 = gcd(a, d) and
    g2 = gcd(c, b) leaves (a/g1 * c/g2) / (b/g2 * d/g1), which is already
    reduced with a positive leading coefficient below, so it is built
    without a second normalisation."""
    if d != _P1:
        _, a, d = _cancel(a, d)
    if b != _P1:
        _, c, b = _cancel(c, b)
    s = Scalar.__new__(Scalar)
    s.num = _pmul(a, c)
    s.den = b if d == _P1 else d if b == _P1 else _pmul(b, d)
    return s


def _sum(a, b, c, d):
    """a/b + c/d for nonzero reduced fractions whose denominators have
    positive leading coefficients.  With g = gcd(b, d), b = g*b1 and
    d = g*d1, the numerator t = a*d1 + c*b1 is prime to b1*d1, so the sum
    is t/g' over b1*d1*g' once gcd(t, g) is cancelled from t and g.  A
    polynomial operand (denominator 1) needs no gcd and takes no cache
    entry."""
    if b == d:
        t, g, m = _padd(a, c), b, _P1
    elif b == _P1:
        t, g, m = _padd(_pmul(a, d), c), _P1, d
    elif d == _P1:
        t, g, m = _padd(a, _pmul(c, b)), _P1, b
    else:
        g, b1, d1 = _cancel(b, d)
        t, m = _padd(_pmul(a, d1), _pmul(c, b1)), _pmul(b1, d1)
    if not t:
        return ZERO
    if g != _P1:
        _, t, g = _cancel(t, g)
    s = Scalar.__new__(Scalar)
    s.num = t
    s.den = g if m == _P1 else m if g == _P1 else _pmul(m, g)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)


def qint(n):
    """The q-integer [n] = (q^n - q^{-n})/(q - q^{-1}), q = u^4."""
    if n < 0:
        return -qint(-n)
    acc = ZERO
    for i in range(n):
        acc = acc + Scalar.q_power(n - 1 - 2 * i)
    return acc


def eval_at(s, u0):
    """Exact specialization of a Scalar at a rational u0 (PoleError at a
    zero of the denominator)."""
    return s.eval_at(u0)


# ----------------------------------------------------------------------
# ranks by specialization mod p

# the prime field and the point u = U0 of rank_lower_bound
PRIME = 2 ** 61 - 1
U0 = 1000003


class Fp:
    """An element of F_p, p = PRIME, with the -, *, / and truth that an
    Echelon uses; not an int, so a missing operation raises."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value % PRIME

    def __bool__(self):
        return self.value != 0

    def __sub__(self, other):
        return Fp(self.value - other.value)

    def __mul__(self, other):
        return Fp(self.value * other.value)

    def __truediv__(self, other):
        return Fp(self.value * pow(other.value, -1, PRIME))


def _peval_mod(a):
    return sum(c * pow(U0, e, PRIME)
               for e, c in zip(a[::2], a[1::2])) % PRIME


def rank_lower_bound(m):
    """The rank of an Echelon over F_p of the Matrix m at u = U0 mod
    p = PRIME; None when some denominator vanishes there.  The rank over
    Q(u) is at least this (see the module docstring), so a bound equal to
    the column count certifies full column rank."""
    rows = {}
    for (i, j), x in m.terms.items():
        d = _peval_mod(x.den)
        if not d:
            return None
        rows.setdefault(i, {})[j] = Fp(_peval_mod(x.num)) / Fp(d)
    return Echelon(rows.values(), Fp(1)).rank


# ----------------------------------------------------------------------
# sparse echelon spans (the workhorse for ideal quotients and span ranks)


class Echelon:
    """An incrementally built reduced echelon basis for a span of sparse
    vectors over the field whose unit is `one`.  Vectors are dicts mapping
    hashable, mutually comparable column keys to field elements; the pivot
    of a row is its smallest key.  Rows are kept fully inter-reduced with
    pivot coefficient 1, so reduction against the span is canonical: with
    integer keys 0..n-1 the rows are the reduced row echelon form."""

    def __init__(self, vectors=(), one=ONE):
        self.rows = {}  # pivot key -> {key: field element}
        self.one, self.zero = one, one - one
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Canonical representative of vec modulo the span (a new dict)."""
        v = {k: s for k, s in vec.items() if s}
        for key in sorted(v):
            # no row has an entry in another's pivot column: v keeps its pivots
            row = self.rows.get(key)
            if row is None:
                continue
            f = v[key]
            for k2, s2 in row.items():
                nv = v.get(k2, self.zero) - f * s2
                if nv:
                    v[k2] = nv
                elif k2 in v:
                    del v[k2]
        return v

    def add(self, vec):
        """Insert vec into the span.  Returns the reduced residual (empty
        dict when vec was already in the span)."""
        v = self.reduce(vec)
        if not v:
            return v
        pivot = min(v)
        inv = self.one / v[pivot]
        row = {k: inv * s for k, s in v.items()}
        for pk, r in self.rows.items():
            f = r.get(pivot)
            if f:
                for k2, s2 in row.items():
                    nv = r.get(k2, self.zero) - f * s2
                    if nv:
                        r[k2] = nv
                    elif k2 in r:
                        del r[k2]
        self.rows[pivot] = row
        return v

    def kernel(self, n):
        """Basis of the right kernel of the rows over the columns 0..n-1,
        as column vectors of Scalars (an Echelon over Q(u) only): free
        column fc gives fc -> 1 and each pivot column pc -> -row_pc[fc]."""
        basis = []
        for fc in range(n):
            if fc in self.rows:
                continue
            v = [ZERO] * n
            v[fc] = ONE
            for pc, row in self.rows.items():
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(v)
        return basis


# ----------------------------------------------------------------------
# sparse linear combinations and the span solver


def accumulate(d, key, s):
    """Add the Scalar s into d[key], keeping only nonzero values."""
    if not s:
        return
    cur = d.get(key)
    if cur is None:
        d[key] = s
    else:
        cur = cur + s
        if cur:
            d[key] = cur
        else:
            del d[key]


# ----------------------------------------------------------------------
# unreduced sums of products

# how many products and lcms of denominators each of the two tables of
# unreduced sums keeps: a verify run meets about 1,500 pairs at the
# default config and about 12,000 at weights = 2, whose large lcms would
# otherwise be kept for the life of the process
DEN_TABLE_SIZE = 4096
# the entries finish_sum has built, and how many of them cancelled
SUM_STATS = {"finished": 0, "cancelled": 0}


@lru_cache(maxsize=DEN_TABLE_SIZE)
def _den_product(b, d):
    return _pmul(b, d)


@lru_cache(maxsize=DEN_TABLE_SIZE)
def _den_lcm(b, d):
    """(l, l/b, l/d) for l = lcm(b, d)."""
    _, b1, d1 = _pgcd(b, d)
    return _pmul(b, d1), d1, b1


def _merge(acc, key, n, d):
    """Add n/d into the unreduced entry acc[key]."""
    cur = acc.get(key)
    if cur is None or not cur[0]:
        acc[key] = (n, d)
    elif cur[1] == d:
        acc[key] = (_padd(cur[0], n), d)
    else:
        l, fa, fb = _den_lcm(cur[1], d)
        acc[key] = (_padd(_pmul(cur[0], fa), _pmul(n, fb)), l)


def add_row(acc, row, *factors):
    """Add x * y at key k into the unreduced sum acc for each (k, Scalar
    y) of row, x the product of the Scalar factors.  acc maps keys to
    pairs (numerator, denominator) that are never cancelled: a product
    multiplies the numerators over the product of the denominators, and
    two entries over different denominators meet over their lcm.  A sum
    that vanishes has the numerator ()."""
    num, den = _P1, _P1
    for x in factors:
        num, den = _pmul(num, x.num), _den_product(den, x.den)
    for k, y in row:
        _merge(acc, k, _pmul(num, y.num), _den_product(den, y.den))


def merge_sums(acc, index, terms):
    """Add every unreduced entry terms[k] into acc[(index, k)]."""
    for k, (n, d) in terms.items():
        _merge(acc, (index, k), n, d)


def finish_sum(acc):
    """The nonzero entries of an unreduced sum as canonical Scalars, one
    gcd per entry over a denominator other than 1.  The pairs do recur
    (18,184 gcds over 7,002 distinct pairs on the connection and
    curvature suites at seed 0), but taking them, and `_den_lcm`'s,
    through the `_cancel` cache measured no faster in wall time, so the
    gcd is taken directly."""
    out = {}
    for k, (n, d) in acc.items():
        if not n:
            continue
        if d != _P1:
            g, n1, d1 = _pgcd(n, d)
            if g != _P1:
                n, d = n1, d1
                SUM_STATS["cancelled"] += 1
        s = Scalar.__new__(Scalar)
        s.num, s.den = n, d
        out[k] = s
    SUM_STATS["finished"] += len(out)
    return out


def format_terms(terms, name):
    """Canonical text of {key: Scalar}: the terms in sorted key order,
    joined by " + ", each "s name(key)" with a coefficient 1 dropped and
    a compound s parenthesised; a key named "1" prints as s alone."""
    if not terms:
        return "0"
    bits = []
    for key in sorted(terms):
        s, n = str(terms[key]), name(key)
        if any(ch in s for ch in "+/ ") or "-" in s[1:]:
            s = "(%s)" % s
        bits.append(s if n == "1" else n if s == "1" else "%s %s" % (s, n))
    return " + ".join(bits)


class LinComb:
    """A finite Scalar-linear combination of hashable keys: `terms` maps
    each key to a nonzero Scalar.  Subclasses say what the keys are and
    add their own products; the linear structure is shared, and elements
    compare equal only within one subclass.  A sum of the form
    sum s_i x_i is built by `combination`, in one pass.  No element is
    changed after it is built, so its hash is computed once, the first
    time it is asked for, and kept in `_hash`."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = {k: s for k, s in (terms or {}).items() if s}

    @classmethod
    def _of(cls, terms):
        """The element of this kind with the given nonzero terms, not
        filtered again; a kind with fields besides its terms builds
        through `_new`."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _new(self, terms):
        """An element of the same kind with the given nonzero terms, not
        filtered again: every linear operation builds its result here."""
        return self._of(terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, s in other.terms.items():
            accumulate(out, k, s)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -s for k, s in self.terms.items()})

    def scale(self, s):
        """s times self; self itself when s is the unit."""
        if isinstance(s, int):
            s = Scalar(s)
        if s.num == _P1 and s.den == _P1:
            return self
        return self._new({k: s * t for k, t in self.terms.items()}
                         if s else {})

    def combination(self, pairs):
        """self + sum s x over the (Scalar s, LinComb x) pairs, summed in
        one dict, as an element of self's kind; self itself when no pair
        adds a term."""
        out = None
        for s, x in pairs:
            if s and x.terms:
                if out is None:
                    out = dict(self.terms)
                for k, t in x.terms.items():
                    accumulate(out, k, s * t)
        return self if out is None else self._new(out)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash


class Tensor(LinComb):
    """An element of a tensor square: `terms` maps pairs (left key,
    right key) to Scalars -- the fully expanded canonical form, so
    equality of coproducts is a dict comparison.  `leg` is the LinComb
    class of either leg."""

    __slots__ = ()
    leg = LinComb

    def map_legs(self, left_fn=None, right_fn=None):
        """Apply linear maps (leg -> leg) to the legs."""
        out = {}
        leg = self.leg._of
        for (l, r), s in self.terms.items():
            lx = left_fn(leg({l: ONE})) if left_fn else leg({l: ONE})
            rx = right_fn(leg({r: ONE})) if right_fn else leg({r: ONE})
            for ml, sl in lx.terms.items():
                for mr, sr in rx.terms.items():
                    accumulate(out, (ml, mr), s * sl * sr)
        return self._new(out)

    def contract(self, fn=lambda x, y: x * y):
        """The sum of s fn(l, r) over the terms s l (x) r, with l and r as
        leg basis elements; fn defaults to the legs' product and may
        return any LinComb.  The zero tensor contracts to the zero leg."""
        leg = self.leg._of
        pairs = [(s, fn(leg({l: ONE}), leg({r: ONE})))
                 for (l, r), s in self.terms.items()]
        if not pairs:
            return leg({})
        return pairs[0][1]._new({}).combination(pairs)


class Span:
    """The span of a list of sparse vectors (dicts from mutually
    comparable keys to Scalars), for its rank and for the coordinates of
    a vector in it.

    Vector c enters an Echelon with its keys wrapped as (0, k) and one
    tag key (1, c); tags sort after every column, so each row's pivot is
    a column key and its tags record the combination of inputs it is.
    A vector that reduces to tags only depends on the earlier ones and
    is left out, so its coordinate is zero: the same particular solution
    Matrix.solve returns, with every free variable zero."""

    def __init__(self, vectors):
        self.size = len(vectors)
        self.echelon = Echelon()
        for c, vec in enumerate(vectors):
            v = {(0, k): s for k, s in vec.items()}
            v[(1, c)] = ONE
            v = self.echelon.reduce(v)
            if min(v)[0] == 0:
                self.echelon.add(v)

    @property
    def rank(self):
        return self.echelon.rank

    def coordinates(self, vec):
        """The list x with sum_c x[c] vectors[c] = vec; NoSolution when
        vec is outside the span."""
        v = self.echelon.reduce({(0, k): s for k, s in vec.items()})
        if v and min(v)[0] == 0:
            raise NoSolution("vector outside the span: " + _residual_witness(
                {k: s for (t, k), s in v.items() if t == 0}))
        x = [ZERO] * self.size
        for (_, c), s in v.items():
            x[c] = -s
        return x

    def coordinate_matrix(self, targets):
        """The Matrix whose column j is coordinates(targets[j]); its shape
        is len(vectors) x len(targets) also when targets is empty."""
        return Matrix.sparse(self.size, len(targets), {
            (i, j): s for j, vec in enumerate(targets)
            for i, s in enumerate(self.coordinates(vec))})


# ----------------------------------------------------------------------
# matrices over Q(u)


class Matrix(LinComb):
    """A matrix of Scalars as the LinComb of its nonzero entries: `terms`
    maps (row, column) to nonzero Scalars, and `rows` and `cols` give
    the shape.  Sums, differences, negation, scaling and equality are
    those of LinComb, with the shape checked.  A Matrix is never changed
    after it is built, so it groups its entries by row once, the first
    time a row is read (`row`), and by column once, the first time a
    column is read (`col`); products run row by row over the nonzeros
    (Gustavson 1978), and rank, kernel, solve and inverse on the sparse
    Echelon, the one elimination in this package."""

    __slots__ = ("rows", "cols", "_by_row", "_by_col")

    def __init__(self, entries, cols=0):
        """The rows of Scalars in entries; cols is the width when empty."""
        entries = [list(row) for row in entries]
        super().__init__({(i, j): x for i, row in enumerate(entries)
                          for j, x in enumerate(row)})
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else cols
        self._by_row = self._by_col = None
        assert all(len(r) == self.cols for r in entries)

    @staticmethod
    def sparse(r, c, terms):
        """The r x c Matrix with the entries terms ({(i, j): Scalar});
        zero entries are dropped."""
        m = Matrix._shaped(r, c, {k: s for k, s in terms.items() if s})
        assert all(0 <= i < r and 0 <= j < c for i, j in m.terms)
        return m

    @staticmethod
    def _shaped(r, c, terms):
        """The r x c Matrix with the given nonzero terms, which lie in
        that shape: neither filtered nor checked again."""
        m = Matrix._of(terms)
        m.rows, m.cols = r, c
        m._by_row = m._by_col = None
        return m

    @staticmethod
    def zeros(r, c):
        return Matrix.sparse(r, c, {})

    @staticmethod
    def identity(n):
        return Matrix.sparse(n, n, {(i, i): ONE for i in range(n)})

    def _new(self, terms):
        return Matrix._shaped(self.rows, self.cols, terms)

    def __getitem__(self, ij):
        return self.terms.get(ij, ZERO)

    def _group(self, side):
        """The nonzero entries grouped by row (side 0) or column (side 1):
        {line: tuple of (index along the line, Scalar) pairs, ascending}."""
        lines = {}
        for key, x in sorted(self.terms.items()):
            lines.setdefault(key[side], []).append((key[1 - side], x))
        return {k: tuple(v) for k, v in lines.items()}

    def row(self, i):
        """The nonzero entries of row i as a tuple of (column, Scalar)
        pairs by ascending column."""
        if self._by_row is None:
            self._by_row = self._group(0)
        return self._by_row.get(i, ())

    def col(self, j):
        """The nonzero entries of column j as a tuple of (row, Scalar)
        pairs by ascending row: row j of the transpose, with no transpose
        built."""
        if self._by_col is None:
            self._by_col = self._group(1)
        return self._by_col.get(j, ())

    def columns_grouped(self):
        """Whether col has grouped the entries by column."""
        return self._by_col is not None

    def __eq__(self, other):
        return (LinComb.__eq__(self, other)
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols), \
            "shape mismatch"
        return LinComb.__add__(self, other)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch"
        out = {}
        for (i, t), x in self.terms.items():
            for j, y in other.row(t):
                accumulate(out, (i, j), x * y)
        return Matrix._shaped(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (a list of Scalars)."""
        assert self.cols == len(vec)
        out = [ZERO] * self.rows
        for (i, t), x in self.terms.items():
            if vec[t]:
                out[i] = out[i] + x * vec[t]
        return out

    def transpose(self):
        return Matrix._shaped(self.cols, self.rows,
                              {(j, i): x for (i, j), x in self.terms.items()})

    def tensor(self, other):
        """Kronecker product; index (i, k) flattens to i*other.rows + k."""
        R, C = other.rows, other.cols
        return Matrix._shaped(self.rows * R, self.cols * C, {
            (i * R + k, j * C + l): x * y
            for (i, j), x in self.terms.items()
            for (k, l), y in other.terms.items()})

    def _echelon(self):
        """An Echelon of the rows, keyed by column index."""
        return Echelon(dict(self.row(i)) for i in range(self.rows))

    def _columns(self):
        """The columns as sparse vectors keyed by row index."""
        return [dict(self.col(j)) for j in range(self.cols)]

    def rref(self):
        """Reduced row echelon form, read off the Echelon of the rows;
        returns (R, pivot_columns)."""
        ech = self._echelon()
        pivots = sorted(ech.rows)
        return Matrix.sparse(self.rows, self.cols, {
            (r, c): s for r, pc in enumerate(pivots)
            for c, s in ech.rows[pc].items()}), pivots

    def rank(self):
        return self._echelon().rank

    def kernel(self):
        """Basis of the right kernel, as a list of column vectors."""
        return self._echelon().kernel(self.cols)

    def solve(self, rhs):
        """Solve self * x = rhs exactly; raises NoSolution if inconsistent.
        rhs may be a vector (list) or a Matrix of right-hand sides; returns
        the same shape.  With a nontrivial kernel the particular solution
        with zero free variables is returned."""
        span = Span(self._columns())
        if not isinstance(rhs, Matrix):
            assert len(rhs) == self.rows
            return span.coordinates(dict(enumerate(rhs)))
        assert rhs.rows == self.rows
        return span.coordinate_matrix(rhs._columns())

    def inverse(self):
        assert self.rows == self.cols
        X = self.solve(Matrix.identity(self.rows))
        R = self * X - Matrix.identity(self.rows)
        if R:
            raise NoSolution("matrix is singular: "
                             + _residual_witness(R.terms))
        return X

    def eval_at(self, u0):
        """Entrywise specialization, as a Matrix of Fractions."""
        return Matrix.sparse(self.rows, self.cols, {
            ij: x.eval_at(u0) for ij, x in self.terms.items()})

    def __str__(self):
        return "[" + ",\n ".join(
            "[" + ", ".join(str(self[i, j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)) + "]"

    __repr__ = __str__
