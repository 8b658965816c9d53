"""Exact arithmetic in Q(u) and exact linear algebra over it.

The deformation parameter is q = u^4 (so v = q^{1/2} = u^2 is also a
monomial).  Working over the rational function field in u keeps every
exponent that shows up downstream -- half-integer powers of q from weight
pairings, the Cartan factor of the R-matrix on integral weights -- an
integer power of u.

A Scalar is a reduced fraction of integer-coefficient polynomials in u.
Polynomials are plain tuples of ints (index = degree, no trailing zeros,
() is the zero polynomial); reduction divides out the full Z[u] gcd and
fixes the sign of the denominator's leading coefficient, so equal field
elements have equal representations and ``==``/``hash`` are structural.
Every path below produces exactly this canonical form.

Normalisation.  Every gcd goes through `_pgcd`, which first splits off
the common power of u, the integer contents and a common exponent stride
(most operands are polynomials in u^2 or u^4), so a monomial or constant
cofactor needs no remainder sequence; only the compressed primitive
cofactors run the primitive PRS, on lists.  Arithmetic on reduced
fractions skips the constructor (Henrici 1956; Knuth, TAOCP vol. 2,
4.5.1).  Products and quotients cancel the two cross gcds (each skipped
when its denominator is 1) and multiply the cofactors.  Sums cancel
g = gcd(b, d) of the denominators first: a/b + c/d = t / (b1 d1 g) with
t = a d1 + c b1 prime to b1 d1, so only gcd(t, g) is left to divide
out.  Both results are already reduced.  A gcd is always taken together
with its two cofactors, by `_cancel`, which keeps the last
CANCEL_CACHE_SIZE results: the same denominator pairs recur close
together in time.

There is no floating point anywhere; specialization at a rational point
goes through fractions.Fraction.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd as _igcd


class PoleError(ArithmeticError):
    """Raised when a Scalar is specialized at a zero of its denominator."""


class NoSolution(Exception):
    """Raised when an exact linear system has no solution."""


# ----------------------------------------------------------------------
# integer-coefficient polynomials as tuples


def _ptrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return _ptrim(c)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    """Product of two trimmed polynomials (so the result is trimmed)."""
    if not a or not b:
        return ()
    nz = [(j, y) for j, y in enumerate(b) if y]
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                c[i + j] += x * y
    return tuple(c)


def _pcontent(a, g=0):
    """gcd of g and the coefficients of a (nonnegative)."""
    for x in a:
        g = _igcd(g, x)
        if g == 1:
            return 1
    return g


def _pquo(a, b):
    """Exact quotient a / b of trimmed polynomials; ArithmeticError when b
    does not divide a.  The power of u in b is divided out first, so a
    monomial divisor costs one pass over a."""
    v = 0
    while not b[v]:
        v += 1
    db, lb = len(b) - 1 - v, b[-1]
    nz = [(i, y) for i, y in enumerate(islice(b, v, len(b) - 1)) if y]
    r = list(islice(a, v, None))
    q = [0] * (len(r) - db)
    for e in range(len(q) - 1, -1, -1):
        t = r[e + db]
        if t:
            t, m = divmod(t, lb)
            if m:
                raise ArithmeticError("inexact polynomial division")
            q[e] = t
            for i, y in nz:
                r[e + i] -= t * y
    if any(a[:v]) or any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _prs(a, b):
    """gcd of primitive polynomials a, b (lists, len(a) >= len(b) >= 2,
    nonzero constant terms) by the primitive remainder sequence on
    mutable lists.  Each remainder may carry any nonzero integer factor, since it
    is made primitive; its power of u is dropped, since no divisor of b
    is divisible by u.  Returns a primitive list of unspecified sign."""
    while True:
        db, lb = len(b) - 1, b[-1]
        nz = [(i, y) for i, y in enumerate(b) if y]
        nz.pop()
        r = a
        while len(r) > db:
            # r <- m*r - t*u^e*b, with the leading terms cancelling
            lr = r.pop()
            e = len(r) - db
            if lr % lb:
                g = _igcd(lb, lr)
                m, t = lb // g, lr // g
                r = [x * m for x in r]
            else:
                t = lr // lb
            for i, y in nz:
                r[e + i] -= t * y
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        v = 0
        while not r[v]:
            v += 1
        if v:
            del r[:v]
        if len(r) == 1:
            return [1]
        c = _pcontent(r)
        if c != 1:
            r = [x // c for x in r]
        a, b = b, r


def _pgcd(a, b):
    """gcd in Z[u]: content gcd times the primitive gcd, positive leading
    coefficient.

    What needs no remainder sequence is split off first: the common power
    u^v, the integer contents, and a common exponent stride s (both
    cofactors are polynomials in u^s; gcd commutes with u^s -> u).  A
    constant cofactor ends there with c*u^v; otherwise the compressed
    primitive cofactors go through `_prs`."""
    if not a or not b:
        g = a or b
        return _pneg(g) if g and g[-1] < 0 else g
    va = 0
    while not a[va]:
        va += 1
    vb = 0
    while not b[vb]:
        vb += 1
    v = min(va, vb)
    if len(a) - va == 1:
        return (0,) * v + (_pcontent(b, a[va]),)
    if len(b) - vb == 1:
        return (0,) * v + (_pcontent(a, b[vb]),)
    s = 0
    for p, vp in ((a, va), (b, vb)):
        for i in range(vp + 1, len(p)):
            if p[i]:
                s = _igcd(s, i - vp)
                if s == 1:
                    break
    ca, cb = _pcontent(a), _pcontent(b)
    A = list(islice(a, va, None, s))
    B = list(islice(b, vb, None, s))
    if ca != 1:
        A = [x // ca for x in A]
    if cb != 1:
        B = [x // cb for x in B]
    G = _prs(A, B) if len(A) >= len(B) else _prs(B, A)
    c = _igcd(ca, cb)
    if len(G) == 1:
        return (0,) * v + (c,)
    if G[-1] < 0:
        c = -c
    g = [0] * (v + s * (len(G) - 1) + 1)
    for k, x in enumerate(G):
        g[v + s * k] = c * x
    return tuple(g)


# how many gcd results `_cancel` keeps: repeated argument pairs recur
# close together in time, and each entry holds up to five polynomials, so
# a larger cache trades peak memory for fewer gcds
CANCEL_CACHE_SIZE = 256


@lru_cache(maxsize=CANCEL_CACHE_SIZE)
def _cancel(a, b):
    """(g, a/g, b/g) with g = gcd(a, b) for nonzero tuples a, b; the inputs
    themselves when g = 1, so a coprime pair keeps no new tuples."""
    g = _pgcd(a, b)
    if g == (1,):
        return (1,), a, b
    return g, _pquo(a, g), _pquo(b, g)


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
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


class Scalar:
    """An element of Q(u) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = _ptrim((num,)) if isinstance(num, int) else _ptrim(num)
        den = _ptrim((den,)) if isinstance(den, int) else _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Scalar")
        if not num:
            self.num, self.den = (), (1,)
            return
        _, num, den = _cancel(num, den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self.num, self.den = num, den

    # -- constructors

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return Scalar((fr.numerator,), (fr.denominator,))

    @staticmethod
    def u_power(n):
        """u^n for any integer n."""
        if n >= 0:
            return Scalar((0,) * n + (1,))
        return Scalar((1,), (0,) * (-n) + (1,))

    @staticmethod
    def q_power(n):
        return Scalar.u_power(4 * n)

    @staticmethod
    def v_power(n):
        """v^n with v = q^{1/2} = u^2."""
        return Scalar.u_power(2 * n)

    # -- predicates

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == (1,) and self.den == (1,)

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
        if isinstance(other, int):
            other = Scalar(other)
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
        if self.den == (1,):
            return _pstr(self.num)
        ns, ds = _pstr(self.num), _pstr(self.den)
        if len(self.num) > 1 or (self.num and self.num[0] < 0):
            ns = "(" + ns + ")"
        if len(self.den) > 1:
            ds = "(" + ds + ")"
        return ns + "/" + ds

    __repr__ = __str__


def _product(a, b, c, d):
    """(a/b) * (c/d) for reduced fractions whose denominators have positive
    leading coefficients.  Cancelling the cross gcds g1 = gcd(a, d) and
    g2 = gcd(c, b) leaves (a/g1 * c/g2) / (b/g2 * d/g1), which is already
    reduced with a positive leading coefficient below, so it is built
    without a second normalisation."""
    if d != (1,):
        _, a, d = _cancel(a, d)
    if b != (1,):
        _, c, b = _cancel(c, b)
    s = Scalar.__new__(Scalar)
    s.num = _pmul(a, c)
    s.den = b if d == (1,) else d if b == (1,) else _pmul(b, d)
    return s


def _sum(a, b, c, d):
    """a/b + c/d for nonzero reduced fractions whose denominators have
    positive leading coefficients.  With g = gcd(b, d), b = g*b1 and
    d = g*d1, the numerator t = a*d1 + c*b1 is prime to b1*d1, so the sum
    is t/g' over b1*d1*g' once gcd(t, g) is cancelled from t and g.  A
    polynomial operand (denominator 1) needs no gcd and takes no cache
    entry."""
    if b == d:
        t, g, m = _padd(a, c), b, (1,)
    elif b == (1,):
        t, g, m = _padd(_pmul(a, d), c), (1,), d
    elif d == (1,):
        t, g, m = _padd(a, _pmul(c, b)), (1,), b
    else:
        g, b1, d1 = _cancel(b, d)
        t, m = _padd(_pmul(a, d1), _pmul(c, b1)), _pmul(b1, d1)
    if not t:
        return ZERO
    if g != (1,):
        _, t, g = _cancel(t, g)
    s = Scalar.__new__(Scalar)
    s.num = t
    s.den = g if m == (1,) else m if g == (1,) else _pmul(m, g)
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


def qfact(n):
    """[n]! = [1][2]...[n]."""
    acc = ONE
    for i in range(2, n + 1):
        acc = acc * qint(i)
    return acc


def eval_at(s, u0):
    """Exact specialization of a Scalar at a rational u0 (PoleError at a
    zero of the denominator)."""
    return s.eval_at(u0)


# ----------------------------------------------------------------------
# dense matrices over Q(u)


class Matrix:
    """A dense matrix of Scalars with exact Gauss-Jordan elimination."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, entries):
        self.a = [list(row) for row in entries]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        assert all(len(r) == self.cols for r in self.a)

    @staticmethod
    def zeros(r, c):
        return Matrix([[ZERO] * c for _ in range(r)])

    @staticmethod
    def identity(n):
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(vals):
        n = len(vals)
        m = Matrix.zeros(n, n)
        for i, v in enumerate(vals):
            m.a[i][i] = v
        return m

    def __getitem__(self, ij):
        return self.a[ij[0]][ij[1]]

    def copy(self):
        return Matrix(self.a)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(self.a[i][j] == other.a[i][j] for i in range(self.rows) for j in range(self.cols))
        )

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(
            [[self.a[i][j] + other.a[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(
            [[self.a[i][j] - other.a[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.a])

    def scale(self, s):
        return Matrix([[s * x for x in row] for row in self.a])

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch"
        ot = other.a
        out = []
        for i in range(self.rows):
            ai = self.a[i]
            row = []
            for j in range(other.cols):
                acc = ZERO
                for t in range(self.cols):
                    x = ai[t]
                    if x:
                        y = ot[t][j]
                        if y:
                            acc = acc + x * y
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def apply(self, vec):
        """Matrix times column vector (a list of Scalars)."""
        assert self.cols == len(vec)
        out = []
        for i in range(self.rows):
            acc = ZERO
            for t, x in enumerate(self.a[i]):
                if x and vec[t]:
                    acc = acc + x * vec[t]
            out.append(acc)
        return out

    def transpose(self):
        return Matrix([[self.a[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def tensor(self, other):
        """Kronecker product; index (i, k) flattens to i*other.rows + k."""
        out = Matrix.zeros(self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                x = self.a[i][j]
                if not x:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        y = other.a[k][l]
                        if y:
                            out.a[i * other.rows + k][j * other.cols + l] = x * y
        return out

    def is_zero(self):
        return all(not x for row in self.a for x in row)

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        m = [row[:] for row in self.a]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = ONE / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(m), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right kernel, as a list of column vectors."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for fc in free:
            v = [ZERO] * self.cols
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red.a[r][fc]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """Solve self * x = rhs exactly; raises NoSolution if inconsistent.
        rhs may be a vector (list) or a Matrix of right-hand sides; returns
        the same shape.  With a nontrivial kernel the particular solution
        with zero free variables is returned."""
        vec = not isinstance(rhs, Matrix)
        B = Matrix([[x] for x in rhs]) if vec else rhs
        assert B.rows == self.rows
        aug = Matrix([self.a[i] + B.a[i] for i in range(self.rows)])
        red, pivots = aug.rref()
        for r, pc in enumerate(pivots):
            if pc >= self.cols:
                raise NoSolution("inconsistent linear system")
        X = Matrix.zeros(self.cols, B.cols)
        for r, pc in enumerate(pivots):
            for j in range(B.cols):
                X.a[pc][j] = red.a[r][self.cols + j]
        if vec:
            return [X.a[i][0] for i in range(self.cols)]
        return X

    def inverse(self):
        assert self.rows == self.cols
        X = self.solve(Matrix.identity(self.rows))
        if (self * X) != Matrix.identity(self.rows):
            raise NoSolution("matrix is singular")
        return X

    def eval_at(self, u0):
        """Entrywise specialization to Fractions."""
        return [[x.eval_at(u0) for x in row] for row in self.a]

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.a) + "]"

    __repr__ = __str__


def kernel(m):
    return m.kernel()


def solve(m, rhs):
    return m.solve(rhs)


def rank(m):
    return m.rank()


# ----------------------------------------------------------------------
# sparse echelon spans (the workhorse for ideal quotients and span ranks)


class Echelon:
    """An incrementally built reduced echelon basis for a span of sparse
    vectors.  Vectors are dicts mapping hashable, mutually comparable
    column keys to Scalars; the pivot of a row is its smallest key.  Rows
    are kept fully inter-reduced with pivot coefficient 1, so reduction
    against the span is canonical."""

    def __init__(self):
        self.rows = {}  # pivot key -> {key: Scalar}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Canonical representative of vec modulo the span (a new dict)."""
        v = {k: s for k, s in vec.items() if s}
        for key in sorted(v):
            if key not in v:
                continue
            row = self.rows.get(key)
            if row is None:
                continue
            f = v.get(key)
            if not f:
                continue
            for k2, s2 in row.items():
                nv = v.get(k2, ZERO) - f * s2
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
        inv = ONE / v[pivot]
        row = {k: inv * s for k, s in v.items()}
        for pk, r in self.rows.items():
            f = r.get(pivot)
            if f:
                for k2, s2 in row.items():
                    nv = r.get(k2, ZERO) - f * s2
                    if nv:
                        r[k2] = nv
                    elif k2 in r:
                        del r[k2]
        self.rows[pivot] = row
        return v

    def contains(self, vec):
        return not self.reduce(vec)

    def pivot_keys(self):
        return sorted(self.rows)
