"""Reference code that several test modules share and that no code in
the package calls."""

from itertools import islice
from math import gcd as _igcd

from qhvb.scalars import ONE, Matrix, NoSolution, Scalar, Span, accumulate
from qhvb import calculus, coeff, repmod, uea


def pairs(t):
    """The scalars.Tensor t as a list of (left basis element, right leg)
    pairs, grouped by left key."""
    grouped = {}
    for (l, r), s in t.terms.items():
        grouped.setdefault(l, {})[r] = s
    return [(t.leg({l: ONE}), t.leg(rs)) for l, rs in grouped.items()]


def invariant_span(elements):
    """The Span of a list of CoeffElements, such as homspace.invariants."""
    return Span([f.terms for f in elements])


def is_invariant(algebra, f):
    """Does f satisfy x o f = eps(x) f for the Cartan generators k, k^-1?"""
    for x in (uea.K, uea.K_INV):
        if algebra.circle(x, f) != f.scale(uea.counit(x)):
            return False
    return True


def coordinates(span, f):
    """Coordinates of the CoeffElement f in the span, or None when f is
    outside it."""
    try:
        return span.coordinates(f.terms)
    except NoSolution:
        return None


def contains(span, f):
    """Membership of a CoeffElement in the span."""
    return coordinates(span, f) is not None


def outcome(fn, *args):
    """fn(*args), or the message of the LevelOverflow it raises."""
    try:
        return fn(*args)
    except coeff.LevelOverflow as exc:
        return str(exc)


# ----------------------------------------------------------------------
# the per-term loops of the four row products, before they summed
# unreduced (scalars.add_row): each adds x * y into a dict of canonical
# Scalars term by term


def algebra_multiply(algebra, f, g):
    """coeff.Algebra.multiply, one accumulate per basis-product term."""
    out = {}
    for (m, i, j), s in f.terms.items():
        for (n, k, l), t in g.terms.items():
            st = s * t
            for key, c in algebra._basis_product(m, i, j, n, k, l).items():
                accumulate(out, key, st * c)
    algebra.check_window(max((p for (p, r, s) in out), default=0))
    return coeff.CoeffElement(out)


def times_basis(algebra, f, key):
    """coeff.Algebra.times_basis, one accumulate per basis-product term."""
    out = {}
    for (m, i, j), s in f.terms.items():
        for k, c in algebra._basis_product(m, i, j, *key).items():
            accumulate(out, k, s * c)
    return out


def contract(coords, table):
    """calculus.Calculus._contract, one accumulate per nonzero table
    entry; an N whose sum vanishes maps to {}."""
    h = {}
    for J, b in coords.items():
        for (n, i, t), x in b.terms.items():
            for N, m in table(J, n):
                terms = h.setdefault(N, {})
                for j, y in enumerate(m.a[t]):
                    if y:
                        accumulate(terms, (n, i, j), x * y)
    return h


def project(tss, vec):
    """connection.TensoredSectionSpace.project, one accumulate per row
    term, with the rows e_{gamma beta} t_key of the times_basis oracle;
    each (gamma, beta) product is checked word by word."""
    degree = tss.degree_of(vec)
    out = []
    for gamma, e_row in enumerate(tss.e_matrix):
        acc = {}
        for beta, psi in enumerate(vec):
            if not e_row[beta]:
                continue
            product = {}
            for (word, key), x in psi.terms.items():
                terms = product.setdefault(word, {})
                for pw, y in times_basis(tss.algebra, e_row[beta],
                                         key).items():
                    accumulate(terms, pw, x * y)
            for word, terms in product.items():
                tss.algebra.check_window(
                    max((n for n, _, _ in terms), default=0))
                for pw, s in terms.items():
                    accumulate(acc, (word, pw), s)
        out.append(calculus.FormElement(degree, acc))
    return out


# ----------------------------------------------------------------------
# the translation actions on dense coefficient blocks, before they ran
# term by term


def to_blocks(f):
    """{n: the (n+1) x (n+1) Matrix of f's level-n coefficients}."""
    blocks = {}
    for (n, i, j), s in f.terms.items():
        blk = blocks.get(n)
        if blk is None:
            blk = blocks[n] = Matrix.zeros(n + 1, n + 1)
        blk.a[i][j] = s
    return blocks


def from_blocks(blocks):
    """The CoeffElement with the given level blocks."""
    terms = {}
    for n, blk in blocks.items():
        for i in range(n + 1):
            for j in range(n + 1):
                if blk.a[i][j]:
                    terms[(n, i, j)] = blk.a[i][j]
    return coeff.CoeffElement(terms)


def circle(x, f):
    """coeff.Algebra.circle on blocks: C goes to C pi_n(x)^T."""
    return from_blocks({n: blk * repmod.irrep(n).act(x).transpose()
                        for n, blk in to_blocks(f).items()})


def dot(x, f):
    """coeff.Algebra.dot on blocks: C goes to pi_n(S^{-1} x)^T C."""
    xs = uea.antipode_inv(x)
    return from_blocks({n: repmod.irrep(n).act(xs).transpose() * blk
                        for n, blk in to_blocks(f).items()})


# ----------------------------------------------------------------------
# the action matrices of repmod.Module.act, before they summed cached
# monomial entries: one dense product per PBW term, from powers built
# here rather than read from the module's caches


def module_act(mod, x):
    """The matrix of the UEAElement x on mod, as sum_t s_t f^a k^b e^c
    over its terms, each a dense product of generator powers."""
    def power(m, n):
        acc = Matrix.identity(mod.dim)
        for _ in range(n):
            acc = acc * m
        return acc

    acc = Matrix.zeros(mod.dim, mod.dim)
    for (a, b, c), s in x.terms.items():
        k = power(mod.k, b) if b >= 0 else power(mod.k_inv, -b)
        acc = acc + (power(mod.f, a) * k * power(mod.e, c)).scale(s)
    return acc


# ----------------------------------------------------------------------
# the R-matrix on a pair of weight modules, the oracle of the Theta-series
# coefficients repmod.theta_coefficient that the L-operators read

_THETA_A = uea.K * uea.E
_THETA_B = uea.K_INV * uea.F


def cartan_factor(m1, m2):
    """The diagonal operator u^{2 m m'} on a pair of weight modules."""
    assert m1.weights is not None and m2.weights is not None
    dim = m1.dim * m2.dim
    c = Matrix.zeros(dim, dim)
    for i, wi in enumerate(m1.weights):
        for j, wj in enumerate(m2.weights):
            c.a[i * m2.dim + j][i * m2.dim + j] = Scalar.u_power(2 * wi * wj)
    return c


def universal_R(m1, m2):
    """The R-matrix C Theta on m1 (x) m2 (in the tensor basis of
    repmod.tensor), with Theta = sum_n c_n (ke)^n (x) (k^{-1}f)^n."""
    dim = m1.dim * m2.dim
    theta = Matrix.identity(dim)
    n = 1
    while True:
        a_n = m1.act(_THETA_A ** n)
        b_n = m2.act(_THETA_B ** n)
        if a_n.is_zero() or b_n.is_zero():
            break
        theta = theta + a_n.tensor(b_n).scale(repmod.theta_coefficient(n))
        n += 1
    return cartan_factor(m1, m2) * theta


# ----------------------------------------------------------------------
# the dense polynomial kernel of scalars, before polynomials became flat
# tuples of nonzero terms: tuples of ints, index = degree, no trailing
# zeros, () the zero polynomial.  The oracle of the flat kernel.


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
    """Product of two trimmed polynomials (so the result is trimmed).  A
    unit operand returns the other one, which is already trimmed."""
    if not a or not b:
        return ()
    if a == (1,):
        return b
    if b == (1,):
        return a
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


def scalar_str(num, den):
    """str() of the Scalar num/den, for its dense numerator and
    denominator (the rule of Scalar.__str__)."""
    if den == (1,):
        return _pstr(num)
    ns, ds = _pstr(num), _pstr(den)
    if len(num) > 1 or (num and num[0] < 0):
        ns = "(" + ns + ")"
    if len(den) > 1:
        ds = "(" + ds + ")"
    return ns + "/" + ds
