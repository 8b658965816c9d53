"""The Hopf algebra U_q(sl2) in PBW normal form.

Generators are f, k^{+-1}, e subject to

    k e k^{-1} = q e,   k f k^{-1} = q^{-1} f,
    e f - f e  = (k^2 - k^{-2}) / (q - q^{-1}),

with q = u^4.  Elements are stored as maps from PBW monomials
f^a k^b e^c -- encoded as integer triples (a, b, c) with a, c >= 0 and
b in Z -- to Scalar coefficients; rewriting always lands in this normal
form.

The Hopf structure uses the k-balanced coproduct

    D(k) = k (x) k,
    D(e) = e (x) k + k^{-1} (x) e,
    D(f) = f (x) k + k^{-1} (x) f,

the counit eps(e) = eps(f) = 0, eps(k) = 1, and the antipode determined
by the Hopf axiom: S(k) = k^{-1}, S(e) = -q e, S(f) = -q^{-1} f.  The
star structure is e* = f, f* = e, k* = k, which is a Hopf *-structure
for this coproduct without any flip.

This is one of several equivalent normalizations in use; it is fixed
here once and all downstream matrix coefficients inherit it.
"""

from .scalars import (Scalar, ZERO, ONE, qint, accumulate, format_terms,
                      LinComb, Tensor)

_QPOW = Scalar.q_power

# q - q^{-1}, the denominator of the e/f commutator
_QDIFF = _QPOW(1) - _QPOW(-1)


# ----------------------------------------------------------------------
# core rewriting: normal form of e^c f^a

_EF_MEMO = {}


def _ef_normal(c, a):
    """PBW normal form of e^c f^a as a dict {(a', b', c'): Scalar}.

    Uses e f^a = f^a e + [a] f^{a-1} (q^{-(a-1)} k^2 - q^{a-1} k^{-2}) / (q - q^{-1})
    recursively (reduce one e at a time)."""
    if c == 0 or a == 0:
        return {(a, 0, c): ONE}
    key = (c, a)
    memo = _EF_MEMO.get(key)
    if memo is not None:
        return memo
    out = {}
    # e^{c-1} f^a, then append one e on the right
    for (x, y, z), s in _ef_normal(c - 1, a).items():
        accumulate(out, (x, y, z + 1), s)
    # [a] e^{c-1} f^{a-1} * (q^{-(a-1)} k^2 - q^{a-1} k^{-2}) / (q-q^{-1})
    co = qint(a) / _QDIFF
    for (x, y, z), s in _ef_normal(c - 1, a - 1).items():
        base = s * co
        # right-multiplying f^x k^y e^z by k^s picks up q^{-z*s}
        accumulate(out, (x, y + 2, z), base * _QPOW(-(a - 1)) * _QPOW(-2 * z))
        accumulate(out, (x, y - 2, z), -base * _QPOW(a - 1) * _QPOW(2 * z))
    _EF_MEMO[key] = out
    return out


def _mono_mul(m1, m2):
    """Product of two PBW monomials as a dict of monomials."""
    a1, b1, c1 = m1
    a2, b2, c2 = m2
    out = {}
    for (x, y, z), s in _ef_normal(c1, a2).items():
        # f^{a1} k^{b1} (f^x k^y e^z) k^{b2} e^{c2}
        coeff = s * _QPOW(-b1 * x - z * b2)
        accumulate(out, (a1 + x, b1 + y + b2, z + c2), coeff)
    return out


# ----------------------------------------------------------------------
# elements


class UEAElement(LinComb):
    """A finite Scalar-linear combination of PBW monomials f^a k^b e^c."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        out = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                s12 = s1 * s2
                for m, s in _mono_mul(m1, m2).items():
                    accumulate(out, m, s12 * s)
        return self._new(out)

    __rmul__ = LinComb.scale

    def __pow__(self, n):
        assert n >= 0
        acc = UNIT
        for _ in range(n):
            acc = acc * self
        return acc

    def __str__(self):
        return format_terms(self.terms, _mono_str)

    __repr__ = __str__


def monomial(a, b, c, coeff=ONE):
    assert a >= 0 and c >= 0
    return UEAElement._of({(a, b, c): coeff} if coeff else {})


UNIT = monomial(0, 0, 0)
E = monomial(0, 0, 1)
F = monomial(1, 0, 0)
K = monomial(0, 1, 0)
K_INV = monomial(0, -1, 0)


def counit(x):
    acc = ZERO
    for (a, b, c), s in x.terms.items():
        if a == 0 and c == 0:
            acc = acc + s
    return acc


# ----------------------------------------------------------------------
# tensor square (for the coproduct)


class TensorUEA(Tensor):
    """An element of U_q (x) U_q keyed by pairs of PBW monomials."""

    __slots__ = ()
    leg = UEAElement

    def __mul__(self, other):
        out = {}
        for (l1, r1), s1 in self.terms.items():
            for (l2, r2), s2 in other.terms.items():
                s12 = s1 * s2
                left = _mono_mul(l1, l2)
                right = _mono_mul(r1, r2)
                for ml, sl in left.items():
                    for mr, sr in right.items():
                        accumulate(out, (ml, mr), s12 * sl * sr)
        return self._new(out)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (l, r), s in sorted(self.terms.items()):
            bits.append("(%s) %s (x) %s" % (s, _mono_str(l), _mono_str(r)))
        return " + ".join(bits)

    __repr__ = __str__


def tensor(x, y):
    """Simple tensor of two elements."""
    return TensorUEA._of({(m1, m2): s1 * s2 for m1, s1 in x.terms.items()
                          for m2, s2 in y.terms.items()})


_DELTA_E = TensorUEA({((0, 0, 1), (0, 1, 0)): ONE, ((0, -1, 0), (0, 0, 1)): ONE})
_DELTA_F = TensorUEA({((1, 0, 0), (0, 1, 0)): ONE, ((0, -1, 0), (1, 0, 0)): ONE})
_DELTA_MONO = {}


def _delta_mono(m):
    """D(f^a k^b e^c), memoised per monomial: D(f) D(f^{a-1} k^b e^c),
    or D(k^b e^{c-1}) D(e) when a = 0, down to D(k^b) = k^b (x) k^b."""
    cached = _DELTA_MONO.get(m)
    if cached is None:
        a, b, c = m
        if a:
            cached = _DELTA_F * _delta_mono((a - 1, b, c))
        elif c:
            cached = _delta_mono((0, b, c - 1)) * _DELTA_E
        else:
            cached = TensorUEA._of({((0, b, 0), (0, b, 0)): ONE})
        _DELTA_MONO[m] = cached
    return cached


def coproduct(x):
    """D(x), the memoised D(m) of each monomial m of x scaled and summed;
    a one-term x scales its D(m) alone."""
    if len(x.terms) == 1:
        (m, s), = x.terms.items()
        return _delta_mono(m).scale(s)
    return TensorUEA().combination((s, _delta_mono(m))
                                   for m, s in x.terms.items())


def iterated_coproduct(x, legs):
    """The (legs-1)-fold coproduct as a dict mapping tuples of PBW
    monomials to Scalars; legs = 1 returns x itself in this shape.
    Coassociativity makes the expansion order immaterial."""
    assert legs >= 1
    cur = {(m,): s for m, s in x.terms.items()}
    for _ in range(legs - 1):
        nxt = {}
        for key, s in cur.items():
            for (m1, m2), s2 in _delta_mono(key[-1]).terms.items():
                accumulate(nxt, key[:-1] + (m1, m2), s * s2)
        cur = nxt
    return cur


# ----------------------------------------------------------------------
# antipode and star

_ANTIPODE_MEMO = {}


def _antipode_mono(m):
    cached = _ANTIPODE_MEMO.get(m)
    if cached is not None:
        return cached
    a, b, c = m
    # S is an anti-homomorphism: S(f^a k^b e^c) = S(e)^c S(k)^b S(f)^a
    # with S(e) = -q e, S(f) = -q^{-1} f.
    sgn = _QPOW(c - a)
    if (a + c) % 2:
        sgn = -sgn
    out = (monomial(0, 0, c) * monomial(0, -b, 0) * monomial(a, 0, 0)).scale(sgn)
    _ANTIPODE_MEMO[m] = out
    return out


def antipode(x):
    return UEAElement().combination((s, _antipode_mono(m))
                                    for m, s in x.terms.items())


def antipode_inv(x):
    """S^{-1} = * S *, as in any Hopf *-algebra: S(S(x*)*) = x."""
    return star(antipode(star(x)))


def star(x):
    """The compact real form: e* = f, f* = e, k* = k, extended as an
    anti-involution; on PBW monomials (f^a k^b e^c)* = f^c k^b e^a."""
    return x._new({(c, b, a): s.conj() for (a, b, c), s in x.terms.items()})


# ----------------------------------------------------------------------
# serialization


def _mono_str(m):
    a, b, c = m
    if a == b == c == 0:
        return "1"
    bits = []
    if a:
        bits.append("f" if a == 1 else "f^%d" % a)
    if b:
        bits.append("k" if b == 1 else "k^%d" % b)
    if c:
        bits.append("e" if c == 1 else "e^%d" % c)
    return " ".join(bits)


def pbw_monomials(max_degree):
    """All PBW monomials (a, b, c) with a + |b| + c <= max_degree."""
    out = []
    for a in range(max_degree + 1):
        for c in range(max_degree + 1 - a):
            for b in range(-(max_degree - a - c), max_degree - a - c + 1):
                out.append((a, b, c))
    return sorted(out)
