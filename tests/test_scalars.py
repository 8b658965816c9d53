"""Exact arithmetic in Q(u) and the linear algebra kernel."""

import random
from fractions import Fraction
from math import gcd as _igcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from qhvb import scalars as sc
from qhvb.scalars import (
    Scalar,
    Matrix,
    Echelon,
    qint,
    qfact,
    eval_at,
    kernel,
    rank,
    PoleError,
    NoSolution,
    ZERO,
    ONE,
)


U = Scalar.u_power(1)


# ----------------------------------------------------------------------
# canonical forms


def test_canonical_reduction():
    # (2u + 2)/4 reduces to (u + 1)/2
    assert Scalar((2, 2), (4,)) == Scalar((1, 1), (2,))
    # (u^2 - 1)/(u - 1) reduces to u + 1
    assert Scalar((-1, 0, 1), (-1, 1)) == Scalar((1, 1))
    # sign normalization: denominator leading coefficient is positive
    s = Scalar((1,), (-1, -2))
    assert s.den[-1] > 0
    assert s == Scalar((-1,), (1, 2))


def test_hash_consistency():
    a = Scalar((2, 2), (4,))
    b = Scalar((1, 1), (2,))
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# ----------------------------------------------------------------------
# q-integers


def test_qint_zero_and_one():
    assert qint(0) == ZERO
    assert qint(1) == ONE


def test_qint_two_polynomial_identity():
    # [2] = q + q^{-1} with q = u^4
    assert qint(2) == Scalar.q_power(1) + Scalar.q_power(-1)


def test_qint_negation():
    for n in range(5):
        assert qint(-n) == -qint(n)


def test_qint_classical_limit():
    for n in range(6):
        assert eval_at(qint(n), 1) == n


def test_qint_at_one_half():
    # independent oracle: direct rational arithmetic at q0 = (1/2)^4
    q0 = Fraction(1, 2) ** 4
    expected = (q0 ** 3 - q0 ** -3) / (q0 - q0 ** -1)
    got = eval_at(qint(3), Fraction(1, 2))
    assert got == expected
    assert got == Fraction(65793, 256)


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(3) == qint(2) * qint(3)


def test_pole_error():
    s = U / (U - ONE)
    with pytest.raises(PoleError):
        eval_at(s, 1)
    assert eval_at(s, 2) == 2


# ----------------------------------------------------------------------
# field axioms on randomized samples

small_ints = st.integers(min_value=-6, max_value=6)
dense_polys = st.lists(small_ints, min_size=0, max_size=4).map(tuple)


@st.composite
def shaped_polys(draw):
    """u^v * p(u^s): the shifted and strided shapes the verifier produces
    (q = u^4, v = u^2), up to degree 16."""
    coeffs = draw(st.lists(small_ints, min_size=1, max_size=4))
    s = draw(st.sampled_from((1, 2, 4)))
    v = draw(st.integers(min_value=0, max_value=4))
    p = [0] * (v + s * (len(coeffs) - 1) + 1)
    for k, c in enumerate(coeffs):
        p[v + s * k] = c
    return _ptrim(p)


polys = st.one_of(dense_polys, shaped_polys())
nonzero_polys = polys.filter(lambda p: any(p))
scalars = st.builds(Scalar, polys, nonzero_polys)
nonzero_scalars = st.builds(Scalar, nonzero_polys, nonzero_polys)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=40, deadline=None)
@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_specialization_is_a_homomorphism(a):
    # evaluation at a generic rational point commutes with arithmetic
    u0 = Fraction(3, 5)
    b = a * a + a
    try:
        lhs = eval_at(b, u0)
        rhs = eval_at(a, u0) ** 2 + eval_at(a, u0)
    except PoleError:
        return
    assert lhs == rhs


def test_powers():
    s = (U + ONE) / U
    assert s ** 0 == ONE
    assert s ** 3 == s * s * s
    assert s ** -2 == ONE / (s * s)
    assert Scalar.u_power(-3) * Scalar.u_power(3) == ONE


# ----------------------------------------------------------------------
# matrices


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(3)) == []


def test_rank_zero_matrix():
    assert rank(Matrix.zeros(2, 2)) == 0


def test_kernel_derived_example():
    # kernel of [[1, u], [u, u^2]] is spanned by (-u, 1); the oracle is
    # direct verification m.v = 0 plus the rank-nullity count
    m = Matrix([[ONE, U], [U, U * U]])
    basis = kernel(m)
    assert len(basis) == 1
    v = basis[0]
    assert m.apply(v) == [ZERO, ZERO]
    # proportional to (-u, 1)
    assert v[0] * ONE == -U * v[1]
    assert rank(m) + len(basis) == m.cols


def _random_scalar(rng, deg=2):
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, deg + 1)))
    return Scalar(num if any(num) else (1,))


def test_rank_nullity_and_kernel_verified():
    rng = random.Random(7)
    for _ in range(10):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        m = Matrix([[_random_scalar(rng) for _ in range(c)] for _ in range(r)])
        basis = m.kernel()
        assert m.rank() + len(basis) == c
        for v in basis:
            assert all(not x for x in m.apply(v))


def test_solve_and_no_solution():
    m = Matrix([[ONE, U], [U, U * U]])
    # rhs in the column span: m applied to (1, 1)
    rhs = [ONE + U, U + U * U]
    x = m.solve(rhs)
    assert m.apply(x) == rhs
    with pytest.raises(NoSolution):
        m.solve([ONE, ZERO])


def test_inverse():
    m = Matrix([[ONE, U], [ZERO, ONE + U]])
    assert m * m.inverse() == Matrix.identity(2)
    with pytest.raises(NoSolution):
        Matrix([[ONE, ONE], [ONE, ONE]]).inverse()


def test_product_associativity_exact():
    rng = random.Random(3)
    a = Matrix([[_random_scalar(rng) for _ in range(3)] for _ in range(2)])
    b = Matrix([[_random_scalar(rng) for _ in range(2)] for _ in range(3)])
    c = Matrix([[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
    assert (a * b) * c == a * (b * c)


def test_tensor_mixed_product():
    rng = random.Random(5)
    a = Matrix([[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
    b = Matrix([[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
    c = Matrix([[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
    d = Matrix([[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
    assert a.tensor(b) * c.tensor(d) == (a * c).tensor(b * d)


# ----------------------------------------------------------------------
# sparse echelon spans


def test_echelon_matches_dense_rank():
    rng = random.Random(11)
    for _ in range(6):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix([[_random_scalar(rng) for _ in range(c)] for _ in range(r)])
        ech = Echelon()
        for row in m.a:
            ech.add({j: x for j, x in enumerate(row) if x})
        assert ech.rank == m.rank()


def test_echelon_membership_and_canonical_reduction():
    ech = Echelon()
    ech.add({0: ONE, 1: U})
    ech.add({1: ONE})
    assert ech.contains({0: U + ONE, 1: U * U})
    assert not ech.contains({2: ONE})
    # reduction is idempotent
    red = ech.reduce({0: ONE, 2: U})
    assert ech.reduce(red) == red


# ----------------------------------------------------------------------
# the seed's primitive-PRS gcd, kept verbatim as the oracle for the
# normalisation kernel


def _ptrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _pneg(a):
    return tuple(-x for x in a)


def _pscale(a, k):
    if k == 0:
        return ()
    return tuple(x * k for x in a)


def _pcontent(a):
    g = 0
    for x in a:
        g = _igcd(g, abs(x))
        if g == 1:
            return 1
    return g


def _pdiv_int(a, k):
    # exact division of all coefficients by the integer k
    return tuple(x // k for x in a)


def _pdivmod(a, b):
    """Exact-arithmetic division: returns (quot, rem) with fraction-free
    validity only when b divides into a exactly at each step; used only
    where exactness is guaranteed (division by a gcd, deflation)."""
    assert b, "division by zero polynomial"
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) >= len(b) and any(r):
        r = list(_ptrim(r))
        if len(r) < len(b):
            break
        c, e = r[-1], len(r) - 1 - db
        if c % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        t = c // lb
        q[e] = t
        for i, x in enumerate(b):
            r[e + i] -= t * x
    return _ptrim(q), _ptrim(r)


def _prem(a, b):
    """Pseudo-remainder of a by b (fraction-free)."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    while True:
        r = list(_ptrim(r))
        if len(r) - 1 < db:
            return _ptrim(r)
        lr, e = r[-1], len(r) - 1 - db
        r = [lb * x for x in r]
        for i, x in enumerate(b):
            r[e + i] -= lr * x


def _pprim(a):
    c = _pcontent(a)
    if c in (0, 1):
        return a
    return _pdiv_int(a, c)


def _pgcd(a, b):
    """gcd in Z[u]: content gcd times primitive-PRS gcd, positive leading
    coefficient."""
    if not a:
        g = b
    elif not b:
        g = a
    else:
        ca, cb = _pcontent(a), _pcontent(b)
        a, b = _pprim(a), _pprim(b)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _pprim(_prem(a, b))
        g = _pscale(a, _igcd(ca, cb))
    if g and g[-1] < 0:
        g = _pneg(g)
    return g


def _oracle_canonical(num, den):
    """(num, den) as the seed's Scalar constructor reduced them."""
    num, den = _ptrim(num), _ptrim(den)
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    if g != (1,):
        num, _ = _pdivmod(num, g)
        den, _ = _pdivmod(den, g)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


monomials = st.builds(
    lambda c, v: (0,) * v + (c,),
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=0, max_value=6))
common_factors = st.one_of(monomials, shaped_polys(), dense_polys)


@settings(max_examples=300, deadline=None)
@given(polys, polys, common_factors)
def test_pgcd_matches_prs_oracle(a, b, g):
    g = _ptrim(g)
    a, b = sc._pmul(_ptrim(a), g), sc._pmul(_ptrim(b), g)
    got = sc._pgcd(a, b)
    assert type(got) is tuple
    assert got == _pgcd(a, b)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys)
def test_constructor_matches_oracle(num, den):
    s = Scalar(num, den)
    assert type(s.num) is tuple and type(s.den) is tuple
    assert (s.num, s.den) == _oracle_canonical(num, den)


@settings(max_examples=200, deadline=None)
@given(scalars, nonzero_scalars)
def test_products_match_oracle(x, y):
    p = x * y
    assert type(p.num) is tuple and type(p.den) is tuple
    assert (p.num, p.den) == _oracle_canonical(
        sc._pmul(x.num, y.num), sc._pmul(x.den, y.den))
    q = x / y
    assert type(q.num) is tuple and type(q.den) is tuple
    assert (q.num, q.den) == _oracle_canonical(
        sc._pmul(x.num, y.den), sc._pmul(x.den, y.num))


def test_inexact_quotient_raises():
    with pytest.raises(ArithmeticError):
        sc._pquo((1, 1), (1, 2))
    with pytest.raises(ArithmeticError):
        sc._pquo((1, 0, 1), (0, 1))
    with pytest.raises(ArithmeticError):
        sc._pquo((0, 0, 3), (0, 0, 2))


# ----------------------------------------------------------------------
# sums: Henrici's addition against the seed constructor, and the gcd
# cofactor cache


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _ptrim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


@st.composite
def sum_operands(draw):
    """(x, y) with a shared denominator factor, an equal denominator, or
    y = -x, besides unrelated pairs."""
    kind = draw(st.sampled_from(("shared", "equal", "negated", "free")))
    if kind == "free":
        return draw(scalars), draw(scalars)
    g = _ptrim(draw(common_factors))
    assume(any(g))
    x = Scalar(draw(polys), sc._pmul(g, draw(nonzero_polys)))
    if kind == "negated":
        return x, -x
    if kind == "equal":
        y = Scalar(draw(polys), x.den)
        assume(not y or y.den == x.den)
        return x, y
    return x, Scalar(draw(polys), sc._pmul(g, draw(nonzero_polys)))


@settings(max_examples=300, deadline=None)
@given(sum_operands())
def test_sums_match_oracle(xy):
    x, y = xy
    (a, b), (c, d) = (x.num, x.den), (y.num, y.den)
    for s, c_sign in ((x + y, c), (x - y, _pneg(c))):
        assert type(s.num) is tuple and type(s.den) is tuple
        assert (s.num, s.den) == _oracle_canonical(
            _padd(sc._pmul(a, d), sc._pmul(c_sign, b)), sc._pmul(b, d))


def test_sum_cancels_through_both_gcds():
    # 2/((u-1)(u+1)) - 3/((u-1)(u+2)): gcd(b, d) = u - 1, and the
    # numerator 2(u+2) - 3(u+1) = -(u-1) cancels it again
    x = Scalar((2,), (-1, 0, 1))
    y = Scalar((3,), sc._pmul((-1, 1), (2, 1)))
    s = x - y
    assert (s.num, s.den) == ((-1,), (2, 3, 1))
    # an equal denominator that the sum reduces: u/(u^2-1) - 1/(u^2-1)
    s = Scalar((0, 1), (-1, 0, 1)) - Scalar((1,), (-1, 0, 1))
    assert (s.num, s.den) == ((1,), (1, 1))
    assert Scalar((1,), (1, 1)) - Scalar((1,), (1, 1)) is ZERO


def test_cancel_cache_is_transparent():
    rng = random.Random(11)
    factors = [(-1, 1), (1, 1), (1, 0, 1), (0, 1), (-1, 0, 0, 0, 1), (3, 2)]

    def operand():
        den = (1,)
        for f in rng.sample(factors, rng.randint(0, 3)):
            den = sc._pmul(den, f)
        num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
        return Scalar(num if any(num) else (1,), den)

    pairs = [(operand(), operand()) for _ in range(60)]

    def batch():
        return [tuple((s.num, s.den) for s in (x + y, x - y, x * y, x / y))
                for x, y in pairs]

    sc._cancel.cache_clear()
    cold = batch()
    warm = batch()
    assert cold == warm
    for (x, y), (s_add, _, s_mul, _) in zip(pairs, cold):
        assert s_add == _oracle_canonical(
            _padd(sc._pmul(x.num, y.den), sc._pmul(y.num, x.den)),
            sc._pmul(x.den, y.den))
        assert s_mul == _oracle_canonical(sc._pmul(x.num, y.num),
                                          sc._pmul(x.den, y.den))
    info = sc._cancel.cache_info()
    assert info.maxsize == 256 == sc.CANCEL_CACHE_SIZE
    assert info.currsize <= 256
    assert info.hits > 0
