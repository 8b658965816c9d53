"""Tests for the differential calculus.

The structure functionals are checked against their defining identities
recomputed here from the Hopf algebra operations, the braiding against
its classical limit, its splitting algebra, and the braid relation, and
the exterior algebra against the binomial dimension pattern.  The
differential is exercised through the Maurer-Cartan commutator identity,
graded Leibniz, d^2 = 0, and commutation with both translation actions;
the restricted calculus dimensions are frozen regressions."""

import functools
import itertools
import random
import re

import pytest

from qhvb.scalars import (Scalar, Matrix, Span, ZERO, ONE, accumulate,
                          NoSolution)
from qhvb import uea, repmod, coeff, calculus, cli, connection, scalars
from test_cli import _break_calculus
import oracles

U = Scalar.u_power
A = coeff.Algebra(6)
DATA = calculus.from_rep(repmod.irrep(1))
CALC = calculus.Calculus(A, DATA)


def sample_coeff(rnd, max_level=2):
    f = coeff.CoeffElement()
    for _ in range(rnd.randint(1, 3)):
        n = rnd.randint(0, max_level)
        c = rnd.randint(-3, 3)
        if c:
            f = f + coeff.basis_element(n, rnd.randint(0, n), rnd.randint(0, n),
                                        coeff=Scalar(c))
    return f


def random_form(rnd, degree, max_level=2):
    """A seeded word-space form of the given degree on one to three
    random words, often not normal."""
    return calculus.form(degree, {
        tuple(rnd.randrange(DATA.K) for _ in range(degree)):
            sample_coeff(rnd, max_level) for _ in range(rnd.randint(1, 3))})


def right_mult(w, b):
    """The form w times the degree-0 form b."""
    return CALC.multiply(w, CALC.form0(b))


def nonzero(draw, images=lambda x: [x]):
    """Redraw a seeded sample until each of its images (by default the
    sample itself) is nonzero, so that no check compares zero with
    zero."""
    while True:
        x = draw()
        if not any(y.is_zero() for y in images(x)):
            return x


def test_shift_functionals_satisfy_structure_identities():
    K = DATA.K
    for a in range(K):
        assert uea.counit(DATA.X[a]) == ZERO
        acc = uea.tensor(uea.UNIT, DATA.X[a])
        for b in range(K):
            assert uea.counit(DATA.F[a][b]) == (ONE if a == b else ZERO)
            acc = acc + uea.tensor(DATA.X[b], DATA.F[b][a])
        assert uea.coproduct(DATA.X[a]) == acc
    for a in range(K):
        for b in range(K):
            acc = uea.TensorUEA()
            for c in range(K):
                acc = acc + uea.tensor(DATA.F[a][c], DATA.F[c][b])
            assert uea.coproduct(DATA.F[a][b]) == acc


def test_higher_representation_calculus_data():
    data = calculus.from_rep(repmod.irrep(2))
    assert data.K == 9
    assert data.nondegenerate
    assert sorted(data.module.weights) == [-4, -2, -2, 0, 0, 0, 2, 2, 4]
    # on V_3 the corepresentation check of L- reads d_2 and d_3 of the
    # Theta^{-1} series, which the default calculus does not
    data = calculus.from_rep(repmod.irrep(3))
    assert data.K == 16
    assert data.nondegenerate
    assert sorted(data.module.weights) == [-6, -4, -4, -2, -2, -2, 0, 0, 0,
                                           0, 2, 2, 2, 4, 4, 6]


def test_trivial_representation_is_degenerate():
    data = calculus.from_rep(repmod.irrep(0))
    assert not data.nondegenerate
    assert all(x.is_zero() for x in data.X)
    with pytest.raises(AssertionError):
        calculus.Calculus(A, data)


def graded_commutator(w):
    """The oracle of Calculus.d: theta w - (-1)^n w theta, through the
    word-space products of multiply."""
    th = CALC.theta()
    sign = -ONE if w.degree % 2 else ONE
    return CALC.multiply(th, w) - CALC.multiply(w, th).scale(sign)


def test_differential_is_commutator_with_theta():
    rnd = random.Random(11)
    th = CALC.theta()
    for _ in range(12):
        f = sample_coeff(rnd)
        w = CALC.form0(f)
        assert CALC.d0(f) == CALC.multiply(th, w) - CALC.multiply(w, th)
        assert CALC.d(w) == CALC.d0(f)
    # seeded word-space forms of degree 0-3, most of them not normal
    samples = [calculus.form(2, {(1, 2): coeff.unit()})]
    for degree in range(4):
        for _ in range(10):
            samples.append(random_form(rnd, degree))
    assert sum(CALC.reduce_mod_J(w) != w for w in samples) >= 10
    for w in samples:
        dw = CALC.d(w)
        assert dw == graded_commutator(w)
        assert dw == CALC.d(CALC.reduce_mod_J(w))
        assert CALC.reduce_mod_J(dw) == dw


def circle_d0(calc, f):
    """The oracle of Calculus.d0: sum_c (X_c o f) omega_c through the
    right translation of the coefficient algebra."""
    return calculus.form(1, {(c,): calc.algebra.circle(calc.data.X[c], f)
                             for c in range(calc.K)})


def test_d0_matches_the_circle_oracle():
    rnd = random.Random(19)
    samples = [coeff.unit(), coeff.basis_element(3, 1, 2)]
    samples += [nonzero(lambda: sample_coeff(rnd, max_level=3))
                for _ in range(12)]
    for f in samples:
        assert CALC.d0(f) == circle_d0(CALC, f)
    assert CALC.d0(coeff.unit()).is_zero()
    assert sum(not CALC.d0(f).is_zero() for f in samples) >= 12


def test_leibniz_in_degree_zero():
    rnd = random.Random(12)
    for _ in range(12):
        f = sample_coeff(rnd)
        g = sample_coeff(rnd)
        lhs = CALC.d0(A.multiply(f, g))
        rhs = right_mult(CALC.d0(f), g) + CALC.left_mult(f, CALC.d0(g))
        assert lhs == rhs


def test_word_action_respects_the_algebra():
    rnd = random.Random(13)
    for a in range(DATA.K):
        w = calculus.form(1, {(a,): coeff.unit()})
        assert right_mult(w, coeff.unit()) == w
    for _ in range(8):
        key = tuple(rnd.randrange(DATA.K) for _ in range(2))
        w = calculus.form(2, {key: coeff.unit()})
        f = sample_coeff(rnd, max_level=1)
        g = sample_coeff(rnd, max_level=1)
        lhs = right_mult(right_mult(w, f), g)
        rhs = right_mult(w, A.multiply(f, g))
        assert lhs == rhs


def test_braiding_split_invariants():
    # the split summed on V (x) V, kept as the oracle, satisfies the
    # identities the block split certifies, and reads the same ker sigma_-
    # in the same order and the same eigenvalues
    split = CALC.braiding()
    full = oracles.BraidingSplit(DATA.module, split.sigma)
    K = DATA.K
    assert full.sigma_plus - full.sigma_minus == split.sigma
    zero = Matrix.zeros(K * K, K * K)
    assert full.sigma_plus * full.sigma_minus == zero
    assert full.sigma_minus * full.sigma_plus == zero
    kernel = [{divmod(i, K): s for i, s in enumerate(vec) if s}
              for vec in full.sigma_minus.kernel()]
    assert CALC._kernel_vectors() == kernel
    assert [list(kv) for kv in CALC._kernel_vectors()] == [
        list(kv) for kv in kernel]
    assert split.eigenvalues == full.eigenvalues
    assert split.sigma.eval_at(1) == repmod.flip_matrix(K, K).eval_at(1)
    eye = Matrix.identity(K)
    s1 = split.sigma.tensor(eye)
    s2 = eye.tensor(split.sigma)
    assert s1 * s2 * s1 == s2 * s1 * s2


def test_braiding_split_stays_on_the_blocks(monkeypatch):
    # the only K^2 x K^2 matrix sums are the two of D(e) and D(f) in
    # repmod.tensor; summing sigma_+ and sigma_- on V (x) V made 23 sums,
    # 5 differences and 45 products of that size.  A difference adds
    # the negated operand, so the sum inside it is not counted as a sum
    big = (DATA.K ** 2,) * 2
    counts = dict.fromkeys(("__add__", "__sub__", "__mul__", "kernel",
                            "rank"), 0)
    running = []
    for op in ("__add__", "__sub__", "__mul__"):
        fn = getattr(Matrix, op)

        def counted(self, other, fn=fn, op=op):
            inside_sub = "__sub__" in running
            running.append(op)
            try:
                out = fn(self, other)
            finally:
                running.pop()
            if (isinstance(other, Matrix) and (out.rows, out.cols) == big
                    and not (op == "__add__" and inside_sub)):
                counts[op] += 1
            return out
        monkeypatch.setattr(Matrix, op, counted)
    # the eliminations: five kernels in decompose and one per eigenvalue
    # of the three multiplicity blocks, its eigenspace; ker sigma_- needs
    # no kernel of its own and the eigenvalues no rank
    for op in ("kernel", "rank"):
        fn = getattr(Matrix, op)

        def counted_unary(self, fn=fn, op=op):
            counts[op] += 1
            return fn(self)
        monkeypatch.setattr(Matrix, op, counted_unary)
    calculus.Calculus(A, DATA).braiding()
    assert counts["__add__"] == 2
    assert counts["__sub__"] <= 4 and counts["__mul__"] <= 16
    assert counts["kernel"] == 10 and counts["rank"] == 0


def test_braiding_commutation_certificate_rejects_a_cross_term():
    # sigma + inc_a X prj_b, a a copy of V_0, b one of V_2 and X the
    # weight-0 matrix unit V_2 -> V_0: it commutes with k and every block
    # within an isotypic group stays scalar, so only the commutation of
    # sigma with e and f can reject it
    sigma = CALC.braiding().sigma
    copies = repmod.decompose(repmod.tensor(DATA.module, DATA.module))
    inc_a = next(inc for n, inc, _ in copies if n == 0)
    prj_b = next(prj for n, _, prj in copies if n == 2)
    x = Matrix.sparse(1, 3, {(0, repmod.irrep(2).weights.index(0)): ONE})
    broken = sigma + inc_a * x * prj_b
    with pytest.raises(AssertionError, match="sigma does not commute with e"):
        calculus.BraidingSplit(DATA.module, broken)
    # the split on V (x) V rejected it by the difference of its projectors
    with pytest.raises(AssertionError, match=r"sigma_\+ - sigma_- != sigma"):
        oracles.BraidingSplit(DATA.module, broken)


def test_braiding_eigenvalue_regression():
    split = CALC.braiding()
    got = [(str(lam), n, m) for lam, n, m in split.eigenvalues]
    assert got == [
        ("1", 0, 2),
        ("1", 2, 1),
        ("(-1)/(u^8)", 2, 1),
        ("-u^8", 2, 1),
        ("1", 4, 1),
    ]


def test_signed_power_eigenvalues_by_rank():
    # diag(1, -u^-8, -u^8) conjugated by a unimodular integer matrix
    p = Matrix([[Scalar(x) for x in row]
                for row in ((1, 1, 0), (0, 1, 1), (1, 1, 1))])
    d = Matrix([[ONE, ZERO, ZERO], [ZERO, -U(-8), ZERO], [ZERO, ZERO, -U(8)]])
    m = p * d * p.inverse()
    scaled = Matrix.identity(2).scale(U(4))
    for mat, want in ((m, [(ONE, 1), (-U(-8), 1), (-U(8), 1)]),
                      (scaled, [(U(4), 2)])):
        eigen = calculus._signed_power_eigenspaces(mat)
        assert [(lam, len(basis)) for lam, basis in eigen] == want
        for lam, basis in eigen:
            for v in basis:
                col = Matrix([[x] for x in v])
                assert not col.is_zero()
                assert mat * col == col.scale(lam)


@pytest.mark.parametrize("rows, spanned", [
    (((1, 1), (0, 1)), "span 1 of 2"),
    (((2,),), "span 0 of 1"),
], ids=["jordan-block", "not-a-signed-power"])
def test_signed_power_eigenvalues_reject(rows, spanned):
    m = Matrix([[Scalar(x) for x in row] for row in rows])
    with pytest.raises(calculus.SplitError, match=spanned):
        calculus._signed_power_eigenspaces(m)


def test_antisymmetrizer_kernel():
    kernel = CALC._kernel_vectors()
    assert len(kernel) == 10
    # sigma_- commutes with the Cartan action, so its kernel is
    # weight-homogeneous
    wts = DATA.module.weights
    for kv in kernel:
        assert len({wts[a] + wts[b] for a, b in kv}) == 1


def test_exterior_algebra_dimensions():
    assert [CALC.omega_dims(n) for n in range(6)] == [1, 4, 6, 4, 1, 0]


def test_exterior_ideal_is_one_echelon_per_degree():
    # J in degree n is spanned by the words prefix k suffix, k in
    # ker sigma_-; modulo J_{n-1} (x) V it is one echelon E_n on the
    # columns N_{n-1} x letters, and the normal words are the words of
    # N_{n-1} x letters outside its pivots
    letters = range(DATA.K)
    kernel = CALC._kernel_vectors()
    f = coeff.unit() + coeff.basis_element(1, 0, 1)
    for n in (2, 3):
        ech = CALC._j_echelon(n)
        columns = {w + (a,) for w in CALC._normal_words(n - 1) for a in letters}
        assert all(set(row) <= columns for row in ech.rows.values())
        for i in range(n - 1):
            for prefix in itertools.product(letters, repeat=i):
                for suffix in itertools.product(letters, repeat=n - 2 - i):
                    for kv in kernel:
                        gen = calculus.form(n, {prefix + ab + suffix: f.scale(s)
                                                for ab, s in kv.items()})
                        assert CALC.reduce_mod_J(gen).is_zero()
        for word in itertools.product(letters, repeat=n):
            w = calculus.form(n, {word: f})
            assert (CALC.reduce_mod_J(w) == w) == (word in columns
                                                   and word not in ech.rows)
    normal = [sum(CALC.reduce_mod_J(w) == w
                  for w in (calculus.form(n, {word: f})
                            for word in itertools.product(letters, repeat=n)))
              for n in range(6)]
    assert normal == [CALC.omega_dims(n) for n in range(6)] == [1, 4, 6, 4, 1, 0]


def test_exterior_ideal_has_the_exact_pivots_mod_p():
    # the generators of E_n, sum_ab k_ab NF(u a) b as _j_echelon builds
    # them, specialized at u = U0 span an Echelon over F_p with the
    # pivots of the exact E_n, so its normal words count the dims golden
    def mod_p(x):
        return (scalars.Fp(scalars._peval_mod(x.num))
                / scalars.Fp(scalars._peval_mod(x.den)))

    normal = {1: CALC._normal_words(1)}
    for n in range(2, 6):
        ech = scalars.Echelon((), scalars.Fp(1))
        kernel = (CALC._kernel_vectors() if n == 2
                  else CALC._j_echelon(2).rows.values())
        for kv in kernel:
            for u in CALC._normal_words(n - 2):
                vec = {}
                for (a, b), s in kv.items():
                    for w, t in CALC._normal_form(u + (a,)).items():
                        accumulate(vec, w + (b,), s * t)
                ech.add({w: mod_p(s) for w, s in vec.items()})
        assert ech.rows.keys() == CALC._j_echelon(n).rows.keys()
        normal[n] = [w + (a,) for w in normal[n - 1] for a in range(DATA.K)
                     if w + (a,) not in ech.rows]
    assert [1] + [len(normal[n]) for n in range(1, 6)] == [1, 4, 6, 4, 1, 0]


def test_normal_forms_match_the_word_space_oracle():
    # the recursion over degrees gives each of the 1,365 words of degree
    # at most 5 the normal form of one elimination over all K^n words,
    # and the same normal words; no E_n has more than 24 columns
    calc = calculus.Calculus(A, DATA)
    for n in range(6):
        ech = oracles.j_echelon(calc, n)
        words = list(itertools.product(range(calc.K), repeat=n))
        assert calc._normal_words(n) == [w for w in words if w not in ech.rows]
        for word in words:
            assert calc._normal_form(word) == ech.reduce({word: ONE})
    assert len(calc._nf) == 1365
    assert [len({k for row in calc._j_echelon(n).rows.values() for k in row})
            for n in range(6)] == [0, 0, 16, 24, 16, 4]


def test_exterior_ideal_is_two_sided():
    rnd = random.Random(14)
    xs = [coeff.basis_element(1, i, j) for i in range(2) for j in range(2)]
    for a in range(DATA.K):
        for b in range(DATA.K):
            w = calculus.form(2, {(a, b): coeff.unit()})
            red = CALC.reduce_mod_J(w)
            for x in xs:
                assert right_mult(w, x) == right_mult(red, x)
    # left multiplication leaves the letters alone
    f = sample_coeff(rnd)
    w = calculus.form(2, {(1, 2): coeff.unit()})
    assert CALC.left_mult(f, w) == CALC.left_mult(f, CALC.reduce_mod_J(w))


def test_calculus_returns_normal_forms():
    # multiply reduces modulo the exterior ideal and d reads tables on
    # normal words, so every form the calculus returns is fixed by
    # reduce_mod_J and == is equality in the exterior algebra
    t = [coeff.basis_element(1, i, j) for i in range(2) for j in range(2)]
    w1 = CALC.left_mult(t[0], CALC.d0(t[1]))
    w2 = CALC.multiply(w1, CALC.d0(t[2]))
    for w in (CALC.multiply(w1, CALC.d0(t[3])), w2, CALC.d(w1), CALC.d(w2),
              CALC.dot_on_forms(uea.E, w2), w2 - w2.scale(3)):
        assert w.degree >= 2 and not w.is_zero()
        assert CALC.reduce_mod_J(w) == w


def test_forms_regroup_by_word_and_keep_their_degree():
    rnd = random.Random(29)
    f = sample_coeff(rnd, max_level=1)
    w1 = CALC.d0(f)
    w2 = CALC.multiply(CALC.left_mult(f, w1), CALC.d0(sample_coeff(rnd, 1)))
    for w in (w1, w2):
        assert not w.is_zero()
        assert calculus.form(w.degree, w.coords) == w
        for zero in (w - w, w.scale(0), -w + w):
            assert zero.is_zero() and zero.degree == w.degree
        assert (-w).degree == w.degree
    assert CALC.zero(1) != CALC.zero(2)
    assert CALC.zero(1) == w1 - w1
    with pytest.raises(ValueError):
        w1 + w2
    with pytest.raises(ValueError):
        w2 - CALC.zero(1)


def test_theta_squares_to_zero():
    th = CALC.theta()
    assert CALC.multiply(th, th).is_zero()


def test_d_squared_vanishes():
    rnd = random.Random(15)
    for _ in range(10):
        w1 = nonzero(lambda: CALC.d(CALC.form0(sample_coeff(rnd))))
        assert CALC.d(w1).is_zero()
        w = nonzero(lambda: CALC.left_mult(sample_coeff(rnd),
                                           CALC.d0(sample_coeff(rnd))),
                    lambda w: [CALC.d(w)])
        assert CALC.d(CALC.d(w)).is_zero()


def normal_words(calc):
    """Every normal word, degree by degree up to the top degree: the
    words that are no pivot of the ideal's word-space echelon."""
    out = []
    for degree in itertools.count():
        pivots = oracles.j_echelon(calc, degree).rows
        words = [w for w in itertools.product(range(calc.K), repeat=degree)
                 if w not in pivots]
        if not words:
            return out
        out += words


def d_matrices(calc, J, n):
    """{N: M_{J,n,N}} read through d: d maps a level-n block B of the
    coefficient of w_J to sum_N B M_{J,n,N}^T w_N, so column t of
    M_{J,n,N} is the row-0 block of the coefficient of w_N in
    d(t[n;0,t] w_J)."""
    entries = {}
    for t in range(n + 1):
        dw = calc.d(calculus.form(len(J), {J: coeff.basis_element(n, 0, t)}))
        for (N, (_, _, j)), s in dw.terms.items():
            entries.setdefault(N, {})[(j, t)] = s
    return {N: Matrix.sparse(n + 1, n + 1, terms)
            for N, terms in entries.items()}


def d_squared_failures(calc):
    """The (J, n) with sum_N M_{N,n,P} M_{J,n,N} != 0 for some normal
    word P, over every normal word J and level n <= the window: d^2 = 0
    on every form of the window exactly when there are none."""
    memo = {}

    def table(J, n):
        if (J, n) not in memo:
            memo[(J, n)] = d_matrices(calc, J, n)
        return memo[(J, n)]

    failures = []
    for J in normal_words(calc):
        for n in range(calc.algebra.n_max + 1):
            square = {}
            for N, m in table(J, n).items():
                for P, m2 in table(N, n).items():
                    square[P] = square[P] + m2 * m if P in square else m2 * m
            if any(not m.is_zero() for m in square.values()):
                failures.append((J, n))
    return failures


def test_d_squared_vanishes_on_the_whole_window():
    # 16 normal words times the levels 0..10 of the default window: 176
    # table products, every one zero; the matrices read through d are
    # the d tables
    window = cli.RunConfig().coefficient_window
    calc = calculus.Calculus(coeff.Algebra(window), DATA)
    words = normal_words(calc)
    assert len(words) == sum(calc.omega_dims(k) for k in range(5)) == 16
    assert d_squared_failures(calc) == []
    for J in words:
        for n in range(window + 1):
            assert d_matrices(calc, J, n) == dict(calc._d_table(J, n))


def test_ungraded_d_fails_the_window_certificate(monkeypatch):
    # the ungraded commutator with theta, the calculus mutant of
    # test_cli, breaks d^2 = 0 on 44 of the 80 (word, level) pairs of
    # window 4
    _break_calculus(monkeypatch)
    calc = calculus.Calculus(coeff.Algebra(4), DATA)
    assert len(d_squared_failures(calc)) == 44


def word_action(calc, word, blocks):
    """All pairs (new word C, (F_{a1 c1} ... F_{an cn}) o b) for the
    word (a1..an) and the Peter-Weyl blocks of b; the shift operators act
    on each block by right multiplication with transposed F-blocks,
    rightmost letter first, a second derivation of the product tables'
    word-order product."""
    states = {(): blocks}
    for a in reversed(word):
        nxt = {}
        for suffix, blocks in states.items():
            for c in range(calc.K):
                res = {}
                for n, blk in blocks.items():
                    t = repmod.irrep(n).act(calc.data.F[a][c]).transpose()
                    if not t:
                        continue
                    m = blk * t
                    if m:
                        res[n] = m
                if res:
                    nxt[(c,) + suffix] = res
        states = nxt
    return [(key, oracles.from_blocks(blocks))
            for key, blocks in states.items()]


def word_product(calc, w1, w2):
    """The oracle of Calculus.multiply: sum_C a ((F-word)_{I C} o b) w_{C J}
    word by word, one coefficient product per (I, C, J), reduced modulo
    the exterior ideal afterwards."""
    out = {}
    for I, a in w1.coords.items():
        for J, b in w2.coords.items():
            shifted = (word_action(calc, I, oracles.to_blocks(b))
                       if I else [((), b)])
            for C, g in shifted:
                for pw, s in calc.algebra.multiply(a, g).terms.items():
                    accumulate(out, (C + J, pw), s)
    return calc.reduce_mod_J(calculus.FormElement(w1.degree + w2.degree, out))


def unit_word_product(calc, a, w):
    """The oracle of Calculus.multiply with the unit word on the left:
    a sum_N (sum_J rho(J)_N b_J) w_N, each word J of w reduced modulo
    the exterior ideal in word space, one coefficient product per normal
    word N."""
    h = {}
    for J, b in w.coords.items():
        for N, s in oracles.j_echelon(calc, w.degree).reduce({J: ONE}).items():
            terms = h.setdefault(N, {})
            for pw, x in b.terms.items():
                accumulate(terms, pw, s * x)
    out = {}
    for N, terms in h.items():
        for pw, s in calc.algebra.multiply(a, coeff.CoeffElement(terms)).terms.items():
            accumulate(out, (N, pw), s)
    return calculus.FormElement(w.degree, out)


def test_unit_word_product_matches_the_reduction_oracle():
    # the unit word reads rho(J)_N times the identity from its product
    # tables; the oracle reduces each word J directly
    rnd = random.Random(37)
    samples = [(coeff.unit(), CALC.theta())]
    for degree in range(4):
        for _ in range(6):
            samples.append(nonzero(
                lambda: (sample_coeff(rnd), random_form(rnd, degree)),
                lambda pair: [CALC.left_mult(*pair)]))
    assert sum(CALC.reduce_mod_J(w) != w for _, w in samples) >= 6
    for a, w in samples:
        assert CALC.left_mult(a, w) == unit_word_product(CALC, a, w)


def product_samples():
    """Seeded pairs of word-space forms of degrees 0-3 with a total
    degree of at most 4; the pairs of degree 2 x 2 are mostly not normal
    on either side."""
    rnd = random.Random(31)
    pairs = [(CALC.theta(), CALC.theta())]
    for d1 in range(4):
        for d2 in range(min(3, 4 - d1) + 1):
            for _ in range(24 if d1 == d2 == 2 else 3):
                pairs.append((random_form(rnd, d1), random_form(rnd, d2)))
    return pairs


def test_multiply_matches_the_word_product():
    # the table-driven product equals the word-by-word product reduced
    # afterwards, and it is normal whatever the representatives
    pairs = product_samples()
    assert len(pairs) >= 40
    assert sum(CALC.reduce_mod_J(w1) != w1 and CALC.reduce_mod_J(w2) != w2
               for w1, w2 in pairs) >= 10
    nonzero_products = 0
    for w1, w2 in pairs:
        got = CALC.multiply(w1, w2)
        assert got == word_product(CALC, w1, w2)
        assert got.degree == w1.degree + w2.degree
        assert CALC.reduce_mod_J(got) == got
        nonzero_products += not got.is_zero()
    assert nonzero_products >= 30


def test_contract_matches_the_per_term_oracle():
    # the product and d tables contract into one unreduced sum per N,
    # finished once; the per-term loop gives the same Scalars, in the
    # same order of N
    pairs = product_samples()
    calc = calculus.Calculus(A, DATA)
    nonempty = 0
    for w1, w2 in pairs:
        right = w2.coords
        tables = [functools.partial(calc._product_table, I)
                  for I in w1.coords] + [calc._d_table]
        for table in tables:
            got = {N: t for N, t in calc._contract(right, table).items() if t}
            want = {N: t for N, t in oracles.contract(right, table).items()
                    if t}
            assert got == want and list(got) == list(want)
            nonempty += bool(got)
    assert nonempty >= 60


def memoised_actions():
    """The ids of every action matrix the irreps have memoised
    (repmod.Module.act)."""
    return {id(m) for mod in repmod._IRREPS.values()
            for m in mod._acts.values()}


def test_multiply_reads_its_tables_only(monkeypatch):
    # multiply reads one cached table per (left word, right word, level),
    # the unit word included, and never calls reduce_mod_J; the tables
    # are new matrices, never the memoised action matrices
    pairs = product_samples()
    calc = calculus.Calculus(A, DATA)
    calls = []
    fn = calculus.Calculus.reduce_mod_J
    monkeypatch.setattr(calculus.Calculus, "reduce_mod_J",
                        lambda self, w: calls.append(w) or fn(self, w))
    used = set()
    for w1, w2 in pairs:
        calc.multiply(w1, w2)
        used |= {(I, J, pw[0]) for I in w1.coords for J, pw in w2.terms}
    assert calls == []
    assert any(I == () for I, _, _ in used)
    assert set(calc._product_tables) == used
    assert calc._d_tables == {}
    acts = memoised_actions()
    assert not any(id(m) in acts for table in calc._product_tables.values()
                   for _, m in table)


# the connection and curvature row also bounds d, multiply and project
@pytest.mark.parametrize("suites, limit, gcd_limit, add_limit, op_limits", [
    (("calculus", "closure"), 2200, None, 900, {}),
    (("connection", "curvature"), 2600, 20500, None,
     {(calculus.Calculus, "d"): 320, (calculus.Calculus, "multiply"): 600,
      (connection.TensoredSectionSpace, "project"): 270}),
], ids=["calculus-closure", "connection-curvature"])
def test_verify_contracts_words_before_coefficient_products(monkeypatch,
                                                           tmp_path, capsys,
                                                           cold_tables,
                                                           suites, limit,
                                                           gcd_limit,
                                                           add_limit,
                                                           op_limits):
    # the calculus and closure suites make one coefficient product per
    # (left word, normal word) pair; one per (left word, shifted word,
    # right word) made 3,741.  The connection and curvature suites make
    # 2,498, most of them in right_mult; with one product per (gamma,
    # beta, word) in TensoredSectionSpace.project they made 7,957, with
    # section vectors rebuilt by each right-linearity loop 4,524, and
    # with d zeta, theta zeta and each map's images recomputed in every
    # walk 3,658 (and 560 d, 804 multiply and 280 project calls, against
    # 304, 572 and 256).  product_terms is the one coefficient product:
    # Algebra.multiply finishes it, and Calculus.multiply merges its
    # terms unreduced
    calls = []
    fn = coeff.Algebra.product_terms
    monkeypatch.setattr(coeff.Algebra, "product_terms", lambda self, f, g:
                        calls.append(1) or fn(self, f, g))
    ops = {}

    def count(cls, name):
        fn, calls = getattr(cls, name), ops.setdefault(name, [])
        monkeypatch.setattr(cls, name, lambda self, *args:
                            calls.append(1) or fn(self, *args))

    for cls, name in op_limits:
        count(cls, name)
    # every gcd, from cold scalar caches and a cold window algebra: the
    # connection and curvature suites made 75,574 when each sum and
    # product cancelled at once, about 25,700 with one cancellation per
    # entry of a row product, and 24,544 before the walk's values were
    # computed once per section space (19,443 after)
    gcds = []
    pgcd = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd", lambda a, b:
                        gcds.append(1) or pgcd(a, b))
    # and every primitive gcd certifies at its first point u = 2^k: no
    # _gcd_at call returns False (not certified)
    certified = []
    gcd_at = scalars._gcd_at

    def first_point(A, B, k):
        found = gcd_at(A, B, k)
        certified.append(found is not False)
        return found
    monkeypatch.setattr(scalars, "_gcd_at", first_point)
    for cache in (scalars._cancel, scalars._primitive_gcd,
                  scalars._den_product, scalars._den_lcm):
        cache.cache_clear()
    # every Echelon.add: the calculus and closure suites made 3,339 when
    # the ideal was one elimination over all K^n words per degree, and
    # 775 with one on N_{n-1} x letters
    adds = []
    add = scalars.Echelon.add
    monkeypatch.setattr(scalars.Echelon, "add", lambda self, vec:
                        adds.append(1) or add(self, vec))
    out = tmp_path / "report.json"
    args = ["verify", "--seed", "0", "--out", str(out)]
    for suite in suites:
        args += ["--suite", suite]
    assert cli.main(args) == 0
    assert 0 < len(calls) <= limit
    assert all(0 < len(ops[name]) <= bound
               for (_, name), bound in op_limits.items())
    # the run built the basis products it multiplies by
    (algebra, _), = cold_tables.values()
    assert algebra._pair_prod
    assert 0 < len(gcds)
    assert gcd_limit is None or len(gcds) <= gcd_limit
    assert certified and all(certified)
    assert 0 < len(adds) and (add_limit is None or len(adds) <= add_limit)
    # the calculus table caches the run built are counted on stderr
    err = capsys.readouterr().err.splitlines()
    tables = [line.split(": ")[1] for line in err
              if line.startswith("calculus table cache: ")]
    assert len(tables) == 1
    products, _, _, ds, _, _ = tables[0].split()
    assert int(products) > 0 and int(ds) > 0
    # and the normal forms, normal word lists and echelons of the ideal
    ideal = [line.split(": ")[1] for line in err
             if line.startswith("exterior ideal cache: ")]
    assert len(ideal) == 1
    counts = re.fullmatch(r"(\d+) normal forms, (\d+) normal word degrees, "
                          r"(\d+) echelons", ideal[0])
    assert counts and all(int(x) for x in counts.groups())
    # so are the projection rows of the workspace's TensoredSectionSpace
    rows = [line for line in err
            if line.startswith("connection table cache: ")]
    assert len(rows) == 1 and rows[0].endswith(" projection rows")
    count = int(rows[0].split(": ")[1].split()[0])
    assert (count > 0) == ("connection" in suites)
    # and the unreduced sums with their denominator tables
    sums = [line for line in err if line.startswith("unreduced sums: ")]
    assert len(sums) == 1
    finished, _, cancelled, _, products, _, _, lcms, _, _ = (
        sums[0].split(": ")[1].split())
    assert 0 < int(cancelled) < int(finished)
    assert (int(products), int(lcms)) == (
        scalars._den_product.cache_info().currsize,
        scalars._den_lcm.cache_info().currsize)
    assert 0 < int(products) and 0 < int(lcms)
    assert "cache" not in out.read_text()
    assert "unreduced" not in out.read_text()


def test_d_reads_its_tables_only(monkeypatch):
    # d reads one cached table per (word, level) it is given and calls
    # neither multiply nor reduce_mod_J; the tables are new matrices,
    # never the memoised action matrices
    rnd = random.Random(15)
    forms = []
    for _ in range(10):
        forms.append(nonzero(lambda: CALC.form0(sample_coeff(rnd)),
                             lambda w: [CALC.d(w)]))
        forms.append(nonzero(lambda: CALC.left_mult(
            sample_coeff(rnd), CALC.d0(sample_coeff(rnd))),
            lambda w: [CALC.d(w)]))
    calc = calculus.Calculus(A, DATA)
    calls = []
    for name in ("multiply", "reduce_mod_J"):
        fn = getattr(calculus.Calculus, name)
        monkeypatch.setattr(calculus.Calculus, name,
                            lambda self, *args, fn=fn, name=name:
                            calls.append(name) or fn(self, *args))
    used = set()
    for w in forms:
        dw = calc.d(w)
        assert calc.d(dw).is_zero()
        used |= {(J, pw[0]) for x in (w, dw) for J, pw in x.terms}
    assert calls == []
    assert set(calc._d_tables) == used
    acts = memoised_actions()
    assert not any(id(m) in acts for table in calc._d_tables.values()
                   for _, m in table)


def test_graded_leibniz():
    rnd = random.Random(16)
    for _ in range(8):
        f = nonzero(lambda: sample_coeff(rnd, max_level=1))
        g = nonzero(lambda: sample_coeff(rnd, max_level=1))
        wf = nonzero(lambda: CALC.left_mult(
            f, CALC.d0(sample_coeff(rnd, max_level=1))))
        wg = nonzero(lambda: CALC.left_mult(
            g, CALC.d0(sample_coeff(rnd, max_level=1))))
        pairs = [
            (CALC.form0(f), CALC.form0(g)),
            (CALC.form0(f), wg),
            (wf, CALC.form0(g)),
            (wf, wg),
        ]
        for w1, w2 in pairs:
            lhs = CALC.d(CALC.multiply(w1, w2))
            sign = -ONE if w1.degree % 2 else ONE
            rhs = (CALC.multiply(CALC.d(w1), w2)
                   + CALC.multiply(w1, CALC.d(w2)).scale(sign))
            assert not lhs.is_zero() and lhs == rhs


def test_translation_commutes_with_d():
    rnd = random.Random(17)
    gens = (uea.E, uea.F, uea.K, uea.K * uea.E)

    def translates(w):
        return [CALC.dot_on_forms(x, w) for x in gens]

    for _ in range(6):
        f = nonzero(lambda: sample_coeff(rnd),
                    lambda f: translates(CALC.d0(f)))
        w = nonzero(lambda: CALC.left_mult(f, CALC.d0(sample_coeff(rnd))),
                    lambda w: translates(CALC.d(w)))
        for x, x_dw, x_df in zip(gens, translates(CALC.d(w)),
                                 translates(CALC.d0(f))):
            assert not x_dw.is_zero() and not x_df.is_zero()
            assert x_dw == CALC.d(CALC.dot_on_forms(x, w))
            assert x_df == CALC.d0(A.dot(x, f))


RESTRICTION = CALC.restrict(3)


def test_restriction_dimension_regression():
    assert RESTRICTION.dims() == {0: 4, 1: 12, 2: 32}
    assert RESTRICTION.filtration[0] == [1, 1, 4, 4]
    assert RESTRICTION.filtration[1] == [0, 0, 3, 3, 12, 12, 12]
    assert RESTRICTION.filtration[2] == [0, 0, 0, 0, 9, 9, 32, 32, 32, 32]


def test_restriction_closed_under_d():
    for degree in (0, 1):
        rests = RESTRICTION.closure_check(degree)
        assert len(rests) == RESTRICTION.dims()[degree]
        assert not any(rests)


def test_levi_generators_act_trivially_on_restricted_forms():
    for degree in (0, 1, 2):
        for entry in RESTRICTION.bases[degree]:
            for p in (uea.K, uea.K_INV):
                assert RESTRICTION.circle_presented(
                    p, entry["presentation"]) == entry["form"]


def test_subalgebra_action_commutes_with_d():
    rnd = random.Random(18)
    samples = [e for e in RESTRICTION.bases[1] if not e["form"].is_zero()]
    for entry in rnd.sample(samples, 5):
        a, bs = entry["presentation"]
        for p in (uea.E, uea.K * uea.E, uea.F):
            lhs = RESTRICTION.circle_presented(p, (coeff.unit(), (a,) + bs))
            rhs = CALC.d(RESTRICTION.circle_presented(p, entry["presentation"]))
            assert lhs == rhs


def present(restriction, w):
    """Coordinates of a form in the stored basis of the restriction;
    NoSolution when the form lies outside the restricted span or no
    basis of its degree is stored."""
    w = restriction.calc.reduce_mod_J(w)
    basis = restriction.bases.get(w.degree)
    if basis is None:
        raise NoSolution("degree outside the restriction tables")
    return Span([e["form"].terms for e in basis]).coordinates(w.terms)


def circle_on_forms(restriction, p, w):
    """The subalgebra action on a restricted form, through its basis
    presentation."""
    coords = present(restriction, w)
    out = restriction.calc.zero(w.degree)
    for c, entry in zip(coords, restriction.bases[w.degree]):
        if c:
            out = out + restriction.circle_presented(
                p, entry["presentation"]).scale(c)
    return out


def test_circle_on_forms_goes_through_coordinates():
    entry = RESTRICTION.bases[1][2]
    got = circle_on_forms(RESTRICTION, uea.E, entry["form"])
    assert got == RESTRICTION.circle_presented(uea.E, entry["presentation"])


def test_present_rejects_forms_outside_the_restriction():
    stray = calculus.form(1, {(0,): coeff.basis_element(1, 0, 0)})
    with pytest.raises(NoSolution):
        present(RESTRICTION, stray)
    with pytest.raises(NoSolution, match="^degree outside the restriction "
                       "tables$"):
        present(RESTRICTION, calculus.form(3, {(0, 1, 2): coeff.unit()}))


def test_cached_action_matrices_stay_intact():
    # a reduced calculus run reads the shared matrices of Module.act
    # through circle, dot, the product tables, the pairing
    # tables and the R-matrix oracle; none of them may write into one
    rnd = random.Random(23)
    for _ in range(3):
        f = sample_coeff(rnd, max_level=1)
        w = CALC.left_mult(f, CALC.d0(sample_coeff(rnd, max_level=1)))
        CALC.d(CALC.multiply(w, w))
        for x in (uea.E, uea.F, uea.K * uea.E):
            CALC.dot_on_forms(x, CALC.d(w))
    A.antipode(A.star(sample_coeff(rnd)))
    A.pairing_table(2)
    oracles.universal_R(repmod.irrep(1), repmod.irrep(2))
    cached = 0
    for mod in repmod._IRREPS.values():
        for x, mat in list(mod._acts.items()):
            assert mat == oracles.module_act(mod, x)
            assert mod.act(x) is mat
            cached += 1
    assert cached > 0
