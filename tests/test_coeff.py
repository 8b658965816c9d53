"""Tests for the coefficient Hopf algebra T_q.

The multiplication oracle avoids the Clebsch-Gordan machinery entirely:
(fg)(x) = sum f(x_(1)) g(x_(2)) is evaluated through uea.coproduct on a
separating family of PBW monomials and compared with the pairing of the
re-expanded product.  The Haar oracle solves the invariance equations
as a linear system and checks the solution is unique."""

import functools
import random
from fractions import Fraction

import pytest

from qhvb.scalars import (Scalar, Matrix, ZERO, ONE, eval_at, NoSolution,
                          Tensor, Span, Echelon)
from qhvb import uea, repmod, coeff
import oracles

Q = Scalar.q_power
U = Scalar.u_power


def alg(n_max=6):
    return coeff.Algebra(n_max)


def random_element(rng, max_level=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        n = rng.randint(0, max_level)
        i = rng.randint(0, n)
        j = rng.randint(0, n)
        terms[(n, i, j)] = Scalar(rng.randint(-3, 3)) + Scalar((0, rng.randint(0, 2)))
    return coeff.CoeffElement(terms)


def leg(key, s=ONE):
    """The leg s t[key] of a coproduct term."""
    return coeff.CoeffElement({key: s})


def sample_monomials():
    out = []
    for a in range(3):
        for c in range(3):
            for b in (-2, -1, 0, 1, 2):
                out.append((a, b, c))
    return out


def test_eval_basics():
    a = alg()
    x = uea.F * uea.K + uea.E.scale(Scalar((0, 0, 1)))
    assert a.eval(coeff.unit(), x) == uea.counit(x)
    assert a.eval(coeff.basis_element(1, 0, 0), uea.K) == U(2)
    assert a.eval(coeff.basis_element(1, 1, 1), uea.K) == U(-2)
    # pairing against a product goes through the module action
    m2 = repmod.irrep(2)
    prod = m2.act(uea.E * uea.F)
    for i in range(3):
        for j in range(3):
            assert a.eval(coeff.basis_element(2, i, j), uea.E * uea.F) == prod[i, j]


def test_pairing_class_structure():
    # t_{ij} pairs nonzero with f^a k^b e^c only when a - c = i - j
    a = alg()
    for n in (1, 2, 3):
        for i in range(n + 1):
            for j in range(n + 1):
                for mono in sample_monomials():
                    if mono[0] - mono[2] != i - j:
                        assert a.eval(coeff.basis_element(n, i, j), uea.monomial(*mono)) == ZERO


def test_multiply_against_functional_oracle():
    a = alg()
    rng = random.Random(401)
    monos = sample_monomials()
    for _ in range(12):
        f = random_element(rng, max_level=1)
        g = random_element(rng, max_level=1)
        prod = a.multiply(f, g)
        for mono in monos:
            x = uea.monomial(*mono)
            # (fg)(x) = sum f(x_(1)) g(x_(2)) via the U_q coproduct
            want = ZERO
            for (m1, m2), s in uea.coproduct(x).terms.items():
                want = want + s * a.eval(f, uea.monomial(*m1)) * a.eval(g, uea.monomial(*m2))
            assert a.eval(prod, x) == want


def test_multiply_unit_and_associativity():
    a = alg()
    rng = random.Random(402)
    for _ in range(6):
        f = random_element(rng, max_level=1)
        assert a.multiply(coeff.unit(), f) == f
        assert a.multiply(f, coeff.unit()) == f
    for _ in range(4):
        f = random_element(rng, max_level=1, nterms=2)
        g = random_element(rng, max_level=1, nterms=2)
        h = random_element(rng, max_level=1, nterms=2)
        assert a.multiply(a.multiply(f, g), h) == a.multiply(f, a.multiply(g, h))


def test_level_support_of_products():
    a = alg()
    prod = a.multiply(coeff.basis_element(1, 0, 0), coeff.basis_element(1, 1, 1))
    assert set(n for (n, i, j) in prod.terms) <= {0, 2}
    assert prod.level == 2


def test_quantum_determinant():
    # t00 t11 - lambda t01 t10 = unit for exactly one scalar lambda
    a = alg()
    p1 = a.multiply(coeff.basis_element(1, 0, 0), coeff.basis_element(1, 1, 1))
    p2 = a.multiply(coeff.basis_element(1, 0, 1), coeff.basis_element(1, 1, 0))
    key = next(k for k in p2.terms if k[0] == 2)
    lam = p1.terms.get(key, ZERO) / p2.terms[key]
    det = p1 - p2.scale(lam)
    assert det == coeff.unit()
    # independent check: the determinant pairs like the counit
    for mono in sample_monomials():
        x = uea.monomial(*mono)
        assert a.eval(det, x) == uea.counit(x)


def test_row_products_match_the_per_term_oracles():
    # multiply sums its rows unreduced and finishes once per entry; the
    # per-term loop it replaced gives the same Scalars, and the same
    # LevelOverflow at window 4
    rng = random.Random(403)
    for n_max in (4, 6):
        a = alg(n_max)
        for _ in range(12):
            f = random_element(rng, max_level=3, nterms=4)
            g = random_element(rng, max_level=2, nterms=3)
            assert oracles.outcome(a.multiply, f, g) == oracles.outcome(
                oracles.algebra_multiply, a, f, g)
    a = alg(4)
    f, g = coeff.basis_element(3, 1, 2), coeff.basis_element(2, 0, 1)
    assert oracles.outcome(a.multiply, f, g) == oracles.outcome(
        oracles.algebra_multiply, a, f, g) == (
        "product needs level 5 beyond the coefficient window 4")


def test_level_overflow():
    a = alg(n_max=2)
    f = coeff.basis_element(2, 0, 0)
    g = coeff.basis_element(1, 0, 0)
    with pytest.raises(coeff.LevelOverflow):
        a.multiply(f, g)
    # boundary case stays inside the window
    a.multiply(coeff.basis_element(1, 0, 0), coeff.basis_element(1, 0, 1))


@pytest.mark.parametrize("operation", ["antipode", "star"])
def test_antipode_and_star_respect_the_window(operation):
    # both keep the level, so a level beyond the window overflows before
    # the level-12 block is built; the level at the window still builds
    a = coeff.Algebra(10)
    apply = getattr(a, operation)
    with pytest.raises(coeff.LevelOverflow) as exc:
        apply(coeff.basis_element(12, 0, 0))
    assert str(exc.value) == ("product needs level 12 beyond the "
                              "coefficient window 10")
    assert (12, operation == "star") not in a._blocks
    assert not apply(coeff.basis_element(2, 0, 1)).is_zero()


def test_antipode_and_star_match_the_class_solve():
    # the Peter-Weyl formulas against the pairing solve they replace,
    # on every basis element of the default window
    a = coeff.Algebra(10)
    solved = oracles.SolvedBlocks()
    for n in range(11):
        for star, apply in ((False, a.antipode), (True, a.star)):
            block = solved.block(n, star)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert apply(coeff.basis_element(n, i, j)) == block[(i, j)]


def test_antipode_and_star_match_the_addition_loop():
    # one-pass sums against repeated addition, on a combination of every
    # Peter-Weyl key of level <= 2
    a = alg()
    rng = random.Random(40)
    f = coeff.CoeffElement({
        (n, i, j): Scalar(rng.randint(-2, 2)) * Scalar.u_power(
            rng.randint(-2, 2))
        for n in range(3) for i in range(n + 1) for j in range(n + 1)})
    assert a.antipode(f) == oracles.combination_by_addition(
        coeff.CoeffElement(), [(s, a.antipode(coeff.basis_element(*key)))
                               for key, s in f.terms.items()])
    assert a.star(f) == oracles.combination_by_addition(
        coeff.CoeffElement(), [(s.conj(), a.star(coeff.basis_element(*key)))
                               for key, s in f.terms.items()])


def test_antipode_and_star_solve_nothing(monkeypatch):
    # the blocks are read off the formulas: no inverse and no
    # elimination, on a cold window
    calls = []
    for cls, name in ((Matrix, "inverse"), (Echelon, "add")):
        fn = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, fn=fn, name=name:
                            calls.append(name) or fn(self, *args))
    a = coeff.Algebra(10)
    for n in range(11):
        for star in (False, True):
            assert len(a._block(n, star)) == (n + 1) ** 2
    assert calls == []


def test_coproduct_counit_axioms():
    a = alg()
    for n in range(3):
        for i in range(n + 1):
            for j in range(n + 1):
                f = coeff.basis_element(n, i, j)
                left = coeff.CoeffElement()
                right = coeff.CoeffElement()
                for (k1, k2), s in a.coproduct(f).terms.items():
                    left = left + leg(k2, s).scale(a.counit(leg(k1)))
                    right = right + leg(k1, s).scale(a.counit(leg(k2)))
                assert left == f
                assert right == f
    # counit is multiplicative
    rng = random.Random(403)
    for _ in range(8):
        f = random_element(rng, 1)
        g = random_element(rng, 1)
        assert a.counit(a.multiply(f, g)) == a.counit(f) * a.counit(g)


def _simple_tensors(t, left_fn, right_fn):
    """sum s left_fn(l) (x) right_fn(r) over the terms s l (x) r of t, as a
    sum of simple tensors built term by term."""
    acc = type(t)()
    for (l, r), s in t.terms.items():
        lx, rx = left_fn(t.leg({l: ONE})), right_fn(t.leg({r: ONE}))
        acc = acc + type(t)({(ml, mr): s * sl * sr
                             for ml, sl in lx.terms.items()
                             for mr, sr in rx.terms.items()})
    return acc


def test_coproduct_is_a_tensor():
    a = alg()
    # D t[1;0,1] = t[1;0,0] (x) t[1;0,1] + t[1;0,1] (x) t[1;1,1]
    dt = a.coproduct(coeff.basis_element(1, 0, 1))
    assert dt == coeff.CoeffTensor({((1, 0, 0), (1, 0, 1)): ONE,
                                    ((1, 0, 1), (1, 1, 1)): ONE})
    assert isinstance(dt, Tensor) and isinstance(uea.coproduct(uea.E), Tensor)
    assert dt != uea.TensorUEA(dt.terms)  # the two tensor kinds differ
    # map_legs agrees with the leg-by-leg expansion on both tensor kinds
    rng = random.Random(413)
    for _ in range(4):
        t = a.coproduct(random_element(rng, 2))
        assert t.map_legs(a.star, a.antipode) == \
            _simple_tensors(t, a.star, a.antipode)
        assert t.map_legs(None, a.star) == \
            _simple_tensors(t, lambda x: x, a.star)
    monos = uea.pbw_monomials(2)
    for _ in range(4):
        t = uea.coproduct(uea.monomial(*rng.choice(monos))
                          + uea.monomial(*rng.choice(monos)))
        assert t.map_legs(uea.star, uea.antipode) == \
            _simple_tensors(t, uea.star, uea.antipode)
        assert t.map_legs(uea.antipode) == \
            _simple_tensors(t, uea.antipode, lambda x: x)


def test_coproduct_is_multiplicative_functionally():
    # D(fg) = D(f) D(g) checked through evaluations on pairs of monomials
    a = alg()
    rng = random.Random(404)
    monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1), (0, 2, 0), (2, 0, 1)]
    for _ in range(6):
        f = random_element(rng, 1, nterms=2)
        g = random_element(rng, 1, nterms=2)
        prod = a.multiply(f, g)
        for ma in monos:
            for mb in monos:
                x, y = uea.monomial(*ma), uea.monomial(*mb)
                lhs = ZERO
                for (k1, k2), s in a.coproduct(prod).terms.items():
                    lhs = lhs + s * a.eval(leg(k1), x) * a.eval(leg(k2), y)
                # (D(f)D(g))(x (x) y) = f(xy-legs) pattern via the pairing
                rhs = a.eval(prod, x * y)
                assert lhs == rhs


def test_antipode_block_and_axiom():
    a = alg()
    rng = random.Random(405)
    monos = sample_monomials()
    for n in (1, 2):
        for i in range(n + 1):
            for j in range(n + 1):
                f = coeff.basis_element(n, i, j)
                sf = a.antipode(f)
                # defining property <S f, x> = <f, S x> on sample monomials
                for mono in monos:
                    x = uea.monomial(*mono)
                    assert a.eval(sf, x) == a.eval(f, uea.antipode(x))
                # antipode axiom: M(S (x) id) D = unit . counit
                acc = coeff.CoeffElement()
                acc2 = coeff.CoeffElement()
                for (k1, k2), s in a.coproduct(f).terms.items():
                    acc = acc + a.multiply(a.antipode(leg(k1, s)), leg(k2))
                    acc2 = acc2 + a.multiply(leg(k1, s), a.antipode(leg(k2)))
                want = coeff.unit().scale(a.counit(f))
                assert acc == want
                assert acc2 == want


def test_star_structure():
    a = alg()
    rng = random.Random(406)
    monos = sample_monomials()
    for n in (1, 2):
        for i in range(n + 1):
            for j in range(n + 1):
                f = coeff.basis_element(n, i, j)
                sf = a.star(f)
                for mono in monos:
                    x = uea.monomial(*mono)
                    assert a.eval(sf, x) == a.eval(f, uea.star(uea.antipode(x))).conj()
                assert a.star(sf) == f
    # anti-multiplicative
    for _ in range(6):
        f = random_element(rng, 1, nterms=2)
        g = random_element(rng, 1, nterms=2)
        assert a.star(a.multiply(f, g)) == a.multiply(a.star(g), a.star(f))
    assert a.star(coeff.unit()) == coeff.unit()


def test_circle_examples_and_action_laws():
    a = alg()
    rng = random.Random(407)
    f = coeff.basis_element(1, 0, 1)
    for j in range(2):
        g = coeff.basis_element(1, 0, j)
        assert a.circle(uea.K, g) == g.scale(U(2 * (1 - 2 * j)))
    monos = uea.pbw_monomials(2)
    for _ in range(15):
        x = uea.monomial(*rng.choice(monos))
        y = uea.monomial(*rng.choice(monos))
        h = random_element(rng, 2)
        assert a.circle(uea.UNIT, h) == h
        assert a.dot(uea.UNIT, h) == h
        # left-action laws
        assert a.circle(x, a.circle(y, h)) == a.circle(x * y, h)
        assert a.dot(x, a.dot(y, h)) == a.dot(x * y, h)
        # the two translations commute
        assert a.circle(x, a.dot(y, h)) == a.dot(y, a.circle(x, h))


def test_circle_module_algebra_law():
    a = alg()
    rng = random.Random(408)
    gens = [uea.E, uea.F, uea.K, uea.K_INV, uea.E * uea.F]
    for _ in range(10):
        x = rng.choice(gens)
        f = random_element(rng, 1, nterms=2)
        g = random_element(rng, 1, nterms=2)
        lhs = a.circle(x, a.multiply(f, g))
        rhs = coeff.CoeffElement()
        for (m1, m2), s in uea.coproduct(x).terms.items():
            rhs = rhs + a.multiply(
                a.circle(uea.monomial(*m1), f), a.circle(uea.monomial(*m2), g)
            ).scale(s)
        assert lhs == rhs


def test_circle_against_pairing_definition():
    # x o f = sum f_(1) <f_(2), x> with the stored coproduct
    a = alg()
    rng = random.Random(409)
    monos = uea.pbw_monomials(2)
    for _ in range(10):
        x = uea.monomial(*rng.choice(monos))
        f = random_element(rng, 2)
        want = coeff.CoeffElement()
        for (k1, k2), s in a.coproduct(f).terms.items():
            want = want + leg(k1, s).scale(a.eval(leg(k2), x))
        assert a.circle(x, f) == want
        # x . f = sum <f_(1), S^{-1}(x)> f_(2)
        want = coeff.CoeffElement()
        for (k1, k2), s in a.coproduct(f).terms.items():
            want = want + leg(k2, s).scale(a.eval(leg(k1),
                                                  oracles.antipode_inv(x)))
        assert a.dot(x, f) == want


# the elements the translations are checked on, and three random
# elements up to the window for each
TRANSLATION_XS = [uea.UNIT, uea.E, uea.F, uea.K, uea.K_INV, uea.E * uea.F,
                  uea.K * uea.E] + [uea.monomial(*m)
                                    for m in uea.pbw_monomials(2)]


def translation_samples():
    rng = random.Random(410)
    return [(x, random_element(rng, 6, nterms=8))
            for x in TRANSLATION_XS for _ in range(3)]


def translation_mismatches(a, samples):
    """The (x, f) of samples on which the Algebra a's circle or dot
    differs from its block oracle.  The oracle takes S^{-1} x from its
    own monomial formula, never from uea.antipode_inv or a's memo."""
    return [(x, f) for x, f in samples
            if (a.circle(x, f), a.dot(x, f))
            != (oracles.circle(x, f), oracles.dot(x, f))]


def test_translations_match_the_block_oracle(monkeypatch):
    # circle and dot run term by term on the memoised action matrices;
    # the dense block forms C pi_n(x)^T and pi_n(S^-1 x)^T C are their
    # oracle, on random elements up to the window.  Each pair runs twice
    # on a fresh Algebra, first with its S^-1 memo cold and then warm.
    # The oracle runs first, so every action matrix is memoised when the
    # translations run, and they make no Matrix product of their own
    products = []
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other:
                        products.append(1) or mul(self, other))
    for x, f in translation_samples():
        want = oracles.circle(x, f), oracles.dot(x, f)
        a = alg()
        for warm in (False, True):
            assert (x in a._antipode_inv) == warm
            del products[:]
            assert (a.circle(x, f), a.dot(x, f)) == want
            assert products == []
        assert a._antipode_inv == {x: uea.antipode_inv(x)}


def test_the_block_oracle_pins_the_inverse_antipode():
    # x . f is a left action with S in place of S^-1 too, so only a check
    # that reads which antipode dot uses tells the two apart: a fresh
    # Algebra whose S^-1 memo holds S(x) fails the block oracle on every
    # sampled x with S(x) != S^-1(x), and on no other
    samples = translation_samples()
    a = alg()
    for x in TRANSLATION_XS:
        a._antipode_inv[x] = uea.antipode(x)
    differ = {x for x in TRANSLATION_XS
              if uea.antipode(x) != oracles.antipode_inv(x)}
    assert len(differ) >= 5
    assert {x for x, _ in translation_mismatches(a, samples)} == differ
    assert translation_mismatches(alg(), samples) == []


def test_haar_values_and_uniqueness():
    a = alg()
    assert a.haar(coeff.unit()) == ONE
    for i in range(3):
        for j in range(3):
            assert a.haar(coeff.basis_element(2, i, j)) == ZERO
    # oracle: the invariance equations (id (x) h) D f = h(f) unit and
    # (h (x) id) D f = h(f) unit with h(unit) = 1 have exactly one
    # solution on the window, and it is the level-0 extraction
    keys = [(n, i, j) for n in range(3) for i in range(n + 1) for j in range(n + 1)]
    idx = {k: c for c, k in enumerate(keys)}
    rows = [[ZERO] * len(keys)]
    rows[0][idx[(0, 0, 0)]] = ONE
    rhs = [ONE]
    for (n, i, j) in keys:
        if n == 0:
            continue
        f = coeff.basis_element(n, i, j)
        # left invariance: coefficient of t_{ik} gives h(t_{kj}) = 0,
        # and the unit coefficient gives h(t_{ij}) = 0
        for k in range(n + 1):
            row = [ZERO] * len(keys)
            row[idx[(n, k, j)]] = ONE
            rows.append(row)
            rhs.append(ZERO)
        row = [ZERO] * len(keys)
        row[idx[(n, i, j)]] = ONE
        rows.append(row)
        rhs.append(ZERO)
    m = Matrix(rows)
    assert m.rank() == len(keys)  # unique solution
    sol = m.solve(rhs)
    for key, c in idx.items():
        want = ONE if key == (0, 0, 0) else ZERO
        assert sol[c] == want
        assert a.haar(coeff.basis_element(*key)) == want * ONE


def test_haar_two_sided_invariance():
    a = alg()
    rng = random.Random(410)
    for _ in range(10):
        f = random_element(rng, 2)
        left = coeff.CoeffElement()
        right = coeff.CoeffElement()
        for (k1, k2), s in a.coproduct(f).terms.items():
            left = left + leg(k1, s).scale(a.haar(leg(k2)))
            right = right + leg(k2, s).scale(a.haar(leg(k1)))
        want = coeff.unit().scale(a.haar(f))
        assert left == want
        assert right == want


def test_haar_norm_positivity_at_samples():
    a = alg()
    rng = random.Random(411)
    points = [Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]
    for _ in range(8):
        f = random_element(rng, 1, nterms=2)
        if f.is_zero():
            continue
        norm = a.haar_norm_sq(f)
        assert norm  # nonzero as a rational function
        for u0 in points:
            assert eval_at(norm, u0) > 0


@functools.lru_cache(maxsize=None)
def class_spans(table):
    """The column Span of each class of a PairingTable, built once per
    table."""
    return {d: Span(m._columns()) for d, m in table.matrix.items()}


def expand(table, value_fn):
    """Reconstruct the CoeffElement of level <= N whose pairing with
    every family monomial of the table matches value_fn((a, b, c));
    raises NoSolution if no such element exists.  The result is the
    unique window element interpolating the sample values: a
    higher-level functional can agree with a window element on the
    finite sample family."""
    terms = {}
    spans = class_spans(table)
    for d, cols in table.columns.items():
        rhs = [value_fn(mono) for mono in table.monomials[d]]
        if not any(rhs):
            continue
        sol = spans[d].coordinates(dict(enumerate(rhs)))
        for c, key in enumerate(cols):
            if sol[c]:
                terms[key] = sol[c]
    return coeff.CoeffElement(terms)


def from_evaluations(a, value_fn, N):
    """Reconstruct an element known to have level <= N from its
    pairings, through the algebra's cached pairing table."""
    return expand(a.pairing_table(N), value_fn)


def test_pairing_table_certificate_and_expand():
    a = alg()
    for N in (1, 2, 3, 4):
        table = a.pairing_table(N)
        for d, m in table.matrix.items():
            assert table.ranks[d] == m.cols
    built = class_spans.cache_info().misses
    rng = random.Random(412)
    for _ in range(6):
        f = random_element(rng, 3)
        got = from_evaluations(a, lambda mono: a.eval(f, uea.monomial(*mono)), 3)
        assert got == f
    # the per-class systems are overdetermined: a perturbed evaluation
    # that no window functional can interpolate is rejected
    g = coeff.basis_element(1, 0, 0)

    def perturbed(mono):
        val = a.eval(g, uea.monomial(*mono))
        if mono == (1, 0, 1):
            val = val + ONE
        return val

    with pytest.raises(NoSolution):
        from_evaluations(a, perturbed, 1)
    # the column Spans are built once per table, not once per expansion
    assert class_spans.cache_info().misses - built == 2


def test_entries_and_str():
    f = coeff.basis_element(1, 0, 1, U(2)) + coeff.unit()
    assert "t[1;0,1]" in str(f)
    assert coeff.CoeffElement().level == 0
    assert f.level == 1
