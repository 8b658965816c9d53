"""Tests for the U_q(sl2) Hopf algebra layer.

The multiplication oracle is an independent string rewriter: elements
are words in the letters f, k, K (= k^{-1}), e with Scalar
coefficients, and the defining relations are applied one adjacent pair
at a time until every word is in PBW order.  This shares no code with
the production multiplication, which rewrites e^c f^a blocks wholesale.
"""

import random

from qhvb import uea
from qhvb.scalars import Scalar, ZERO, ONE, qint, eval_at

import oracles
from oracles import pairs

Q = Scalar.q_power
QD = Q(1) - Q(-1)


def _acc(d, key, s):
    cur = d.get(key, ZERO) + s
    if cur:
        d[key] = cur
    elif key in d:
        del d[key]


def oracle_normal(word, coeff=ONE):
    """Normal form of a product of generators, by one-step rewriting."""
    agenda = [(tuple(word), coeff)]
    out = {}
    while agenda:
        w, s = agenda.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if (x == "k" and y == "K") or (x == "K" and y == "k"):
                agenda.append((w[:i] + w[i + 2:], s))
                break
            if x == "e" and y == "f":
                # e f = f e + (k^2 - k^{-2}) / (q - q^{-1})
                agenda.append((w[:i] + ("f", "e") + w[i + 2:], s))
                agenda.append((w[:i] + ("k", "k") + w[i + 2:], s / QD))
                agenda.append((w[:i] + ("K", "K") + w[i + 2:], -s / QD))
                break
            if x == "k" and y == "f":
                agenda.append((w[:i] + ("f", "k") + w[i + 2:], s * Q(-1)))
                break
            if x == "K" and y == "f":
                agenda.append((w[:i] + ("f", "K") + w[i + 2:], s * Q(1)))
                break
            if x == "e" and y == "k":
                agenda.append((w[:i] + ("k", "e") + w[i + 2:], s * Q(-1)))
                break
            if x == "e" and y == "K":
                agenda.append((w[:i] + ("K", "e") + w[i + 2:], s * Q(1)))
                break
        else:
            key = (w.count("f"), w.count("k") - w.count("K"), w.count("e"))
            _acc(out, key, s)
    return out


_GEN = {"e": uea.E, "f": uea.F, "k": uea.K, "K": uea.K_INV}


def word_element(word):
    acc = uea.UNIT
    for letter in word:
        acc = acc * _GEN[letter]
    return acc


def test_defining_relations():
    q = Q(1)
    assert uea.K * uea.E == (uea.E * uea.K).scale(q)
    assert uea.K * uea.F == (uea.F * uea.K).scale(Q(-1))
    comm = uea.E * uea.F - uea.F * uea.E
    rhs = (uea.monomial(0, 2, 0) - uea.monomial(0, -2, 0)).scale(ONE / QD)
    assert comm == rhs
    assert uea.K * uea.K_INV == uea.UNIT
    assert uea.K_INV * uea.K == uea.UNIT


def test_multiplication_against_rewriter_oracle():
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 6)
        word = [rng.choice("efkK") for _ in range(n)]
        assert word_element(word).terms == oracle_normal(word)


def test_ef_power_commutation_identity():
    # e f^a = f^a e + [a] f^{a-1} (q^{-(a-1)} k^2 - q^{a-1} k^{-2}) / (q-q^{-1})
    for a in range(1, 6):
        lhs = uea.E * uea.F ** a
        rhs = (uea.F ** a) * uea.E + (
            uea.monomial(a - 1, 2, 0, Q(-(a - 1))) - uea.monomial(a - 1, -2, 0, Q(a - 1))
        ).scale(qint(a) / QD)
        assert lhs == rhs


def test_associativity_random():
    rng = random.Random(7)
    monos = uea.pbw_monomials(2)
    for _ in range(25):
        x, y, z = (
            uea.monomial(*rng.choice(monos), coeff=Scalar(rng.randint(-3, 3)) + Scalar((0, rng.randint(0, 2))))
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)


def test_commutator_collapse_at_k_equals_one():
    # sending k^2, k^{-2} -> 1 in e f^3 - f^3 e leaves
    # [3] (q^{-2} - q^2)/(q - q^{-1}) = -[3][2], an honest rational
    # function of u with classical value -6
    x = uea.E * uea.F ** 3 - uea.F ** 3 * uea.E
    total = ZERO
    for (a, b, c), s in x.terms.items():
        assert (a, c) == (2, 0)
        total = total + s
    assert total == -(qint(3) * qint(2))
    assert eval_at(total, 1) == -6


def test_coproduct_generators():
    de = uea.coproduct(uea.E)
    assert de.terms == {((0, 0, 1), (0, 1, 0)): ONE, ((0, -1, 0), (0, 0, 1)): ONE}
    df = uea.coproduct(uea.F)
    assert df.terms == {((1, 0, 0), (0, 1, 0)): ONE, ((0, -1, 0), (1, 0, 0)): ONE}
    dk = uea.coproduct(uea.K)
    assert dk.terms == {((0, 1, 0), (0, 1, 0)): ONE}


def test_coproduct_is_homomorphism():
    rng = random.Random(11)
    monos = uea.pbw_monomials(3)
    for _ in range(15):
        x = uea.monomial(*rng.choice(monos))
        y = uea.monomial(*rng.choice(monos))
        assert uea.coproduct(x * y) == uea.coproduct(x) * uea.coproduct(y)


def test_coassociativity():
    def delta3(x, left):
        out = {}
        for (m1, m2), s in uea.coproduct(x).terms.items():
            inner = uea.coproduct(uea.monomial(*(m1 if left else m2)))
            for (n1, n2), t in inner.terms.items():
                key = (n1, n2, m2) if left else (m1, n1, n2)
                _acc(out, key, s * t)
        return out

    for m in uea.pbw_monomials(4):
        x = uea.monomial(*m)
        assert delta3(x, True) == delta3(x, False)


def test_counit_axioms():
    monos = uea.pbw_monomials(4)
    for m in monos:
        x = uea.monomial(*m)
        left = uea.UEAElement()
        right = uea.UEAElement()
        for (m1, m2), s in uea.coproduct(x).terms.items():
            left = left + uea.monomial(*m2).scale(s * uea.counit(uea.monomial(*m1)))
            right = right + uea.monomial(*m1).scale(s * uea.counit(uea.monomial(*m2)))
        assert left == x
        assert right == x
    # counit is an algebra map
    rng = random.Random(3)
    for _ in range(20):
        x = uea.monomial(*rng.choice(monos))
        y = uea.monomial(*rng.choice(monos))
        assert uea.counit(x * y) == uea.counit(x) * uea.counit(y)


def test_antipode_axiom():
    for m in uea.pbw_monomials(3):
        x = uea.monomial(*m)
        want = uea.UNIT.scale(uea.counit(x))
        left = uea.UEAElement()
        right = uea.UEAElement()
        for (m1, m2), s in uea.coproduct(x).terms.items():
            left = left + (uea.antipode(uea.monomial(*m1)) * uea.monomial(*m2)).scale(s)
            right = right + (uea.monomial(*m1) * uea.antipode(uea.monomial(*m2))).scale(s)
        assert left == want
        assert right == want


def test_antipode_values_and_inverse():
    assert uea.antipode(uea.E) == uea.E.scale(-Q(1))
    assert uea.antipode(uea.F) == uea.F.scale(-Q(-1))
    assert uea.antipode(uea.K) == uea.K_INV
    rng = random.Random(5)
    monos = uea.pbw_monomials(4)
    for _ in range(25):
        x = uea.monomial(*rng.choice(monos), coeff=Scalar((rng.randint(-2, 2), 1)))
        assert uea.antipode_inv(uea.antipode(x)) == x
        assert uea.antipode(uea.antipode_inv(x)) == x
    # anti-homomorphism
    for _ in range(15):
        x = uea.monomial(*rng.choice(monos))
        y = uea.monomial(*rng.choice(monos))
        assert uea.antipode(x * y) == uea.antipode(y) * uea.antipode(x)
        assert uea.antipode_inv(x * y) == uea.antipode_inv(y) * uea.antipode_inv(x)


def test_star_structure():
    assert uea.star(uea.E) == uea.F
    assert uea.star(uea.F) == uea.E
    assert uea.star(uea.K) == uea.K
    rng = random.Random(9)
    monos = uea.pbw_monomials(3)
    for _ in range(20):
        x = uea.monomial(*rng.choice(monos))
        y = uea.monomial(*rng.choice(monos))
        # anti-multiplicative involution
        assert uea.star(uea.star(x)) == x
        assert uea.star(x * y) == uea.star(y) * uea.star(x)
        # compatible with the coproduct leg-wise
        lhs = uea.coproduct(uea.star(x))
        rhs = uea.coproduct(x).map_legs(uea.star, uea.star)
        assert lhs == rhs
        # S o * is an involution
        assert uea.antipode(uea.star(uea.antipode(uea.star(x)))) == x


def test_antipode_inv_and_coproduct_match_their_oracles():
    # S^{-1} = * S * and the coproduct off one memo, against the
    # generator-by-generator S^{-1} and the memoised powers of D(f), D(e)
    for m in uea.pbw_monomials(6):
        x = uea.monomial(*m)
        assert uea.antipode_inv(x) == oracles.antipode_inv(x)
        assert uea.coproduct(x) == oracles.delta_mono(m)


def test_coproduct_and_antipode_match_the_addition_loop():
    # one-pass sums against repeated addition, on a combination of every
    # PBW monomial of degree <= 4 with coefficients in Z[u]
    rng = random.Random(40)
    x = uea.UEAElement({m: Scalar(rng.randint(-2, 2)) * Scalar.u_power(
        rng.randint(-2, 2)) for m in uea.pbw_monomials(4)})
    assert uea.coproduct(x) == oracles.combination_by_addition(
        uea.TensorUEA(), [(s, oracles.delta_mono(m))
                          for m, s in x.terms.items()])
    assert uea.antipode(x) == oracles.combination_by_addition(
        uea.UEAElement(), [(s, uea.antipode(uea.monomial(*m)))
                           for m, s in x.terms.items()])


def test_counit_of_antipode_and_star():
    for m in uea.pbw_monomials(3):
        x = uea.monomial(*m)
        assert uea.counit(uea.antipode(x)) == uea.counit(x)
        assert uea.counit(uea.star(x)) == uea.counit(x).conj()


def flip(t):
    """The tensor t with its two legs swapped."""
    return t._new({(r, l): s for (l, r), s in t.terms.items()})


def test_tensor_helpers():
    t = uea.tensor(uea.E + uea.F, uea.K)
    assert flip(t) == uea.tensor(uea.K, uea.E + uea.F)
    assert t.contract() == (uea.E + uea.F) * uea.K
    # pairs regroups without losing terms
    rebuilt = uea.TensorUEA()
    for lx, rx in pairs(uea.coproduct(uea.E * uea.F)):
        rebuilt = rebuilt + uea.tensor(lx, rx)
    assert rebuilt == uea.coproduct(uea.E * uea.F)


def test_format_element():
    assert str(uea.E) == "e"
    assert str(uea.F * uea.K) == "f k"
    assert str(uea.K * uea.F) == "(%s) f k" % Q(-1)
    assert str(uea.UEAElement()) == "0"
    assert str(uea.UNIT) == "1"
    assert "e^2" in str(uea.E * uea.E)
