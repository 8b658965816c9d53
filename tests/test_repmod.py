"""Tests for modules, decomposition, and the R-matrix.

The R-matrix is built in tests/oracles.py from the Theta-series
coefficients of repmod.  The tests check that flip . R intertwines,
that R is invertible, Yang-Baxter and the classical limit, and they
re-derive the coefficients from the equations R D(x) = D^op(x) R as an
exact linear system, independently of the closed form shipped in
repmod."""

import itertools
import random

import pytest

from qhvb.scalars import Scalar, Matrix, ONE, qint, eval_at, accumulate
from qhvb import uea, repmod
import oracles

Q = Scalar.q_power
U = Scalar.u_power


def test_irrep_structure():
    m = repmod.irrep(3)
    assert m.dim == 4
    assert m.weights == [3, 1, -1, -3]
    # e raises along the chain, f lowers, with q-integer coefficients
    assert m.e[0, 1] == qint(1)
    assert m.e[1, 2] == qint(2)
    assert m.f[3, 2] == qint(1)
    assert m.f[1, 0] == qint(3)
    assert repmod.irrep(0).e.is_zero()


def test_act_is_homomorphism():
    m = repmod.irrep(2)
    rng = random.Random(31)
    monos = uea.pbw_monomials(3)
    for _ in range(20):
        x = uea.monomial(*rng.choice(monos), coeff=Scalar(rng.randint(-2, 2)) + Scalar((0, 1)))
        y = uea.monomial(*rng.choice(monos))
        assert m.act(x * y) == m.act(x) * m.act(y)
        assert m.act(x + y) == m.act(x) + m.act(y)
    assert m.act(uea.UNIT) == Matrix.identity(3)


def _block_diagonal(ns):
    """The direct sum of the irreps V_n, n in ns, as one Module."""
    dim = sum(n + 1 for n in ns)
    gens = [{}, {}, {}]
    off = 0
    for n in ns:
        mod = repmod.irrep(n)
        for terms, block in zip(gens, (mod.e, mod.f, mod.k)):
            for (i, j), x in block.terms.items():
                terms[(off + i, off + j)] = x
        off += n + 1
    return repmod.Module(*(Matrix.sparse(dim, dim, t) for t in gens))


@pytest.mark.parametrize("build", [
    lambda: repmod.irrep(1),
    lambda: repmod.irrep(3),
    lambda: repmod.tensor(repmod.irrep(1), repmod.irrep(2)),
    lambda: _block_diagonal([2, 0, 1]),
], ids=["irrep-1", "irrep-3", "tensor-1-2", "sum-2-0-1"])
def test_act_matches_the_dense_oracle(build):
    # Module.act sums cached monomial entries; the oracle multiplies
    # fresh generator powers per term.  Every PBW monomial of degree
    # <= 4, negative k-powers among them, then seeded sums of them
    mod = build()
    monos = uea.pbw_monomials(4)
    assert any(b < 0 for _, b, _ in monos)
    for mono in monos:
        x = uea.monomial(*mono)
        assert mod.act(x) == oracles.module_act(mod, x)
    rng = random.Random(43)
    for _ in range(20):
        x = uea.UEAElement()
        for mono in rng.sample(monos, 3):
            x = x + uea.monomial(*mono, coeff=Scalar(rng.randint(-2, 2))
                                 + U(rng.randint(-3, 3)))
        assert mod.act(x) == oracles.module_act(mod, x)


def test_tensor_weights_are_sums():
    t = repmod.tensor(repmod.irrep(2), repmod.irrep(1))
    assert t.weights == [3, 1, 1, -1, -1, -3]


def test_casimir_eigenvalues():
    # ef + (q^{-1} k^2 + q k^{-2} - 2)/(q - q^{-1})^2 acts on V_n by
    # (q^{n+1} + q^{-(n+1)} - 2)/(q - q^{-1})^2
    qd2 = (Q(1) - Q(-1)) ** 2
    casimir = uea.E * uea.F + (
        uea.monomial(0, 2, 0, Q(-1)) + uea.monomial(0, -2, 0, Q(1)) - uea.UNIT.scale(2)
    ).scale(ONE / qd2)
    for n in range(5):
        lam = (Q(n + 1) + Q(-(n + 1)) - Scalar(2)) / qd2
        assert repmod.irrep(n).act(casimir) == Matrix.identity(n + 1).scale(lam)
    # on a tensor product its eigenvalues enumerate the components
    t = repmod.tensor(repmod.irrep(2), repmod.irrep(3))
    cmat = t.act(casimir)
    parts = repmod.decompose(t)
    for n, inc, prj in parts:
        lam = (Q(n + 1) + Q(-(n + 1)) - Scalar(2)) / qd2
        assert cmat * inc == inc.scale(lam)


def test_highest_weight_count_matches_clebsch_gordan():
    # dim ker(e) on V_a (x) V_b equals the number of irreducible
    # components min(a, b) + 1 -- an oracle independent of decompose
    for a, b in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        t = repmod.tensor(repmod.irrep(a), repmod.irrep(b))
        assert len(t.e.kernel()) == min(a, b) + 1


def test_decompose_clebsch_gordan_patterns():
    cases = {
        (1, 1): [2, 0],
        (2, 1): [3, 1],
        (2, 2): [4, 2, 0],
        (3, 2): [5, 3, 1],
        (3, 3): [6, 4, 2, 0],
    }
    for (a, b), want in cases.items():
        t = repmod.tensor(repmod.irrep(a), repmod.irrep(b))
        parts = repmod.decompose(t)
        assert sorted((n for n, _, _ in parts), reverse=True) == want
        # resolution of identity and orthogonality
        total = Matrix.zeros(t.dim, t.dim)
        for n, inc, prj in parts:
            total = total + inc * prj
        assert total == Matrix.identity(t.dim)
        for i, (n1, inc1, _) in enumerate(parts):
            for j, (n2, _, prj2) in enumerate(parts):
                prod = prj2 * inc1
                if i == j:
                    assert prod == Matrix.identity(n1 + 1)
                else:
                    assert prod.is_zero()


def test_decompose_with_multiplicity():
    # V1 (x) V1 (x) V1 = V3 + 2 V1
    t = repmod.tensor(repmod.tensor(repmod.irrep(1), repmod.irrep(1)), repmod.irrep(1))
    parts = repmod.decompose(t)
    assert sorted(n for n, _, _ in parts) == [1, 1, 3]
    total = Matrix.zeros(t.dim, t.dim)
    for n, inc, prj in parts:
        total = total + inc * prj
    assert total == Matrix.identity(t.dim)


def test_intertwine_rejects_a_map_that_does_not_commute():
    # the projection of V_1 onto its highest-weight line commutes with k
    # but not with e; the identity passes and comes back unchanged
    m = repmod.irrep(1)
    ident = Matrix.identity(2)
    assert repmod.intertwine(m, m, ident) is ident
    top = Matrix.sparse(2, 2, {(0, 0): ONE})
    with pytest.raises(AssertionError, match=r"fails on e\)"):
        repmod.intertwine(m, m, top)


def test_decompose_requires_diagonal_k():
    # conjugating an irrep by a non-diagonal change of basis keeps the
    # relations but hides the weights
    m = repmod.irrep(1)
    p = Matrix.sparse(2, 2, {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    pinv = p.inverse()
    twisted = repmod.Module(p * m.e * pinv, p * m.f * pinv, p * m.k * pinv)
    assert twisted.weights is None
    with pytest.raises(repmod.DecompositionError):
        repmod.decompose(twisted)


def test_a_diagonal_of_signed_powers_has_no_weights():
    # k -> -k keeps the relations (the module of type -1), but its
    # diagonal entries -u^{2m} are not powers of u
    for n in range(4):
        m = repmod.irrep(n)
        assert repmod.Module(m.e, m.f, m.k.scale(-ONE)).weights is None


# ----------------------------------------------------------------------
# R-matrix


def _delta_op_matrices(m1, m2):
    e = m1.k.tensor(m2.e) + m1.e.tensor(m2.k_inv)
    f = m1.k.tensor(m2.f) + m1.f.tensor(m2.k_inv)
    k = m1.k.tensor(m2.k)
    return e, f, k


def test_theta_coefficients_against_linear_solve():
    # independent derivation on V2 (x) V2: write R = C (1 + sum c_n T_n)
    # and solve the quasi-triangularity equations for c_1, c_2 exactly
    m = repmod.irrep(2)
    t = repmod.tensor(m, m)
    dim = t.dim
    c = oracles.cartan_factor(m, m)
    a_gen = uea.K * uea.E
    b_gen = uea.K_INV * uea.F
    tn = [Matrix.identity(dim)]
    for n in (1, 2):
        tn.append(m.act(a_gen ** n).tensor(m.act(b_gen ** n)))
    e_op, f_op, k_op = _delta_op_matrices(m, m)
    rows, rhs = [], []
    for dx, dx_op in ((t.e, e_op), (t.f, f_op), (t.k, k_op)):
        mats = [c * tn[n] * dx - dx_op * c * tn[n] for n in range(3)]
        for i in range(dim):
            for j in range(dim):
                row = [mats[1][i, j], mats[2][i, j]]
                if any(row) or mats[0][i, j]:
                    rows.append(row)
                    rhs.append(-mats[0][i, j])
    sol = Matrix(rows, 2).solve(rhs)
    assert sol[0] == repmod.theta_coefficient(1)
    assert sol[1] == repmod.theta_coefficient(2)


def braiding_map(m1, m2):
    """flip . R as a map m1 (x) m2 -> m2 (x) m1, certified by
    repmod.intertwine (which proves the intertwining property of R)."""
    mat = repmod.flip_matrix(m1.dim, m2.dim) * oracles.universal_R(m1, m2)
    return repmod.intertwine(repmod.tensor(m1, m2), repmod.tensor(m2, m1),
                             mat)


def universal_R_inverse(m1, m2):
    """The inverse R-matrix, via the closed-form series for Theta^{-1}."""
    dim = m1.dim * m2.dim
    nmax = min(m1.dim, m2.dim)
    d = repmod.theta_inverse_coefficients(nmax)
    theta_inv = Matrix.zeros(dim, dim)
    for n in range(nmax + 1):
        # k^n e^n is the PBW monomial (0, n, n); k^{-n} f^n is not PBW
        # (it is q^{n^2} f^n k^{-n}), so build it as an honest product
        a_n = m1.act(uea.monomial(0, n, n))
        b_n = m2.act(uea.K_INV ** n * uea.F ** n)
        if a_n.is_zero() or b_n.is_zero():
            break
        theta_inv = theta_inv + a_n.tensor(b_n).scale(d[n])
    return theta_inv * oracles.cartan_factor(m1, m2).inverse()


def test_r_matrix_intertwines_all_small_pairs():
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (0, 2)]:
        m1, m2 = repmod.irrep(a), repmod.irrep(b)
        # intertwine verifies flip . R intertwines the two tensor orders
        braiding_map(m1, m2)


def test_r_matrix_inverse():
    for a, b in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        m1, m2 = repmod.irrep(a), repmod.irrep(b)
        r = oracles.universal_R(m1, m2)
        rinv = universal_R_inverse(m1, m2)
        assert r * rinv == Matrix.identity(m1.dim * m2.dim)
        assert rinv * r == Matrix.identity(m1.dim * m2.dim)


def _embed_pair(rmat, dims, a, b):
    """Apply an operator on slots a < b of a triple tensor product."""
    d = list(dims)
    tot = d[0] * d[1] * d[2]

    def flat(idx):
        return (idx[0] * d[1] + idx[1]) * d[2] + idx[2]

    out = {}
    for idx in itertools.product(range(d[0]), range(d[1]), range(d[2])):
        col = flat(idx)
        for ja in range(d[a]):
            for jb in range(d[b]):
                tgt = list(idx)
                tgt[a], tgt[b] = ja, jb
                val = rmat[ja * d[b] + jb, idx[a] * d[b] + idx[b]]
                accumulate(out, (flat(tgt), col), val)
    return Matrix.sparse(tot, tot, out)


def test_yang_baxter():
    for da, db, dc in [(1, 1, 1), (1, 2, 1), (2, 1, 2)]:
        ma, mb, mc = repmod.irrep(da), repmod.irrep(db), repmod.irrep(dc)
        dims = (ma.dim, mb.dim, mc.dim)
        r12 = _embed_pair(oracles.universal_R(ma, mb), dims, 0, 1)
        r13 = _embed_pair(oracles.universal_R(ma, mc), dims, 0, 2)
        r23 = _embed_pair(oracles.universal_R(mb, mc), dims, 1, 2)
        assert r12 * r13 * r23 == r23 * r13 * r12


def test_r_matrix_classical_limit_is_identity():
    # at u = 1 both the Cartan factor and Theta collapse, so the
    # braiding flip . R degenerates to the plain flip
    m1, m2 = repmod.irrep(1), repmod.irrep(2)
    bmat = braiding_map(m1, m2)
    fmat = repmod.flip_matrix(m1.dim, m2.dim)
    for i in range(bmat.rows):
        for j in range(bmat.cols):
            assert eval_at(bmat[i, j], 1) == eval_at(fmat[i, j], 1)


def test_theta_inverse_matches_the_recursion():
    # the closed form d_n = (-1)^n q^{-2n(n-1)} c_n against the
    # triangular recursion it replaces
    assert repmod.theta_inverse_coefficients(10) == (
        oracles.theta_inverse_coefficients(10))


def test_theta_inverse_series():
    # the closed form inverts Theta in the PBW tensor basis:
    # check it as U (x) U elements through matrices on V3 (x) V3
    m = repmod.irrep(3)
    dim = m.dim * m.dim
    theta = Matrix.identity(dim)
    for n in (1, 2, 3):
        theta = theta + m.act((uea.K * uea.E) ** n).tensor(
            m.act((uea.K_INV * uea.F) ** n)
        ).scale(repmod.theta_coefficient(n))
    d = repmod.theta_inverse_coefficients(3)
    theta_inv = Matrix.zeros(dim, dim)
    for n in range(4):
        theta_inv = theta_inv + m.act(uea.monomial(0, n, n)).tensor(
            m.act(uea.K_INV ** n * uea.F ** n)
        ).scale(d[n])
    assert theta * theta_inv == Matrix.identity(dim)
