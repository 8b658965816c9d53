"""Left-covariant differential calculus on the quantum group.

A finite-dimensional module Wc with diagonal weights determines a
first-order calculus through its L-operators.  With d = dim Wc and
K = d^2, the shift functionals

    F_{(r s),(i j)} = S(L+_{i r}) L-_{s j}      (composite indices)

and the tangent functionals

    X_b = sum_r F_{(r r), b} - [b diagonal] 1

satisfy the structure identities

    eps(X_a) = 0,                 eps(F_{a b}) = delta_{a b},
    D(F_{a b}) = sum_c F_{a c} (x) F_{c b},
    D(X_a)   = 1 (x) X_a + sum_b X_b (x) F_{b a},

all of which are verified exactly at construction.  The space of
invariant one-forms has basis omega_a, a = 1..K; every form is written
in left-trivialized coordinates as a sum of coefficients in T_q times
words in the omega_a.  A FormElement holds these coordinates as one sparse
combination whose terms map (word, Peter-Weyl key) to Scalars, so the
ideal reduction and every span see the same columns; `coords` groups
the terms by word and `form` is its inverse.  Multiplication shifts
coefficients through the word by F:

    omega_a . b = sum_c (F_{a c} o b) omega_c,
    d b        = sum_c (X_c o b) omega_c = theta b - b theta,

with theta the sum of the diagonal omega_a.  The exterior algebra is
the quotient of the tensor algebra on the omega_a by the two-sided
ideal generated by ker sigma_-, where sigma is the braiding on the
invariant forms and sigma = sigma_+ - sigma_- is its unique splitting
with sigma_+ sigma_- = 0 classified by the sign of each eigenvalue at
u = 1.  The differential in higher degree is d w = theta w -
(-1)^n w theta; d^2 = 0 because theta^2 reduces to zero.

Every form a Calculus method returns is in normal form: the canonical
representative modulo that ideal, on normal words only.  The ideal is
built degree by degree (_j_echelon), and multiply, d and d0 read tables
of its normal forms through one contraction, _contract.  With rho(W) the
normal form of the word W and T_{I,C}(n) = pi_n(F_{a_1 c_1}) ...
pi_n(F_{a_k c_k}), the level-n blocks read off repmod.Module.act, for
I = (a_1..a_k), C = (c_1..c_k), the identity for I = (), the product table

    M_{I,J,n,N} = sum_C rho(C J)_N T_{I,C}(n)

takes a level-n block B of b to the coefficient B M_{I,J,n,N}^T of w_N
in w_I . b w_J, already reduced, read off the columns of M; for I = ()
M is rho(J)_N times the identity.  d's table adds those of the diagonal
letters (a,) on J to -(-1)^{|J|} times those of the unit word on the
words J a.  This is sound because the ideal is two-sided, because sums,
scalings and the coefficient-only translation keep a form on normal
words, and because forms of degree at most one are already normal.  So
two forms are equal in the exterior algebra exactly when they are ==.
"""

import functools
import itertools

from .scalars import (Scalar, Matrix, Echelon, Span, LinComb, ZERO, ONE,
                      accumulate, add_row, finish_sum, merge_sums,
                      rank_lower_bound, NoSolution)
from . import uea, repmod, coeff, homspace

_UPOW = Scalar.u_power


class AxiomViolation(Exception):
    """A structure identity of the calculus data failed."""


class SplitError(Exception):
    """The braiding does not split by eigenvalue sign at u = 1."""


# ----------------------------------------------------------------------
# L-operators and the calculus data

def l_plus(wc):
    """Matrix of elements L+_{r s} = k^{m_r} sum_n c_n pi((k^{-1}f)^n)_{r s} (k e)^n.
    f lowers the weight by 2, so (k^{-1}f)^n acts as 0 from n = dim on."""
    weights = wc.weights
    assert weights is not None, "diagonal weights required"
    ke = uea.K * uea.E
    kf = uea.K_INV * uea.F
    pairs = [[[] for _ in range(wc.dim)] for _ in range(wc.dim)]
    for n in range(wc.dim):
        low = wc.act(kf ** n)
        c_n = repmod.theta_coefficient(n)
        for r in range(wc.dim):
            for s in range(wc.dim):
                if low[r, s]:
                    term = uea.monomial(0, weights[r], 0) * ke ** n
                    pairs[r][s].append((c_n * low[r, s], term))
    return [[uea.UEAElement().combination(p) for p in row] for row in pairs]


def l_minus(wc):
    """Matrix of elements L-_{r s} = [sum_n d_n pi(k^n e^n)_{r s} k^{-n} f^n] k^{-m_s}.
    e raises the weight by 2, so k^n e^n acts as 0 from n = dim on."""
    weights = wc.weights
    assert weights is not None, "diagonal weights required"
    d = repmod.theta_inverse_coefficients(wc.dim - 1)
    pairs = [[[] for _ in range(wc.dim)] for _ in range(wc.dim)]
    for n in range(wc.dim):
        high = wc.act(uea.monomial(0, n, n))  # k^n e^n is already normal form
        low = uea.K_INV ** n * uea.F ** n  # k^{-n} f^n is not: build honestly
        for r in range(wc.dim):
            for s in range(wc.dim):
                if high[r, s]:
                    term = low * uea.monomial(0, -weights[s], 0)
                    pairs[r][s].append((d[n] * high[r, s], term))
    return [[uea.UEAElement().combination(p) for p in row] for row in pairs]


def _check_corepresentation(l, label):
    """Require eps(l_rs) = delta_rs and D(l_rs) = sum_t l_rt (x) l_ts."""
    dim = len(l)
    for r in range(dim):
        for s in range(dim):
            want = ONE if r == s else ZERO
            if uea.counit(l[r][s]) != want:
                raise AxiomViolation("counit of %s" % label)
            if uea.coproduct(l[r][s]) != uea.TensorUEA().combination(
                    (ONE, uea.tensor(l[r][t], l[t][s])) for t in range(dim)):
                raise AxiomViolation("coproduct of %s" % label)


class CalculusData:
    """The invariant data of the first-order calculus built from Wc:
    K tangent functionals X, the K x K shift functionals F, the list of
    diagonal indices whose sum of invariant forms is theta, and (when
    the X are independent) the module structure on the invariant forms
    obtained from the right adjoint action on the tangent space."""

    def __init__(self, wc, K, F, X, diagonal, nondegenerate, module):
        self.wc = wc
        self.K = K
        self.F = F
        self.X = X
        self.diagonal = diagonal
        self.nondegenerate = nondegenerate
        self.module = module


def _right_adjoint(x, g):
    return uea.UEAElement().combination(
        (s, uea.antipode(uea.monomial(*m1)) * x * uea.monomial(*m2))
        for (m1, m2), s in uea.coproduct(g).terms.items())


def _tangent_module(span, X):
    """Solve the right adjoint action in `span`, the Span of the X_a, and
    return the module it defines on the invariant forms: with
    X_a <| g = sum_b N(g)_{b a} X_b the matrices M(g) = N(g)^T satisfy
    M(gh) = M(g) M(h), and they are dual to the coaction under which the
    coefficient shift of the forms is covariant (the Module constructor
    checks the relations; the braiding construction the covariance)."""

    def action(g):
        images = [_right_adjoint(x, g).terms for x in X]
        try:
            return span.coordinate_matrix(images).transpose()
        except NoSolution:
            raise AxiomViolation("adjoint image leaves the tangent span")

    return repmod.Module(action(uea.E), action(uea.F), action(uea.K))


def from_rep(wc):
    """Build and verify the calculus data from a module with diagonal
    weights.  Raises AxiomViolation when a structure identity fails."""
    d = wc.dim
    K = d * d
    lp = l_plus(wc)
    lm = l_minus(wc)
    _check_corepresentation(lp, "raising half")
    _check_corepresentation(lm, "lowering half")
    slp = [[uea.antipode(lp[i][r]) for r in range(d)] for i in range(d)]

    def flat(r, s):
        return r * d + s

    F = [[None] * K for _ in range(K)]
    for r in range(d):
        for s in range(d):
            for i in range(d):
                for j in range(d):
                    F[flat(r, s)][flat(i, j)] = slp[i][r] * lm[s][j]
    diagonal = [flat(r, r) for r in range(d)]
    X = []
    for b in range(K):
        pairs = [(ONE, F[a][b]) for a in diagonal]
        if b in diagonal:
            pairs.append((-ONE, uea.UNIT))
        X.append(uea.UEAElement().combination(pairs))

    for x in X:
        if uea.counit(x) != ZERO:
            raise AxiomViolation("counit of tangent functional")
    _check_corepresentation(F, "shift functional")
    for a in range(K):
        want = uea.tensor(uea.UNIT, X[a]).combination(
            (ONE, uea.tensor(X[b], F[b][a])) for b in range(K))
        if uea.coproduct(X[a]) != want:
            raise AxiomViolation("coproduct of tangent functional")

    span = Span([x.terms for x in X])
    nondegenerate = span.rank == K
    module = _tangent_module(span, X) if nondegenerate else None
    return CalculusData(wc, K, F, X, diagonal, nondegenerate, module)


# ----------------------------------------------------------------------
# forms

class FormElement(coeff.CoeffVector):
    """A left-trivialized form of degree n: terms map (word, Peter-Weyl
    key) to nonzero Scalars, the word a length-n tuple of letters of the
    invariant one-form basis.  Forms add only within one degree, and zero
    forms of different degrees are unequal.  The forms a Calculus returns
    are in normal form modulo the exterior ideal, so == is equality in
    the exterior algebra."""

    __slots__ = ("degree",)

    def __init__(self, degree, terms=None):
        coeff.CoeffVector.__init__(self, terms)
        self.degree = degree

    @staticmethod
    def _graded(degree, terms):
        """The degree-n form with the given nonzero terms, not filtered
        again."""
        out = FormElement._of(terms)
        out.degree = degree
        return out

    def _new(self, terms):
        return FormElement._graded(self.degree, terms)

    def __add__(self, other):
        if other.degree != self.degree:
            raise ValueError("adding forms of degrees %d and %d"
                             % (self.degree, other.degree))
        return LinComb.__add__(self, other)

    def __eq__(self, other):
        return LinComb.__eq__(self, other) and self.degree == other.degree

    def __repr__(self):
        if not self.terms:
            return "FormElement(%d, 0)" % self.degree
        bits = ["(%s) w%s" % (f, list(key)) for key, f in sorted(self.coords.items())]
        return "FormElement(%d, %s)" % (self.degree, " + ".join(bits))


def form(degree, coords):
    """The degree-n form with coordinates {word: CoeffElement}."""
    return FormElement._graded(degree, {(word, pw): s
                                        for word, f in coords.items()
                                        for pw, s in f.terms.items()})


def _nonzero_sums(mats):
    """The pairs (N, sum of the matrices mats[N]) with a nonzero sum."""
    table = []
    for N, terms in mats.items():
        m = terms[0].combination((ONE, t) for t in terms[1:])
        if not m.is_zero():
            table.append((N, m))
    return table


class Calculus:
    """The calculus operations bound to a coefficient algebra window."""

    def __init__(self, algebra, data):
        assert data.nondegenerate, "degenerate calculus (zero tangent space)"
        self.algebra = algebra
        self.data = data
        self.K = data.K
        self._split = None
        self._j_ech = {}
        self._normal = {0: [()]}
        self._nf = {}
        self._product_tables = {}
        self._d_tables = {}

    # -- basic forms ---------------------------------------------------

    def form0(self, f):
        return form(0, {(): f})

    def zero(self, degree):
        return FormElement(degree)

    def theta(self):
        return form(1, {(a,): coeff.unit() for a in self.data.diagonal})

    def d0(self, f):
        """df = sum_c (X_c o f) omega_c, the d of the degree-0 form f
        through the same tables; preserves coefficient levels."""
        return self._differential(0, {(): f})

    # -- multiplication ------------------------------------------------

    def _product_table(self, I, J, n):
        """The nonzero M_{I,J,n,N} = sum_C rho(C J)_N T_{I,C}(n) of
        multiply as pairs (N, M), built once per left word I, right
        word J, normal or not, and level n; each M is a new matrix.
        T_{I,C}(n) = pi_n(F_{a_1 c_1}) ... pi_n(F_{a_k c_k}) for
        I = (a_1..a_k) and C = (c_1..c_k), the blocks read off
        repmod.Module.act and multiplied in word order, and the identity
        for I = (), where M is rho(J)_N times the identity: the shift
        operators act on a level-n block by right multiplication with
        the transpose, which _contract reads as the columns of M, so no
        transpose is built."""
        table = self._product_tables.get((I, J, n))
        if table is None:
            mod = repmod.irrep(n)
            states = {(): Matrix.identity(n + 1)}
            for a in I:
                nxt = {}
                for prefix, m in states.items():
                    for c, f in enumerate(self.data.F[a]):
                        block = mod.act(f)
                        if not block:
                            continue
                        p = m * block
                        if not p.is_zero():
                            nxt[prefix + (c,)] = p
                states = nxt
            mats = {}
            for C, p in states.items():
                for N, s in self._normal_form(C + J).items():
                    mats.setdefault(N, []).append(p.scale(s))
            table = _nonzero_sums(mats)
            self._product_tables[(I, J, n)] = table
        return table

    @staticmethod
    def _contract(coords, table):
        """h_N = sum_J sum_n B_{J,n} M_{J,n,N}^T as {N: {Peter-Weyl key:
        Scalar}}, B_{J,n} the level-n block of coords[J] and (N, M) the
        pairs of table(J, n): the one right translation of a form's
        coefficients through tables on (word, level).  B is read off
        the nonzero entries, so the entry x at (n, i, t) adds x times
        column t of M at (n, i, j), into one unreduced sum per N that is
        finished once."""
        h = {}
        for J, b in coords.items():
            for (n, i, t), x in b.terms.items():
                for N, m in table(J, n):
                    add_row(h.setdefault(N, {}),
                            [((n, i, j), y) for j, y in m.col(t)], x)
        return {N: finish_sum(terms) for N, terms in h.items()}

    def multiply(self, w1, w2):
        """(a (x) w_I)(b (x) w_J) = sum_C a ((F-word)_{I C} o b) (x) w_{C ++ J},
        in normal form whatever the representatives of the factors.
        Reduction modulo the exterior ideal is linear word by word, so
        the product is sum_N a h_{I,N} (x) w_N with

            h_{I,N} = sum_J sum_n B_{J,n} M_{I,J,n,N}^T,

        B_{J,n} the level-n Peter-Weyl block of b_J and M the product
        table (_product_table), for I = () too.  So each pair (left
        word, normal word) costs one coefficient product, and the word
        layer is contracted before it.  The products merge into one
        unreduced sum, finished once per form."""
        out = {}
        right = w2.coords
        for I, a in w1.coords.items():
            h = self._contract(right, functools.partial(self._product_table, I))
            for N, terms in h.items():
                if terms:
                    merge_sums(out, N, self.algebra.product_terms(
                        a, coeff.CoeffElement._of(terms)))
        return FormElement._graded(w1.degree + w2.degree, finish_sum(out))

    def left_mult(self, a, w):
        return self.multiply(self.form0(a), w)

    def _d_table(self, J, n):
        """The nonzero M_{J,n,N} of d as pairs (N, M), built once per
        word J, normal or not, and level n from product tables only: the
        theta w half is the sum of the tables of the diagonal letters
        (a,) on J, the w theta half -(-1)^{|J|} times those of the unit
        word on J a.  No M is a memoised action matrix."""
        table = self._d_tables.get((J, n))
        if table is None:
            sign = ONE if len(J) % 2 else -ONE
            mats = {}
            for a in self.data.diagonal:
                for N, m in self._product_table((a,), J, n):
                    mats.setdefault(N, []).append(m)
                for N, m in self._product_table((), J + (a,), n):
                    mats.setdefault(N, []).append(m.scale(sign))
            table = _nonzero_sums(mats)
            self._d_tables[(J, n)] = table
        return table

    def d(self, w):
        """d w = theta w - (-1)^n w theta, in normal form whatever the
        representative w.  As theta has unit coefficients and
        F o 1 = eps(F) 1, d(b w_J) = sum_N (H_{J,N} o b) w_N with

            H_{J,N} = sum_{a diagonal, c} rho(c J)_N F_{a c}
                      - (-1)^{|J|} sum_{a diagonal} rho(J a)_N eps,

        rho(W) the reduction of the word W modulo the exterior ideal.  On
        a level-n block B of b, H_{J,N} o b is B M_{J,n,N}^T (_d_table)."""
        self.algebra.check_window(w.level)
        return self._differential(w.degree, w.coords)

    def _differential(self, degree, coords):
        """d of the degree-n form with the coefficients {word:
        CoeffElement}, read off the d tables."""
        h = self._contract(coords, self._d_table)
        return FormElement._graded(degree + 1, {
            (N, pw): s for N, terms in h.items() for pw, s in terms.items()})

    # -- braiding and the exterior ideal ---------------------------------

    def braiding(self):
        if self._split is None:
            sigma = _braiding_matrix(self.data.wc, self.data.F)
            self._split = BraidingSplit(self.data.module, sigma)
        return self._split

    def _kernel_vectors(self):
        """Basis of ker sigma_- as sparse vectors keyed by letter pairs."""
        return [{divmod(i, self.K): s for i, s in vec.items()}
                for vec in self.braiding().kernel_minus]

    def _j_echelon(self, degree):
        """E_n, J_n modulo J_{n-1} (x) V on the columns N_{n-1} x letters:
        as J_n = J_{n-1} (x) V + N_{n-2} (x) ker sigma_-, it is spanned by
        sum_{ab} k_ab NF(u a) b, u in N_{n-2}, k in ker sigma_- (above degree
        2, the rows of E_2, whose reduced entries keep the Scalars small).  A
        reduced echelon is unique, so J_n's pivots and normal forms are those
        of one elimination over all K^n words."""
        ech = self._j_ech.get(degree)
        if ech is None:
            ech = Echelon()
            kernel = self._kernel_vectors() if degree == 2 else (
                self._j_echelon(2).rows.values() if degree > 2 else ())
            for kv in kernel:
                for u in self._normal_words(degree - 2):
                    vec = {}
                    for (a, b), s in kv.items():
                        for w, t in self._normal_form(u + (a,)).items():
                            accumulate(vec, w + (b,), s * t)
                    ech.add(vec)
            self._j_ech[degree] = ech
        return ech

    def _normal_words(self, degree):
        """N_n, the words of N_{n-1} x letters outside the pivots of E_n."""
        words = self._normal.get(degree)
        if words is None:
            pivots = self._j_echelon(degree).rows
            words = [w + (a,) for w in self._normal_words(degree - 1)
                     for a in range(self.K) if w + (a,) not in pivots]
            self._normal[degree] = words
        return words

    def _normal_form(self, word):
        """NF(w) = E_n.reduce(NF(w[:-1]) w[-1]) as {normal word: Scalar},
        memoised per word; words of degree below two are normal."""
        nf = self._nf.get(word)
        if nf is None:
            nf = {word: ONE}
            if len(word) > 1:
                prefix = self._normal_form(word[:-1]).items()
                nf = self._j_echelon(len(word)).reduce(
                    {w + word[-1:]: s for w, s in prefix})
            self._nf[word] = nf
        return nf

    def reduce_mod_J(self, w):
        """Canonical representative modulo the exterior ideal, word by
        word through _normal_form.  No code of the package calls it: every
        form a Calculus returns is already normal; the tests reduce by it."""
        out = {}
        for (word, pw), s in w.terms.items():
            for N, t in self._normal_form(word).items():
                accumulate(out, (N, pw), s * t)
        return FormElement._graded(w.degree, out)

    def omega_dims(self, n):
        """Dimension of the degree-n component of the exterior algebra
        over the invariant forms: the number of normal words."""
        return len(self._normal_words(n))

    # -- covariance actions ----------------------------------------------

    def dot_on_forms(self, x, w):
        """Left translation acts on the coefficients only (the invariant
        form legs are left-invariant)."""
        return w.map(lambda f: self.algebra.dot(x, f))

    def restrict(self, N):
        return Restriction(self, N)


def _braiding_matrix(wc, F):
    """The braiding on the invariant forms.  The forms carry the right
    coaction w_a -> sum_b w_b (x) tau_{b a} with coefficient matrix
    tau_{(i j),(r s)} = t_{i r} S(t_{s j}) in the matrix coefficients of
    Wc (the unique comodule matrix compatible with the right
    multiplication rule), and the braiding moves the coacted leg in
    front of the shifted one:

        sigma(w_a (x) w_b) = sum_{c,d} <F_{a c}, tau_{d b}> w_d (x) w_c.

    Expanding the pairing through D(F) leaves only representation data:
    <F_{a c}, tau_{d b}> = sum_e pi(F_{a e})_{d1 b1} pi(S(F_{e c}))_{b2 d2}."""
    dim = wc.dim
    K = dim * dim
    fa = [[wc.act(F[a][e]) for e in range(K)] for a in range(K)]
    fs = [[wc.act(uea.antipode(F[e][c])) for c in range(K)] for e in range(K)]
    sigma = {}
    for a in range(K):
        for b in range(K):
            b1, b2 = divmod(b, dim)
            for dd in range(K):
                d1, d2 = divmod(dd, dim)
                for c in range(K):
                    acc = ZERO
                    for e in range(K):
                        x = fa[a][e][d1, b1]
                        if x:
                            y = fs[e][c][b2, d2]
                            if y:
                                acc = acc + x * y
                    if acc:
                        sigma[(dd * K + c, a * K + b)] = acc
    return Matrix.sparse(K * K, K * K, sigma)


def _signed_power_eigenspaces(m):
    """The eigenspaces of the r x r Matrix m, as [(lam, basis)] with each
    basis a list of column vectors, for m diagonalizable with every
    eigenvalue +-u^k, |k| <= 48.  Each candidate, in the order 1, -1,
    u^-1, -u^-1, u, -u, u^-2, ..., with a nonzero kernel of m - lam I is
    an eigenvalue, its eigenspace that kernel.  Eigenspaces of distinct
    eigenvalues are independent, so they span exactly when m is such a
    matrix; otherwise SplitError.  A candidate whose shift has full rank
    mod p, by the rank of an Echelon over F_p (scalars.rank_lower_bound, a
    lower bound of the rank over Q(u), as in coeff.PairingTable), has no
    eigenvector, without an exact elimination."""
    r = m.rows
    eigen = []
    spanned = 0
    for k in sorted(range(-48, 49), key=abs):
        for lam in (_UPOW(k), -_UPOW(k)):
            shifted = m - Matrix.identity(r).scale(lam)
            if rank_lower_bound(shifted) == r:
                continue
            basis = shifted.kernel()
            if basis:
                eigen.append((lam, basis))
                spanned += len(basis)
                if spanned == r:
                    return eigen
    raise SplitError("multiplicity block is not diagonalizable over the "
                     "signed powers of u (eigenspaces span %d of %d)"
                     % (spanned, r))


class BraidingSplit:
    """The braiding sigma on the invariant forms, split as sigma_+ -
    sigma_- by the sign of each eigenvalue +-u^k (Scalar.monomial), with
    sigma_+ sigma_- = sigma_- sigma_+ = 0.  By Schur's lemma sigma is
    m (x) id on each isotypic component, so the split stays on the
    multiplicity blocks m, whose eigenspaces are found by rank
    (_signed_power_eigenspaces).  They span, so m is diagonalizable, and
    ker sigma_- is spanned by sum_j k_j inc_j[:, c] for k in the
    eigenspaces whose eigenvalue is +u^k.  sigma(1) must be the flip.
    With sum inc prj = id and intertwining inc, prj (decompose), the
    scalar blocks and sigma commuting with e, f, k give the identities
    of sigma_+ and sigma_- on V (x) V."""

    def __init__(self, module, sigma):
        K = module.dim
        tm = repmod.tensor(module, module)
        self.sigma = sigma
        groups = {}
        for n, inc, prj in repmod.decompose(tm):
            groups.setdefault(n, []).append((inc, prj))
        self.eigenvalues = []
        kernel = Echelon()
        for n, members in sorted(groups.items()):
            r = len(members)
            entries = {}
            for i, (_, prji) in enumerate(members):
                row = prji * sigma
                for j, (incj, _) in enumerate(members):
                    block = row * incj
                    s = block[0, 0]
                    if block != Matrix.identity(n + 1).scale(s):
                        raise AssertionError("braiding block is not scalar")
                    entries[(i, j)] = s
            m = Matrix.sparse(r, r, entries)
            for lam, basis in _signed_power_eigenspaces(m):
                self.eigenvalues.append((lam, n, len(basis)))
                if lam.monomial()[0] < 0:
                    continue
                # the column c of every copy of V_n, keyed by -index so
                # that the reduced rows are those of sigma_-.kernel()
                for k in basis:
                    vecs = [{} for _ in range(n + 1)]
                    for kj, (incj, _) in zip(k, members):
                        for (t, c), x in incj.terms.items():
                            accumulate(vecs[c], -t, kj * x)
                    for vec in vecs:
                        kernel.add(vec)
        self.kernel_minus = [{-t: s for t, s in sorted(row.items(), reverse=True)}
                             for _, row in sorted(kernel.rows.items(),
                                                  reverse=True)]
        for g in ("e", "f", "k"):
            mat = getattr(tm, g)
            if sigma * mat != mat * sigma:
                raise AssertionError("sigma does not commute with %s" % g)
        if sigma.eval_at(1) != repmod.flip_matrix(K, K).eval_at(1):
            raise AssertionError("sigma at u = 1 is not the flip")


# ----------------------------------------------------------------------
# restriction to the homogeneous space

class Restriction:
    """The calculus restricted to the invariant subalgebra: per degree a
    basis of the span of forms a db_1 ... db_n with invariant entries
    from the level-N basis, stored reduced and with presentations so the
    subalgebra generators can act through their coproducts."""

    def __init__(self, calc, N):
        self.calc = calc
        self.N = N
        self.invariants = homspace.invariants(calc.algebra, N)
        self.bases = {}
        self.echelons = {}
        self.filtration = {}
        for degree in (0, 1, 2):
            # the tuples (a, (b_1..b_degree)) of invariant basis elements
            # by total level, each level in product order
            by_level = [[] for _ in range(degree * N + N + 1)]
            for combo in itertools.product(self.invariants,
                                           repeat=degree + 1):
                by_level[sum(f.level for f in combo)].append(
                    (combo[0], combo[1:]))
            basis = []
            ech = Echelon()
            filt = []
            for combos in by_level:
                for combo in combos:
                    form = self._realize(combo)
                    if form.is_zero():
                        continue
                    if ech.add(form.terms):
                        basis.append({"form": form, "presentation": combo})
                filt.append(ech.rank)
            self.bases[degree] = basis
            self.echelons[degree] = ech
            self.filtration[degree] = filt

    def _realize(self, combo):
        a, bs = combo
        form = self.calc.form0(a)
        for b in bs:
            form = self.calc.multiply(form, self.calc.d0(b))
        return form

    def dims(self):
        return {degree: len(self.bases[degree]) for degree in self.bases}

    def remainder(self, w):
        """The terms of w left over after reduction against the
        restricted basis of its degree: empty exactly when w lies in the
        restricted span.  A degree with no stored basis raises KeyError.
        w must be in normal form, as every form a Calculus returns is;
        the basis is stored in normal form too."""
        return self.echelons[w.degree].reduce(w.terms)

    def closure_check(self, degree):
        """The remainder of d of each degree-n basis entry against the
        degree-(n+1) restricted basis: d maps the degree-n restricted
        space into the degree-(n+1) one exactly when all are empty."""
        return [self.remainder(self.calc.d(entry["form"]))
                for entry in self.bases[degree]]

    def circle_presented(self, p, combo):
        """p o (a db_1 ... db_n) = sum (p_(1) o a) d(p_(2) o b_1) ...,
        through the iterated coproduct of p."""
        a, bs = combo
        calc = self.calc
        algebra = calc.algebra
        terms = []
        for key, s in uea.iterated_coproduct(p, len(bs) + 1).items():
            form = calc.form0(algebra.circle(uea.monomial(*key[0]), a))
            for leg, b in zip(key[1:], bs):
                form = calc.multiply(
                    form, calc.d0(algebra.circle(uea.monomial(*leg), b)))
            terms.append((s, form))
        return calc.zero(len(bs)).combination(terms)
