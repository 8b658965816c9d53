"""Reference code that several test modules share and that no code in
the package calls."""

import itertools
from functools import lru_cache
from itertools import islice
from math import gcd as _igcd

from qhvb.scalars import (ONE, ZERO, Echelon, Matrix, NoSolution, Scalar,
                          Span, _residual_witness, accumulate, add_row,
                          eval_at, finish_sum)
from qhvb import bundle, calculus, coeff, repmod, uea
from qhvb.calculus import _signed_power_eigenspaces


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
# linear combinations before LinComb.combination: the oracle of each sum
# sum_i s_i x_i of the package


def combination_by_addition(x0, pairs):
    """x0 + sum s x over the (Scalar s, LinComb x) pairs by repeated `+`
    of x.scale(s), one intermediate element per pair."""
    acc = x0
    for s, x in pairs:
        acc = acc + x.scale(s)
    return acc


# ----------------------------------------------------------------------
# the dense Matrix, before it became the LinComb of its nonzero entries:
# rows of Scalars, every entry visited; the oracle of each public
# operation of scalars.Matrix.  Its results now pass their width on, as
# a matrix with no rows lost it (a 0 x c sum, product or scaling, or the
# transpose of an r x 0 matrix, came out 0 x 0)


class DenseMatrix:
    """A dense matrix of Scalars.  Rank, kernel, solve and inverse run on
    scalars.Echelon, the one elimination in the package."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=0):
        """The rows of Scalars in entries; cols is the width when empty."""
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else cols
        assert all(len(r) == self.cols for r in self.entries)

    @staticmethod
    def zeros(r, c):
        return DenseMatrix([[ZERO] * c for _ in range(r)], c)

    @staticmethod
    def identity(n):
        return DenseMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(self.entries[i][j] == other.entries[i][j] for i in range(self.rows) for j in range(self.cols))
        )

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return DenseMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)],
            self.cols)

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return DenseMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)],
            self.cols)

    def __neg__(self):
        return DenseMatrix([[-x for x in row] for row in self.entries], self.cols)

    def scale(self, s):
        return DenseMatrix([[s * x for x in row] for row in self.entries], self.cols)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch"
        # the nonzero (j, y) of each row t of the right factor; every
        # entry (i, j) still sums its products over t in increasing order
        nz = [[(j, y) for j, y in enumerate(row) if y] for row in other.entries]
        out = []
        for ai in self.entries:
            row = [ZERO] * other.cols
            for x, nzt in zip(ai, nz):
                if x:
                    for j, y in nzt:
                        row[j] = row[j] + x * y
            out.append(row)
        return DenseMatrix(out, other.cols)

    def apply(self, vec):
        """Matrix times column vector (a list of Scalars)."""
        assert self.cols == len(vec)
        out = []
        for i in range(self.rows):
            acc = ZERO
            for t, x in enumerate(self.entries[i]):
                if x and vec[t]:
                    acc = acc + x * vec[t]
            out.append(acc)
        return out

    def transpose(self):
        return DenseMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
                           self.rows)

    def tensor(self, other):
        """Kronecker product; index (i, k) flattens to i*other.rows + k."""
        out = DenseMatrix.zeros(self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                x = self.entries[i][j]
                if not x:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        y = other.entries[k][l]
                        if y:
                            out.entries[i * other.rows + k][j * other.cols + l] = x * y
        return out

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def _echelon(self):
        """An Echelon of the nonzero rows, keyed by column index."""
        return Echelon({j: x for j, x in enumerate(row) if x} for row in self.entries)

    def _columns(self):
        """The columns as sparse vectors keyed by row index."""
        return [{i: row[j] for i, row in enumerate(self.entries) if row[j]}
                for j in range(self.cols)]

    def rref(self):
        """Reduced row echelon form, read off the Echelon of the rows;
        returns (R, pivot_columns)."""
        ech = self._echelon()
        pivots = sorted(ech.rows)
        R = DenseMatrix.zeros(self.rows, self.cols)
        for r, pc in enumerate(pivots):
            for c, s in ech.rows[pc].items():
                R.entries[r][c] = s
        return R, pivots

    def rank(self):
        return self._echelon().rank

    def kernel(self):
        """Basis of the right kernel, as a list of column vectors."""
        return self._echelon().kernel(self.cols)

    def solve(self, rhs):
        """Solve self * x = rhs exactly; raises NoSolution if inconsistent.
        rhs may be a vector (list) or a DenseMatrix of right-hand sides;
        returns the same shape.  With a nontrivial kernel the particular
        solution with zero free variables is returned."""
        span = Span(self._columns())
        if not isinstance(rhs, DenseMatrix):
            assert len(rhs) == self.rows
            return span.coordinates(dict(enumerate(rhs)))
        assert rhs.rows == self.rows
        cols = [span.coordinates(vec) for vec in rhs._columns()]
        return DenseMatrix([[col[i] for col in cols]
                            for i in range(self.cols)], len(cols))

    def inverse(self):
        assert self.rows == self.cols
        X = self.solve(DenseMatrix.identity(self.rows))
        R = self * X - DenseMatrix.identity(self.rows)
        if not R.is_zero():
            raise NoSolution("matrix is singular: " + _residual_witness(
                {(i, j): x for i, row in enumerate(R.entries)
                 for j, x in enumerate(row) if x}))
        return X

    def eval_at(self, u0):
        """Entrywise specialization to Fractions."""
        return [[x.eval_at(u0) for x in row] for row in self.entries]

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.entries) + "]"

    __repr__ = __str__


# ----------------------------------------------------------------------
# the sections as the kernel of their constraint, before the basis was
# read off the weights: the oracle of bundle.sections_basis and, with e
# among the generators, of bundle.holomorphic_sections


def _constraint_rows(weights, generators, n):
    """The stacked linear system expressing the section constraint on the
    level-n block, as sparse rows keyed by unknown index.  Unknowns are
    coefficients c[(r, i, j)]; for each generator x the condition is

        sum_j pi_n(x)_{kj} c[(r, i, j)] = S(x)_r c[(r, i, k)],

    S(x)_r the diagonal action of S(x) on the line r.
    """
    dim_v = len(weights)
    block = n + 1
    unknowns = [(r, i, j) for r in range(dim_v) for i in range(block)
                for j in range(block)]
    col = {u: c for c, u in enumerate(unknowns)}
    mod = repmod.irrep(n)
    rows = []
    for x in generators:
        pi = mod.act(x)
        sx = bundle.diagonal(weights, uea.antipode(x))
        for r in range(dim_v):
            for i in range(block):
                for k in range(block):
                    row = {}
                    for j in range(block):
                        accumulate(row, col[(r, i, j)], pi[k, j])
                    accumulate(row, col[(r, i, k)], -sx[r])
                    if row:
                        rows.append(row)
    return unknowns, rows


def sections_basis(algebra, weights, N, generators):
    """Basis of the solutions up to level N of the constraint for the
    generators, blockwise: the kernel of each level's constraint rows."""
    out = []
    for n in range(N + 1):
        unknowns, rows = _constraint_rows(weights, generators, n)
        for vec in Echelon(rows).kernel(len(unknowns)):
            out.append(bundle.Section(algebra, weights, {
                (r, (n, i, j)): s for (r, i, j), s in zip(unknowns, vec)}))
    return out


# ----------------------------------------------------------------------
# the bundle completion before it was read line by line: a W index found
# by a scan over the lines, every matrix coefficient of W looked up (zero
# across summands), and sums over every line and every W index; the
# oracle of the idempotent e = im . wp, bundle.wp and bundle.im


class Completion:
    """W from the weights alone: the summand V_|m| of line r at
    offsets[r], and line r at v_index[r], the vector of weight m in it."""

    def __init__(self, weights):
        self.weights = tuple(weights)
        self.blocks = [abs(m) for m in self.weights]
        self.offsets = []
        off = 0
        for n in self.blocks:
            self.offsets.append(off)
            off += n + 1
        self.dim_w = off
        self.v_index = [o + (n - m) // 2 for o, n, m in zip(
            self.offsets, self.blocks, self.weights)]

    def block_of(self, beta):
        for r in range(len(self.blocks) - 1, -1, -1):
            if beta >= self.offsets[r]:
                return r, beta - self.offsets[r]
        raise IndexError(beta)

    def coefficient(self, beta, alpha):
        """The matrix coefficient t_{beta alpha} of W: zero across
        distinct summands, a Peter-Weyl basis element within one."""
        rb, ib = self.block_of(beta)
        ra, ja = self.block_of(alpha)
        if rb != ra:
            return coeff.CoeffElement()
        return coeff.basis_element(self.blocks[rb], ib, ja)


def idempotent_matrix(algebra, weights):
    """e_{beta alpha} = sum_r t_{beta, idx(r)} S(t_{idx(r), alpha}) over
    every (beta, alpha, r)."""
    w = Completion(weights)
    e = []
    for beta in range(w.dim_w):
        row = []
        for alpha in range(w.dim_w):
            terms = []
            for idx in w.v_index:
                t1 = w.coefficient(beta, idx)
                t2 = w.coefficient(idx, alpha)
                if not (t1.is_zero() or t2.is_zero()):
                    terms.append(
                        (ONE, algebra.multiply(t1, algebra.antipode(t2))))
            row.append(coeff.CoeffElement().combination(terms))
        e.append(row)
    return e


def wp(algebra, weights, element):
    """w_beta (x) a goes to sum_r v_r (x) S(t_{idx(r), beta}) a, over
    every line r."""
    w = Completion(weights)
    out = {}
    for beta, a in element.coords.items():
        for r, idx in enumerate(w.v_index):
            t = w.coefficient(idx, beta)
            if t.is_zero():
                continue
            for pw, s in algebra.multiply(algebra.antipode(t), a).terms.items():
                accumulate(out, (r, pw), s)
    return bundle.Section(algebra, w.weights, out)


def im(algebra, weights, section):
    """v_r (x) f goes to sum_beta w_beta (x) t_{beta, idx(r)} f, over
    every W index beta."""
    w = Completion(weights)
    out = {}
    for r, f in section.coords.items():
        idx = w.v_index[r]
        for beta in range(w.dim_w):
            t = w.coefficient(beta, idx)
            if t.is_zero():
                continue
            for pw, s in algebra.multiply(t, f).terms.items():
                accumulate(out, (beta, pw), s)
    return coeff.CoeffVector(out)


# ----------------------------------------------------------------------
# the exterior ideal in word space, before it was built degree by degree


@lru_cache(maxsize=None)
def j_echelon(calc, degree):
    """Echelon basis of the degree-n piece of the ideal generated by
    ker sigma_- of the Calculus calc, in word space: one elimination of
    every word prefix k suffix, k in ker sigma_-, over all K^n words; the
    coefficient factor is free.  Its pivots and reductions are the
    oracle of Calculus._normal_words and _normal_form."""
    ech = Echelon()
    kernel = calc._kernel_vectors()
    letters = range(calc.K)
    for i in range(degree - 1):
        for prefix in itertools.product(letters, repeat=i):
            for suffix in itertools.product(letters, repeat=degree - 2 - i):
                for kv in kernel:
                    ech.add({prefix + ab + suffix: s for ab, s in kv.items()})
    return ech


# ----------------------------------------------------------------------
# the braiding split on V (x) V, before it stayed on the multiplicity
# blocks: sigma_+ and sigma_- summed as K^2 x K^2 matrices and checked
# there; sigma_minus.kernel() is the oracle of Calculus._kernel_vectors


class BraidingSplit:
    """The braiding sigma on the invariant forms, split as
    sigma_+ - sigma_- by the sign of each eigenvalue at u = 1, with
    sigma_+ sigma_- = sigma_- sigma_+ = 0.  By Schur's lemma sigma is
    m (x) id on each isotypic component; the eigenvalues of each
    multiplicity block m are found by rank (_signed_power_eigenspaces),
    and sigma_+ and sigma_- are summed from the Lagrange projectors of m."""

    def __init__(self, module, sigma):
        self.module = module
        K = module.dim
        tm = repmod.tensor(module, module)
        self.sigma = sigma
        groups = {}
        for n, inc, prj in repmod.decompose(tm):
            groups.setdefault(n, []).append((inc, prj))
        plus = Matrix.zeros(K * K, K * K)
        minus = Matrix.zeros(K * K, K * K)
        self.eigenvalues = []
        for n, members in sorted(groups.items()):
            r = len(members)
            entries = {}
            for i, (inci, prji) in enumerate(members):
                for j, (incj, prjj) in enumerate(members):
                    block = prji * self.sigma * incj
                    s = block[0, 0]
                    if block != Matrix.identity(n + 1).scale(s):
                        raise AssertionError("braiding block is not scalar")
                    entries[(i, j)] = s
            m = Matrix.sparse(r, r, entries)
            eigen = [(lam, len(basis))
                     for lam, basis in _signed_power_eigenspaces(m)]
            s_plus = Matrix.zeros(r, r)
            s_minus = Matrix.zeros(r, r)
            for lam, mult in eigen:
                proj = Matrix.identity(r)
                for mu, _ in eigen:
                    if mu != lam:
                        proj = proj * (m - Matrix.identity(r).scale(mu)) \
                            .scale(ONE / (lam - mu))
                if eval_at(lam, 1) > 0:
                    s_plus = s_plus + proj.scale(lam)
                else:
                    s_minus = s_minus - proj.scale(lam)
                self.eigenvalues.append((lam, n, mult))
            for i, (inci, prji) in enumerate(members):
                for j, (incj, prjj) in enumerate(members):
                    if s_plus[i, j]:
                        plus = plus + (inci * prjj).scale(s_plus[i, j])
                    if s_minus[i, j]:
                        minus = minus + (inci * prjj).scale(s_minus[i, j])
        self.sigma_plus = plus
        self.sigma_minus = minus
        if self.sigma_plus - self.sigma_minus != self.sigma:
            raise AssertionError("sigma_+ - sigma_- != sigma")
        zero = Matrix.zeros(K * K, K * K)
        if self.sigma_plus * self.sigma_minus != zero:
            raise AssertionError("sigma_+ sigma_- != 0")
        if self.sigma_minus * self.sigma_plus != zero:
            raise AssertionError("sigma_- sigma_+ != 0")
        for g in ("e", "f", "k"):
            mat = getattr(tm, g)
            if self.sigma_plus * mat != mat * self.sigma_plus:
                raise AssertionError("sigma_+ does not commute with %s" % g)
            if self.sigma_minus * mat != mat * self.sigma_minus:
                raise AssertionError("sigma_- does not commute with %s" % g)
        if self.sigma.eval_at(1) != repmod.flip_matrix(K, K).eval_at(1):
            raise AssertionError("sigma at u = 1 is not the flip")


# ----------------------------------------------------------------------
# the per-term loops of the row products, before they summed unreduced
# (scalars.add_row), and the per-entry projection by the rows of e that
# project replaced: each adds x * y into a dict of canonical Scalars term
# by term


def algebra_multiply(algebra, f, g):
    """coeff.Algebra.multiply, one accumulate per basis-product term."""
    out = {}
    for (m, i, j), s in f.terms.items():
        for (n, k, l), t in g.terms.items():
            st = s * t
            for key, c in algebra.basis_product(m, i, j, n, k, l).items():
                accumulate(out, key, st * c)
    algebra.check_window(max((p for (p, r, s) in out), default=0))
    return coeff.CoeffElement(out)


def times_basis(algebra, f, key):
    """f t_key, one accumulate per basis-product term, unchecked against
    the window: the row of the per-entry projection (see project)."""
    out = {}
    for (m, i, j), s in f.terms.items():
        for k, c in algebra.basis_product(m, i, j, *key).items():
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
                for j in range(m.rows):
                    if m[j, t]:
                        accumulate(terms, (n, i, j), x * m[j, t])
    return h


def project(tss, vec):
    """connection.TensoredSectionSpace.project before it applied wp and
    im word by word: coordinate gamma is sum_beta e_{gamma beta} psi_beta,
    e the closed form idempotent_matrix, one accumulate per term of the rows e_{gamma beta} t_key of the
    times_basis oracle, and each (gamma, beta) product is checked word by
    word, so an entry's product may overflow where wp and im do not."""
    degree = tss.degree_of(vec)
    out = []
    for gamma, e_row in enumerate(idempotent_matrix(tss.algebra,
                                                    tss.weights)):
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


def right_linearity(tss, op, tests):
    """TensoredSectionSpace.right_linearity before the space kept its
    section vectors: zeta_j and zeta_j a are built afresh, as plain
    lists, for every pair, so op caches nothing."""
    for j, section in enumerate(tss.sections):
        image = op(tss.from_section(section))
        for a in tests:
            yield (j, a, op(tss.from_section(section.times(a))),
                   tss.right_mult(image, tss.calc.form0(a)))


def perturbation(conn, vec):
    """e . Lambda . vec of a connection with Lambda not None, through
    extend on its form columns and the per-term projection."""
    return project(conn.tss, conn.tss.extend(conn.columns, vec))


def connection_apply(conn, vec):
    """e . (d vec + Lambda vec), with d, Lambda and e applied afresh:
    coordinatewise d, extend on the form columns and the per-term
    projection."""
    tss = conn.tss
    out = [tss.calc.d(w) for w in vec]
    if conn.columns is not None:
        out = tss.add(out, tss.extend(conn.columns, vec))
    return project(tss, out)


# ----------------------------------------------------------------------
# the translation actions on dense coefficient blocks, before they ran
# term by term


def to_blocks(f):
    """{n: the (n+1) x (n+1) Matrix of f's level-n coefficients}."""
    entries = {}
    for (n, i, j), s in f.terms.items():
        entries.setdefault(n, {})[(i, j)] = s
    return {n: Matrix.sparse(n + 1, n + 1, blk)
            for n, blk in entries.items()}


def from_blocks(blocks):
    """The CoeffElement with the given level blocks."""
    return coeff.CoeffElement({(n, i, j): s for n, blk in blocks.items()
                               for (i, j), s in blk.terms.items()})


def circle(x, f):
    """coeff.Algebra.circle on blocks: C goes to C pi_n(x)^T."""
    return from_blocks({n: blk * repmod.irrep(n).act(x).transpose()
                        for n, blk in to_blocks(f).items()})


def dot(x, f):
    """coeff.Algebra.dot on blocks: C goes to pi_n(S^{-1} x)^T C, with
    S^{-1} x from its monomial formula (antipode_inv below), so neither
    uea.antipode_inv nor the Algebra's memo of it enters the oracle."""
    xs = antipode_inv(x)
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
    return Matrix.sparse(dim, dim, {
        (i * m2.dim + j,) * 2: Scalar.u_power(2 * wi * wj)
        for i, wi in enumerate(m1.weights)
        for j, wj in enumerate(m2.weights)})


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
# the Theta^{-1} coefficients, before they were read off the
# q-exponential: the oracle of repmod.theta_inverse_coefficients


def theta_inverse_coefficients(nmax):
    """d_0..d_nmax with Theta^{-1} = sum_n d_n (k^n e^n) (x) (k^{-n} f^n).

    The span of E_n (x) F_n with E_n = k^n e^n, F_n = k^{-n} f^n is
    closed under multiplication, (E_m (x) F_m)(E_n (x) F_n)
    = q^{-2mn} E_{m+n} (x) F_{m+n}, so the inverse is a triangular
    recursion against the expansion of Theta in the same basis."""
    # Theta in the E_n (x) F_n basis: (ke)^n = q^{-n(n-1)/2} k^n e^n and
    # the same factor for (k^{-1}f)^n
    chat = [repmod.theta_coefficient(n) * Scalar.q_power(-n * (n - 1))
            for n in range(nmax + 1)]
    d = [ONE]
    for n in range(1, nmax + 1):
        s = ZERO
        for m in range(n):
            s = s + chat[n - m] * d[m] * Scalar.q_power(-2 * m * (n - m))
        d.append(-s)
    return d


# ----------------------------------------------------------------------
# the antipode and star blocks of T_q, before they were read off the
# Peter-Weyl formulas: one pairing system per level and diagonal class,
# inverted and cached, solved against the pairings with S x and (S x)*.
# The oracle of coeff.Algebra._block


class SolvedBlocks:
    """{(i, j): image of t_ij} per level, solved through the pairing."""

    def __init__(self):
        self._class_inv = {}
        self._blocks = {}

    def _act_entry(self, n, mono, i, j):
        return repmod.irrep(n).act(uea.monomial(*mono))[i, j]

    def _class_solver(self, n, d):
        """Cached inverse of the square pairing system of block n,
        class d (Vandermonde-like in the k-exponent)."""
        cached = self._class_inv.get((n, d))
        if cached is None:
            pairs = [(max(d, 0) + t, max(-d, 0) + t) for t in range(n - abs(d) + 1)]
            monos = [(max(d, 0), b, max(-d, 0)) for b in range(n - abs(d) + 1)]
            m = Matrix.sparse(len(monos), len(pairs), {
                (r, c): self._act_entry(n, mono, i, j)
                for r, mono in enumerate(monos)
                for c, (i, j) in enumerate(pairs)})
            cached = (pairs, monos, m.inverse())
            self._class_inv[(n, d)] = cached
        return cached

    def _solve_in_class(self, n, d, value_fn):
        """The unique level-n class-d combination of t's with the given
        pairings against the class monomial family: the inverse applied
        to the pairings column by column as one unreduced sum
        (scalars.add_row), cancelled once per coefficient."""
        pairs, monos, inv = self._class_solver(n, d)
        columns = inv.transpose()
        acc = {}
        for t, mono in enumerate(monos):
            val = value_fn(mono)
            if val:
                add_row(acc, [((n,) + pairs[r], x) for r, x in columns.row(t)],
                        val)
        return finish_sum(acc)

    def block(self, n, star):
        """{(i, j): image of t_ij} at level n under the antipode, or
        under the star when star is set; both keep the level.
        S(t_ij)(x) = t_ij(S x) lies in the class i - j of t_ij, and
        t_ij*(x) = conj t_ij((S x)*) in the class j - i, since (S mono)*
        reverses the class; conjugation fixes Scalars."""
        block = self._blocks.get((n, star))
        if block is None:
            mod = repmod.irrep(n)

            def value(mono, i, j):
                x = uea.antipode(uea.monomial(*mono))
                if star:
                    return mod.act(uea.star(x))[i, j].conj()
                return mod.act(x)[i, j]

            block = {}
            for i in range(n + 1):
                for j in range(n + 1):
                    block[(i, j)] = coeff.CoeffElement(self._solve_in_class(
                        n, j - i if star else i - j,
                        lambda mono, i=i, j=j: value(mono, i, j)))
            self._blocks[(n, star)] = block
        return block


# ----------------------------------------------------------------------
# S^{-1} and the coproduct of U_q, before S^{-1} became * S * and the
# coproduct of a monomial a product with D(f) or D(e) off its memo: the
# oracles of uea.antipode_inv and uea._delta_mono

_ANTIPODE_INV_MEMO = {}


def _antipode_inv_mono(m):
    cached = _ANTIPODE_INV_MEMO.get(m)
    if cached is not None:
        return cached
    a, b, c = m
    # S^{-1} is an anti-homomorphism: S^{-1}(f^a k^b e^c)
    # = S^{-1}(e)^c S^{-1}(k)^b S^{-1}(f)^a with S^{-1}(e) = -q^{-1} e,
    # S^{-1}(f) = -q f
    sgn = Scalar.q_power(a - c)
    if (a + c) % 2:
        sgn = -sgn
    out = (uea.monomial(0, 0, c) * uea.monomial(0, -b, 0)
           * uea.monomial(a, 0, 0)).scale(sgn)
    _ANTIPODE_INV_MEMO[m] = out
    return out


def antipode_inv(x):
    acc = uea.UEAElement()
    for m, s in x.terms.items():
        acc = acc + _antipode_inv_mono(m).scale(s)
    return acc


_DELTA_E_POW = {0: uea.TensorUEA({((0, 0, 0), (0, 0, 0)): ONE})}
_DELTA_F_POW = {0: uea.TensorUEA({((0, 0, 0), (0, 0, 0)): ONE})}
_DELTA_MONO = {}


def delta_mono(m):
    """D(f^a k^b e^c) = D(f)^a (k^b (x) k^b) D(e)^c, the powers memoised."""
    cached = _DELTA_MONO.get(m)
    if cached is not None:
        return cached
    a, b, c = m
    if a not in _DELTA_F_POW:
        _DELTA_F_POW[a] = _delta_power(_DELTA_F_POW, uea._DELTA_F, a)
    if c not in _DELTA_E_POW:
        _DELTA_E_POW[c] = _delta_power(_DELTA_E_POW, uea._DELTA_E, c)
    kk = uea.TensorUEA({((0, b, 0), (0, b, 0)): ONE})
    out = _DELTA_F_POW[a] * kk * _DELTA_E_POW[c]
    _DELTA_MONO[m] = out
    return out


def _delta_power(memo, base, n):
    top = max(i for i in memo if i <= n)
    acc = memo[top]
    for i in range(top + 1, n + 1):
        acc = acc * base
        memo[i] = acc
    return memo[n]


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
