"""Finite-dimensional U_q(sl2) modules: irreps, tensor products,
decomposition into irreducibles, and the Theta series of the R-matrix.

A Module stores exact matrices for the generators and verifies the
defining relations at construction.  The irreducible V_n (n >= 0) has
basis w_0, ..., w_n with

    k w_j = u^{2(n-2j)} w_j,   e w_j = [j] w_{j-1},   f w_j = [n-j] w_{j+1},

so w_0 is the highest-weight vector and all structure constants are
balanced q-integers.  Tensor products act through the coproduct.

The R-matrix on a pair of weight modules is the Cartan factor

    C (w (x) w') = u^{2 m m'} w (x) w'      (weights m, m')

times a finite unipotent series

    Theta = sum_n  c_n  (k e)^n (x) (k^{-1} f)^n,

    c_n = (q - q^{-1})^n q^{n(n-3)/2} / [n]!

The coefficients are forced by quasi-triangularity for the k-balanced
coproduct: R D(x) = D^op(x) R has a unique solution of this shape with
c_0 = 1.  The L-operators of the calculus read c_n and the coefficients
of Theta^{-1}; the tests build R from them and re-derive c_n from that
linear system.
"""

from .scalars import Scalar, Matrix, ZERO, ONE, qint, NoSolution


class DecompositionError(Exception):
    pass


_QPOW = Scalar.q_power
_UPOW = Scalar.u_power
_QDIFF = _QPOW(1) - _QPOW(-1)


class Module:
    """A finite-dimensional left U_q(sl2) module with exact action
    matrices.  The defining relations are checked at construction."""

    def __init__(self, e, f, k):
        self.dim = e.rows
        self.e = e
        self.f = f
        self.k = k
        self.k_inv = k.inverse()
        self._verify_relations()
        self.weights = self._diagonal_weights()
        self._pows = {}
        self._monos = {}
        self._acts = {}
        self._zero = None

    def _verify_relations(self):
        e, f, k, k_inv = self.e, self.f, self.k, self.k_inv
        q = _QPOW(1)
        if k * e * k_inv != e.scale(q):
            raise AssertionError("k e k^{-1} != q e")
        if k * f * k_inv != f.scale(_QPOW(-1)):
            raise AssertionError("k f k^{-1} != q^{-1} f")
        lhs = e * f - f * e
        rhs = (k * k - k_inv * k_inv).scale(ONE / _QDIFF)
        if lhs != rhs:
            raise AssertionError("e f - f e != (k^2 - k^{-2})/(q - q^{-1})")

    def _diagonal_weights(self):
        """The weight m of each basis vector when k is diagonal and each
        diagonal entry reads (1, 2m) as a monomial (Scalar.monomial), so
        is u^{2m}; otherwise None."""
        if any(i != j for i, j in self.k.terms):
            return None
        ws = []
        for i in range(self.dim):
            mono = self.k[i, i].monomial()
            if mono is None or mono[0] != 1 or mono[1] % 2:
                return None
            ws.append(mono[1] // 2)
        return ws

    def _power(self, which, n):
        mats = self._pows.setdefault(which, [Matrix.identity(self.dim)])
        base = {"e": self.e, "f": self.f, "k": self.k, "K": self.k_inv}[which]
        while len(mats) <= n:
            mats.append(mats[-1] * base)
        return mats[n]

    def act(self, x):
        """The matrix of a UEAElement on this module, memoised per module
        by the element (UEAElements hash by value); every element acting
        as zero shares one zero matrix.  The matrix is shared between
        callers, which is safe as no Matrix changes after it is built.
        A new element costs no matrix product when its PBW monomials
        have acted before (see _monomial)."""
        mat = self._acts.get(x)
        if mat is None:
            mat = self._act(x)
            if mat.is_zero():
                if self._zero is None:
                    self._zero = mat
                mat = self._zero
            self._acts[x] = mat
        return mat

    def _monomial(self, mono):
        """The matrix of the PBW monomial f^a k^b e^c, built once per
        module from the cached generator powers."""
        m = self._monos.get(mono)
        if m is None:
            a, b, c = mono
            m = self._power("f", a)
            m = m * (self._power("k", b) if b >= 0 else self._power("K", -b))
            m = m * self._power("e", c)
            self._monos[mono] = m
        return m

    def _act(self, x):
        """The matrix of x, sum s pi(m) over its terms s m."""
        return Matrix.zeros(self.dim, self.dim).combination(
            (s, self._monomial(mono)) for mono, s in x.terms.items())


def intertwine(source, target, mat):
    """mat, certified as a linear map from the module source to the
    module target that intertwines e, f and k."""
    assert mat.cols == source.dim and mat.rows == target.dim
    for g in ("e", "f", "k"):
        if mat * getattr(source, g) != getattr(target, g) * mat:
            raise AssertionError("not an intertwiner (fails on %s)" % g)
    return mat


_IRREPS = {}


def irrep(n):
    """The (n+1)-dimensional irreducible with highest weight n."""
    assert n >= 0
    cached = _IRREPS.get(n)
    if cached is not None:
        return cached
    dim = n + 1
    e = {(j - 1, j): qint(j) for j in range(1, dim)}
    f = {(j + 1, j): qint(n - j) for j in range(n)}
    k = {(j, j): _UPOW(2 * (n - 2 * j)) for j in range(dim)}
    mod = Module(*(Matrix.sparse(dim, dim, t) for t in (e, f, k)))
    _IRREPS[n] = mod
    return mod


def tensor(m1, m2):
    """Tensor product module, acting through the coproduct
    D(e) = e (x) k + k^{-1} (x) e (and likewise f); basis index
    (i, j) -> i * m2.dim + j."""
    e = m1.e.tensor(m2.k) + m1.k_inv.tensor(m2.e)
    f = m1.f.tensor(m2.k) + m1.k_inv.tensor(m2.f)
    k = m1.k.tensor(m2.k)
    return Module(e, f, k)


def decompose(mod):
    """Decompose a module with diagonal k-action into irreducibles.

    Returns a list of (n, inclusion, projection) triples of Matrices,
    each certified by intertwine, with sum(incl . proj) = id; multiple
    triples share n when V_n has multiplicity.  Raises
    DecompositionError if the module is not a direct sum of irreps V_n."""
    if mod.weights is None:
        raise DecompositionError("k-action is not diagonal with u^{2m} entries")
    chains = []  # (n, [chain vectors])
    for m in sorted(set(mod.weights), reverse=True):
        idx = [i for i, w in enumerate(mod.weights) if w == m]
        place = {i: c for c, i in enumerate(idx)}
        # highest-weight vectors of weight m: kernel of e restricted to
        # the weight space
        sub = Matrix.sparse(mod.dim, len(idx), {
            (r, place[i]): x for (r, i), x in mod.e.terms.items()
            if i in place})
        for coords in sub.kernel():
            if m < 0:
                raise DecompositionError("highest-weight vector of negative weight")
            v = [ZERO] * mod.dim
            for col, i in enumerate(idx):
                v[i] = coords[col]
            chain = [v]
            for j in range(m):
                nxt = mod.f.apply(chain[-1])
                co = ONE / qint(m - j)
                chain.append([co * t for t in nxt])
            # f must kill the lowest-weight vector
            bottom = mod.f.apply(chain[-1])
            if any(bottom):
                raise DecompositionError("lowest-weight vector not annihilated by f")
            chains.append((m, chain))
    total = sum(n + 1 for n, _ in chains)
    if total != mod.dim:
        raise DecompositionError("weight chains do not span (dim %d of %d)" % (total, mod.dim))
    # stack the chains as columns and invert for the projections
    columns = [v for _, chain in chains for v in chain]
    basis = Matrix.sparse(mod.dim, mod.dim, {
        (r, c): x for c, v in enumerate(columns) for r, x in enumerate(v)})
    try:
        inv = basis.inverse()
    except NoSolution:
        raise DecompositionError("weight chains are linearly dependent")
    out = []
    row = 0
    for n, chain in chains:
        vn = irrep(n)
        inc = Matrix.sparse(mod.dim, n + 1, {
            (r, j): x for j, v in enumerate(chain) for r, x in enumerate(v)})
        prj = Matrix.sparse(n + 1, mod.dim, {
            (j, r): x for j in range(n + 1)
            for r, x in inv.row(row + j)})
        out.append((n, intertwine(vn, mod, inc), intertwine(mod, vn, prj)))
        row += n + 1
    return out


# ----------------------------------------------------------------------
# the Theta series of the R-matrix

def theta_coefficient(n):
    """c_n in Theta = sum_n c_n (ke)^n (x) (k^{-1}f)^n."""
    acc = ONE
    for j in range(1, n + 1):
        acc = acc * _QDIFF * _QPOW(j - 2) / qint(j)
    return acc


def theta_inverse_coefficients(nmax):
    """d_0..d_nmax with Theta^{-1} = sum_n d_n (k^n e^n) (x) (k^{-n} f^n).

    The products X_n = k^n e^n (x) k^{-n} f^n multiply as X_m X_n =
    q^{-2mn} X_{m+n}, so z_n = q^{-n^2} X_n is the n-th power of z_1.
    In z_1, Theta is the q-exponential sum_n q^{n(n-1)/2} (w z_1)^n / [n]!
    with w = q - q^{-1}, and its inverse is the q^{-1}-exponential of
    -w z_1, which reads d_n = (-1)^n q^{-2n(n-1)} c_n."""
    d = []
    for n in range(nmax + 1):
        s = theta_coefficient(n) * _QPOW(-2 * n * (n - 1))
        d.append(-s if n % 2 else s)
    return d


def flip_matrix(d1, d2):
    """The flip V1 (x) V2 -> V2 (x) V1 on tensor-basis indices."""
    return Matrix.sparse(d1 * d2, d1 * d2, {
        (j * d1 + i, i * d2 + j): ONE for i in range(d1) for j in range(d2)})
