"""The coefficient Hopf algebra T_q of U_q(sl2) in the Peter-Weyl basis.

T_q is spanned by the matrix coefficients t^{(n)}_{ij} of the
irreducibles V_n, paired with U_q by

    < t^{(n)}_{ij}, x > = (matrix of x on V_n)_{ij}.

Elements are maps (n, i, j) -> Scalar.  Products are computed through
the dual pairing, (fg)(x) = sum f(x_(1)) g(x_(2)), and re-expanded in
the basis using the exact Clebsch-Gordan embeddings from
repmod.decompose; the coproduct, counit, antipode, star, the two
translation actions, and the Haar functional all land back in the
basis.  The translations read the action matrices pi_n(x) that
repmod.Module.act memoises per process, by row or by column as each
needs, and the left one reads S^{-1} x from a memo on the Algebra, so
no transposed matrix and no second S^{-1} x is built.  The coproduct
is a CoeffTensor, the scalars.Tensor keyed by pairs of Peter-Weyl
keys, D t_{ij} = sum_k t_{ik} (x) t_{kj}, as the coproduct of U_q is a
uea.TensorUEA.

Every algebra carries a level window n_max; any operation that would
produce a nonzero coefficient beyond the window raises LevelOverflow
instead of truncating.

The antipode and the star are read off the Peter-Weyl basis by the
formulas of Klimyk and Schmuedgen (1997); see Algebra._block.

The pairing respects the "diagonal class" d = i - j: t^{(n)}_{ij}
pairs nonzero with the PBW monomial f^a k^b e^c only when a - c =
i - j.  The nondegeneracy certificate (PairingTable) is therefore a
per-class column rank computation, certified by the rank of an Echelon
over F_p (scalars.rank_lower_bound) with the exact rank over Q(u) as its
fallback.
"""

from .scalars import (Scalar, Matrix, ZERO, ONE, qint, accumulate, add_row,
                      finish_sum, format_terms, rank_lower_bound, LinComb,
                      Tensor)
from . import uea, repmod


class LevelOverflow(Exception):
    """An exact result has a nonzero coefficient beyond the configured
    level window (the operation was not performed approximately)."""


class CoeffElement(LinComb):
    """A finite Scalar-linear combination of Peter-Weyl coefficients."""

    __slots__ = ()

    @property
    def level(self):
        return max((n for (n, i, j) in self.terms), default=0)

    def __str__(self):
        return format_terms(self.terms, lambda key: "1" if key == (0, 0, 0)
                            else "t[%d;%d,%d]" % key)

    __repr__ = __str__


class CoeffTensor(Tensor):
    """An element of T_q (x) T_q keyed by pairs of Peter-Weyl keys."""

    __slots__ = ()
    leg = CoeffElement


class CoeffVector(LinComb):
    """A vector with entries in T_q: terms map (index, Peter-Weyl key) to
    nonzero Scalars.  The index is a word for a form, a weight line for
    a section, and a W basis index for an element of W (x) E_q."""

    __slots__ = ()

    @property
    def coords(self):
        """The terms grouped by index: {index: CoeffElement}."""
        out = {}
        for (i, pw), s in self.terms.items():
            out.setdefault(i, {})[pw] = s
        return {i: CoeffElement._of(t) for i, t in out.items()}

    @property
    def level(self):
        return max((pw[0] for _, pw in self.terms), default=0)

    def map(self, fn):
        """The vector with fn applied to every nonzero entry."""
        return self._new({(i, pw): s for i, f in self.coords.items()
                          for pw, s in fn(f).terms.items()})


def unit():
    return CoeffElement._of({(0, 0, 0): ONE})


def basis_element(n, i, j, coeff=ONE):
    assert 0 <= i <= n and 0 <= j <= n
    return CoeffElement._of({(n, i, j): coeff} if coeff else {})


def _class_monomials(d, N):
    """PBW monomials of diagonal class a - c = d used for separating
    Peter-Weyl columns up to level N."""
    out = []
    for t in range(N - abs(d) + 1):
        a = max(d, 0) + t
        c = max(-d, 0) + t
        for b in range(N + 1):
            out.append((a, b, c))
    return out


class PairingTable:
    """Evaluation matrix of Peter-Weyl basis elements (level <= N)
    against the per-class PBW monomial families; certifies that
    evaluation separates the basis (full column rank per class, each
    rank computed once).

    A class whose rank mod p, the rank of an Echelon over F_p
    (scalars.rank_lower_bound), is its column count records that count:
    the rank over Q(u) is at least the rank mod p, so it is exact, and no
    Q(u) elimination runs.  Any other class, rank deficient or not
    certified at that point, records the exact Matrix.rank."""

    def __init__(self, N):
        self.N = N
        self.columns = {}
        self.monomials = {}
        self.matrix = {}
        self.ranks = {}
        for d in range(-N, N + 1):
            cols = [
                (n, i, i - d)
                for n in range(abs(d), N + 1)
                for i in range(max(d, 0), n + min(d, 0) + 1)
            ]
            if not cols:
                continue
            monos = _class_monomials(d, N)
            xs = [uea.monomial(*mono) for mono in monos]
            m = Matrix.sparse(len(monos), len(cols), {
                (r, c): repmod.irrep(n).act(x)[i, j]
                for r, x in enumerate(xs) for c, (n, i, j) in enumerate(cols)})
            self.columns[d] = cols
            self.monomials[d] = monos
            self.matrix[d] = m
            self.ranks[d] = (m.cols if rank_lower_bound(m) == m.cols
                             else m.rank())

    def certify(self):
        for d, m in self.matrix.items():
            if self.ranks[d] != m.cols:
                raise AssertionError(
                    "pairing table rank deficiency in class d=%d (rank %d of %d)"
                    % (d, self.ranks[d], m.cols)
                )
        return True


class Algebra:
    """T_q with a level window n_max and all derived tables cached.  The
    tables depend on the window alone, so `qhvb verify` builds one
    Algebra per window and process and every run at that window reads
    it; a caller that writes into a table builds its own Algebra."""

    def __init__(self, n_max=6):
        assert n_max >= 2
        self.n_max = n_max
        self._cg = {}
        self._pair_prod = {}
        self._blocks = {}
        self._pairing_tables = {}
        self._antipode_inv = {}

    # -- pairing ------------------------------------------------------

    def eval(self, f, x):
        """The dual pairing <f, x>."""
        acc = ZERO
        for (n, i, j), s in f.terms.items():
            mod = repmod.irrep(n)
            for mono, c in x.terms.items():
                acc = acc + s * c * mod.act(uea.monomial(*mono))[i, j]
        return acc

    def pairing_table(self, N):
        table = self._pairing_tables.get(N)
        if table is None:
            table = PairingTable(N)
            table.certify()
            self._pairing_tables[N] = table
        return table

    # -- multiplication ------------------------------------------------

    def _cg_data(self, m, n):
        data = self._cg.get((m, n))
        if data is None:
            data = repmod.decompose(
                repmod.tensor(repmod.irrep(m), repmod.irrep(n)))
            self._cg[(m, n)] = data
        return data

    def basis_product(self, m, i, j, n, k, l):
        """t^{(m)}_{ij} t^{(n)}_{kl} in the Peter-Weyl basis: since
        (fg)(x) = (f (x) g)(D x) and (pi_m (x) pi_n)(D x) decomposes by
        Clebsch-Gordan, the product re-expands through the embeddings."""
        key = (m, i, j, n, k, l)
        out = self._pair_prod.get(key)
        if out is None:
            out = {}
            row = i * (n + 1) + k
            col = j * (n + 1) + l
            for p, inc, prj in self._cg_data(m, n):
                for r in range(p + 1):
                    left = inc[row, r]
                    if not left:
                        continue
                    for s in range(p + 1):
                        accumulate(out, (p, r, s), left * prj[s, col])
            self._pair_prod[key] = out
        return out

    def product_terms(self, f, g):
        """f g in the Peter-Weyl basis as an unreduced sum (see
        scalars.add_row), checked against the window: each pair of terms
        applies its basis product as one row.  The one coefficient
        product; multiply finishes it."""
        out = {}
        for (m, i, j), s in f.terms.items():
            for (n, k, l), t in g.terms.items():
                add_row(out, self.basis_product(m, i, j, n, k, l).items(),
                        s, t)
        self.check_sum(out)
        return out

    def multiply(self, f, g):
        """f g in the Peter-Weyl basis: product_terms, cancelled once per
        entry."""
        return CoeffElement._of(finish_sum(self.product_terms(f, g)))

    def check_window(self, level):
        """LevelOverflow when an exact product has a nonzero coefficient
        at this level beyond the window."""
        if level > self.n_max:
            raise LevelOverflow(
                "product needs level %d beyond the coefficient window %d"
                % (level, self.n_max)
            )

    def check_sum(self, terms):
        """check_window on the highest level of an unreduced sum over
        Peter-Weyl keys (see product_terms) with a nonzero numerator."""
        self.check_window(max((n for (n, _, _), (num, _) in terms.items()
                               if num), default=0))

    # -- coalgebra ------------------------------------------------------

    def coproduct(self, f):
        """D t_{ij} = sum_k t_{ik} (x) t_{kj}."""
        return CoeffTensor._of({((n, i, k), (n, k, j)): s
                                for (n, i, j), s in f.terms.items()
                                for k in range(n + 1)})

    def counit(self, f):
        acc = ZERO
        for (n, i, j), s in f.terms.items():
            if i == j:
                acc = acc + s
        return acc

    def _block(self, n, star):
        """{(i, j): image of t_ij} at level n under the antipode, or
        under the star when star is set (Klimyk and Schmuedgen 1997):

            S(t_ij) = (-q)^{j-i} [n i] / [n j] t_{n-j,n-i},
            t_ij*   = (-q)^{i-j} t_{n-i,n-j},

        with [n i] the balanced q-binomial.  Both keep the level; a
        level beyond the window raises LevelOverflow before the block
        is built."""
        block = self._blocks.get((n, star))
        if block is None:
            self.check_window(n)
            binom = [ONE]
            for i in range(1, n + 1):
                binom.append(binom[-1] * qint(n + 1 - i) / qint(i))
            block = {}
            for i in range(n + 1):
                for j in range(n + 1):
                    s = Scalar.q_power(i - j if star else j - i)
                    s = -s if (i - j) % 2 else s
                    block[(i, j)] = (basis_element(n, n - i, n - j, s) if star
                                     else basis_element(n, n - j, n - i,
                                                        s * binom[i] / binom[j]))
            self._blocks[(n, star)] = block
        return block

    def antipode(self, f):
        return CoeffElement().combination(
            (s, self._block(n, False)[(i, j)])
            for (n, i, j), s in f.terms.items())

    def star(self, f):
        return CoeffElement().combination(
            (s.conj(), self._block(n, True)[(i, j)])
            for (n, i, j), s in f.terms.items())

    # -- translation actions ---------------------------------------------

    def circle(self, x, f):
        """Right translation: x o f = sum f_(1) <f_(2), x>.  On the level-n
        block of coefficients C it is C pi_n(x)^T, so each term s t_ij
        adds s pi_n(x)_kj at (n, i, k), read off column j of the memoised
        action matrix (repmod.Module.act, looked up once per level of f),
        which groups its columns once and builds no transpose."""
        acts = {}
        out = {}
        for (n, i, j), s in f.terms.items():
            act = acts.get(n)
            if act is None:
                act = acts[n] = repmod.irrep(n).act(x)
            for k, y in act.col(j):
                accumulate(out, (n, i, k), s * y)
        return f._new(out)

    def dot(self, x, f):
        """Left translation: x . f = sum <f_(1), S^{-1}(x)> f_(2).  On the
        level-n block C it is pi_n(S^{-1} x)^T C, so each term s t_ij adds
        s pi_n(S^{-1} x)_ik at (n, k, j), read off row i of the memoised
        action matrix as in circle.  S^{-1} x is computed once per element
        and window (_antipode_inv)."""
        inv = self._antipode_inv.get(x)
        if inv is None:
            inv = self._antipode_inv[x] = uea.antipode_inv(x)
        acts = {}
        out = {}
        for (n, i, j), s in f.terms.items():
            act = acts.get(n)
            if act is None:
                act = acts[n] = repmod.irrep(n).act(inv)
            for k, y in act.row(i):
                accumulate(out, (n, k, j), s * y)
        return f._new(out)

    # -- Haar functional -------------------------------------------------

    def haar(self, f):
        """The normalized invariant functional: the level-0 coefficient."""
        return f.terms.get((0, 0, 0), ZERO)

    def haar_norm_sq(self, f):
        return self.haar(self.multiply(self.star(f), f))
