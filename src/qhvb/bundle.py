"""Quantum homogeneous vector bundles over the Podles sphere.

A finite-dimensional module V over the Cartan subalgebra U_l is its
tuple of integer weights m, the generator k acting by u^{2m} on the line
of weight m (diagonal); every function here takes V as those weights.
Its sections form the right E_q-module

    H_q(V) = { zeta in V (x) T_q : x o zeta = (S(x) (x) id) zeta
                                   for all x in U_l },

read off the weights: k acts diagonally on both sides, so a basis is
the Peter-Weyl coefficients whose column weight matches a line of V
(sections_basis).  Completing V into a genuine U_q-module W (one
irreducible summand per weight entry, smallest highest weight, no
sharing) yields mutually inverse right-module maps

    wp(w_beta (x) a) = sum_r  v_r (x) S(t_{idx(r), beta}) a
    im(zeta)         = sum_{r, beta}  w_beta (x) t_{beta, idx(r)} f_r

whose composite e = im . wp is an explicit idempotent exhibiting the
sections as a finite-type projective module.  t_{beta, idx(r)} vanishes
unless beta lies in line r's own summand, so wp and im touch that
summand alone and e is block diagonal, the direct sum of the line
idempotents (Completion).  The Podles sphere E_q
itself is H_q of the trivial line V = (0,) (see `homspace.invariants`),
and the idempotent reads the E_q of its domain off the same basis.
Sections and elements of W (x) E_q are both coeff.CoeffVectors,
LinCombs whose terms map (index, Peter-Weyl key) to Scalars, the index
a weight line of V or a W basis index beta.

Holomorphic sections impose the constraint for the raising generator
as well; V extends to the parabolic subalgebra by letting it act as
zero (weight lines and their direct sums).  The surviving space carries
the left translation action and is checked irreducible (or zero) by
decomposing the resulting module.
"""

from .scalars import (Scalar, Echelon, Span, LinComb, ONE, ZERO,
                      NoSolution, accumulate)
from . import uea, repmod, coeff

_UPOW = Scalar.u_power


def diagonal(weights, x):
    """The action of a UEAElement on the U_l-module with these weights,
    one Scalar per weight line: monomials containing e or f act by zero
    and k^b by u^{2mb} on a line of weight m, so every element acts
    diagonally."""
    powers = [(b, s) for (a, b, c), s in x.terms.items() if not (a or c)]
    return [sum((s * _UPOW(2 * m * b) for b, s in powers), ZERO)
            for m in weights]


def simple_tensor(beta, f):
    """The element w_beta (x) f of W (x) E_q."""
    return coeff.CoeffVector({(beta, pw): s for pw, s in f.terms.items()})


class Section(coeff.CoeffVector):
    """An element of V (x) T_q satisfying the defining constraint
    x o zeta = (S(x) (x) id) zeta for the Cartan generators; V is given
    by its weights, and the index of a term is the weight line r of V."""

    __slots__ = ("algebra", "weights")

    def __init__(self, algebra, weights, terms=None, check=True):
        coeff.CoeffVector.__init__(self, terms)
        self.algebra = algebra
        self.weights = tuple(weights)
        if check and not self.satisfies_constraint((uea.K, uea.K_INV)):
            raise AssertionError("components violate the section constraint")

    def _new(self, terms):
        return Section(self.algebra, self.weights, terms, check=False)

    def satisfies_constraint(self, generators):
        for x in generators:
            sx = diagonal(self.weights, uea.antipode(x))
            want = {}
            for (r, pw), s in self.terms.items():
                accumulate(want, (r, pw), sx[r] * s)
            if self.map(lambda f: self.algebra.circle(x, f)).terms != want:
                return False
        return True

    def times(self, a):
        """Right action of an invariant element."""
        return self.map(lambda f: self.algebra.multiply(f, a))

    def dot(self, x):
        """Left translation of a UEAElement, componentwise."""
        return self.map(lambda f: self.algebra.dot(x, f))

    def __eq__(self, other):
        # sections over equal weights are elements of one module
        return (LinComb.__eq__(self, other)
                and self.weights == other.weights)


def sections_basis(algebra, weights, N):
    """Basis of the sections up to Peter-Weyl level N.  k acts on
    t[n;i,j] by u^{2(n-2j)} and S(k) on a line of weight m by u^{-2m},
    so the sections are the coefficients t[n;i,j] of the line r with
    j = (n+m_r)/2 when that is an admissible integer: (n+1) per matching
    line and level (sections_count), in the order n, r, i.  The constraint solve of
    tests/oracles.py is the oracle.  LevelOverflow when N is beyond the
    coefficient window."""
    if N > algebra.n_max:
        raise coeff.LevelOverflow("sections of level %d beyond the "
                                  "coefficient window %d" % (N, algebra.n_max))
    weights = tuple(weights)
    out = []
    for n in range(N + 1):
        for r, m in enumerate(weights):
            if (n + m) % 2 == 0 and abs(m) <= n:
                j = (n + m) // 2
                out.extend(Section(algebra, weights, {(r, (n, i, j)): ONE})
                           for i in range(n + 1))
    return out


def sections_count(weights, N):
    """The weight-multiplicity count of the sections up to level N: a
    line of weight m has n + 1 at each level |m| <= n <= N, n = m mod 2."""
    return sum(n + 1 for m in weights for n in range(N + 1)
               if n >= abs(m) and (n - m) % 2 == 0)


class Completion:
    """A U_q-module W containing V as a U_l-submodule, as index
    arithmetic: one irreducible summand V_n, n = |m|, per weight entry
    m, at offsets[r] in W; line_of[beta] is the line whose summand
    holds w_beta.  Line r includes as w_j of its summand with
    j = (n - m)/2, which has weight n - 2j = m (see repmod.irrep); each
    line takes its own summand, so the inclusion is injective and keeps
    the weights, and a matrix coefficient t_{beta alpha} of W vanishes
    unless beta and alpha lie in one summand."""

    def __init__(self, weights):
        self.weights = tuple(weights)
        self.blocks = [abs(m) for m in self.weights]
        self.offsets = []
        self.line_of = []
        for r, n in enumerate(self.blocks):
            self.offsets.append(len(self.line_of))
            self.line_of.extend([r] * (n + 1))
        self.dim_w = len(self.line_of)

    def summand(self, r):
        """(n, offset, j): line r is w_j of the summand V_n at offset."""
        n = self.blocks[r]
        return n, self.offsets[r], (n - self.weights[r]) // 2


def idempotent_matrix(algebra, completion):
    """The coefficient matrix of the bundle idempotent on W, as rows of
    CoeffElements:

        e_{beta alpha} = sum_r t_{beta, idx(r)} S(t_{idx(r), alpha}),

    idx(r) the index of line r in W.  Only line r's own summand meets
    idx(r), so e is block diagonal: on the summand V_n of line r, with
    idx(r) = w_j, the entry (i, k) is t^(n)_{ij} S(t^(n)_{jk})."""
    dim = completion.dim_w
    e = [[coeff.CoeffElement() for _ in range(dim)] for _ in range(dim)]
    for r in range(len(completion.weights)):
        n, off, j = completion.summand(r)
        for i in range(n + 1):
            for k in range(n + 1):
                e[off + i][off + k] = algebra.multiply(
                    coeff.basis_element(n, i, j),
                    algebra.antipode(coeff.basis_element(n, j, k)))
    return e


def wp(algebra, completion, element):
    """The map from W (x) E_q onto the sections: w_beta (x) a goes to
    sum_r v_r (x) S(t_{idx(r), beta}) a, whose one term is the line r
    of beta's summand."""
    out = {}
    for beta, a in element.coords.items():
        r = completion.line_of[beta]
        n, off, j = completion.summand(r)
        t = algebra.antipode(coeff.basis_element(n, j, beta - off))
        for pw, s in algebra.multiply(t, a).terms.items():
            accumulate(out, (r, pw), s)
    return Section(algebra, completion.weights, out)


def im(algebra, completion, section):
    """The map from sections into W (x) E_q: v_r (x) f goes to
    sum_beta w_beta (x) t_{beta, idx(r)} f over the beta of line r's
    summand.  The E_q legs of the image are invariant because the
    coefficient column weight cancels the section weight."""
    out = {}
    for r, f in section.coords.items():
        n, off, j = completion.summand(r)
        for i in range(n + 1):
            t = coeff.basis_element(n, i, j)
            for pw, s in algebra.multiply(t, f).terms.items():
                accumulate(out, (off + i, pw), s)
    return coeff.CoeffVector(out)


class BundleIdempotent:
    """The composite e = im . wp on W (x) (E_q up to level N), stored
    columnwise on the product basis w_beta (x) f.  e^2 = e is certified
    by applying e to each column image; the rank is compared with
    sections_dim, the sum over the weight lines m of their sections_count
    up to level N + |m|.  matched_level is N + |m| when every line has
    the same |m|, and None otherwise."""

    def __init__(self, algebra, weights, N):
        self.algebra = algebra
        self.completion = Completion(weights)
        self.weights = self.completion.weights
        self.N = N
        # a summand beyond the window overflows before any solve; the
        # domain alone has dim_w times |E_q| pairs
        for n in self.completion.blocks:
            algebra.check_window(n)
        # E_q up to level N: the sections of the trivial line
        inv = [s.coords[0] for s in sections_basis(algebra, (0,), N)]
        self.domain = [(beta, f) for beta in range(self.completion.dim_w)
                       for f in inv]
        self.columns = []
        for beta, f in self.domain:
            image = self.apply(simple_tensor(beta, f))
            self.columns.append(image)
            if self.apply(image) != image:
                raise AssertionError("e^2 != e on column (%d, %s)" % (beta, f))
        ech = Echelon()
        for image in self.columns:
            ech.add(image.terms)
        self.rank = ech.rank
        levels = set(self.completion.blocks)
        self.matched_level = N + max(levels) if len(levels) == 1 else None
        self.sections_dim = sum(
            sections_count([m], N + level)
            for m, level in zip(self.weights, self.completion.blocks))

    def apply(self, element):
        return im(self.algebra, self.completion,
                  wp(self.algebra, self.completion, element))


def idempotent(algebra, weights, N):
    return BundleIdempotent(algebra, weights, N)


def holomorphic_sections(algebra, weights, N):
    """The sections that satisfy the constraint for the raising generator
    e as well (e acts by zero on V).  e takes t[n;i,j] to [j] t[n;i,j-1],
    so among the basis sections exactly those with j = 0 remain."""
    return [s for s in sections_basis(algebra, weights, N)
            if s.satisfies_constraint((uea.E,))]


def dot_module(algebra, sections):
    """The left translation action on a span of sections, as an exact
    module: the action matrices of e, f, k are solved in the span (the
    module relations are then verified by the Module constructor), and
    the decomposition exhibits its irreducible summands."""
    if not sections:
        return None, []
    span = Span([s.terms for s in sections])

    def action_matrix(x):
        try:
            return span.coordinate_matrix([s.dot(x).terms for s in sections])
        except NoSolution:
            raise AssertionError("translation leaves the span")

    mod = repmod.Module(action_matrix(uea.E), action_matrix(uea.F),
                        action_matrix(uea.K))
    return mod, repmod.decompose(mod)
