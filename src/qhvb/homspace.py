"""Quantum homogeneous space algebras inside the coefficient algebra.

A subset Theta of the simple roots selects a reductive subalgebra U_l
of U_q(sl2) -- for rank one either the Cartan subalgebra (Theta empty)
or all of U_q(sl2) (Theta = {1}) -- and the invariant functionals

    x o f = eps(x) f   for all x in U_l

form a subalgebra E_q of the coefficient algebra.  For the Cartan
choice E_q is the Podles sphere: the level-n block contributes its
zero-right-weight column, so levels contribute n + 1 invariants when n
is even and none when n is odd.  The parabolic subalgebra U_p (the
Levi part together with every raising generator) cuts out the
holomorphic sections; `bundle.holomorphic_sections` imposes its
generators.
"""

from .scalars import Echelon, ZERO
from . import uea, repmod, coeff


class ThetaChoice:
    """A subset of the rank-one simple root set {1}."""

    def __init__(self, theta=()):
        theta = tuple(sorted(set(theta)))
        assert theta in ((), (1,))
        self.theta = theta

    def levi_generators(self):
        """Hopf generators of U_l: the Cartan part, plus e and f when the
        simple root is selected."""
        gens = [uea.K, uea.K_INV]
        if self.theta:
            gens += [uea.E, uea.F]
        return gens

    def __repr__(self):
        return "ThetaChoice(%r)" % (self.theta,)


def _joint_right_kernel(generators, n):
    """Column vectors v with pi_n(x) v = eps(x) v for every generator x.

    Under circle the right coproduct leg is hit, and on the level-n block
    circle(x, sum_j C_ij t_ij) = sum_ik (C pi_n(x)^T)_ik t_ik, so the
    invariance condition is exactly that every row of C lies in this
    joint kernel."""
    m = repmod.irrep(n)
    rows = []
    for x in generators:
        mat = m.act(x)
        eps = uea.counit(x)
        for r in range(n + 1):
            rows.append({c: s for c in range(n + 1)
                         if (s := mat[r, c] - (eps if r == c else ZERO))})
    return Echelon(rows).kernel(n + 1)


class InvariantBasis:
    """A basis of E_q up to Peter-Weyl level N for a given ThetaChoice.

    elements[i] are CoeffElements; block_dims[n] counts the members
    supported on level n.  Invariance of every member and linear
    independence are verified at construction."""

    def __init__(self, algebra, theta, N):
        self.algebra = algebra
        self.theta = theta
        self.N = N
        self.elements = []
        self.block_dims = []
        for n in range(N + 1):
            kernel = _joint_right_kernel(theta.levi_generators(), n)
            count = 0
            for vec in kernel:
                for i in range(n + 1):
                    terms = {}
                    for j in range(n + 1):
                        if vec[j]:
                            terms[(n, i, j)] = vec[j]
                    self.elements.append(coeff.CoeffElement(terms))
                    count += 1
            self.block_dims.append(count)
        for f in self.elements:
            if not is_invariant(algebra, theta, f):
                raise AssertionError("basis element %s is not invariant" % f)
        if Echelon(f.terms for f in self.elements).rank != len(self.elements):
            raise AssertionError("invariant basis is linearly dependent")


def invariants(algebra, theta, N):
    """The basis of E_q up to level N, computed blockwise.

    Invariance is imposed on the Hopf generators of U_l only; it then
    holds for all of U_l because circle is an algebra action."""
    assert N <= algebra.n_max
    return InvariantBasis(algebra, theta, N)


def is_invariant(algebra, theta, f):
    """Does f satisfy x o f = eps(x) f for the generators of U_l?"""
    for x in theta.levi_generators():
        if algebra.circle(x, f) != f.scale(uea.counit(x)):
            return False
    return True


def podles_generators():
    """The three level-2 invariants t^{(2)}_{i,1} generating the Podles
    sphere, in row order i = 0, 1, 2."""
    return [coeff.basis_element(2, i, 1) for i in range(3)]
