"""The quantum homogeneous space E_q inside the coefficient algebra.

The Cartan subalgebra U_l of U_q(sl2) cuts out the invariant functionals

    x o f = eps(x) f   for all x in U_l,

which form a subalgebra E_q of the coefficient algebra, the Podles
sphere.  E_q is the section module H_q of the trivial U_l-module, so it
is read off `bundle.sections_basis` for the weight-0 line: the level-n
block contributes its zero-right-weight column, so levels contribute
n + 1 invariants when n is even and none when n is odd.
"""

from .scalars import Echelon
from . import coeff, bundle


def invariants(algebra, N):
    """The basis of E_q up to level N, as CoeffElements: the weight-0
    coordinate of each section of the trivial line.  Linear independence
    is verified."""
    elements = [s.coords[0] for s in
                bundle.sections_basis(algebra, (0,), N)]
    if Echelon(f.terms for f in elements).rank != len(elements):
        raise AssertionError("invariant basis is linearly dependent")
    return elements


def podles_generators():
    """The three level-2 invariants t^{(2)}_{i,1} generating the Podles
    sphere, in row order i = 0, 1, 2."""
    return [coeff.basis_element(2, i, 1) for i in range(3)]
