"""Exact computations with quantum homogeneous vector bundles over U_q(sl2).

The package builds, bottom up:

* ``scalars``    -- the field Q(u) (with q = u^4) and exact linear algebra,
* ``uea``        -- the Hopf algebra U_q(sl2) in PBW normal form,
* ``repmod``     -- finite dimensional modules, Clebsch-Gordan data and the
                    Theta-series coefficients of the R-matrix,
* ``coeff``      -- the coefficient Hopf algebra spanned by matrix elements
                    t^(n)_ij, the dual pairing, the two translation actions
                    and the Haar functional,
* ``bundle``     -- section modules of induced bundles and the projectivity
                    idempotent,
* ``homspace``   -- the Podles sphere, the sections of the trivial line,
* ``calculus``   -- left covariant differential calculi, the braiding split
                    and higher order forms,
* ``connection`` -- the Grassmann connection, its perturbations, and
                    curvature with the Bianchi check,
* ``cli``        -- verification suites and machine readable reports.

Everything is computed over Q(u); there is no floating point anywhere.
"""

from .scalars import Scalar, Matrix, qint, eval_at, PoleError, NoSolution

__all__ = ["Scalar", "Matrix", "qint", "eval_at", "PoleError", "NoSolution"]
