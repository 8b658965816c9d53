"""Tests for the quantum homogeneous space algebras.

The dimension oracle is classical weight theory: Cartan invariance of
the right index picks the zero-weight columns of irrep(n), so even
levels contribute n + 1 invariants and odd levels none.  Closure under
multiplication is checked by re-expanding products in the invariant
span, and the comodule property by re-expanding right coproduct legs."""

import random

from qhvb.scalars import Scalar
from qhvb import uea, repmod, coeff, homspace

from oracles import contains, coordinates, invariant_span, pairs

U = Scalar.u_power


def parabolic_generators(theta):
    """Hopf generators of U_p: U_l together with the raising generator."""
    gens = [uea.K, uea.K_INV, uea.E]
    if theta.theta:
        gens.append(uea.F)
    return gens


def test_theta_choice():
    cartan = homspace.ThetaChoice()
    assert cartan.theta == ()
    gens = cartan.levi_generators()
    assert uea.K in gens and uea.K_INV in gens and uea.E not in gens
    par = parabolic_generators(cartan)
    assert uea.E in par and uea.F not in par
    full = homspace.ThetaChoice((1,))
    assert uea.E in full.levi_generators()
    assert uea.F in parabolic_generators(full)


def test_block_dimensions_match_weight_oracle():
    a = coeff.Algebra(6)
    theta = homspace.ThetaChoice()
    basis = homspace.invariants(a, theta, 5)
    # oracle: count zero-weight columns of irrep(n), times n + 1 rows
    for n in range(6):
        weights = repmod.irrep(n).weights
        zero_cols = sum(1 for w in weights if w == 0)
        assert basis.block_dims[n] == (n + 1) * zero_cols
    assert basis.block_dims == [1, 0, 3, 0, 5, 0]


def test_trivial_homogeneous_space():
    # Theta = {1} makes U_l everything, so only the unit survives
    a = coeff.Algebra(4)
    basis = homspace.invariants(a, homspace.ThetaChoice((1,)), 3)
    assert basis.block_dims == [1, 0, 0, 0]
    assert basis.elements == [coeff.unit()]


def test_is_invariant():
    a = coeff.Algebra(4)
    theta = homspace.ThetaChoice()
    assert homspace.is_invariant(a, theta, coeff.unit())
    assert not homspace.is_invariant(a, theta, coeff.basis_element(1, 0, 0))
    for g in homspace.podles_generators():
        assert homspace.is_invariant(a, theta, g)
    # invariance survives products
    prod = a.multiply(homspace.podles_generators()[0], homspace.podles_generators()[2])
    assert homspace.is_invariant(a, theta, prod)


def test_podles_generators_are_the_level_two_block():
    a = coeff.Algebra(4)
    basis = homspace.invariants(a, homspace.ThetaChoice(), 2)
    span = invariant_span(basis)
    for g in homspace.podles_generators():
        assert contains(span, g)
        coords = coordinates(span, g)
        assert coords is not None
        assert sum(1 for c in coords if c) == 1
    assert not contains(span, coeff.basis_element(2, 0, 0))
    assert coordinates(span, coeff.basis_element(2, 0, 0)) is None


def test_multiplicative_closure():
    a = coeff.Algebra(6)
    theta = homspace.ThetaChoice()
    basis = homspace.invariants(a, theta, 4)
    span = invariant_span(basis)
    rng = random.Random(501)
    small = [f for f in basis.elements if f.level <= 2]
    for _ in range(12):
        f = rng.choice(small)
        g = rng.choice(small)
        prod = a.multiply(f, g)
        assert prod.level <= 4
        assert contains(span, prod)
    # a random invariant-span combination stays closed too
    f = small[1] + small[2].scale(U(3)) + coeff.unit()
    g = small[3] - small[0].scale(U(-1))
    assert contains(span, a.multiply(f, g))


def test_podles_sphere_relations_shape():
    # the three generators satisfy a quadratic relation landing in
    # levels {0, 2, 4}: products of level-2 invariants re-expand with
    # no odd-level support
    a = coeff.Algebra(6)
    b0, b1, b2 = homspace.podles_generators()
    for f in (b0, b1, b2):
        for g in (b0, b1, b2):
            prod = a.multiply(f, g)
            assert set(n for (n, i, j) in prod.terms) <= {0, 2, 4}


def comodule_check(algebra, theta, N):
    """Verify Delta(f) lies in T_q (x) span(E_q) for every basis element
    f of E_q up to level N, by re-expanding the right coproduct legs in
    the invariant basis.  Returns a report dict with any violations
    (each carrying the offending element and left-leg witness)."""
    basis = homspace.invariants(algebra, theta, N)
    span = invariant_span(basis)
    violations = []
    for f in basis.elements:
        # group Delta(f) by left key and test each accumulated right leg
        for left, right in pairs(algebra.coproduct(f)):
            if not contains(span, right):
                (key,) = left.terms
                violations.append({"element": str(f), "left_leg": list(key)})
    return {
        "theta": list(theta.theta),
        "level_bound": N,
        "block_dims": basis.block_dims,
        "checked": len(basis.elements),
        "violations": violations,
        "passed": not violations,
    }


def test_comodule_check_passes():
    a = coeff.Algebra(6)
    theta = homspace.ThetaChoice()
    for N in (0, 2, 4):
        report = comodule_check(a, theta, N)
        assert report["passed"]
        assert report["violations"] == []
        assert report["checked"] == sum(report["block_dims"])
    report = comodule_check(a, homspace.ThetaChoice((1,)), 2)
    assert report["passed"]


def test_comodule_membership_is_sharp():
    # the right legs of a *non*-invariant element escape the span,
    # confirming the membership test has teeth
    a = coeff.Algebra(4)
    basis = homspace.invariants(a, homspace.ThetaChoice(), 2)
    span = invariant_span(basis)
    outside = coeff.basis_element(2, 0, 0)
    right = {}
    for (key, k2), s in a.coproduct(outside).terms.items():
        right[key] = right.get(key, coeff.CoeffElement()) \
            + coeff.CoeffElement({k2: s})
    assert any(not contains(span, leg) for leg in right.values())
