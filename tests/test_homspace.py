"""Tests for the quantum homogeneous space algebras.

The dimension oracle is classical weight theory: Cartan invariance of
the right index picks the zero-weight columns of irrep(n), so even
levels contribute n + 1 invariants and odd levels none.  The invariance
conditions solved as their own joint right kernel are the element-wise
oracle of `homspace.invariants`, which reads the trivial line's
sections.  Closure under multiplication is checked by re-expanding
products in the invariant span, and the comodule property by
re-expanding right coproduct legs."""

import random

import pytest

from qhvb.scalars import Echelon, Scalar, ZERO
from qhvb import uea, repmod, coeff, homspace

from oracles import (contains, coordinates, invariant_span, is_invariant,
                     pairs)

U = Scalar.u_power


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


def joint_kernel_invariants(N):
    """The invariance conditions of the Cartan generators solved as their
    own joint right kernel, block by block: the oracle of
    homspace.invariants, which reads E_q off the trivial line's
    sections."""
    elements = []
    for n in range(N + 1):
        kernel = _joint_right_kernel([uea.K, uea.K_INV], n)
        for vec in kernel:
            for i in range(n + 1):
                terms = {}
                for j in range(n + 1):
                    if vec[j]:
                        terms[(n, i, j)] = vec[j]
                elements.append(coeff.CoeffElement(terms))
    return elements


def test_invariants_match_the_joint_kernel_oracle():
    a = coeff.Algebra(6)
    for N in range(7):
        assert homspace.invariants(a, N) == joint_kernel_invariants(N)


def test_block_dimensions_match_weight_oracle():
    a = coeff.Algebra(6)
    elements = homspace.invariants(a, 5)
    counts = [sum(1 for f in elements if f.level == n) for n in range(6)]
    # oracle: count zero-weight columns of irrep(n), times n + 1 rows
    for n in range(6):
        weights = repmod.irrep(n).weights
        zero_cols = sum(1 for w in weights if w == 0)
        assert counts[n] == (n + 1) * zero_cols
    assert counts == [1, 0, 3, 0, 5, 0]


def test_invariants_beyond_the_window_overflow():
    a = coeff.Algebra(4)
    with pytest.raises(coeff.LevelOverflow):
        homspace.invariants(a, 5)


def test_is_invariant():
    a = coeff.Algebra(4)
    assert is_invariant(a, coeff.unit())
    assert not is_invariant(a, coeff.basis_element(1, 0, 0))
    for g in homspace.podles_generators():
        assert is_invariant(a, g)
    # invariance survives products
    prod = a.multiply(homspace.podles_generators()[0], homspace.podles_generators()[2])
    assert is_invariant(a, prod)
    assert all(is_invariant(a, f) for f in homspace.invariants(a, 4))


def test_podles_generators_are_the_level_two_block():
    a = coeff.Algebra(4)
    span = invariant_span(homspace.invariants(a, 2))
    for g in homspace.podles_generators():
        assert contains(span, g)
        coords = coordinates(span, g)
        assert coords is not None
        assert sum(1 for c in coords if c) == 1
    assert not contains(span, coeff.basis_element(2, 0, 0))
    assert coordinates(span, coeff.basis_element(2, 0, 0)) is None


def test_multiplicative_closure():
    a = coeff.Algebra(6)
    basis = homspace.invariants(a, 4)
    span = invariant_span(basis)
    rng = random.Random(501)
    small = [f for f in basis if f.level <= 2]
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


def comodule_check(algebra, N):
    """Verify Delta(f) lies in T_q (x) span(E_q) for every basis element
    f of E_q up to level N, by re-expanding the right coproduct legs in
    the invariant basis.  Returns a report dict with any violations
    (each carrying the offending element and left-leg witness)."""
    basis = homspace.invariants(algebra, N)
    span = invariant_span(basis)
    violations = []
    for f in basis:
        # group Delta(f) by left key and test each accumulated right leg
        for left, right in pairs(algebra.coproduct(f)):
            if not contains(span, right):
                (key,) = left.terms
                violations.append({"element": str(f), "left_leg": list(key)})
    return {
        "level_bound": N,
        "checked": len(basis),
        "violations": violations,
        "passed": not violations,
    }


def test_comodule_check_passes():
    a = coeff.Algebra(6)
    for N in (0, 2, 4):
        report = comodule_check(a, N)
        assert report["passed"]
        assert report["violations"] == []
        assert report["checked"] == {0: 1, 2: 4, 4: 9}[N]


def test_comodule_membership_is_sharp():
    # the right legs of a *non*-invariant element escape the span,
    # confirming the membership test has teeth
    a = coeff.Algebra(4)
    span = invariant_span(homspace.invariants(a, 2))
    outside = coeff.basis_element(2, 0, 0)
    right = {}
    for (key, k2), s in a.coproduct(outside).terms.items():
        right[key] = right.get(key, coeff.CoeffElement()) \
            + coeff.CoeffElement({k2: s})
    assert any(not contains(span, leg) for leg in right.values())
