"""Tests for the quantum vector bundle machinery.

The dimension oracle for sections is classical: a weight line m meets
the level-n block in one column exactly when n >= |m| and n = m mod 2,
contributing n + 1 sections.  The projectivity data is checked against
its defining identities (wp . im = id, e^2 = e) rather than against any
stored matrices, and the Borel-Weil dimensions against dim irrep(n)."""

import random
from fractions import Fraction

import pytest

from qhvb.scalars import Scalar, Echelon, Span, ONE
from qhvb import uea, coeff, homspace, bundle, repmod

import oracles
from oracles import contains, invariant_span, is_invariant

U = Scalar.u_power
A = coeff.Algebra(6)


def expected_section_dims(weights, N):
    out = []
    for n in range(N + 1):
        hits = sum(1 for m in weights
                   if Fraction(m).denominator == 1
                   and n >= abs(m) and (n - m) % 2 == 0)
        out.append((n + 1) * hits)
    return out


def dims_by_level(sections, N):
    out = [0] * (N + 1)
    for s in sections:
        out[s.level] += 1
    return out


def test_sections_dimension_oracle():
    for weights in [(0,), (1,), (-1,), (2,), (1, -1), (1, 1), (0, 2)]:
        V = bundle.LModule(weights)
        sections = bundle.sections_basis(A, V, 4)
        assert dims_by_level(sections, 4) == expected_section_dims(weights, 4)
        assert bundle.sections_count(V.weights, 4) == len(sections)


@pytest.mark.parametrize("weights", [
    (0,), (1,), (-1,), (2,), (1, -1), (1, 1), (0, 2), (Fraction(1, 2),),
    (-1, -2), (3, -3, 0)], ids=str)
def test_sections_read_off_the_weights_match_the_constraint_solve(weights):
    # the same Sections in the same order as the kernel of the stacked
    # constraint rows, for k, k^-1 and, holomorphic, e as well
    V = bundle.LModule(weights)
    for N in range(5):
        assert bundle.sections_basis(A, V, N) == oracles.sections_basis(
            A, V, N, (uea.K, uea.K_INV))
        assert bundle.holomorphic_sections(A, V, N) == oracles.sections_basis(
            A, V, N, (uea.K, uea.K_INV, uea.E))


def test_sections_build_no_echelon(monkeypatch):
    # the basis is read off the weights: no elimination, on a cold window
    built = []
    init = Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", lambda self, vectors=():
                        built.append(self) or init(self, vectors))
    algebra = coeff.Algebra(4)
    V = bundle.LModule([1, -1])
    assert dims_by_level(bundle.sections_basis(algebra, V, 4), 4) == [
        0, 4, 0, 8, 0]
    assert dims_by_level(bundle.holomorphic_sections(algebra, V, 4), 4) == [
        0, 2, 0, 0, 0]
    assert built == []


def test_trivial_bundle_sections_are_invariants():
    V = bundle.LModule([0])
    sections = bundle.sections_basis(A, V, 4)
    basis = homspace.invariants(A, 4)
    span = invariant_span(basis)
    assert len(sections) == len(basis)
    for s in sections:
        assert contains(span, s.coords[0])


def test_half_integral_weight_has_no_sections():
    V = bundle.LModule([Fraction(1, 2)])
    assert bundle.sections_basis(A, V, 4) == []
    with pytest.raises(AssertionError):
        bundle.Completion(V)


def test_sections_compare_by_weights():
    # a section is an element of H_q(V) for V's weight list, whichever
    # LModule object carries it; equal terms over another list differ
    unit = {(0, (0, 0, 0)): ONE}
    trivial = bundle.Section(A, bundle.LModule([0]), unit)
    assert trivial == bundle.Section(A, bundle.LModule([0]), unit)
    assert trivial != bundle.Section(A, bundle.LModule([0, 0]), unit)
    assert trivial != bundle.Section(A, bundle.LModule([0]),
                                     {(0, (0, 0, 0)): ONE + ONE})
    assert (bundle.sections_basis(A, bundle.LModule([1, -1]), 3)
            == bundle.sections_basis(A, bundle.LModule([1, -1]), 3))


def test_idempotent_reads_e_q_from_one_sections_call(monkeypatch):
    # at weights 0 0 1 the domain reads the trivial line's sections up
    # to level 3, and sections_dim counts the lines (two weight-0 lines
    # up to level 3, the weight-1 line up to level 4) without a basis:
    # one call, where a basis per line and level made two
    calls = []
    solve = bundle.sections_basis
    monkeypatch.setattr(bundle, "sections_basis", lambda algebra, V, N:
                        calls.append((V.weights, N)) or solve(algebra, V, N))
    proj = bundle.idempotent(A, bundle.LModule([0, 0, 1]), 3)
    assert calls == [((0,), 3)]
    assert proj.rank == proj.sections_dim == 2 * 4 + 6


def test_completion_structure():
    # each line takes its own index, the vector of its summand V_|m|
    # whose weight is m
    for weights in [(1, -1), (2, 0, -3), (0,), (3,)]:
        comp = bundle.Completion(bundle.LModule(weights))
        assert comp.blocks == [abs(m) for m in weights]
        assert len(set(comp.v_index)) == len(weights)
        for r, m in enumerate(weights):
            local = comp.v_index[r] - comp.offsets[r]
            assert repmod.irrep(comp.blocks[r]).weights[local] == m
    comp = bundle.Completion(bundle.LModule([1, -1]))
    assert comp.dim_w == 4
    assert comp.v_index == [0, 3]  # weight +1 in copy one, -1 in copy two
    # cross-summand matrix coefficients vanish
    assert comp.coefficient(0, 2).is_zero()
    assert comp.coefficient(1, 0) == coeff.basis_element(1, 1, 0)
    trivial = bundle.Completion(bundle.LModule([0]))
    assert trivial.dim_w == 1
    assert trivial.coefficient(0, 0) == coeff.unit()


def generators(algebra, lmodule):
    """The canonical generating sections zeta_alpha = wp(w_alpha (x) 1),
    one per W basis vector."""
    completion = bundle.Completion(lmodule)
    return [bundle.wp(algebra, completion,
                      bundle.simple_tensor(alpha, coeff.unit()))
            for alpha in range(completion.dim_w)]


def test_generators_and_their_form():
    V = bundle.LModule([1])
    gens = generators(A, V)
    assert len(gens) == 2
    for alpha, zeta in enumerate(gens):
        want = A.antipode(coeff.basis_element(1, 0, alpha))
        assert zeta.coords[0] == want
    # trivial bundle: the single generator is the unit
    gens0 = generators(A, bundle.LModule([0]))
    assert len(gens0) == 1
    assert gens0[0].coords[0] == coeff.unit()


def test_wp_im_roundtrip_and_linearity():
    rng = random.Random(601)
    for weights in [(0,), (1,), (1, -1)]:
        V = bundle.LModule(weights)
        comp = bundle.Completion(V)
        basis = bundle.sections_basis(A, V, 3)
        inv = homspace.invariants(A, 2)
        for zeta in basis:
            assert bundle.wp(A, comp, bundle.im(A, comp, zeta)) == zeta
        # im is injective on the basis
        ech = Echelon()
        for zeta in basis:
            residual = ech.add(bundle.im(A, comp, zeta).terms)
            assert residual
        # the E_q legs of im are invariant
        for zeta in rng.sample(basis, min(3, len(basis))):
            for leg in bundle.im(A, comp, zeta).coords.values():
                assert is_invariant(A, leg)
        # right linearity of both maps
        for _ in range(4):
            a = rng.choice(inv)
            b = rng.choice([f for f in inv if f.level <= 2])
            beta = rng.randint(0, comp.dim_w - 1)
            lhs = bundle.wp(A, comp,
                            bundle.simple_tensor(beta, A.multiply(a, b)))
            rhs = bundle.wp(A, comp, bundle.simple_tensor(beta, a)).times(b)
            assert lhs == rhs
            zeta = rng.choice([s for s in basis if s.level <= 2])
            lhs = bundle.im(A, comp, zeta.times(b))
            rhs = bundle.im(A, comp, zeta).map(lambda g: A.multiply(g, b))
            assert lhs == rhs


def test_wp_surjectivity_onto_sections():
    # wp images of W (x) E_q^{<=N} span the sections of level <= N + 1
    V = bundle.LModule([1])
    comp = bundle.Completion(V)
    inv = homspace.invariants(A, 2)
    ech = Echelon()
    for beta in range(comp.dim_w):
        for f in inv:
            ech.add(bundle.wp(A, comp, bundle.simple_tensor(beta, f)).terms)
    sections = bundle.sections_basis(A, V, 3)
    assert ech.rank == len(sections)
    for zeta in sections:
        assert not ech.reduce(zeta.terms)


def test_idempotent_certificates():
    # e^2 = e is asserted inside the constructor; ranks match sections
    for weights, N in [((1,), 1), ((1,), 2), ((1, -1), 1)]:
        proj = bundle.idempotent(A, bundle.LModule(weights), N)
        assert proj.matched_level == N + 1
        assert proj.rank == proj.sections_dim
    trivial = bundle.idempotent(A, bundle.LModule([0]), 2)
    assert trivial.matched_level == 2
    assert trivial.rank == trivial.sections_dim == 4
    # the trivial idempotent is the identity on its domain
    for beta, f in trivial.domain:
        image = trivial.apply(bundle.simple_tensor(beta, f))
        assert image == bundle.simple_tensor(beta, f)


def generation_certificate(algebra, lmodule, N):
    """Solve every basis section of level <= N as an E_q-combination
    sum_alpha zeta_alpha a_alpha, exactly.  zeta_alpha has level n_alpha
    (the highest weight of its summand), so coefficients of level up to
    N - n_alpha suffice for each alpha.  Returns the solved coordinate
    matrix; raises NoSolution if some section is not generated."""
    completion = bundle.Completion(lmodule)
    gens = generators(algebra, lmodule)
    inv = homspace.invariants(algebra, N)
    basis = bundle.sections_basis(algebra, lmodule, N)
    products = []
    for alpha, zeta in enumerate(gens):
        bound = N - completion.blocks[completion.block_of(alpha)[0]]
        for a in inv:
            if a.level <= max(bound, 0):
                products.append(zeta.times(a))
    solution = Span([s.terms for s in products]).coordinate_matrix(
        [s.terms for s in basis])
    return {"generators": len(gens), "sections": len(basis),
            "products": len(products), "solution": solution}


def test_generation_certificate():
    for weights in [(1,), (1, -1)]:
        V = bundle.LModule(weights)
        for N in (1, 3):
            cert = generation_certificate(A, V, N)
            assert cert["sections"] == sum(expected_section_dims(weights, N))
    # generators need not be independent: V = {0} completed in irrep(0)
    # gives exactly one generator, and it generates
    cert = generation_certificate(A, bundle.LModule([0]), 2)
    assert cert["generators"] == 1
    # no section up to level 1: the solution keeps one row per product
    cert = generation_certificate(A, bundle.LModule([2, -2]), 1)
    solution = cert["solution"]
    assert (cert["products"], cert["sections"]) == (6, 0)
    assert (solution.rows, solution.cols) == (6, 0)


def left_times(section, a):
    """Left action of an invariant element on a section."""
    return section.map(lambda f: section.algebra.multiply(a, f))


def test_two_sided_module_structure():
    rng = random.Random(602)
    V = bundle.LModule([1])
    basis = bundle.sections_basis(A, V, 3)
    inv = homspace.invariants(A, 2)
    small = [f for f in inv if f.level <= 2]
    for _ in range(5):
        zeta = rng.choice([s for s in basis if s.level <= 2])
        a = rng.choice(small)
        b = rng.choice(small)
        left = left_times(zeta, a)
        right = zeta.times(b)
        assert left.satisfies_constraint((uea.K, uea.K_INV))
        assert right.satisfies_constraint((uea.K, uea.K_INV))
        assert left_times(zeta, a).times(b) == left_times(zeta.times(b), a)


def test_borel_weil_dimensions():
    # dominant (negative-weight) lines carry irrep(n); the opposite
    # orientation and generic positive lines carry nothing
    assert len(bundle.holomorphic_sections(A, bundle.LModule([0]), 4)) == 1
    for n in (1, 2, 3):
        holo = bundle.holomorphic_sections(A, bundle.LModule([-n]), 4)
        assert len(holo) == n + 1
        assert all(s.level == n for s in holo)
        assert bundle.holomorphic_sections(A, bundle.LModule([n]), 4) == []


def test_borel_weil_modules_are_irreducible():
    for n in (0, 1, 2):
        holo = bundle.holomorphic_sections(A, bundle.LModule([-n]), 4)
        mod, parts = bundle.dot_module(A, holo)
        assert mod.dim == n + 1
        assert len(parts) == 1
        assert parts[0][0] == n
    mod, parts = bundle.dot_module(A, [])
    assert mod is None and parts == []


def test_holomorphic_sections_of_sums():
    V = bundle.LModule([-1, -2])
    holo = bundle.holomorphic_sections(A, V, 4)
    assert len(holo) == 2 + 3
    mod, parts = bundle.dot_module(A, holo)
    assert sorted(p[0] for p in parts) == [1, 2]
