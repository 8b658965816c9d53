"""Tests for the quantum vector bundle machinery.

The dimension oracle for sections is classical: a weight line m meets
the level-n block in one column exactly when n >= |m| and n = m mod 2,
contributing n + 1 sections.  The projectivity data is checked against
its defining identities (wp . im = id, e^2 = e) rather than against any
stored matrices, and the Borel-Weil dimensions against dim irrep(n)."""

import random

import pytest

from qhvb.scalars import Scalar, Echelon, Span, ONE, ZERO, qint
from qhvb import uea, coeff, homspace, bundle, repmod

import oracles
from oracles import contains, invariant_span, is_invariant

U = Scalar.u_power
A = coeff.Algebra(6)


def expected_section_dims(weights, N):
    out = []
    for n in range(N + 1):
        hits = sum(1 for m in weights if n >= abs(m) and (n - m) % 2 == 0)
        out.append((n + 1) * hits)
    return out


def dims_by_level(sections, N):
    out = [0] * (N + 1)
    for s in sections:
        out[s.level] += 1
    return out


def test_sections_dimension_oracle():
    for weights in [(0,), (1,), (-1,), (2,), (1, -1), (1, 1), (0, 2)]:
        sections = bundle.sections_basis(A, weights, 4)
        assert dims_by_level(sections, 4) == expected_section_dims(weights, 4)
        assert bundle.sections_count(weights, 4) == len(sections)


@pytest.mark.parametrize("weights", [
    (0,), (1,), (-1,), (2,), (1, -1), (1, 1), (0, 2), (-1, -2), (3, -3, 0)],
    ids=str)
def test_sections_read_off_the_weights_match_the_constraint_solve(weights):
    # the same Sections in the same order as the kernel of the stacked
    # constraint rows, for k, k^-1 and, holomorphic, e as well
    for N in range(5):
        assert bundle.sections_basis(A, weights, N) == oracles.sections_basis(
            A, weights, N, (uea.K, uea.K_INV))
        assert (bundle.holomorphic_sections(A, weights, N)
                == oracles.sections_basis(A, weights, N,
                                          (uea.K, uea.K_INV, uea.E)))


def test_sections_build_no_echelon(monkeypatch):
    # the basis is read off the weights: no elimination, on a cold window
    built = []
    init = Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", lambda self, vectors=():
                        built.append(self) or init(self, vectors))
    algebra = coeff.Algebra(4)
    V = (1, -1)
    assert dims_by_level(bundle.sections_basis(algebra, V, 4), 4) == [
        0, 4, 0, 8, 0]
    assert dims_by_level(bundle.holomorphic_sections(algebra, V, 4), 4) == [
        0, 2, 0, 0, 0]
    assert built == []


def test_trivial_bundle_sections_are_invariants():
    V = (0,)
    sections = bundle.sections_basis(A, V, 4)
    basis = homspace.invariants(A, 4)
    span = invariant_span(basis)
    assert len(sections) == len(basis)
    for s in sections:
        assert contains(span, s.coords[0])


def test_sections_compare_by_weights():
    # a section is an element of H_q(V) for V's weights, whichever
    # sequence carries them; equal terms over other weights differ
    unit = {(0, (0, 0, 0)): ONE}
    trivial = bundle.Section(A, (0,), unit)
    assert trivial == bundle.Section(A, (0,), unit)
    assert trivial != bundle.Section(A, (0, 0), unit)
    assert trivial != bundle.Section(A, (0,),
                                     {(0, (0, 0, 0)): ONE + ONE})
    assert (bundle.sections_basis(A, (1, -1), 3)
            == bundle.sections_basis(A, (1, -1), 3))
    assert (bundle.sections_basis(A, [1, -1], 3)
            == bundle.sections_basis(A, (1, -1), 3))


def test_idempotent_reads_e_q_from_one_sections_call(monkeypatch):
    # at weights 0 0 1 the domain reads the trivial line's sections up
    # to level 3, and sections_dim counts the lines (two weight-0 lines
    # up to level 3, the weight-1 line up to level 4) without a basis:
    # one call, where a basis per line and level made two
    calls = []
    solve = bundle.sections_basis
    monkeypatch.setattr(bundle, "sections_basis", lambda algebra, V, N:
                        calls.append((V, N)) or solve(algebra, V, N))
    proj = bundle.idempotent(A, (0, 0, 1), 3)
    assert calls == [((0,), 3)]
    assert proj.rank == proj.sections_dim == 2 * 4 + 6


def test_completion_structure():
    # each line takes its own summand V_|m|, one after the other, and in
    # it the vector whose weight is m; line_of reads the line back
    for weights in [(1, -1), (2, 0, -3), (0,), (3,)]:
        comp = bundle.Completion(weights)
        off = 0
        for r, m in enumerate(weights):
            n, offset, j = comp.summand(r)
            assert (n, offset) == (abs(m), off)
            assert repmod.irrep(n).weights[j] == m
            assert comp.line_of[off:off + n + 1] == [r] * (n + 1)
            off += n + 1
        assert comp.dim_w == len(comp.line_of) == off
    comp = bundle.Completion((1, -1))
    # weight +1 at index 0 of copy one, -1 at index 3 of copy two
    assert [comp.summand(r) for r in (0, 1)] == [(1, 0, 0), (1, 2, 1)]
    assert comp.line_of == [0, 0, 1, 1]
    trivial = bundle.Completion((0,))
    assert (trivial.dim_w, trivial.summand(0)) == (1, (0, 0, 0))


def idempotent_columns(algebra, comp):
    """The matrix of e = im . wp, entry (gamma, beta) the coordinate gamma
    of its column im(wp(w_beta (x) 1))."""
    columns = [bundle.im(algebra, comp, bundle.wp(
        algebra, comp, bundle.simple_tensor(beta, coeff.unit())))
        for beta in range(comp.dim_w)]
    return [[column.coords.get(gamma, coeff.CoeffElement())
             for column in columns] for gamma in range(comp.dim_w)]


@pytest.mark.parametrize("weights", [
    (1,), (1, -1), (0, 0, 1), (2, 0, -3), (3,)], ids=str)
def test_completion_maps_match_the_sums_over_all_of_w(weights):
    # e, wp and im read line by line equal the sums over every line and
    # every W index with a coefficient lookup per term, zero across
    # summands; wp and im also on elements spread over every index and
    # every line
    comp = bundle.Completion(weights)
    assert idempotent_columns(A, comp) == oracles.idempotent_matrix(A, weights)
    inv = homspace.invariants(A, 2)
    tensors = [bundle.simple_tensor(beta, f)
               for beta in range(comp.dim_w) for f in inv]
    spread = coeff.CoeffVector().combination(
        (ONE, bundle.simple_tensor(beta, inv[beta % len(inv)]))
        for beta in range(comp.dim_w))
    for x in tensors + [spread]:
        assert bundle.wp(A, comp, x) == oracles.wp(A, weights, x)
    basis = bundle.sections_basis(A, weights, 3)
    for zeta in basis + [basis[0].combination((ONE, z) for z in basis[1:])]:
        assert bundle.im(A, comp, zeta) == oracles.im(A, weights, zeta)


def generators(algebra, weights):
    """The canonical generating sections zeta_alpha = wp(w_alpha (x) 1),
    one per W basis vector."""
    completion = bundle.Completion(weights)
    return [bundle.wp(algebra, completion,
                      bundle.simple_tensor(alpha, coeff.unit()))
            for alpha in range(completion.dim_w)]


def test_generators_and_their_form():
    V = (1,)
    gens = generators(A, V)
    assert len(gens) == 2
    for alpha, zeta in enumerate(gens):
        want = A.antipode(coeff.basis_element(1, 0, alpha))
        assert zeta.coords[0] == want
    # trivial bundle: the single generator is the unit
    gens0 = generators(A, (0,))
    assert len(gens0) == 1
    assert gens0[0].coords[0] == coeff.unit()


def test_wp_im_roundtrip_and_linearity():
    rng = random.Random(601)
    for weights in [(0,), (1,), (1, -1)]:
        comp = bundle.Completion(weights)
        basis = bundle.sections_basis(A, weights, 3)
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
    V = (1,)
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
        proj = bundle.idempotent(A, weights, N)
        assert proj.matched_level == N + 1
        assert proj.rank == proj.sections_dim
    trivial = bundle.idempotent(A, (0,), 2)
    assert trivial.matched_level == 2
    assert trivial.rank == trivial.sections_dim == 4
    # the trivial idempotent is the identity on its domain
    for beta, f in trivial.domain:
        image = trivial.apply(bundle.simple_tensor(beta, f))
        assert image == bundle.simple_tensor(beta, f)


def test_the_twisted_haar_trace_of_a_line_idempotent_is_q_to_the_m():
    # the charge of the line of weight m, read off its idempotent e_m on
    # W = V_|m| (Hajac and Majid 1999): h(e_bb) = q^m / [|m| + 1]_q on
    # every diagonal entry, and the trace twisted by pi(k^2), whose
    # diagonal is q^(|m| - 2b), is q^m; at q = 1 both read the rank 1
    a = coeff.Algebra(10)
    k2 = uea.K * uea.K
    for m in range(-4, 5):
        n = abs(m)
        e = idempotent_columns(a, bundle.Completion((m,)))
        values = [a.haar(e[b][b]) for b in range(n + 1)]
        assert values == [Scalar.q_power(m) / qint(n + 1)] * (n + 1)
        twist = repmod.irrep(n).act(k2)
        assert sum((twist[b, b] * h for b, h in enumerate(values)),
                   ZERO) == Scalar.q_power(m)


@pytest.mark.parametrize("weights, trace", [
    ((1, -1), Scalar.q_power(1) + Scalar.q_power(-1)),
    ((0, 0, 1), Scalar(2) + Scalar.q_power(1))], ids=["1_-1", "0_0_1"])
def test_the_twisted_haar_trace_adds_over_the_lines(weights, trace):
    # e of a sum of lines is block diagonal, one block per line, and
    # pi(k^2) acts on each block as on V_|m|: the twisted trace of e is
    # the sum of the lines' q^m
    a = coeff.Algebra(10)
    k2 = uea.K * uea.K
    comp = bundle.Completion(weights)
    e = idempotent_columns(a, comp)
    total = ZERO
    for r in range(len(weights)):
        n, offset, _ = comp.summand(r)
        twist = repmod.irrep(n).act(k2)
        for b in range(n + 1):
            total += twist[b, b] * a.haar(e[offset + b][offset + b])
    assert total == trace


def generation_certificate(algebra, weights, N):
    """Solve every basis section of level <= N as an E_q-combination
    sum_alpha zeta_alpha a_alpha, exactly.  zeta_alpha has level n_alpha
    (the highest weight of its summand), so coefficients of level up to
    N - n_alpha suffice for each alpha.  Returns the solved coordinate
    matrix; raises NoSolution if some section is not generated."""
    completion = bundle.Completion(weights)
    gens = generators(algebra, weights)
    inv = homspace.invariants(algebra, N)
    basis = bundle.sections_basis(algebra, weights, N)
    products = []
    for alpha, zeta in enumerate(gens):
        bound = N - completion.summand(completion.line_of[alpha])[0]
        for a in inv:
            if a.level <= max(bound, 0):
                products.append(zeta.times(a))
    solution = Span([s.terms for s in products]).coordinate_matrix(
        [s.terms for s in basis])
    return {"generators": len(gens), "sections": len(basis),
            "products": len(products), "solution": solution}


def test_generation_certificate():
    for weights in [(1,), (1, -1)]:
        for N in (1, 3):
            cert = generation_certificate(A, weights, N)
            assert cert["sections"] == sum(expected_section_dims(weights, N))
    # generators need not be independent: V = {0} completed in irrep(0)
    # gives exactly one generator, and it generates
    cert = generation_certificate(A, (0,), 2)
    assert cert["generators"] == 1
    # no section up to level 1: the solution keeps one row per product
    cert = generation_certificate(A, (2, -2), 1)
    solution = cert["solution"]
    assert (cert["products"], cert["sections"]) == (6, 0)
    assert (solution.rows, solution.cols) == (6, 0)


def left_times(section, a):
    """Left action of an invariant element on a section."""
    return section.map(lambda f: section.algebra.multiply(a, f))


def test_two_sided_module_structure():
    rng = random.Random(602)
    V = (1,)
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
    assert len(bundle.holomorphic_sections(A, (0,), 4)) == 1
    for n in (1, 2, 3):
        holo = bundle.holomorphic_sections(A, (-n,), 4)
        assert len(holo) == n + 1
        assert all(s.level == n for s in holo)
        assert bundle.holomorphic_sections(A, (n,), 4) == []


def test_borel_weil_modules_are_irreducible():
    for n in (0, 1, 2):
        holo = bundle.holomorphic_sections(A, (-n,), 4)
        mod, parts = bundle.dot_module(A, holo)
        assert mod.dim == n + 1
        assert len(parts) == 1
        assert parts[0][0] == n
    mod, parts = bundle.dot_module(A, [])
    assert mod is None and parts == []


def test_holomorphic_sections_of_sums():
    V = (-1, -2)
    holo = bundle.holomorphic_sections(A, V, 4)
    assert len(holo) == 2 + 3
    mod, parts = bundle.dot_module(A, holo)
    assert sorted(p[0] for p in parts) == [1, 2]
