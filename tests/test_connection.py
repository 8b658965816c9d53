import collections
import random

import pytest
from qhvb import coeff, repmod, calculus, bundle, homspace, connection, cli
from qhvb.scalars import ONE, ZERO, Scalar
from test_calculus import sample_coeff
import oracles

A = coeff.Algebra(10)
CALC = calculus.Calculus(A, calculus.from_rep(repmod.irrep(1)))
V = (1,)
TSS = connection.TensoredSectionSpace(CALC, V, 1)
CONN0 = connection.make_connection(TSS)
CONN_A = connection.make_connection(TSS, [[Scalar(1), 0], [0, Scalar(3)]])
PODLES = homspace.podles_generators()


def is_invariant(tss, vec):
    """Does vec lie in the realization, e . vec = vec?"""
    return tss.project(vec) == vec


def to_section(tss, vec):
    """The section wp(sum_beta w_beta (x) vec[beta]) of a degree-0
    vector."""
    assert tss.degree_of(vec) == 0
    element = coeff.CoeffVector({(beta, pw): s
                                 for beta, w in enumerate(vec)
                                 for (_, pw), s in w.terms.items()})
    return bundle.wp(tss.algebra, tss.completion, element)


def test_realization_shape():
    assert TSS.dim_w == 2
    assert len(TSS.sections) == 2
    for alpha in range(TSS.dim_w):
        assert is_invariant(TSS, TSS.generator(alpha))
    for s in TSS.sections:
        psi = TSS.from_section(s)
        assert is_invariant(TSS, psi)
        assert to_section(TSS, psi) == s
    # a raw coordinate vector is moved by the idempotent
    raw = [CALC.form0(coeff.unit()), CALC.zero(0)]
    assert not is_invariant(TSS, raw)
    # the generator columns are im o wp of w_beta (x) 1
    for beta in range(TSS.dim_w):
        zeta = bundle.wp(A, TSS.completion,
                         bundle.simple_tensor(beta, coeff.unit()))
        assert TSS.from_section(zeta) == TSS.generator(beta)


def test_partial_leibniz():
    for s in TSS.sections:
        for g in PODLES:
            lhs = CONN0.on_section(s.times(g))
            rhs = TSS.add(TSS.right_mult(CONN0.on_section(s), CALC.form0(g)),
                          TSS.right_mult(TSS.from_section(s), CALC.d0(g)))
            assert lhs == rhs


def test_partial_explicit_formula():
    # nabla0(zeta) assembled section-by-section from the generator
    # columns and the differentials of the idempotent coefficients
    for s in TSS.sections:
        el = bundle.im(A, TSS.completion, s)
        out = TSS.zero(1)
        for beta, a_beta in el.coords.items():
            out = TSS.add(out, TSS.right_mult(TSS.generator(beta),
                                              CALC.d0(a_beta)))
        assert out == CONN0.on_section(s)


def test_nabla0_realizations_agree():
    # the Leibniz-rule form sum_beta nabla0(zeta_beta) psi_beta
    # + zeta_beta (x) d(psi_beta) has second term e.d(psi), the
    # connection with Lambda = 0; its first term is e.de.psi, zero on
    # invariant psi because e.de.e = 0
    partials = [CONN0.apply(TSS.generator(beta)) for beta in range(TSS.dim_w)]
    for s in TSS.sections:
        psi = TSS.from_section(s)
        one = CONN0.apply(psi)
        assert one == TSS.project([CALC.d(w) for w in psi])
        # the chain im, coordinatewise d0, project
        coords = bundle.im(A, TSS.completion, s).coords
        assert one == TSS.project([CALC.d0(coords.get(beta,
                                                      coeff.CoeffElement()))
                                   for beta in range(TSS.dim_w)])
        assert TSS.extend(partials, psi) == TSS.zero(1)
        assert TSS.extend(partials, one) == TSS.zero(2)


def test_graded_connection_law():
    for s in TSS.sections:
        psi = CONN0.on_section(s)  # degree 1
        for w in [CALC.theta(), CALC.d0(PODLES[0])]:
            lhs = CONN0.apply(TSS.right_mult(psi, w))
            rhs = TSS.add(
                TSS.right_mult(CONN0.apply(psi), w),
                [x.scale(Scalar(-1))
                 for x in TSS.right_mult(psi, CALC.d(w))])
            assert lhs == rhs


def test_connection_law_with_perturbation():
    rnd = random.Random(11)
    for _ in range(3):
        lam = [[Scalar(rnd.randint(-3, 3)) if i == j else Scalar(0)
                for j in range(TSS.dim_w)] for i in range(TSS.dim_w)]
        conn = connection.make_connection(tss=TSS, perturbation=lam)
        for s in TSS.sections:
            for g in PODLES:
                lhs = conn.on_section(s.times(g))
                rhs = TSS.add(
                    TSS.right_mult(conn.on_section(s), CALC.form0(g)),
                    TSS.right_mult(TSS.from_section(s), CALC.d0(g)))
                assert lhs == rhs


def _count_calls(monkeypatch, cls, name):
    calls = []
    fn = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args:
                        calls.append(1) or fn(self, *args))
    return calls


def test_apply_projects_once(monkeypatch):
    # e.(d + Lambda) is one projection per application, for nabla0 and
    # for a perturbed connection alike
    calls = _count_calls(monkeypatch, connection.TensoredSectionSpace,
                         "project")
    psi = TSS.from_section(TSS.sections[0])
    for conn in (CONN0, CONN_A):
        del calls[:]
        conn.apply(psi)
        assert len(calls) == 1


def sample_form(rnd, calc, degree):
    """A seeded form of degree 0, 1 or 2, in normal form."""
    if degree == 0:
        return calc.form0(sample_coeff(rnd))
    one = calc.left_mult(sample_coeff(rnd), calc.d0(sample_coeff(rnd)))
    if degree == 1:
        return one
    return calc.multiply(one, sample_form(rnd, calc, 1))


def project_oracle(tss, vec):
    """e . vec through Calculus.multiply: extend by the generator
    columns, which are the columns of the idempotent matrix."""
    return tss.extend([tss.generator(alpha) for alpha in range(tss.dim_w)],
                      vec)


@pytest.mark.parametrize("weights", [[1], [1, -1]], ids=["1", "1_-1"])
def test_project_matches_the_extend_oracle(weights):
    tss = connection.TensoredSectionSpace(CALC, weights, 1)
    rnd = random.Random(23)
    for degree in (0, 1, 2):
        for _ in range(3):
            while True:
                vec = [sample_form(rnd, CALC, degree)
                       for _ in range(tss.dim_w)]
                expected = project_oracle(tss, vec)
                if not all(w.is_zero() for w in expected):
                    break
            assert tss.project(vec) == expected
            # and the per-term loop it replaced
            assert oracles.project(tss, vec) == expected


@pytest.mark.parametrize("weights, products", [
    ((1, -1), 16), ((0, 0, 1), 10)], ids=["1_-1", "0_0_1"])
def test_idempotent_certificate_skips_empty_factors(monkeypatch, weights,
                                                    products):
    # e is block diagonal, one block per line, so the e^2 = e certificate
    # makes only the products e_{gamma beta} e_{beta alpha} of two
    # nonempty entries: 16 and 10 of the 64, counted from the built e to
    # the section basis
    calls = _count_calls(monkeypatch, coeff.Algebra, "multiply")
    idempotent_matrix = bundle.idempotent_matrix
    sections_basis = bundle.sections_basis
    seen = []

    def built(*args):
        e = idempotent_matrix(*args)
        del calls[:]
        return e
    monkeypatch.setattr(bundle, "idempotent_matrix", built)
    monkeypatch.setattr(bundle, "sections_basis", lambda *args:
                        seen.append(len(calls)) or sections_basis(*args))
    tss = connection.TensoredSectionSpace(CALC, weights, 1)
    assert seen == [products]
    e = tss.e_matrix
    assert products == sum(1 for g in e for b in range(tss.dim_w)
                           for a in range(tss.dim_w) if g[b] and e[b][a])


def test_project_raises_where_the_oracle_overflows():
    # e has level 2, so at window 4 a level-3 entry needs level 5 and a
    # level-4 entry level 6; the first word that overflows names its
    # level, in coordinate order and then word order
    narrow = calculus.Calculus(coeff.Algebra(4), CALC.data)
    tss = connection.TensoredSectionSpace(narrow, V, 1)
    low, mid, high = (coeff.basis_element(n, 1, 1) for n in (2, 3, 4))
    zero = narrow.zero(1)
    vectors = [
        [calculus.form(1, {(0,): low, (1,): low}), zero],
        [calculus.form(1, {(0,): mid, (1,): high}), zero],
        [calculus.form(1, {(1,): high, (0,): mid}), zero],
        [zero, calculus.form(1, {(2,): low + high})],
        [calculus.form(1, {(0,): low}), calculus.form(1, {(3,): mid})],
    ]
    outcomes = [oracles.outcome(tss.project, vec) for vec in vectors]
    assert outcomes == [oracles.outcome(project_oracle, tss, vec)
                        for vec in vectors]
    assert outcomes == [oracles.outcome(oracles.project, tss, vec)
                        for vec in vectors]
    window = "product needs level %d beyond the coefficient window 4"
    assert outcomes[1:] == [window % 5, window % 6, window % 6, window % 5]
    assert outcomes[0] != tss.zero(1)


def test_project_makes_no_coefficient_product(monkeypatch):
    # the rows e_{gamma beta} t_key come from the basis products, and
    # project reads them; the cached rows are the coefficient products
    tss = connection.TensoredSectionSpace(CALC, V, 1)
    rnd = random.Random(29)
    vecs = [[sample_form(rnd, CALC, degree) for _ in range(tss.dim_w)]
            for degree in (0, 1, 2)]
    calls = _count_calls(monkeypatch, coeff.Algebra, "product_terms")
    assert tss._rows == {}
    cold = [tss.project(vec) for vec in vecs]
    assert calls == [] and tss._rows
    rows = dict(tss._rows)
    assert [tss.project(vec) for vec in vecs] == cold
    assert calls == [] and tss._rows == rows
    monkeypatch.undo()
    for (gamma, beta, key), row in rows.items():
        assert tss.e_matrix[gamma][beta]
        assert dict(row) == A.multiply(tss.e_matrix[gamma][beta],
                                       coeff.basis_element(*key)).terms
        assert dict(row) == oracles.times_basis(A, tss.e_matrix[gamma][beta],
                                                key)


def _unprojected_lambda(self, vec):
    """The mutant e . d + Lambda: Lambda vec is left unprojected."""
    tss = self.tss
    out = tss.project([tss.calc.d(w) for w in vec])
    if self.columns is not None:
        out = tss.add(out, tss.extend(self.columns, vec))
    return out


def test_nabla_lands_in_the_realization(monkeypatch):
    # e . (d + Lambda) ends with the projection, so project fixes nabla
    # psi, for nabla0 and a scalar Lambda on the basis sections and the
    # generators; no verify check compares project(nabla psi) with nabla
    # psi, so the mutant e . d + Lambda passes verify and fails here
    vecs = TSS.vectors + [TSS.generator(a) for a in range(TSS.dim_w)]
    for conn in (CONN0, CONN_A):
        assert all(is_invariant(TSS, conn.apply(vec)) for vec in vecs)
    monkeypatch.setattr(connection.ConnectionMap, "apply",
                        _unprojected_lambda)
    assert all(is_invariant(TSS, CONN0.apply(vec)) for vec in vecs)
    assert not any(is_invariant(TSS, CONN_A.apply(vec)) for vec in vecs)


def test_perturbation_is_e_lambda():
    # apply = nabla0 + A with A = e.Lambda, Lambda = diag(theta, 3 theta)
    lam = [[CALC.theta(), CALC.zero(1)], [CALC.zero(1), CALC.theta().scale(3)]]
    for s in TSS.sections:
        for psi in (TSS.from_section(s), CONN0.on_section(s)):
            a_psi = TSS.project([CALC.multiply(lam[g][0], psi[0])
                                 + CALC.multiply(lam[g][1], psi[1])
                                 for g in range(TSS.dim_w)])
            assert CONN_A.perturbation(psi) == a_psi
            assert CONN_A.apply(psi) == TSS.add(CONN0.apply(psi), a_psi)


def test_verify_certifies_basis_entries_once(monkeypatch, tmp_path,
                                             cold_tables):
    # the connection and curvature suites build 13 diagonal scalar
    # perturbations, which certify the two entries E_ii theta between
    # them; certifying each Lambda on its own columns makes 130
    # perturbation calls and 392 projections
    perturbations = _count_calls(monkeypatch, connection.ConnectionMap,
                                 "perturbation")
    projections = _count_calls(monkeypatch, connection.TensoredSectionSpace,
                               "project")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", "0", "--suite", "connection",
                     "--suite", "curvature", "--out", str(out)]) == 0
    assert len(perturbations) <= 40
    assert len(projections) <= 282


def test_verify_builds_each_section_vector_once(monkeypatch, tmp_path,
                                               cold_tables):
    # a TensoredSectionSpace builds the vector of each basis section in
    # __init__ and that of zeta_j a once per test element a: the
    # workspace's space has 2 sections against 1 and the three Podles
    # generators, the trivial bundle's space 4 sections and no product.
    # Rebuilding them in every right-linearity loop made 239 calls
    calls = collections.Counter()
    fn = connection.TensoredSectionSpace.from_section
    monkeypatch.setattr(connection.TensoredSectionSpace, "from_section",
                        lambda self, section:
                        calls.update([self]) or fn(self, section))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", "0", "--suite", "connection",
                     "--suite", "curvature", "--out", str(out)]) == 0
    assert sorted((len(tss.sections), n) for tss, n in calls.items()) == [
        (2, 2 * 5), (4, 4)]


def test_connection_command_reads_nabla0_on_sections_once(monkeypatch,
                                                          tmp_path,
                                                          cold_tables):
    # `qhvb connection` reports nabla0 on the basis sections and on the
    # generators from the curvature's nabla_sections and
    # nabla_generators: 2 section vectors and 2 * 3 products with the
    # Podles generators.  Recomputing it per section through
    # ConnectionMap.on_section made 10 vectors and 26 projections, and
    # applying nabla0 to the generators again 2 more projections
    sections = _count_calls(monkeypatch, connection.TensoredSectionSpace,
                            "from_section")
    projections = _count_calls(monkeypatch, connection.TensoredSectionSpace,
                               "project")
    out = tmp_path / "connection.json"
    assert cli.main(["connection", "--out", str(out)]) == 0
    assert (len(sections), len(projections)) == (8, 22)


def test_scalar_lambda_certifies_new_basis_entries_only(monkeypatch):
    monkeypatch.setattr(TSS, "certified", set())
    calls = _count_calls(monkeypatch, connection.ConnectionMap, "perturbation")
    # two sections, each against 1 and three generators, per basis entry
    per_entry = len(TSS.sections) * 5
    connection.make_connection(TSS, [[1, 0], [0, Scalar(3)]])
    assert len(calls) == 2 * per_entry
    assert TSS.certified == {(0, 0), (1, 1)}
    del calls[:]
    connection.make_connection(TSS, [[Scalar(-2), 0], [0, 1]])
    assert calls == []
    connection.make_connection(TSS, [[0, 0], [Scalar(2), 0]])
    assert len(calls) == per_entry
    assert TSS.certified == {(0, 0), (1, 1), (1, 0)}


def test_direct_certificate_is_the_oracle(monkeypatch):
    # the same Lambda with form entries c.theta keeps no Scalar matrix: it
    # runs the certificate on its own columns, through extend and with
    # no theta product of the space, and builds the same connection
    calls = _count_calls(monkeypatch, connection.ConnectionMap, "perturbation")
    extends = _count_calls(monkeypatch, connection.TensoredSectionSpace,
                           "extend")
    thetas = _count_calls(monkeypatch, connection.TensoredSectionSpace,
                          "theta_times")
    rnd = random.Random(5)
    for _ in range(3):
        lam = [[Scalar(rnd.randint(-3, 3)) for _ in range(TSS.dim_w)]
               for _ in range(TSS.dim_w)]
        via_basis = connection.make_connection(TSS, lam)
        del calls[:], extends[:], thetas[:]
        direct = connection.make_connection(
            TSS, [[CALC.theta().scale(c) for c in row] for row in lam])
        assert direct.scalars is None
        assert len(calls) == len(extends) == len(TSS.sections) * 5
        assert thetas == []
        for s in TSS.sections:
            psi = TSS.from_section(s)
            assert via_basis.apply(psi) == direct.apply(psi)
        # on the owned vectors the scalar Lambda reads theta zeta, and
        # the form-valued one goes through extend, once per vector
        owned = TSS.vectors + list(TSS._products.values())
        del extends[:]
        assert [direct.apply(vec) for vec in owned] == [
            direct.apply(vec) for vec in owned]
        assert len(extends) == len(owned)
        for vec in owned:
            assert via_basis.apply(vec) == direct.apply(vec)
            assert via_basis.apply(vec) == oracles.connection_apply(
                via_basis, list(vec))


def test_broken_product_fails_both_certificates(monkeypatch):
    # a right factor of degree 0 doubles a form of positive degree, so
    # (theta f) g = 4 theta f g but theta (f g) = 2 theta f g
    # on a space of its own, so no theta product made under the broken
    # product stays in the shared space's cache
    tss = connection.TensoredSectionSpace(CALC, V, 1)
    multiply = calculus.Calculus.multiply
    monkeypatch.setattr(calculus.Calculus, "multiply", lambda self, x, y:
                        multiply(self, x, y).scale(
                            2 if x.degree and not y.degree else 1))
    tail = (r"basis section 0, a = 1: A\(psi a\) != A\(psi\) a; "
            r"certificate scope: the level-1 basis sections against 1 and "
            r"the three Podles generators$")
    with pytest.raises(connection.NotLinear,
                       match=r"^Lambda basis entry \(0, 0\): " + tail):
        connection.make_connection(tss, [[1, 0], [0, 3]])
    with pytest.raises(connection.NotLinear, match="^" + tail):
        connection.make_connection(tss, [[CALC.theta(), CALC.zero(1)],
                                         [CALC.zero(1), CALC.theta()]])
    assert tss.certified == set()


def _basis_map(tss, i, j):
    """The uncertified map of Lambda = E_ij theta on the scalar path."""
    return connection.ConnectionMap(tss, [[ONE if (g, b) == (i, j) else ZERO
                                           for b in range(tss.dim_w)]
                                          for g in range(tss.dim_w)])


def test_cached_walk_values_match_the_uncached_oracle(tmp_path, cold_tables):
    # the connection and curvature suites fill the caches of the
    # workspace's space, nabla0 and its curvature from cold; every cached
    # value equals a fresh computation on a vector rebuilt as a plain
    # list, for nabla0, the 13 seeded perturbations of verify and the
    # basis maps E_ii theta that certify them
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", "0", "--suite", "connection",
                     "--suite", "curvature", "--out", str(out)]) == 0
    ws = cli._Workspace(cli.RunConfig())
    tss, conn0, F = ws.tss(), ws.conn0(), ws.curvature0()
    calc = tss.calc
    tests = [coeff.unit()] + PODLES
    owned = tss.vectors + list(tss._products.values())
    assert sorted(map(repr, (vec.key for vec in owned))) == sorted(
        map(repr, list(range(2)) + [(j, a) for j in range(2) for a in tests]))
    fresh = {}
    for vec in owned:
        j, a = vec.key if isinstance(vec.key, tuple) else (vec.key, None)
        section = tss.sections[j] if a is None else tss.sections[j].times(a)
        fresh[vec.key] = tss.from_section(section)
        assert type(fresh[vec.key]) is list and fresh[vec.key] == vec
    # the verify run read theta zeta of every owned vector (the
    # certificate walks a = 1 too), and d zeta and the Leibniz terms of
    # the sections and their products with the Podles generators
    assert set(tss._theta) == set(fresh)
    assert set(tss._d) == set(range(2)) | set(tss._leibniz)
    assert set(tss._leibniz) == {(j, a) for j in range(2) for a in PODLES}
    for vec in owned:
        plain = fresh[vec.key]
        assert tss.d(vec) is tss._d[vec.key]
        assert tss.d(vec) == [calc.d(w) for w in plain]
        assert tss.theta_times(vec) == [calc.multiply(calc.theta(), w)
                                        for w in plain]
    for (j, a), term in tss._leibniz.items():
        assert term == tss.right_mult(fresh[j], calc.d0(a))
    rng = lambda name: cli._rng(ws.cfg, name)
    perturbed = (cli._seeded_perturbations(tss, rng("connection-perturbed"),
                                           10)
                 + cli._seeded_perturbations(
                     tss, rng("connection-differences"), 3))
    assert len(perturbed) == 13
    assert all(conn.scalars for conn in perturbed)
    for conn in [conn0] + perturbed:
        walk = list(tss.right_linearity(conn.apply, PODLES))
        assert walk == list(oracles.right_linearity(
            tss, lambda vec: oracles.connection_apply(conn, vec), PODLES))
        for vec in owned:
            assert conn.apply(vec) is conn.images[vec.key]
            assert conn.images[vec.key] == oracles.connection_apply(
                conn, fresh[vec.key])
    for vec in owned:
        assert F.apply(vec) == conn0.apply(conn0.apply(fresh[vec.key]))
    assert set(F.images) >= set(range(2))
    assert tss.certified == {(0, 0), (1, 1)}
    for i in range(tss.dim_w):
        basis = _basis_map(tss, i, i)
        walk = list(tss.right_linearity(basis.perturbation, tests))
        assert walk == list(oracles.right_linearity(
            tss, lambda vec: oracles.perturbation(basis, vec), tests))
        assert all(lhs == rhs for _, _, lhs, rhs in walk)
        for vec in owned:
            assert basis.apply(vec) == oracles.connection_apply(
                basis, fresh[vec.key])


def test_difference_right_linear():
    def diff(vec):
        return TSS.add(CONN_A.apply(vec),
                       [x.scale(Scalar(-1)) for x in CONN0.apply(vec)])
    for s in TSS.sections:
        for g in PODLES:
            lhs = diff(TSS.from_section(s.times(g)))
            rhs = TSS.right_mult(diff(TSS.from_section(s)), CALC.form0(g))
            assert lhs == rhs


def curvature_is_zero(F):
    """Every curvature value, on the generators and on the sections, is
    the zero form."""
    return all(w.is_zero() for v in F.on_generators + F.on_sections
               for w in v)


def test_curvature_properties():
    for conn in (CONN0, CONN_A):
        F = connection.CurvatureMap(conn)
        assert not curvature_is_zero(F)
        assert F.linearity_check()
        assert all(F.bianchi_check())


def test_curvature_omega_linearity():
    for s in TSS.sections:
        psi = TSS.from_section(s)
        for w in [CALC.theta(), CALC.d0(PODLES[1])]:
            lhs = CONN_A.apply(CONN_A.apply(TSS.right_mult(psi, w)))
            rhs = TSS.right_mult(CONN_A.apply(CONN_A.apply(psi)), w)
            assert lhs == rhs


def test_curvature_regression():
    F = connection.CurvatureMap(CONN0)
    table = {}
    for a, fv in enumerate(F.on_generators):
        for g, w in enumerate(fv):
            for key, ce in w.coords.items():
                if not ce.is_zero():
                    table[(a, g, key)] = str(ce)
    assert len(table) == 8
    assert all(key[2] in ((2, 1), (3, 2)) for key in table)
    assert table[(0, 0, (2, 1))] == (
        "((-u^24 + 2*u^16 - u^8)/(u^8 + 1))"
        " + ((-u^16 + 2*u^8 - 1)/(u^8 + 1)) t[2;1,1]")
    assert table[(0, 1, (3, 2))] == (
        "((-u^24 + 3*u^16 - 3*u^8 + 1)/(u^4)) t[2;2,0]")
    assert table[(1, 0, (2, 1))] == "(u^18 - 2*u^10 + u^2) t[2;0,1]"


def test_trivial_bundle():
    tt = connection.TensoredSectionSpace(CALC, (0,), 2)
    assert tt.dim_w == 1
    conn = connection.make_connection(tt)
    for s in tt.sections:
        f = s.coords[0]
        assert conn.on_section(s) == [CALC.d0(f)]
        psi = tt.from_section(s)
        assert conn.apply(psi) == [CALC.d(psi[0])]
    F = connection.CurvatureMap(conn)
    assert curvature_is_zero(F)


def test_level_overflow_propagates():
    narrow = calculus.Calculus(coeff.Algebra(4),
                               calculus.from_rep(repmod.irrep(1)))
    tss = connection.TensoredSectionSpace(narrow, V, 1)
    with pytest.raises(coeff.LevelOverflow):
        connection.make_connection(tss).on_section(
            tss.sections[0].times(PODLES[0]))
    with pytest.raises(coeff.LevelOverflow):
        connection.make_connection(tss, [[1, 0], [0, 3]])
    with pytest.raises(coeff.LevelOverflow):
        narrow.d(calculus.form(1, {(0,): coeff.basis_element(5, 0, 1)}))
    with pytest.raises(coeff.LevelOverflow, match="^product needs level 5 "
                       "beyond the coefficient window 4$"):
        narrow.multiply(calculus.form(1, {(0,): coeff.basis_element(3, 0, 1)}),
                        narrow.d0(coeff.basis_element(2, 1, 0)))
