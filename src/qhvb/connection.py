"""Connections and curvature on quantum homogeneous vector bundles.

The sections tensored with forms over the invariant subalgebra are
realized through the bundle idempotent: an element of H(V) (x) Omega^n
is a W-indexed vector of degree-n forms fixed by left multiplication
with the idempotent's coefficient matrix

    e_{beta alpha} = sum_r t_{beta, idx(r)} S(t_{idx(r), alpha}),

which turns every operator of interest into finite exact linear
algebra.  Because e acts as the identity on such a vector, its entries
are themselves the coefficients of the presentation

    psi = sum_beta zeta_beta (x) psi_beta,    zeta_beta = wp(w_beta),

so right-linear maps extend from their values on the generating
sections by right multiplication in the last leg.

The distinguished connection is nabla0 = e . (id (x) d); on sections it
is the chain im -> coordinatewise d -> project.  Every connection is
nabla0 + A with A right-linear into one-form coefficients, given here
either as a W-matrix of one-forms acting by left multiplication or by
its values on the sections basis (a scalar entry means that multiple of
theta); both presentations pass through an exact right-linearity
certificate against the invariant generators.  The curvature is the
restriction of nabla^2 to the sections; its right-linear extension
F-hat satisfies the operator identity nabla(F(zeta)) = F-hat(nabla(zeta)).
"""

from .scalars import Scalar, Matrix, NoSolution, ZERO
from . import coeff, homspace, bundle, calculus


class NotLinear(Exception):
    """A perturbation failed the right-linearity certificate."""


class TensoredSectionSpace:
    """The realization e(W (x) Omega) of the sections tensored with the
    restricted forms, at a fixed section level window."""

    def __init__(self, calc, lmodule, N):
        self.calc = calc
        self.algebra = calc.algebra
        self.lmodule = lmodule
        self.N = N
        self.completion = bundle.complete(lmodule)
        self.dim_w = self.completion.dim_w
        e = self.e_matrix = bundle.idempotent_matrix(self.algebra,
                                                     self.completion)
        # e^2 = e entrywise: the projectivity certificate for the
        # coefficient matrix realizing the relative tensor product
        for gamma in range(self.dim_w):
            for alpha in range(self.dim_w):
                acc = coeff.CoeffElement()
                for beta in range(self.dim_w):
                    acc = acc + self.algebra.multiply(e[gamma][beta],
                                                      e[beta][alpha])
                assert acc == e[gamma][alpha], "idempotent matrix identity"
        self.sections = bundle.sections_basis(self.algebra, lmodule, N)

    # -- elements --------------------------------------------------------

    def zero(self, degree):
        return [self.calc.zero(degree) for _ in range(self.dim_w)]

    def degree_of(self, vec):
        degrees = set(w.degree for w in vec)
        assert len(degrees) == 1
        return degrees.pop()

    def project(self, vec):
        """Left multiplication by the idempotent matrix, reduced."""
        degree = self.degree_of(vec)
        out = []
        for beta in range(self.dim_w):
            acc = self.calc.zero(degree)
            for alpha in range(self.dim_w):
                g = self.e_matrix[beta][alpha]
                if g.is_zero() or vec[alpha].is_zero():
                    continue
                acc = acc + self.calc.left_mult(g, vec[alpha])
            out.append(self.calc.reduce_mod_J(acc))
        return out

    def reduce(self, vec):
        return [self.calc.reduce_mod_J(w) for w in vec]

    def is_invariant(self, vec):
        return self.project(vec) == self.reduce(vec)

    def from_section(self, section):
        el = bundle.im(self.algebra, self.completion, section)
        return [self.calc.form0(el.get(beta, coeff.CoeffElement()))
                for beta in range(self.dim_w)]

    def to_section(self, vec):
        assert self.degree_of(vec) == 0
        element = {beta: w.coords.get((), coeff.CoeffElement())
                   for beta, w in enumerate(vec)}
        return bundle.wp(self.algebra, self.completion, element)

    def generator(self, alpha):
        """The coordinates of zeta_alpha = wp(w_alpha (x) 1): the
        alpha-th column of the idempotent matrix."""
        return [self.calc.form0(self.e_matrix[beta][alpha])
                for beta in range(self.dim_w)]

    def right_mult(self, vec, w):
        """Right multiplication by a form, coordinatewise."""
        return [self.calc.reduce_mod_J(self.calc.multiply(psi, w))
                for psi in vec]

    def add(self, v1, v2):
        return [a + b for a, b in zip(v1, v2)]

    def equal(self, v1, v2):
        return self.reduce(v1) == self.reduce(v2)

    def section_coordinates(self, section):
        """Coordinates of a section in the stored basis; NoSolution if
        it lies outside the level window."""
        def flatten(s):
            d = {}
            for r, f in enumerate(s.components):
                for key, sc in f.terms.items():
                    d[(r, key)] = sc
            return d
        basis = [flatten(s) for s in self.sections]
        target = flatten(section)
        index = {}
        for d in basis + [target]:
            for key in d:
                index.setdefault(key, len(index))
        m = Matrix.zeros(len(index), len(basis))
        rhs = [ZERO] * len(index)
        for j, d in enumerate(basis):
            for key, sc in d.items():
                m.a[index[key]][j] = sc
        for key, sc in target.items():
            rhs[index[key]] = sc
        return m.solve(rhs)

    # -- the distinguished connection -------------------------------------

    def partial(self, section):
        """The chain im, coordinatewise d, project."""
        el = bundle.im(self.algebra, self.completion, section)
        return self.project([
            self.calc.d0(el.get(beta, coeff.CoeffElement()))
            for beta in range(self.dim_w)])

    def nabla0(self, vec):
        """The Grassmann realization e . (id (x) d)."""
        return self.project([self.calc.d(w) for w in vec])

    def nabla0_chain(self, vec):
        """The same map through the generator presentation and the
        Leibniz rule: sum_beta partial(zeta_beta) psi_beta
        + zeta_beta (x) d(psi_beta).  Computed independently of
        nabla0 so their agreement is a real check."""
        degree = self.degree_of(vec)
        out = self.zero(degree + 1)
        for beta in range(self.dim_w):
            if vec[beta].is_zero():
                continue
            pg = self.partial(self.section_from_generator(beta))
            term1 = [self.calc.multiply(pg[gamma], vec[beta])
                     for gamma in range(self.dim_w)]
            gen = self.generator(beta)
            dpsi = self.calc.d(vec[beta])
            term2 = [self.calc.multiply(gen[gamma], dpsi)
                     for gamma in range(self.dim_w)]
            out = self.add(out, self.add(term1, term2))
        return self.reduce(out)

    def section_from_generator(self, beta):
        element = {beta: coeff.unit()}
        return bundle.wp(self.algebra, self.completion, element)


def _as_one_form(calc, entry):
    if isinstance(entry, int):
        entry = Scalar(entry)
    if isinstance(entry, Scalar):
        return calc.theta().scale(entry)
    assert isinstance(entry, calculus.FormElement) and entry.degree == 1
    return entry


class ConnectionMap:
    """nabla = nabla0 + A.  The perturbation is either a W-matrix of
    one-forms acting by left multiplication (on="coordinates") or its
    values on the sections basis, one column per basis section, extended
    right-linearly through the generator presentation (on="sections").
    A scalar entry stands for that multiple of theta.  Both forms pass
    an exact right-linearity certificate against the invariant
    generators; NotLinear if it fails."""

    def __init__(self, tss, perturbation=None, on="coordinates"):
        self.tss = tss
        calc = tss.calc
        if perturbation is None:
            self.a_map = None
        elif on == "coordinates":
            lam = [[_as_one_form(calc, entry) for entry in row]
                   for row in perturbation]
            assert len(lam) == tss.dim_w
            assert all(len(row) == tss.dim_w for row in lam)

            def a_map(vec):
                out = []
                for beta in range(tss.dim_w):
                    acc = calc.zero(tss.degree_of(vec) + 1)
                    for alpha in range(tss.dim_w):
                        if not vec[alpha].is_zero():
                            acc = acc + calc.multiply(lam[beta][alpha],
                                                      vec[alpha])
                    out.append(acc)
                return tss.project(out)

            self.a_map = a_map
        elif on == "sections":
            m = [[_as_one_form(calc, entry) for entry in row]
                 for row in perturbation]
            assert len(m) == len(tss.sections)
            assert all(len(row) == len(tss.sections) for row in m)
            on_sections = []
            for j in range(len(tss.sections)):
                acc = tss.zero(1)
                for i, section in enumerate(tss.sections):
                    if not m[i][j].is_zero():
                        acc = tss.add(acc, tss.right_mult(
                            tss.from_section(section), m[i][j]))
                on_sections.append(tss.reduce(acc))
            on_generators = []
            for beta in range(tss.dim_w):
                try:
                    c = tss.section_coordinates(
                        tss.section_from_generator(beta))
                except NoSolution:
                    raise NotLinear(
                        "level window does not contain the generators")
                acc = tss.zero(1)
                for j, cj in enumerate(c):
                    if cj:
                        acc = tss.add(acc, [w.scale(cj)
                                            for w in on_sections[j]])
                on_generators.append(tss.reduce(acc))
            self._a_on_sections = on_sections

            def a_map(vec):
                out = tss.zero(tss.degree_of(vec) + 1)
                for beta in range(tss.dim_w):
                    if vec[beta].is_zero():
                        continue
                    out = tss.add(out, [
                        calc.multiply(on_generators[beta][gamma], vec[beta])
                        for gamma in range(tss.dim_w)])
                return tss.reduce(out)

            self.a_map = a_map
        else:
            raise ValueError("on must be 'coordinates' or 'sections'")
        self._certify(on)

    def _certify(self, on):
        """A(psi a) = A(psi) a exactly, for basis sections psi and the
        invariant generators a, plus agreement with the prescribed
        values when A was given on the sections basis."""
        if self.a_map is None:
            return
        tss = self.tss
        tests = [coeff.unit()] + list(homspace.podles_generators())
        for j, section in enumerate(tss.sections):
            psi = tss.from_section(section)
            image = tss.reduce(self.a_map(psi))
            if on == "sections" and image != self._a_on_sections[j]:
                raise NotLinear("perturbation is not right-linear")
            for g in tests:
                lhs = tss.reduce(self.a_map(
                    tss.from_section(section.times(g))))
                rhs = tss.right_mult(image, tss.calc.form0(g))
                if lhs != rhs:
                    raise NotLinear("perturbation is not right-linear")

    def sections_matrix(self):
        """The perturbation expressed on the sections basis:
        A(zeta_j) = sum_i zeta_i (x) m_ij with one-form entries m_ij,
        recovered through the generator coordinates."""
        tss = self.tss
        n = len(tss.sections)
        m = [[tss.calc.zero(1) for _ in range(n)] for _ in range(n)]
        if self.a_map is None:
            return m
        cmat = [tss.section_coordinates(tss.section_from_generator(beta))
                for beta in range(tss.dim_w)]
        for j, section in enumerate(tss.sections):
            avec = tss.reduce(self.a_map(tss.from_section(section)))
            for i in range(n):
                acc = tss.calc.zero(1)
                for beta in range(tss.dim_w):
                    if cmat[beta][i]:
                        acc = acc + avec[beta].scale(cmat[beta][i])
                m[i][j] = acc
        return m

    def apply(self, vec):
        out = self.tss.nabla0(vec)
        if self.a_map is not None:
            out = self.tss.add(out, self.tss.reduce(self.a_map(vec)))
        assert self.tss.degree_of(out) == self.tss.degree_of(vec) + 1
        return self.tss.reduce(out)

    def on_section(self, section):
        return self.apply(self.tss.from_section(section))


def make_connection(tss, perturbation=None, on="coordinates"):
    return ConnectionMap(tss, perturbation, on)


class CurvatureMap:
    """The restriction of nabla^2 to the sections, together with its
    right-linear extension through the generator presentation."""

    def __init__(self, conn):
        self.conn = conn
        tss = conn.tss
        self.on_generators = [conn.apply(conn.apply(tss.generator(alpha)))
                              for alpha in range(tss.dim_w)]
        self.on_sections = [conn.apply(conn.on_section(s))
                            for s in tss.sections]

    def hat(self, vec):
        """F-hat(sum_beta zeta_beta (x) psi_beta)
        = sum_beta F(zeta_beta) psi_beta."""
        tss = self.conn.tss
        calc = tss.calc
        out = tss.zero(tss.degree_of(vec) + 2)
        for beta in range(tss.dim_w):
            if vec[beta].is_zero():
                continue
            fb = self.on_generators[beta]
            out = tss.add(out, [calc.multiply(fb[gamma], vec[beta])
                                for gamma in range(tss.dim_w)])
        return tss.reduce(out)

    def is_zero(self):
        return all(w.is_zero() for v in self.on_generators + self.on_sections
                   for w in v)

    def linearity_check(self):
        """F(zeta a) = F(zeta) a on every basis section and invariant
        generator."""
        tss = self.conn.tss
        conn = self.conn
        for f_val, section in zip(self.on_sections, tss.sections):
            for g in homspace.podles_generators():
                lhs = conn.apply(conn.on_section(section.times(g)))
                rhs = tss.right_mult(f_val, tss.calc.form0(g))
                if not tss.equal(lhs, rhs):
                    return False
        return True

    def bianchi_check(self):
        """nabla(F(zeta)) = F-hat(nabla(zeta)) on every basis section."""
        tss = self.conn.tss
        results = []
        for section, f_val in zip(tss.sections, self.on_sections):
            lhs = self.conn.apply(f_val)
            rhs = self.hat(self.conn.on_section(section))
            results.append(tss.equal(lhs, rhs))
        return results


def curvature(conn):
    return CurvatureMap(conn)
