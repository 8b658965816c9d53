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

Every connection is e . (d + Lambda) for one W-matrix Lambda of
one-forms acting by left multiplication (Connes 1994; Hajac-Majid 1999):
nabla0 = e . d is Lambda = 0, and A = nabla - nabla0 = e . Lambda.  A
scalar entry of Lambda means that multiple of theta.  A passes an exact
right-linearity certificate against the invariant generators: a Lambda
with scalar entries through the basis perturbations E_ij theta in its
support, each certified once per TensoredSectionSpace (A is linear in
Lambda), and any other Lambda on its own columns.  That certificate,
the law and difference checks of verify and the curvature's
right-linearity are one walk, TensoredSectionSpace.right_linearity, over
section vectors built once per space.  On sections nabla0 is the chain
im -> coordinatewise d -> project.  project, the left multiplication by
e, reads cached rows of e: one list e_{gamma beta} t_key per (gamma,
beta, Peter-Weyl key), so it makes no coefficient product, and it sums
each coordinate unreduced with one cancellation per entry.  The
curvature is the restriction of nabla^2 to the sections; its
right-linear extension F-hat satisfies the operator identity
nabla(F(zeta)) = F-hat(nabla(zeta)).
"""

from .scalars import Scalar, add_row, finish_sum, merge_sums
from . import coeff, homspace, bundle, calculus


class NotLinear(Exception):
    """A perturbation failed the right-linearity certificate."""


class NoSections(Exception):
    """A weight line of the bundle has no section at the section level."""


class TensoredSectionSpace:
    """The realization e(W (x) Omega) of the sections tensored with the
    restricted forms, at a fixed section level window.  A weight-m line
    has sections from level |m| on; NoSections, before any other work,
    when some line has none at level <= N.  The section basis must hold
    the weight-multiplicity count of sections, or AssertionError."""

    def __init__(self, calc, lmodule, N):
        for m in lmodule.weights:
            if abs(m) > N:
                raise NoSections("no section of weight %s at level <= %d"
                                 % (m, N))
        self.calc = calc
        self.algebra = calc.algebra
        self.lmodule = lmodule
        self.N = N
        self.completion = bundle.Completion(lmodule)
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
                if acc != e[gamma][alpha]:
                    raise AssertionError("idempotent matrix identity fails "
                                         "at (%d, %d)" % (gamma, alpha))
        self.sections = bundle.sections_basis(self.algebra, lmodule, N)
        count = bundle.sections_count(lmodule.weights, N)
        if len(self.sections) != count:
            raise AssertionError("section count up to level %d: %d != "
                                 "weight-multiplicity count %d"
                                 % (N, len(self.sections), count))
        # the realization of each basis section, and of zeta_j a per
        # (j, a) once the right-linearity walk reads it
        self.vectors = [self.from_section(s) for s in self.sections]
        self._products = {}
        # (gamma, beta, Peter-Weyl key) -> e_{gamma beta} t_key (see project)
        self._rows = {}
        # the entries (i, j) whose basis perturbation E_ij theta passed
        # the right-linearity certificate (see ConnectionMap)
        self.certified = set()

    # -- elements --------------------------------------------------------

    def zero(self, degree):
        return [self.calc.zero(degree) for _ in range(self.dim_w)]

    def degree_of(self, vec):
        degrees = set(w.degree for w in vec)
        assert len(degrees) == 1
        return degrees.pop()

    def extend(self, values, vec):
        """The right-linear map taking the beta-th generating vector
        zeta_beta to values[beta], at sum_beta zeta_beta (x) vec[beta]:
        coordinate gamma is sum_beta values[beta][gamma] vec[beta]."""
        degree = values[0][0].degree + self.degree_of(vec)
        out = []
        for gamma in range(self.dim_w):
            acc = self.calc.zero(degree)
            for beta, psi in enumerate(vec):
                v = values[beta][gamma]
                if v and psi:
                    acc = acc + self.calc.multiply(v, psi)
            out.append(acc)
        return out

    def _row(self, gamma, beta, key):
        """e_{gamma beta} t_key in the Peter-Weyl basis as a list of
        (key, Scalar), built once from the basis products."""
        row = self._rows.get((gamma, beta, key))
        if row is None:
            row = list(self.algebra.times_basis(self.e_matrix[gamma][beta],
                                                key).items())
            self._rows[(gamma, beta, key)] = row
        return row

    def project(self, vec):
        """Left multiplication by the idempotent matrix on a vector of
        normal forms: coordinate gamma is sum_beta e_{gamma beta} psi_beta.
        Every entry x at (word, key) of psi_beta adds x times the cached
        row e_{gamma beta} t_key at that word, so project makes no
        coefficient product.  The products of one (gamma, beta) are
        unreduced sums per word (scalars.add_row); each is checked
        against the window on its unreduced entries, as one coefficient
        product per word of Calculus.multiply would be, and merges
        unreduced into coordinate gamma, which is cancelled once per
        entry.  extend with the generator columns is the oracle."""
        degree = self.degree_of(vec)
        out = []
        for gamma, e_row in enumerate(self.e_matrix):
            acc = {}
            for beta, psi in enumerate(vec):
                if not e_row[beta]:
                    continue
                product = {}
                for (word, key), x in psi.terms.items():
                    add_row(product.setdefault(word, {}),
                            self._row(gamma, beta, key), x)
                for word, terms in product.items():
                    self.algebra.check_sum(terms)
                    merge_sums(acc, word, terms)
            out.append(calculus.FormElement(degree, finish_sum(acc)))
        return out

    def from_section(self, section):
        """The W coordinates of im(section), as degree-0 forms."""
        coords = bundle.im(self.algebra, self.completion, section).coords
        return [self.calc.form0(coords.get(beta, coeff.CoeffElement()))
                for beta in range(self.dim_w)]

    def generator(self, alpha):
        """The coordinates of zeta_alpha = wp(w_alpha (x) 1): the
        alpha-th column of the idempotent matrix."""
        return [self.calc.form0(self.e_matrix[beta][alpha])
                for beta in range(self.dim_w)]

    def right_mult(self, vec, w):
        """Right multiplication by a form, coordinatewise."""
        return [self.calc.multiply(psi, w) for psi in vec]

    def add(self, v1, v2):
        return [a + b for a, b in zip(v1, v2)]

    def right_linearity(self, op, tests, images=None):
        """(j, a, op(zeta_j a), op(zeta_j) a) for every basis section
        zeta_j and test element a, lazily, in section order and then in
        test order; images[j], when given, is op(zeta_j).  The vectors of
        zeta_j and zeta_j a are each built once per space."""
        for j, vec in enumerate(self.vectors):
            image = op(vec) if images is None else images[j]
            for a in tests:
                product = self._products.get((j, a))
                if product is None:
                    product = self._products[(j, a)] = self.from_section(
                        self.sections[j].times(a))
                yield (j, a, op(product),
                       self.right_mult(image, self.calc.form0(a)))


def _as_one_form(calc, entry):
    if isinstance(entry, (int, Scalar)):
        return calc.theta().scale(entry)
    assert isinstance(entry, calculus.FormElement) and entry.degree == 1
    return entry


_SCOPE = ("certificate scope: the level-%d basis sections against 1 and the "
          "three Podles generators")


class ConnectionMap:
    """nabla = e . (d + Lambda) on the realization, for a W-matrix Lambda
    of one-forms acting by left multiplication; Lambda = None is nabla0.
    A scalar entry stands for that multiple of theta.  The perturbation
    A = e . Lambda passes an exact right-linearity certificate against
    the invariant generators; NotLinear if it fails.

    A is linear in Lambda (extend, project and Calculus.multiply are
    Q(u)-linear): for scalar entries c_ij,
    A(psi a) - A(psi) a = sum c_ij (A_ij(psi a) - A_ij(psi) a) with
    A_ij = e . E_ij theta.  So a scalar Lambda is certified through the
    connections E_ij theta with c_ij != 0, each once per
    TensoredSectionSpace; a Lambda with a form-valued entry is certified
    on its own columns."""

    def __init__(self, tss, perturbation=None):
        self.tss = tss
        self.columns = None
        if perturbation is None:
            return
        lam = [[_as_one_form(tss.calc, entry) for entry in row]
               for row in perturbation]
        assert len(lam) == tss.dim_w
        assert all(len(row) == tss.dim_w for row in lam)
        self.columns = list(zip(*lam))
        if not all(isinstance(entry, (int, Scalar))
                   for row in perturbation for entry in row):
            self._certify()
            return
        for i, row in enumerate(perturbation):
            for j, c in enumerate(row):
                if c and (i, j) not in tss.certified:
                    basis = [[tss.calc.zero(1)] * tss.dim_w
                             for _ in range(tss.dim_w)]
                    basis[i][j] = tss.calc.theta()
                    try:
                        ConnectionMap(tss, basis)
                    except NotLinear as exc:
                        raise NotLinear("Lambda basis entry (%d, %d): %s"
                                        % (i, j, exc)) from None
                    tss.certified.add((i, j))

    def perturbation(self, vec):
        """A(vec) = e . Lambda . vec, for Lambda not None."""
        return self.tss.project(self.tss.extend(self.columns, vec))

    def _certify(self):
        """A(psi a) = A(psi) a exactly, for the level-N basis sections psi
        and a in {1, the three Podles generators}.  A NotLinear names the
        failing section and test element and states this scope: the
        certificate checks no other pair."""
        tss = self.tss
        tests = [coeff.unit()] + list(homspace.podles_generators())
        for j, g, lhs, rhs in tss.right_linearity(self.perturbation, tests):
            if lhs != rhs:
                raise NotLinear("basis section %d, a = %s: A(psi a) != "
                                "A(psi) a; %s" % (j, g, _SCOPE % tss.N))

    def apply(self, vec):
        """e . (d vec + Lambda vec), with one projection."""
        tss = self.tss
        out = [tss.calc.d(w) for w in vec]
        if self.columns is not None:
            out = tss.add(out, tss.extend(self.columns, vec))
        out = tss.project(out)
        assert tss.degree_of(out) == tss.degree_of(vec) + 1
        return out

    def on_section(self, section):
        return self.apply(self.tss.from_section(section))


def make_connection(tss, perturbation=None):
    return ConnectionMap(tss, perturbation)


class CurvatureMap:
    """The restriction of nabla^2 to the sections, together with its
    right-linear extension through the generator presentation.
    nabla_sections[j] = nabla(zeta_j) is computed once; F(zeta_j) and the
    Bianchi sides read it."""

    def __init__(self, conn):
        self.conn = conn
        tss = conn.tss
        self.on_generators = [self.apply(tss.generator(alpha))
                              for alpha in range(tss.dim_w)]
        self.nabla_sections, self.on_sections = [], []
        for vec in tss.vectors:
            self.nabla_sections.append(conn.apply(vec))
            self.on_sections.append(conn.apply(self.nabla_sections[-1]))

    def apply(self, vec):
        """F(vec) = nabla(nabla(vec))."""
        return self.conn.apply(self.conn.apply(vec))

    def hat(self, vec):
        """F-hat(sum_beta zeta_beta (x) psi_beta)
        = sum_beta F(zeta_beta) psi_beta."""
        return self.conn.tss.extend(self.on_generators, vec)

    def linearity_check(self):
        """F(zeta a) = F(zeta) a on every basis section and invariant
        generator."""
        return all(lhs == rhs for _, _, lhs, rhs in
                   self.conn.tss.right_linearity(
                       self.apply, homspace.podles_generators(),
                       self.on_sections))

    def bianchi_sides(self, j):
        """nabla(F(zeta_j)) and F-hat(nabla(zeta_j)) for the j-th basis
        section."""
        return (self.conn.apply(self.on_sections[j]),
                self.hat(self.nabla_sections[j]))

    def bianchi_check(self):
        """nabla(F(zeta)) = F-hat(nabla(zeta)) on every basis section."""
        return [lhs == rhs for lhs, rhs in map(self.bianchi_sides,
                                               range(len(self.on_sections)))]
