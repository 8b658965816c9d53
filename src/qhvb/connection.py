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
scalar entry of Lambda means that multiple of theta.  make_connection
certifies A exactly against the invariant generators: a Lambda with
scalar entries through the basis perturbations E_ij theta in its
support, each certified once per TensoredSectionSpace (A is linear in
Lambda), and any other Lambda on its own columns.  That certificate,
the law and difference checks of verify and the curvature's
right-linearity are one walk, TensoredSectionSpace.right_linearity, over
the section vectors the space owns (zeta_j and zeta_j a, each built once
and tagged with its walk key).  The space computes d zeta, theta zeta
and the Leibniz terms once per key, and each map keeps its own images.
Every nabla(zeta) is still one projection e . (d zeta + Lambda zeta) of
its own sum, never recombined from nabla0 and the e . E_ij theta: that
would make the perturbed law restate the certificate.
On sections nabla0 is the chain im -> coordinatewise d -> project.
project, the left multiplication by e, reads cached rows of e: one list
e_{gamma beta} t_key per (gamma, beta, Peter-Weyl key), so it makes no
coefficient product, and it sums each coordinate unreduced with one
cancellation per entry.  The curvature is the restriction of nabla^2 to
the sections; its right-linear extension F-hat satisfies the operator
identity nabla(F(zeta)) = F-hat(nabla(zeta)).
"""

from .scalars import ONE, ZERO, Scalar, add_row, finish_sum, merge_sums
from . import coeff, homspace, bundle, calculus


class NotLinear(Exception):
    """A perturbation failed the right-linearity certificate."""


class NoSections(Exception):
    """A weight line of the bundle has no section at the section level."""


class OwnedVector(list):
    """A section vector that a TensoredSectionSpace builds once and keeps:
    zeta_j under the walk key j, zeta_j a under (j, a).  Every value
    cached per vector is keyed by that key."""

    __slots__ = ("key",)

    def __init__(self, key, coords):
        super().__init__(coords)
        self.key = key


def _once(cache, vec, compute):
    """compute(vec), stored in cache under the key of an owned vector;
    any other vector is computed afresh."""
    if not isinstance(vec, OwnedVector):
        return compute(vec)
    value = cache.get(vec.key)
    if value is None:
        value = cache[vec.key] = compute(vec)
    return value


class TensoredSectionSpace:
    """The realization e(W (x) Omega) of the sections tensored with the
    restricted forms, at a fixed section level window.  A weight-m line
    has sections from level |m| on; NoSections, before any other work,
    when some line has none at level <= N.  The section basis must hold
    the weight-multiplicity count of sections, or AssertionError."""

    def __init__(self, calc, weights, N):
        self.weights = tuple(weights)
        for m in self.weights:
            if abs(m) > N:
                raise NoSections("no section of weight %s at level <= %d"
                                 % (m, N))
        self.calc = calc
        self.algebra = calc.algebra
        self.N = N
        self.completion = bundle.Completion(self.weights)
        self.dim_w = self.completion.dim_w
        e = self.e_matrix = bundle.idempotent_matrix(self.algebra,
                                                     self.completion)
        # e^2 = e entrywise: the projectivity certificate for the
        # coefficient matrix realizing the relative tensor product; a
        # product with an empty factor is zero and is skipped
        for gamma in range(self.dim_w):
            for alpha in range(self.dim_w):
                square = coeff.CoeffElement().combination(
                    (ONE, self.algebra.multiply(e[gamma][beta],
                                                e[beta][alpha]))
                    for beta in range(self.dim_w)
                    if e[gamma][beta] and e[beta][alpha])
                if square != e[gamma][alpha]:
                    raise AssertionError("idempotent matrix identity fails "
                                         "at (%d, %d)" % (gamma, alpha))
        self.sections = bundle.sections_basis(self.algebra, self.weights, N)
        count = bundle.sections_count(self.weights, N)
        if len(self.sections) != count:
            raise AssertionError("section count up to level %d: %d != "
                                 "weight-multiplicity count %d"
                                 % (N, len(self.sections), count))
        # the realization of each basis section, and of zeta_j a per
        # (j, a) once the right-linearity walk reads it; their d, theta
        # products and Leibniz terms, per walk key (see right_linearity)
        self.vectors = [OwnedVector(j, self.from_section(s))
                        for j, s in enumerate(self.sections)]
        self._products = {}
        self._d, self._theta, self._leibniz = {}, {}, {}
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
        return [self.calc.zero(degree).combination(
            (ONE, self.calc.multiply(values[beta][gamma], psi))
            for beta, psi in enumerate(vec) if values[beta][gamma] and psi)
            for gamma in range(self.dim_w)]

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
            out.append(calculus.FormElement._graded(degree, finish_sum(acc)))
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

    def d(self, vec):
        """d, coordinatewise; once per owned vector."""
        return _once(self._d, vec, lambda v: [self.calc.d(w) for w in v])

    def theta_times(self, vec):
        """theta psi_beta, coordinatewise; once per owned vector."""
        return _once(self._theta, vec, lambda v: [
            self.calc.multiply(self.calc.theta(), w) for w in v])

    def leibniz(self, j, a):
        """The Leibniz term zeta_j (x) da of the connection law, once per
        (j, a)."""
        term = self._leibniz.get((j, a))
        if term is None:
            term = self._leibniz[(j, a)] = self.right_mult(
                self.vectors[j], self.calc.d0(a))
        return term

    def right_linearity(self, op, tests):
        """(j, a, op(zeta_j a), op(zeta_j) a) for every basis section
        zeta_j and test element a, lazily, in section order and then in
        test order.  zeta_j a is built once per space, as the owned
        vector of key (j, a), so a map that keeps its images of owned
        vectors computes each once across walks."""
        for j, vec in enumerate(self.vectors):
            image = op(vec)
            for a in tests:
                product = self._products.get((j, a))
                if product is None:
                    product = self._products[(j, a)] = OwnedVector(
                        (j, a), self.from_section(self.sections[j].times(a)))
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
    A scalar entry stands for that multiple of theta, and a Lambda of
    scalar entries is also kept as its Scalar matrix, `scalars`.  The
    map itself is uncertified: make_connection certifies A = e . Lambda.

    The map keeps its image of each vector the space owns, computed as
    e . (d zeta + Lambda zeta) from the space's d zeta; for a scalar
    Lambda, Lambda psi = sum_beta c_{gamma beta} (theta psi_beta), with
    theta zeta read off the space's theta products.  A form-valued
    Lambda goes through extend."""

    def __init__(self, tss, perturbation=None):
        self.tss = tss
        self.columns = self.scalars = None
        self.images = {}
        if perturbation is None:
            return
        lam = [[_as_one_form(tss.calc, entry) for entry in row]
               for row in perturbation]
        assert len(lam) == tss.dim_w
        assert all(len(row) == tss.dim_w for row in lam)
        self.columns = list(zip(*lam))
        if all(isinstance(entry, (int, Scalar))
               for row in perturbation for entry in row):
            self.scalars = [[c if isinstance(c, Scalar) else Scalar(c)
                             for c in row] for row in perturbation]

    def _lambda(self, vec):
        """Lambda vec, for Lambda not None."""
        tss = self.tss
        if self.scalars is None:
            return tss.extend(self.columns, vec)
        theta = tss.theta_times(vec)
        zero = tss.calc.zero(tss.degree_of(vec) + 1)
        return [zero.combination(zip(row, theta)) for row in self.scalars]

    def perturbation(self, vec):
        """A(vec) = e . Lambda . vec, for Lambda not None."""
        return self.tss.project(self._lambda(vec))

    def apply(self, vec):
        """e . (d vec + Lambda vec), with one projection; once per owned
        vector."""
        return _once(self.images, vec, self._apply)

    def _apply(self, vec):
        tss = self.tss
        out = tss.d(vec)
        if self.columns is not None:
            out = tss.add(out, self._lambda(vec))
        out = tss.project(out)
        assert tss.degree_of(out) == tss.degree_of(vec) + 1
        return out

    def on_section(self, section):
        return self.apply(self.tss.from_section(section))


def _certify(conn):
    """A(psi a) = A(psi) a exactly for the perturbation A of conn, for
    the level-N basis sections psi and a in {1, the three Podles
    generators}.  A NotLinear names the failing section and test element
    and states this scope: the certificate checks no other pair."""
    tss = conn.tss
    tests = [coeff.unit()] + list(homspace.podles_generators())
    for j, g, lhs, rhs in tss.right_linearity(conn.perturbation, tests):
        if lhs != rhs:
            raise NotLinear("basis section %d, a = %s: A(psi a) != "
                            "A(psi) a; %s" % (j, g, _SCOPE % tss.N))


def make_connection(tss, perturbation=None):
    """The ConnectionMap of Lambda once A = e . Lambda passes an exact
    right-linearity certificate against the invariant generators;
    NotLinear if it fails.

    A is linear in Lambda (extend, project and Calculus.multiply are
    Q(u)-linear): for scalar entries c_ij,
    A(psi a) - A(psi) a = sum c_ij (A_ij(psi a) - A_ij(psi) a) with
    A_ij = e . E_ij theta.  So a scalar Lambda is certified through the
    basis maps E_ij theta with c_ij != 0, each on the scalar path and
    once per TensoredSectionSpace; a Lambda with a form-valued entry is
    certified on its own columns."""
    conn = ConnectionMap(tss, perturbation)
    if conn.scalars is None:
        if conn.columns is not None:
            _certify(conn)
        return conn
    for i, row in enumerate(conn.scalars):
        for j, c in enumerate(row):
            if c and (i, j) not in tss.certified:
                basis = [[ONE if (g, b) == (i, j) else ZERO
                          for b in range(tss.dim_w)]
                         for g in range(tss.dim_w)]
                try:
                    _certify(ConnectionMap(tss, basis))
                except NotLinear as exc:
                    raise NotLinear("Lambda basis entry (%d, %d): %s"
                                    % (i, j, exc)) from None
                tss.certified.add((i, j))
    return conn


class CurvatureMap:
    """The restriction of nabla^2 to the sections, together with its
    right-linear extension through the generator presentation.  The map
    keeps its image F(zeta) = nabla(nabla(zeta)) of each vector the
    space owns, and the connection keeps nabla(zeta):
    nabla_sections[j] = nabla(zeta_j) and on_sections[j] = F(zeta_j) are
    those images, which the linearity walk and the Bianchi sides read.
    nabla_generators[alpha] = nabla(zeta_alpha) is the inner value of
    on_generators[alpha] = F(zeta_alpha) on the generators.  No image is
    recombined from other maps' images."""

    def __init__(self, conn):
        self.conn = conn
        self.images = {}
        tss = conn.tss
        self.nabla_generators = [conn.apply(tss.generator(alpha))
                                 for alpha in range(tss.dim_w)]
        self.on_generators = [conn.apply(v) for v in self.nabla_generators]
        self.nabla_sections = [conn.apply(vec) for vec in tss.vectors]
        self.on_sections = [self.apply(vec) for vec in tss.vectors]

    def apply(self, vec):
        """F(vec) = nabla(nabla(vec)); once per owned vector."""
        return _once(self.images, vec,
                     lambda v: self.conn.apply(self.conn.apply(v)))

    def hat(self, vec):
        """F-hat(sum_beta zeta_beta (x) psi_beta)
        = sum_beta F(zeta_beta) psi_beta."""
        return self.conn.tss.extend(self.on_generators, vec)

    def linearity_check(self):
        """F(zeta a) = F(zeta) a on every basis section and invariant
        generator."""
        return all(lhs == rhs for _, _, lhs, rhs in
                   self.conn.tss.right_linearity(
                       self.apply, homspace.podles_generators()))

    def bianchi_sides(self, j):
        """nabla(F(zeta_j)) and F-hat(nabla(zeta_j)) for the j-th basis
        section."""
        return (self.conn.apply(self.on_sections[j]),
                self.hat(self.nabla_sections[j]))

    def bianchi_check(self):
        """nabla(F(zeta)) = F-hat(nabla(zeta)) on every basis section."""
        return [lhs == rhs for lhs, rhs in map(self.bianchi_sides,
                                               range(len(self.on_sections)))]
