"""Quantum homogeneous vector bundles over the Podles sphere.

A finite-dimensional module V over the Cartan subalgebra U_l is a list
of weights.  Its sections form the right E_q-module

    H_q(V) = { zeta in V (x) T_q : x o zeta = (S(x) (x) id) zeta
                                   for all x in U_l },

computed blockwise per Peter-Weyl level.  Completing V into a genuine
U_q-module W (one irreducible summand per weight entry, smallest
highest weight, no sharing) yields mutually inverse right-module maps

    wp(w_beta (x) a) = sum_r  v_r (x) S(t_{idx(r), beta}) a
    im(zeta)         = sum_{r, beta}  w_beta (x) t_{beta, idx(r)} f_r

whose composite e = im . wp is an explicit idempotent exhibiting the
sections as a finite-type projective module.  Elements of W (x) E_q are
stored as dicts mapping the W basis index to CoeffElements.

Holomorphic sections impose the constraint for the parabolic generators
as well; V extends to the parabolic subalgebra by letting the raising
generator act as zero (weight lines and their direct sums).  The
surviving space carries the left translation action and is checked
irreducible (or zero) by decomposing the resulting module.
"""

from fractions import Fraction

from .scalars import Scalar, Matrix, Echelon, ZERO, ONE, NoSolution
from . import uea, repmod, coeff, homspace

_UPOW = Scalar.u_power


class LModule:
    """A module over the Cartan subalgebra: a list of weights m, the
    generator k acting by u^{2m} on the corresponding line.  Weights may
    be half-integral (denominator 2); only integral weights admit a
    completion, and half-integral ones have no sections at all."""

    def __init__(self, weights):
        self.weights = tuple(Fraction(m) for m in weights)
        assert all(m.denominator in (1, 2) for m in self.weights)
        self.dim = len(self.weights)

    def is_integral(self):
        return all(m.denominator == 1 for m in self.weights)

    def action(self, x):
        """The matrix of a UEAElement on V.  Monomials containing e or f
        act by zero; k^b acts by the weights."""
        acc = Matrix.zeros(self.dim, self.dim)
        for (a, b, c), s in x.terms.items():
            if a or c:
                continue
            for r, m in enumerate(self.weights):
                acc.a[r][r] = acc[r, r] + s * _UPOW(int(2 * m) * b)
        return acc

    def __repr__(self):
        return "LModule(%s)" % (list(self.weights),)


class Section:
    """An element of V (x) T_q satisfying the defining constraint
    x o zeta = (S(x) (x) id) zeta for the Cartan generators, stored as
    one CoeffElement per weight line of V."""

    def __init__(self, algebra, lmodule, components, check=True):
        assert len(components) == lmodule.dim
        self.algebra = algebra
        self.lmodule = lmodule
        self.components = list(components)
        if check:
            assert self.satisfies_constraint((uea.K, uea.K_INV))

    def satisfies_constraint(self, generators):
        for x in generators:
            sx = self.lmodule.action(uea.antipode(x))
            for r in range(self.lmodule.dim):
                want = coeff.CoeffElement()
                for r2 in range(self.lmodule.dim):
                    if sx[r, r2]:
                        want = want + self.components[r2].scale(sx[r, r2])
                if self.algebra.circle(x, self.components[r]) != want:
                    return False
        return True

    @property
    def level(self):
        return max([f.level for f in self.components if not f.is_zero()] or [0])

    def is_zero(self):
        return all(f.is_zero() for f in self.components)

    def __add__(self, other):
        assert self.lmodule is other.lmodule
        comps = [a + b for a, b in zip(self.components, other.components)]
        return Section(self.algebra, self.lmodule, comps, check=False)

    def __sub__(self, other):
        assert self.lmodule is other.lmodule
        comps = [a - b for a, b in zip(self.components, other.components)]
        return Section(self.algebra, self.lmodule, comps, check=False)

    def scale(self, s):
        return Section(self.algebra, self.lmodule,
                       [f.scale(s) for f in self.components], check=False)

    def times(self, a):
        """Right action of an invariant element."""
        comps = [self.algebra.multiply(f, a) for f in self.components]
        return Section(self.algebra, self.lmodule, comps, check=False)

    def left_times(self, a):
        """Left action of an invariant element."""
        comps = [self.algebra.multiply(a, f) for f in self.components]
        return Section(self.algebra, self.lmodule, comps, check=False)

    def dot(self, x):
        """Left translation of a UEAElement, componentwise."""
        comps = [self.algebra.dot(x, f) for f in self.components]
        return Section(self.algebra, self.lmodule, comps, check=False)

    def vector(self):
        """Sparse coordinates keyed (component, peter-weyl key)."""
        out = {}
        for r, f in enumerate(self.components):
            for key, s in f.terms.items():
                out[(r, key)] = s
        return out

    def __eq__(self, other):
        return (self.lmodule is other.lmodule
                and self.components == other.components)

    def __repr__(self):
        return "Section(%s)" % ", ".join(str(f) for f in self.components)


def _constraint_rows(lmodule, generators, n):
    """The stacked linear system expressing the section constraint on the
    level-n block.  Unknowns are coefficients c[(r, i, j)]; for each
    generator x the condition is

        sum_j pi_n(x)_{kj} c[(r, i, j)] = sum_{r'} S(x)_{r r'} c[(r', i, k)].
    """
    dim_v = lmodule.dim
    block = n + 1
    unknowns = [(r, i, j) for r in range(dim_v) for i in range(block)
                for j in range(block)]
    col = {u: c for c, u in enumerate(unknowns)}
    mod = repmod.irrep(n)
    rows = []
    for x in generators:
        pi = mod.act(x)
        sx = lmodule.action(uea.antipode(x))
        for r in range(dim_v):
            for i in range(block):
                for k in range(block):
                    row = [ZERO] * len(unknowns)
                    for j in range(block):
                        if pi[k, j]:
                            row[col[(r, i, j)]] = row[col[(r, i, j)]] + pi[k, j]
                    for r2 in range(dim_v):
                        if sx[r, r2]:
                            c = col[(r2, i, k)]
                            row[c] = row[c] - sx[r, r2]
                    if any(row):
                        rows.append(row)
    return unknowns, rows


def _constraint_kernel(lmodule, generators, n):
    unknowns, rows = _constraint_rows(lmodule, generators, n)
    if not rows:
        kernel = [[ONE if c == c0 else ZERO for c in range(len(unknowns))]
                  for c0 in range(len(unknowns))]
    else:
        stack = Matrix.zeros(len(rows), len(unknowns))
        for r, row in enumerate(rows):
            stack.a[r] = row
        kernel = stack.kernel()
    sections = []
    for vec in kernel:
        comps = [coeff.CoeffElement() for _ in range(lmodule.dim)]
        for c, (r, i, j) in enumerate(unknowns):
            if vec[c]:
                comps[r] = comps[r] + coeff.basis_element(n, i, j, vec[c])
        sections.append(comps)
    return sections


def sections_basis(algebra, lmodule, N, generators=(uea.K, uea.K_INV)):
    """Basis of the sections up to Peter-Weyl level N, blockwise.  For a
    weight line m the level-n block contributes the column j = (n+m)/2
    when that is an admissible integer, so (n+1) sections per matching
    line; the weight-multiplicity count is the test oracle."""
    assert N <= algebra.n_max
    out = []
    for n in range(N + 1):
        for comps in _constraint_kernel(lmodule, generators, n):
            out.append(Section(algebra, lmodule, comps))
    return out


class Completion:
    """A U_q-module W containing V as a U_l-submodule: one irreducible
    summand of highest weight |m| per weight entry m, with i0 the
    inclusion of each weight line at the matching weight vector and p0
    the coordinate projection back.  p0 . i0 = id and both maps preserve
    weights; verified at construction."""

    def __init__(self, lmodule):
        assert lmodule.is_integral()
        self.lmodule = lmodule
        self.blocks = [abs(int(m)) for m in lmodule.weights]
        self.offsets = []
        off = 0
        for n in self.blocks:
            self.offsets.append(off)
            off += n + 1
        self.dim_w = off
        self.w_module = repmod.direct_sum([repmod.irrep(n) for n in self.blocks])
        # v_index[r]: the W basis index carrying the weight-m_r vector of
        # the r-th summand (local index j = (n - m)/2)
        self.v_index = []
        for r, m in enumerate(lmodule.weights):
            n = self.blocks[r]
            j = (n - int(m)) // 2
            self.v_index.append(self.offsets[r] + j)
        self.i0 = Matrix.zeros(self.dim_w, lmodule.dim)
        self.p0 = Matrix.zeros(lmodule.dim, self.dim_w)
        for r, beta in enumerate(self.v_index):
            self.i0.a[beta][r] = ONE
            self.p0.a[r][beta] = ONE
        assert self.p0 * self.i0 == Matrix.identity(lmodule.dim)
        for r, beta in enumerate(self.v_index):
            assert self.w_weight(beta) == lmodule.weights[r]

    def w_weight(self, beta):
        return self.w_module.weights[beta]

    def block_of(self, beta):
        for r in range(len(self.blocks) - 1, -1, -1):
            if beta >= self.offsets[r]:
                return r, beta - self.offsets[r]
        raise IndexError(beta)

    def coefficient(self, beta, alpha):
        """The matrix coefficient t_{beta alpha} of W: zero across
        distinct summands, a Peter-Weyl basis element within one."""
        rb, ib = self.block_of(beta)
        ra, ja = self.block_of(alpha)
        if rb != ra:
            return coeff.CoeffElement()
        return coeff.basis_element(self.blocks[rb], ib, ja)

    def __repr__(self):
        return "Completion(%r -> blocks %s)" % (self.lmodule, self.blocks)


def complete(lmodule):
    return Completion(lmodule)


def idempotent_matrix(algebra, completion):
    """The coefficient matrix of the bundle idempotent on W, as rows of
    CoeffElements:

        e_{beta alpha} = sum_r t_{beta, idx(r)} S(t_{idx(r), alpha}).
    """
    e = []
    for beta in range(completion.dim_w):
        row = []
        for alpha in range(completion.dim_w):
            acc = coeff.CoeffElement()
            for idx in completion.v_index:
                t1 = completion.coefficient(beta, idx)
                t2 = completion.coefficient(idx, alpha)
                if not (t1.is_zero() or t2.is_zero()):
                    acc = acc + algebra.multiply(t1, algebra.antipode(t2))
            row.append(acc)
        e.append(row)
    return e


def wp(algebra, completion, element):
    """The map from W (x) E_q onto the sections: w_beta (x) a goes to
    sum_r v_r (x) S(t_{idx(r), beta}) a."""
    V = completion.lmodule
    comps = [coeff.CoeffElement() for _ in range(V.dim)]
    for beta, a in element.items():
        if a.is_zero():
            continue
        for r in range(V.dim):
            t = completion.coefficient(completion.v_index[r], beta)
            if t.is_zero():
                continue
            st = algebra.antipode(t)
            comps[r] = comps[r] + algebra.multiply(st, a)
    return Section(algebra, V, comps)


def im(algebra, completion, section):
    """The map from sections into W (x) E_q: v_r (x) f goes to
    sum_beta w_beta (x) t_{beta, idx(r)} f.  The E_q legs of the image
    are invariant because the coefficient column weight cancels the
    section weight."""
    out = {}
    for r in range(completion.lmodule.dim):
        f = section.components[r]
        if f.is_zero():
            continue
        idx = completion.v_index[r]
        for beta in range(completion.dim_w):
            t = completion.coefficient(beta, idx)
            if t.is_zero():
                continue
            g = algebra.multiply(t, f)
            if not g.is_zero():
                out[beta] = out.get(beta, coeff.CoeffElement()) + g
    return {beta: g for beta, g in out.items() if not g.is_zero()}


def element_vector(element):
    """Sparse coordinates of a W (x) E_q element, keyed (beta, pw key)."""
    out = {}
    for beta, g in element.items():
        for key, s in g.terms.items():
            out[(beta, key)] = s
    return out


class BundleIdempotent:
    """The composite e = im . wp on W (x) (E_q up to level N), stored
    columnwise on the product basis w_beta (x) f.  e^2 = e is certified
    by applying e to each column image; the rank is compared with the
    number of sections at the matched level N + max block weight."""

    def __init__(self, algebra, lmodule, N):
        self.algebra = algebra
        self.lmodule = lmodule
        self.completion = complete(lmodule)
        self.N = N
        inv = homspace.invariants(algebra, homspace.ThetaChoice(), N)
        self.domain = [(beta, f) for beta in range(self.completion.dim_w)
                       for f in inv.elements]
        self.columns = []
        for beta, f in self.domain:
            image = self.apply({beta: f})
            self.columns.append(image)
            again = self.apply(image)
            assert _elements_equal(again, image)  # e^2 = e, column by column
        ech = Echelon()
        for image in self.columns:
            ech.add(element_vector(image))
        self.rank = ech.rank
        levels = set(self.completion.blocks)
        self.matched_level = N + max(levels) if len(levels) == 1 else None
        self.sections_dim = None
        if self.matched_level is not None:
            self.sections_dim = len(sections_basis(algebra, lmodule,
                                                   self.matched_level))

    def apply(self, element):
        return im(self.algebra, self.completion,
                  wp(self.algebra, self.completion, element))


def _elements_equal(x, y):
    keys = set(x) | set(y)
    zero = coeff.CoeffElement()
    return all(x.get(k, zero) == y.get(k, zero) for k in keys)


def idempotent(algebra, lmodule, N):
    return BundleIdempotent(algebra, lmodule, N)


def generators(algebra, lmodule):
    """The canonical generating sections zeta_alpha = wp(w_alpha (x) 1),
    one per W basis vector."""
    completion = complete(lmodule)
    return [wp(algebra, completion, {alpha: coeff.unit()})
            for alpha in range(completion.dim_w)]


def generation_certificate(algebra, lmodule, N):
    """Solve every basis section of level <= N as an E_q-combination
    sum_alpha zeta_alpha a_alpha, exactly.  zeta_alpha has level n_alpha
    (the highest weight of its summand), so coefficients of level up to
    N - n_alpha suffice for each alpha.  Returns the solved coordinate
    matrix; raises NoSolution if some section is not generated."""
    completion = complete(lmodule)
    gens = generators(algebra, lmodule)
    inv = homspace.invariants(algebra, homspace.ThetaChoice(), N)
    basis = sections_basis(algebra, lmodule, N)
    products = []
    for alpha, zeta in enumerate(gens):
        bound = N - completion.blocks[completion.block_of(alpha)[0]]
        for a in inv.elements:
            if a.level <= max(bound, 0):
                products.append(zeta.times(a))
    keys = sorted(set(k for s in products + basis for k in s.vector()))
    idx = {k: r for r, k in enumerate(keys)}
    m = Matrix.zeros(len(keys), len(products))
    for c, s in enumerate(products):
        for k, val in s.vector().items():
            m.a[idx[k]][c] = val
    rhs = Matrix.zeros(len(keys), len(basis))
    for c, s in enumerate(basis):
        for k, val in s.vector().items():
            rhs.a[idx[k]][c] = val
    solution = m.solve(rhs)
    return {"generators": len(gens), "sections": len(basis),
            "products": len(products), "solution": solution}


def holomorphic_sections(algebra, lmodule, N):
    """Sections satisfying the constraint for the parabolic generators
    k, k^{-1}, e as well (the raising generator acts by zero on V)."""
    gens = (uea.K, uea.K_INV, uea.E)
    out = sections_basis(algebra, lmodule, N, generators=gens)
    for section in out:
        assert section.satisfies_constraint(gens)
    return out


def dot_module(algebra, sections):
    """The left translation action on a span of sections, as an exact
    module: the action matrices of e, f, k are solved in the span (the
    module relations are then verified by the Module constructor), and
    the decomposition exhibits its irreducible summands."""
    if not sections:
        return None, []
    keys = sorted(set(k for s in sections for k in s.vector()))
    idx = {k: r for r, k in enumerate(keys)}
    span = Matrix.zeros(len(keys), len(sections))
    for c, s in enumerate(sections):
        for k, val in s.vector().items():
            span.a[idx[k]][c] = val

    def action_matrix(x):
        rhs = Matrix.zeros(len(keys), len(sections))
        for c, s in enumerate(sections):
            image = s.dot(x)
            for k, val in image.vector().items():
                assert k in idx, "translation leaves the span"
                rhs.a[idx[k]][c] = val
        return span.solve(rhs)

    mod = repmod.Module(action_matrix(uea.E), action_matrix(uea.F),
                        action_matrix(uea.K))
    return mod, repmod.decompose(mod)
