"""Command-line front end: configuration, verification suites, and
machine-readable reports.

Subcommands:
  verify      run the invariant suites of every module and emit a JSON
              report, one line per check, each carrying a stable anchor
              slug; exit 0 only if every check passes
  dims        exterior algebra and restricted-complex dimension tables
  idempotent  the bundle idempotent: coefficient matrix, rank, identity
  connection  the distinguished connection and its curvature on the
              configured bundle
  haar        squared norms of seeded elements at the sample points

Configuration is a flat key = value text file (see RunConfig for the
keys) with --seed/--suite flag overrides.  Reports are canonical JSON:
sorted keys, no wall-clock data (timings go to stderr), and all random
sampling is derived from the configured seed, so identical config and
seed give byte-identical output.  A check that cannot run inside the
configured coefficient window is reported as skipped with the window in
its witness, never as a silent pass; the exit code is 0 only when every
check passes, 1 otherwise, 2 for configuration errors, for an --out
path that cannot take the report (checked before any work starts) and
for a command that cannot compute at the configuration (one line on
stderr names the error)."""

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .scalars import (Scalar, Matrix, Echelon, NoSolution, PoleError,
                      ZERO, ONE, eval_at)
from . import (uea, coeff, repmod, homspace, bundle, calculus, connection,
               scalars)


class ConfigError(Exception):
    pass


class OutputError(Exception):
    """The report cannot be written to the --out path."""


SUITES = ("hopf", "pairing", "actions", "haar", "idempotent", "projection",
          "calculus", "closure", "connection", "curvature", "borelweil")

_FAILURES = (AssertionError, NoSolution, calculus.AxiomViolation,
             calculus.SplitError, calculus.DomainError, connection.NotLinear)

# what a configuration the parser accepts can still make a command unable
# to compute; verify turns these into per-check skips or failures first
_UNCOMPUTABLE = (coeff.LevelOverflow, repmod.DecompositionError,
                 calculus.SplitError, PoleError, NoSolution)


class RunConfig:
    """algebra sl2; theta: simple-root subset (the verification suites
    are pinned to the empty subset); weights: bundle weight list; n_max:
    level bound steering the coefficient window 2*n_max + 2; irrep:
    index of the module the calculus is built from; samples: rational
    evaluation points in (0,1); seed; suites: selection to run."""

    def __init__(self, algebra="sl2", theta=(), weights=(1,), n_max=4,
                 irrep=1, samples=(Fraction(1, 2), Fraction(2, 3),
                                   Fraction(9, 10)),
                 seed=0, suites=SUITES):
        if algebra != "sl2":
            raise ConfigError("unknown algebra %r (only sl2)" % (algebra,))
        self.algebra = algebra
        theta = tuple(sorted(set(int(t) for t in theta)))
        for t in theta:
            if t != 1:
                raise ConfigError("theta index %d out of range for the "
                                  "rank-one root set {1}" % t)
        if theta:
            raise ConfigError("the verification suites are pinned to the "
                              "empty theta subset")
        self.theta = theta
        try:
            self.weights = tuple(int(w) for w in weights)
        except (TypeError, ValueError):
            raise ConfigError("weights must be integers: %r" % (weights,))
        if not self.weights:
            raise ConfigError("weights must be nonempty")
        self.n_max = int(n_max)
        if self.n_max < 1:
            raise ConfigError("n_max must be at least 1")
        self.irrep = int(irrep)
        if self.irrep < 1:
            raise ConfigError("calculus source irrep index must be >= 1")
        pts = []
        for p in samples:
            p = Fraction(p)
            if not (0 < p < 1):
                raise ConfigError("sample point %s outside (0,1)" % p)
            pts.append(p)
        if not pts:
            raise ConfigError("at least one sample point is required")
        self.samples = tuple(pts)
        self.seed = int(seed)
        suites = tuple(suites)
        for s in suites:
            if s not in SUITES:
                raise ConfigError("unknown suite %r (choose from %s)"
                                  % (s, ", ".join(SUITES)))
        if not suites:
            raise ConfigError("empty suite selection")
        # keep canonical order, drop duplicates
        self.suites = tuple(s for s in SUITES if s in suites)

    @property
    def coefficient_window(self):
        # the deepest products of the pinned suites need level 6 (three
        # level-2 invariants), so any n_max >= 2 runs every check; at
        # n_max = 1 the level-5 and level-6 checks report as skipped
        return 2 * self.n_max + 2

    def as_dict(self):
        return {
            "algebra": self.algebra,
            "theta": list(self.theta),
            "weights": list(self.weights),
            "n_max": self.n_max,
            "irrep": self.irrep,
            "samples": [str(p) for p in self.samples],
            "seed": self.seed,
            "suites": list(self.suites),
            "coefficient_window": self.coefficient_window,
        }


def read_config_file(path):
    data = {}
    try:
        lines = open(path).read().splitlines()
    except OSError as e:
        raise ConfigError("cannot read config file: %s" % e)
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("bad config line %r" % raw.strip())
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def build_config(file_data, seed=None, suites=None):
    kwargs = {}
    for key, value in file_data.items():
        if key == "algebra":
            kwargs["algebra"] = value
        elif key == "theta":
            kwargs["theta"] = value.split()
        elif key == "weights":
            try:
                kwargs["weights"] = [int(w) for w in value.split()]
            except ValueError:
                raise ConfigError("weights must be integers: %r" % value)
        elif key in ("n_max", "irrep", "seed"):
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError("%s must be an integer: %r" % (key, value))
        elif key == "samples":
            try:
                kwargs["samples"] = [Fraction(p) for p in value.split()]
            except (ValueError, ZeroDivisionError):
                raise ConfigError("samples must be rationals: %r" % value)
        elif key == "suites":
            kwargs["suites"] = SUITES if value == "all" else value.split()
        else:
            raise ConfigError("unknown config key %r" % key)
    if seed is not None:
        kwargs["seed"] = seed
    if suites:
        kwargs["suites"] = suites
    return RunConfig(**kwargs)


# ----------------------------------------------------------------------
# shared objects, memoized per run (a window failure replays on reuse)


class _Workspace:
    def __init__(self, cfg):
        self.cfg = cfg
        self.algebra = coeff.Algebra(cfg.coefficient_window)
        self._cache = {}

    def _get(self, key, builder):
        if key in self._cache:
            value = self._cache[key]
            if isinstance(value, Exception):
                raise value
            return value
        try:
            value = builder()
        except coeff.LevelOverflow as e:
            self._cache[key] = e
            raise
        self._cache[key] = value
        return value

    def calc(self):
        return self._get("calc", lambda: calculus.Calculus(
            self.algebra, calculus.from_rep(repmod.irrep(self.cfg.irrep))))

    def restriction(self):
        return self._get("restriction", lambda: self.calc().restrict(3))

    def tss(self):
        return self._get("tss", lambda: connection.TensoredSectionSpace(
            self.calc(), bundle.LModule(self.cfg.weights), 1))

    def conn0(self):
        return self._get("conn0",
                         lambda: connection.make_connection(self.tss()))

    def curvature0(self):
        return self._get("curvature0",
                         lambda: connection.curvature(self.conn0()))

    def idempotent(self, weights, N):
        return self._get(("idempotent", weights, N),
                         lambda: bundle.idempotent(
                             self.algebra, bundle.LModule(weights), N))

    def invariants(self, N):
        return self._get(("invariants", N), lambda: homspace.invariants(
            self.algebra, homspace.ThetaChoice(self.cfg.theta), N))


def _rng(cfg, suite):
    return random.Random("%d:%s" % (cfg.seed, suite))


def _random_coeff(rnd, max_level=2, nterms=3):
    out = coeff.CoeffElement()
    for _ in range(nterms):
        n = rnd.randint(0, max_level)
        i = rnd.randint(0, n)
        j = rnd.randint(0, n)
        c = rnd.randint(-3, 3)
        if c:
            out = out + coeff.basis_element(n, i, j, coeff=Scalar(c))
    return out


def _random_invariant(rnd, elements, nterms=2):
    out = coeff.CoeffElement()
    for _ in range(nterms):
        c = rnd.randint(-3, 3)
        if c:
            out = out + rnd.choice(elements).scale(Scalar(c))
    return out


def _acc(d, key, s):
    cur = d.get(key, ZERO) + s
    if cur:
        d[key] = cur
    elif key in d:
        del d[key]


# ----------------------------------------------------------------------
# verification suites


def _check(checks, suite, anchor, name, fn):
    try:
        result = fn()
    except coeff.LevelOverflow as e:
        checks.append({"suite": suite, "anchor": anchor, "name": name,
                       "status": "skip", "witness": str(e)})
        return
    except _FAILURES as e:
        checks.append({"suite": suite, "anchor": anchor, "name": name,
                       "status": "fail",
                       "witness": "%s: %s" % (type(e).__name__, e)})
        return
    if result is True:
        checks.append({"suite": suite, "anchor": anchor, "name": name,
                       "status": "pass"})
    else:
        checks.append({"suite": suite, "anchor": anchor, "name": name,
                       "status": "fail", "witness": str(result)})


def _suite_hopf(ws, checks):
    rnd = _rng(ws.cfg, "hopf")
    a = ws.algebra
    monomials = uea.pbw_monomials(4)

    def uq_coassoc():
        for m in monomials:
            x = uea.monomial(*m)
            left, right = {}, {}
            for (m1, m2), s in uea.coproduct(x).terms.items():
                for (n1, n2), t in uea.coproduct(uea.monomial(*m1)).terms.items():
                    _acc(left, (n1, n2, m2), s * t)
                for (n1, n2), t in uea.coproduct(uea.monomial(*m2)).terms.items():
                    _acc(right, (m1, n1, n2), s * t)
            if left != right:
                return "coassociativity fails on %s" % (m,)
        return True

    def uq_counit():
        for m in monomials:
            x = uea.monomial(*m)
            left = uea.UEAElement()
            right = uea.UEAElement()
            for (m1, m2), s in uea.coproduct(x).terms.items():
                left = left + uea.monomial(*m2).scale(
                    s * uea.counit(uea.monomial(*m1)))
                right = right + uea.monomial(*m1).scale(
                    s * uea.counit(uea.monomial(*m2)))
            if left != x or right != x:
                return "counit axiom fails on %s" % (m,)
        return True

    def uq_antipode():
        for m in monomials:
            x = uea.monomial(*m)
            want = uea.UNIT.scale(uea.counit(x))
            left = uea.UEAElement()
            right = uea.UEAElement()
            for (m1, m2), s in uea.coproduct(x).terms.items():
                left = left + (uea.antipode(uea.monomial(*m1))
                               * uea.monomial(*m2)).scale(s)
                right = right + (uea.monomial(*m1)
                                 * uea.antipode(uea.monomial(*m2))).scale(s)
            if left != want or right != want:
                return "antipode axiom fails on %s" % (m,)
        return True

    def uq_star():
        for m in monomials:
            x = uea.monomial(*m)
            if uea.star(uea.star(x)) != x:
                return "star not involutive on %s" % (m,)
            if uea.coproduct(uea.star(x)) != \
                    uea.coproduct(x).map_legs(uea.star, uea.star):
                return "star incompatible with the coproduct on %s" % (m,)
            if uea.antipode(uea.star(uea.antipode(uea.star(x)))) != x:
                return "S∘* not involutive on %s" % (m,)
        for _ in range(20):
            x = uea.monomial(*rnd.choice(monomials))
            y = uea.monomial(*rnd.choice(monomials))
            if uea.star(x * y) != uea.star(y) * uea.star(x):
                return "star not anti-multiplicative"
        return True

    basis2 = [(n, i, j) for n in range(3)
              for i in range(n + 1) for j in range(n + 1)]

    def tq_coassoc():
        for key in basis2:
            f = coeff.basis_element(*key)
            left, right = {}, {}
            for f1, f2 in a.coproduct(f):
                (k1,), (k2,) = list(f1.terms), list(f2.terms)
                s = f1.terms[k1] * f2.terms[k2]
                for g1, g2 in a.coproduct(coeff.basis_element(*k1)):
                    (l1,), (l2,) = list(g1.terms), list(g2.terms)
                    _acc(left, (l1, l2, k2), s * g1.terms[l1] * g2.terms[l2])
                for g1, g2 in a.coproduct(coeff.basis_element(*k2)):
                    (l1,), (l2,) = list(g1.terms), list(g2.terms)
                    _acc(right, (k1, l1, l2), s * g1.terms[l1] * g2.terms[l2])
            if left != right:
                return "coassociativity fails on t%s" % (key,)
        return True

    def tq_counit():
        for key in basis2:
            f = coeff.basis_element(*key)
            left = coeff.CoeffElement()
            right = coeff.CoeffElement()
            for f1, f2 in a.coproduct(f):
                left = left + f2.scale(a.counit(f1))
                right = right + f1.scale(a.counit(f2))
            if left != f or right != f:
                return "counit axiom fails on t%s" % (key,)
        return True

    def tq_antipode():
        for key in basis2:
            f = coeff.basis_element(*key)
            want = coeff.unit().scale(a.counit(f))
            acc1 = coeff.CoeffElement()
            acc2 = coeff.CoeffElement()
            for f1, f2 in a.coproduct(f):
                acc1 = acc1 + a.multiply(a.antipode(f1), f2)
                acc2 = acc2 + a.multiply(f1, a.antipode(f2))
            if acc1 != want or acc2 != want:
                return "antipode axiom fails on t%s" % (key,)
        return True

    def tq_star():
        for key in basis2:
            f = coeff.basis_element(*key)
            if a.star(a.star(f)) != f:
                return "star not involutive on t%s" % (key,)
            sf = a.star(f)
            for m in uea.pbw_monomials(2):
                x = uea.monomial(*m)
                if a.eval(sf, x) != \
                        a.eval(f, uea.star(uea.antipode(x))).conj():
                    return "star pairing identity fails on t%s" % (key,)
        for _ in range(10):
            f = _random_coeff(rnd, max_level=1, nterms=2)
            g = _random_coeff(rnd, max_level=1, nterms=2)
            if a.star(a.multiply(f, g)) != a.multiply(a.star(g), a.star(f)):
                return "star not anti-multiplicative"
        return True

    _check(checks, "hopf", "uq-coassociativity",
           "enveloping algebra coassociativity, degree <= 4", uq_coassoc)
    _check(checks, "hopf", "uq-counit",
           "enveloping algebra counit axiom, degree <= 4", uq_counit)
    _check(checks, "hopf", "uq-antipode",
           "enveloping algebra antipode axiom, degree <= 4", uq_antipode)
    _check(checks, "hopf", "uq-star",
           "enveloping algebra star involution, degree <= 4", uq_star)
    _check(checks, "hopf", "tq-coassociativity",
           "coefficient algebra coassociativity, level <= 2", tq_coassoc)
    _check(checks, "hopf", "tq-counit",
           "coefficient algebra counit axiom, level <= 2", tq_counit)
    _check(checks, "hopf", "tq-antipode",
           "coefficient algebra antipode axiom, level <= 2", tq_antipode)
    _check(checks, "hopf", "tq-star",
           "coefficient algebra star involution, level <= 2", tq_star)


def _suite_pairing(ws, checks):
    def full_rank():
        for N in (1, 2, 3, 4):
            if not ws.algebra.pairing_table(N).full_column_rank():
                return "pairing table rank deficient at level %d" % N
        return True

    _check(checks, "pairing", "pairing-nondegenerate",
           "dual pairing separates coefficients, levels <= 4", full_rank)


def _suite_actions(ws, checks):
    a = ws.algebra
    cfg = ws.cfg
    monomials = uea.pbw_monomials(2)

    def compose_commute():
        rnd = _rng(cfg, "actions-compose")
        for k in range(100):
            x = uea.monomial(*rnd.choice(monomials))
            y = uea.monomial(*rnd.choice(monomials))
            h = _random_coeff(rnd)
            if a.circle(x, a.circle(y, h)) != a.circle(x * y, h):
                return "circle composition fails on sample %d" % k
            if a.dot(x, a.dot(y, h)) != a.dot(x * y, h):
                return "dot composition fails on sample %d" % k
            if a.circle(x, a.dot(y, h)) != a.dot(y, a.circle(x, h)):
                return "actions do not commute on sample %d" % k
        return True

    def module_algebra():
        rnd = _rng(cfg, "actions-module")
        gens = [uea.E, uea.F, uea.K, uea.K_INV, uea.E * uea.F]
        for k in range(100):
            x = rnd.choice(gens)
            f = _random_coeff(rnd, max_level=1, nterms=2)
            g = _random_coeff(rnd, max_level=1, nterms=2)
            lhs = a.circle(x, a.multiply(f, g))
            rhs = coeff.CoeffElement()
            for (m1, m2), s in uea.coproduct(x).terms.items():
                rhs = rhs + a.multiply(
                    a.circle(uea.monomial(*m1), f),
                    a.circle(uea.monomial(*m2), g)).scale(s)
            if lhs != rhs:
                return "module-algebra law fails on sample %d" % k
        return True

    _check(checks, "actions", "actions-commute",
           "translations compose and commute, 100 seeded triples",
           compose_commute)
    _check(checks, "actions", "circle-module-algebra",
           "circle action module-algebra law, 100 seeded triples",
           module_algebra)


def _suite_haar(ws, checks):
    a = ws.algebra
    cfg = ws.cfg

    def unit_value():
        return a.haar(coeff.unit()) == ONE or "haar(1) != 1"

    def invariance():
        for n in range(3):
            for i in range(n + 1):
                for j in range(n + 1):
                    f = coeff.basis_element(n, i, j)
                    left = coeff.CoeffElement()
                    right = coeff.CoeffElement()
                    for f1, f2 in a.coproduct(f):
                        left = left + f1.scale(a.haar(f2))
                        right = right + f2.scale(a.haar(f1))
                    want = coeff.unit().scale(a.haar(f))
                    if left != want or right != want:
                        return "invariance fails on t(%d;%d,%d)" % (n, i, j)
        return True

    def positivity():
        rnd = _rng(cfg, "haar")
        done = 0
        while done < 20:
            f = _random_coeff(rnd, max_level=1, nterms=2)
            if f.is_zero():
                continue
            done += 1
            norm = a.haar_norm_sq(f)
            if not norm:
                return "vanishing squared norm of a nonzero element"
            for u0 in cfg.samples:
                if eval_at(norm, u0) <= 0:
                    return "norm not positive at u0=%s" % u0
        return True

    _check(checks, "haar", "haar-unit",
           "invariant functional normalization", unit_value)
    _check(checks, "haar", "haar-invariance",
           "invariant functional two-sided invariance, level <= 2",
           invariance)
    _check(checks, "haar", "haar-positivity",
           "squared norms positive at the sample points, 20 seeded",
           positivity)


def _suite_idempotent(ws, checks):
    for weights, tag in (((1,), "v1"), ((1, -1), "v1m1")):
        label = "{%s}" % ",".join(str(w) for w in weights)

        def squared(weights=weights):
            ws.idempotent(weights, 3)  # e^2 = e is certified columnwise
            return True

        def rank(weights=weights):
            proj = ws.idempotent(weights, 3)
            if proj.rank != proj.sections_dim:
                return "rank %d != sections dimension %s" \
                    % (proj.rank, proj.sections_dim)
            return True

        _check(checks, "idempotent", "idempotent-squared-" + tag,
               "idempotent squared equals itself, V=%s, N=3" % label,
               squared)
        _check(checks, "idempotent", "idempotent-rank-" + tag,
               "idempotent rank matches sections dimension, V=%s, N=3"
               % label, rank)


def _suite_projection(ws, checks):
    a = ws.algebra
    cfg = ws.cfg
    V = bundle.LModule(cfg.weights)
    comp = bundle.complete(V)

    def retraction():
        basis = bundle.sections_basis(a, V, 3)
        for zeta in basis:
            if bundle.wp(a, comp, bundle.im(a, comp, zeta)) != zeta:
                return "retraction fails on a basis section"
        return True

    def injective():
        basis = bundle.sections_basis(a, V, 3)
        ech = Echelon()
        for zeta in basis:
            if not ech.add(bundle.element_vector(bundle.im(a, comp, zeta))):
                return "inclusion image is rank deficient"
        return True

    def surjective():
        inv = ws.invariants(2)
        ech = Echelon()
        for beta in range(comp.dim_w):
            for f in inv.elements:
                ech.add(bundle.wp(a, comp, {beta: f}).vector())
        sections = bundle.sections_basis(a, V, 3)
        if ech.rank != len(sections):
            return "projection images span rank %d != %d" \
                % (ech.rank, len(sections))
        for zeta in sections:
            if ech.reduce(zeta.vector()):
                return "a section escapes the projection image"
        return True

    def right_linear():
        rnd = _rng(cfg, "projection")
        inv = ws.invariants(2)
        basis = [s for s in bundle.sections_basis(a, V, 3) if s.level <= 2]
        small = [f for f in inv.elements if f.level <= 2]
        for k in range(10):
            f = rnd.choice(inv.elements)
            g = rnd.choice(small)
            beta = rnd.randint(0, comp.dim_w - 1)
            if bundle.wp(a, comp, {beta: a.multiply(f, g)}) != \
                    bundle.wp(a, comp, {beta: f}).times(g):
                return "projection not right-linear on sample %d" % k
            zeta = rnd.choice(basis)
            lhs = bundle.im(a, comp, zeta.times(g))
            rhs = {key: a.multiply(h, g)
                   for key, h in bundle.im(a, comp, zeta).items()}
            keys = set(lhs) | set(rhs)
            zero = coeff.CoeffElement()
            if any(lhs.get(key, zero) != rhs.get(key, zero) for key in keys):
                return "inclusion not right-linear on sample %d" % k
        return True

    _check(checks, "projection", "projection-retraction",
           "projection retracts the inclusion on the sections basis",
           retraction)
    _check(checks, "projection", "inclusion-injective",
           "inclusion of sections is injective at the window", injective)
    _check(checks, "projection", "projection-surjective",
           "projection surjects onto the window sections", surjective)
    _check(checks, "projection", "projection-right-linear",
           "projection and inclusion right-linear, seeded samples",
           right_linear)


def _suite_calculus(ws, checks):
    cfg = ws.cfg

    def axioms():
        calculus.from_rep(repmod.irrep(cfg.irrep))
        return True

    def classical_limit():
        calc = ws.calc()
        split = calc.braiding()
        K = calc.data.K
        if split.sigma.eval_at(1) != repmod.flip_matrix(K, K).eval_at(1):
            return "braiding does not specialize to the flip"
        return True

    def projectors():
        calc = ws.calc()
        split = calc.braiding()
        K = calc.data.K
        zero = Matrix.zeros(K * K, K * K)
        if split.sigma_plus * split.sigma_minus != zero:
            return "sigma+ sigma- != 0"
        if split.sigma_minus * split.sigma_plus != zero:
            return "sigma- sigma+ != 0"
        if split.sigma_plus - split.sigma_minus != split.sigma:
            return "sigma+ - sigma- != sigma"
        return True

    def top_degree():
        calc = ws.calc()
        K = calc.data.K
        dim = calc.omega_dims(K + 1)
        if dim != 0:
            return "dim of the degree-%d forms is %d" % (K + 1, dim)
        return True

    def d_squared():
        calc = ws.calc()
        rnd = _rng(cfg, "calculus-d")
        for k in range(50):
            f = _random_coeff(rnd)
            if k % 2:
                w = calc.form0(f)
            else:
                w = calc.reduce_mod_J(
                    calc.left_mult(f, calc.d0(_random_coeff(rnd))))
            if not calc.d(calc.d(w)).is_zero():
                return "d^2 != 0 on sample %d" % k
        return True

    def leibniz():
        calc = ws.calc()
        rnd = _rng(cfg, "calculus-leibniz")
        for k in range(50):
            f = _random_coeff(rnd, max_level=1)
            g = _random_coeff(rnd, max_level=1)
            if k % 4 in (1, 3):
                w1 = calc.left_mult(f, calc.d0(_random_coeff(rnd, 1)))
            else:
                w1 = calc.form0(f)
            if k % 4 in (2, 3):
                w2 = calc.left_mult(g, calc.d0(_random_coeff(rnd, 1)))
            else:
                w2 = calc.form0(g)
            sign = -ONE if w1.degree % 2 else ONE
            lhs = calc.d(calc.multiply(w1, w2))
            rhs = calc.reduce_mod_J(
                calc.multiply(calc.d(w1), w2)
                + calc.multiply(w1, calc.d(w2)).scale(sign))
            if lhs != rhs:
                return "product rule fails on sample %d" % k
        return True

    def equivariance():
        calc = ws.calc()
        a = ws.algebra
        rnd = _rng(cfg, "calculus-equivariance")
        gens = (uea.E, uea.F, uea.K, uea.K * uea.E)
        for k in range(50):
            f = _random_coeff(rnd)
            w = calc.left_mult(f, calc.d0(_random_coeff(rnd)))
            for x in gens:
                if calc.reduce_mod_J(calc.dot_on_forms(x, calc.d(w))) != \
                        calc.d(calc.reduce_mod_J(calc.dot_on_forms(x, w))):
                    return "translation equivariance fails on sample %d" % k
                if calc.dot_on_forms(x, calc.d0(f)) != calc.d0(a.dot(x, f)):
                    return "degree-zero equivariance fails on sample %d" % k
        return True

    _check(checks, "calculus", "structure-functionals",
           "shift functionals satisfy the structure identities", axioms)
    _check(checks, "calculus", "braiding-classical-limit",
           "braiding specializes to the flip at u=1", classical_limit)
    _check(checks, "calculus", "braiding-projectors",
           "braiding antisymmetrizer splits exactly", projectors)
    _check(checks, "calculus", "forms-top-degree",
           "forms vanish above the top degree", top_degree)
    _check(checks, "calculus", "d-squared-zero",
           "differential squares to zero, 50 seeded samples", d_squared)
    _check(checks, "calculus", "graded-leibniz",
           "graded product rule, 50 seeded samples", leibniz)
    _check(checks, "calculus", "translation-equivariance",
           "left translation commutes with d, 50 seeded samples",
           equivariance)


def _suite_closure(ws, checks):
    def closure(degree):
        def run():
            restriction = ws.restriction()
            flags = restriction.closure_check(degree)
            if not all(flags):
                return "d image escapes the restricted span in degree %d" \
                    % degree
            return True
        return run

    def epsilon_trivial():
        calc = ws.calc()
        restriction = ws.restriction()
        for degree in (0, 1, 2):
            for entry in restriction.bases[degree]:
                red = calc.reduce_mod_J(entry["form"])
                for p in (uea.K, uea.K_INV):
                    if restriction.circle_presented(
                            p, entry["presentation"]) != red:
                        return "a Levi generator moves a degree-%d form" \
                            % degree
        return True

    _check(checks, "closure", "d-closure-degree-0",
           "restricted forms closed under d in degree 0", closure(0))
    _check(checks, "closure", "d-closure-degree-1",
           "restricted forms closed under d in degree 1", closure(1))
    _check(checks, "closure", "levi-epsilon-triviality",
           "Levi generators act through the counit on restricted forms",
           epsilon_trivial)


def _connection_law(tss, calc, conn, psi, w):
    sign = -ONE if tss.degree_of(psi) % 2 else ONE
    lhs = conn.apply(tss.right_mult(psi, w))
    rhs = tss.add(tss.right_mult(conn.apply(psi), w),
                  [x.scale(sign) for x in tss.right_mult(psi, calc.d(w))])
    return tss.equal(lhs, rhs)


def _seeded_perturbations(tss, rnd, count):
    out = []
    for _ in range(count):
        lam = [[Scalar(rnd.randint(-3, 3)) if i == j else Scalar(0)
                for j in range(tss.dim_w)] for i in range(tss.dim_w)]
        out.append(connection.make_connection(tss, lam))
    return out


def _suite_connection(ws, checks):
    cfg = ws.cfg

    def law_nabla0():
        tss = ws.tss()
        calc = ws.calc()
        conn = ws.conn0()
        rnd = _rng(cfg, "connection-law")
        inv = ws.invariants(2).elements
        for k in range(50):
            combo = tss.zero(0)
            for s in tss.sections:
                c = rnd.randint(-2, 2)
                if c:
                    combo = tss.add(combo, [x.scale(Scalar(c))
                                            for x in tss.from_section(s)])
            psi = tss.right_mult(combo, calc.theta()) if k % 3 == 2 else combo
            pick = k % 3
            if pick == 0:
                w = calc.form0(_random_invariant(rnd, inv))
            else:
                w = calc.d0(_random_invariant(rnd, inv))
            if not _connection_law(tss, calc, conn, psi, w):
                return "connection law fails on sample %d" % k
        return True

    def law_perturbed():
        tss = ws.tss()
        calc = ws.calc()
        rnd = _rng(cfg, "connection-perturbed")
        for n, conn in enumerate(_seeded_perturbations(tss, rnd, 10)):
            for s in tss.sections:
                for g in homspace.podles_generators():
                    lhs = conn.on_section(s.times(g))
                    rhs = tss.add(
                        tss.right_mult(conn.on_section(s), calc.form0(g)),
                        tss.right_mult(tss.from_section(s), calc.d0(g)))
                    if not tss.equal(lhs, rhs):
                        return "connection law fails for perturbation %d" % n
        return True

    def differences():
        tss = ws.tss()
        calc = ws.calc()
        rnd = _rng(cfg, "connection-differences")
        conns = [ws.conn0()] + _seeded_perturbations(tss, rnd, 3)
        for n in range(len(conns) - 1):
            c1, c2 = conns[n], conns[n + 1]

            def diff(vec):
                return tss.add(c1.apply(vec),
                               [x.scale(-ONE) for x in c2.apply(vec)])

            for s in tss.sections:
                for g in homspace.podles_generators():
                    lhs = diff(tss.from_section(s.times(g)))
                    rhs = tss.right_mult(diff(tss.from_section(s)),
                                         calc.form0(g))
                    if not tss.equal(lhs, rhs):
                        return "difference %d not right-linear" % n
        return True

    _check(checks, "connection", "connection-law-nabla0",
           "distinguished connection law, 50 seeded pairs", law_nabla0)
    _check(checks, "connection", "connection-law-perturbed",
           "perturbed connections satisfy the law, 10 seeded", law_perturbed)
    _check(checks, "connection", "connection-difference-linear",
           "differences of connections are right-linear", differences)


def _suite_curvature(ws, checks):
    cfg = ws.cfg

    def right_linear():
        F = ws.curvature0()
        if not F.linearity_check():
            return "curvature not right-linear over the invariants"
        return True

    def bianchi():
        F = ws.curvature0()
        flags = F.bianchi_check()
        if not all(flags):
            return "operator identity fails on sections %s" % (
                [n for n, ok in enumerate(flags) if not ok],)
        return True

    def trivial_flat():
        calc = ws.calc()
        tt = connection.TensoredSectionSpace(calc, bundle.LModule([0]), 2)
        F = connection.curvature(connection.make_connection(tt))
        if not F.is_zero():
            return "trivial line bundle has nonzero curvature"
        return True

    _check(checks, "curvature", "curvature-right-linear",
           "curvature is right-linear over the invariants", right_linear)
    _check(checks, "curvature", "bianchi-operator-identity",
           "operator Bianchi identity on the sections basis", bianchi)
    _check(checks, "curvature", "curvature-trivial-flat",
           "trivial line bundle is flat", trivial_flat)


def _suite_borelweil(ws, checks):
    a = ws.algebra

    def dimension():
        holo = bundle.holomorphic_sections(a, bundle.LModule([-1]), 4)
        want = repmod.irrep(1).dim
        if len(holo) != want:
            return "holomorphic sections dimension %d != %d" \
                % (len(holo), want)
        return True

    def irreducible():
        holo = bundle.holomorphic_sections(a, bundle.LModule([-1]), 4)
        mod, parts = bundle.dot_module(a, holo)
        if len(parts) != 1 or parts[0][0] != 1:
            return "translation module decomposes as %s" % (
                [n for n, _, _ in parts],)
        return True

    _check(checks, "borelweil", "borel-weil-dimension",
           "holomorphic sections of the first dominant line have the "
           "module dimension", dimension)
    _check(checks, "borelweil", "borel-weil-irreducible",
           "holomorphic sections carry an irreducible translation module",
           irreducible)


_SUITE_RUNNERS = {
    "hopf": _suite_hopf,
    "pairing": _suite_pairing,
    "actions": _suite_actions,
    "haar": _suite_haar,
    "idempotent": _suite_idempotent,
    "projection": _suite_projection,
    "calculus": _suite_calculus,
    "closure": _suite_closure,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "borelweil": _suite_borelweil,
}


# ----------------------------------------------------------------------
# commands


def _check_out_path(out_path):
    """Reject an --out path that cannot take a report before any work
    starts: its directory must exist and it must not be a directory."""
    if os.path.isdir(out_path):
        raise OutputError("--out %s is a directory" % out_path)
    directory = os.path.dirname(out_path) or "."
    if not os.path.isdir(directory):
        raise OutputError("--out %s: no such directory %s"
                          % (out_path, directory))


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise OutputError("cannot write %s: %s"
                              % (out_path, e.strerror or e))
    else:
        sys.stdout.write(text)


def cmd_verify(cfg, out_path):
    ws = _Workspace(cfg)
    checks = []
    for suite in cfg.suites:
        t0 = time.time()
        _SUITE_RUNNERS[suite](ws, checks)
        print("suite %-11s %6.1fs" % (suite, time.time() - t0),
              file=sys.stderr)
    info = scalars._cancel.cache_info()
    print("gcd cofactor cache: %d hits, %d misses, %d/%d entries"
          % (info.hits, info.misses, info.currsize, info.maxsize),
          file=sys.stderr)
    checks.sort(key=lambda c: (c["suite"], c["anchor"]))
    summary = {status: sum(c["status"] == status for c in checks)
               for status in ("pass", "fail", "skip")}
    _emit({"config": cfg.as_dict(), "checks": checks, "summary": summary},
          out_path)
    return 0 if summary["fail"] == 0 and summary["skip"] == 0 else 1


def _form_json(w):
    return {"(%s)" % ",".join(str(i) for i in key): str(ce)
            for key, ce in sorted(w.coords.items()) if not ce.is_zero()}


def cmd_dims(cfg, out_path):
    ws = _Workspace(cfg)
    calc = ws.calc()
    K = calc.data.K
    omega = {str(n): calc.omega_dims(n) for n in range(K + 2)}
    restriction = ws.restriction()
    payload = {
        "config": cfg.as_dict(),
        "omega_dims": omega,
        "restricted_dims": {str(d): v
                            for d, v in restriction.dims().items()},
        "restricted_filtration": {str(d): restriction.filtration[d]
                                  for d in (0, 1, 2)},
        "ok": omega[str(K + 1)] == 0,
    }
    _emit(payload, out_path)
    return 0 if payload["ok"] else 1


def cmd_idempotent(cfg, out_path):
    ws = _Workspace(cfg)
    N = min(cfg.n_max, 3)
    proj = ws.idempotent(cfg.weights, N)
    matrix = [[str(x) for x in row] for row in
              bundle.idempotent_matrix(ws.algebra, proj.completion)]
    payload = {
        "config": cfg.as_dict(),
        "level": N,
        "coefficient_matrix": matrix,
        "rank": proj.rank,
        "sections_dim": proj.sections_dim,
        "matched_level": proj.matched_level,
        "idempotent_identity": True,  # certified in the constructor
        "ok": proj.rank == proj.sections_dim,
    }
    _emit(payload, out_path)
    return 0 if payload["ok"] else 1


def cmd_connection(cfg, out_path):
    ws = _Workspace(cfg)
    tss = ws.tss()
    conn = ws.conn0()
    F = ws.curvature0()
    bianchi = F.bianchi_check()
    payload = {
        "config": cfg.as_dict(),
        "partial_on_sections": [[_form_json(w) for w in tss.partial(s)]
                                for s in tss.sections],
        "nabla0_on_generators": [
            [_form_json(w) for w in conn.apply(tss.generator(alpha))]
            for alpha in range(tss.dim_w)],
        "curvature_on_generators": [[_form_json(w) for w in fv]
                                    for fv in F.on_generators],
        "curvature_right_linear": F.linearity_check(),
        "bianchi": bianchi,
        "ok": all(bianchi),
    }
    payload["ok"] = payload["ok"] and payload["curvature_right_linear"]
    _emit(payload, out_path)
    return 0 if payload["ok"] else 1


def cmd_haar(cfg, out_path):
    ws = _Workspace(cfg)
    rnd = _rng(cfg, "haar")
    rows = []
    ok = True
    done = 0
    while done < 20:
        f = _random_coeff(rnd, max_level=1, nterms=2)
        if f.is_zero():
            continue
        done += 1
        norm = ws.algebra.haar_norm_sq(f)
        values = {}
        for u0 in cfg.samples:
            val = eval_at(norm, u0)
            values[str(u0)] = str(val)
            ok = ok and val > 0
        rows.append({"element": str(f), "norm": str(norm),
                     "values": values})
    payload = {"config": cfg.as_dict(), "norms": rows, "ok": ok}
    _emit(payload, out_path)
    return 0 if ok else 1


_COMMANDS = {
    "verify": cmd_verify,
    "dims": cmd_dims,
    "idempotent": cmd_idempotent,
    "connection": cmd_connection,
    "haar": cmd_haar,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qhvb",
        description="exact verification suites for quantum homogeneous "
                    "vector bundles")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value configuration file")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    parser.add_argument("--suite", action="append", default=None,
                        help="restrict verify to this suite (repeatable)")
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out_path(args.out)
        file_data = read_config_file(args.config) if args.config else {}
        cfg = build_config(file_data, seed=args.seed, suites=args.suite)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except OutputError as e:
        print("output error: %s" % e, file=sys.stderr)
        return 2
    except _UNCOMPUTABLE as e:
        print("%s: %s" % (type(e).__name__, " ".join(str(e).split())),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
