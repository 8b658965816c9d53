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
  haar        squared norms of seeded elements at the fixed sample
              points (SAMPLE_POINTS)

Configuration is a flat key = value text file (see RunConfig for the
five keys; build_config parses them) with --seed/--suite flag overrides.
Reports are canonical JSON: sorted keys, no wall-clock data (timings go
to stderr), and all random sampling is derived from the configured
seed, so identical config and seed give byte-identical output.

Every check of a verify suite yields its comparisons, (where, lhs, rhs)
for an identity of exact values or a failure string for any other
condition, and _check alone compares them: a failing check's witness
names where it failed and the nonzero residual lhs - rhs.  A check that
cannot run inside the configured coefficient window, or on a connection
space whose section level leaves a weight line without a section (the
workspace reads that level off the weights, so none does), is reported
as skipped with the reason in its witness, never as a silent pass;
the exit code is 0 only when every check passes, 1 otherwise, 2 for
configuration errors, for an --out path that cannot take the report
(checked before any work starts) and for a command that cannot compute
at the configuration (one line on stderr names the error)."""

import argparse
import collections
import json
import os
import random
import sys
import time
from fractions import Fraction

from .scalars import (Scalar, Echelon, LinComb, NoSolution,
                      PoleError, ONE, eval_at, accumulate)
from . import (uea, coeff, repmod, homspace, bundle, calculus, connection,
               scalars)


class ConfigError(Exception):
    pass


class OutputError(Exception):
    """The report cannot be written to the --out path."""


_FAILURES = (AssertionError, NoSolution, calculus.AxiomViolation,
             calculus.SplitError, connection.NotLinear)

# the rational points in (0, 1) at which haar evaluates squared norms
SAMPLE_POINTS = (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))

# a bound on K^degree, K = (irrep + 1)^2 letters, for the forms that
# `dims`, `connection` and the suites of `verify` reach.  No K^n word
# space is built; what the cap guards is the exact elimination of the
# exterior ideal E_n (Calculus._j_echelon), which at irrep = 2 took 245 s
# for degree 4 at commit 95d89bb (232 s in a second run; 2-vCPU VM).
# 4^5 admits `dims` at irrep = 1
WORD_SPACE_CAP = 1024

# the degree of the largest forms each verify suite builds, given K:
# forms-top-degree reads degree K + 1, closure takes d of degree-1 forms
_SUITE_FORM_DEGREE = {"calculus": lambda K: K + 1, "closure": lambda K: 2,
                      "connection": lambda K: 3, "curvature": lambda K: 3}

# what makes a check impossible at the configuration: verify reports it as
# a skip, and a workspace object that raised it raises it again on reuse
_SKIPS = (coeff.LevelOverflow, connection.NoSections)

# what a configuration the parser accepts can still make a command unable
# to compute; verify turns these into per-check skips or failures first
_UNCOMPUTABLE = _SKIPS + (repmod.DecompositionError, calculus.SplitError,
                          PoleError, NoSolution)


class RunConfig:
    """weights: bundle weight list; n_max: level bound steering the
    coefficient window 2*n_max + 2; irrep: index of the module the
    calculus is built from; seed; suites: selection to run, all of
    SUITES by default.  These five are the settable keys; the report
    also names the constants algebra, theta and SAMPLE_POINTS.
    The values are typed (build_config converts a config file's text);
    only their ranges and shapes are checked here."""

    def __init__(self, weights=(1,), n_max=4, irrep=1, seed=0, suites=None):
        self.weights = tuple(weights)
        if not self.weights:
            raise ConfigError("weights must be nonempty")
        if n_max < 1:
            raise ConfigError("n_max must be at least 1")
        self.n_max = n_max
        if irrep < 1:
            raise ConfigError("calculus source irrep index must be >= 1")
        self.irrep = irrep
        self.seed = seed
        suites = SUITES if suites is None else tuple(suites)
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
            # the one construction verified: U_q(sl2) over the Podles
            # sphere, with theta the empty simple-root subset
            "algebra": "sl2",
            "theta": [],
            "weights": list(self.weights),
            "n_max": self.n_max,
            "irrep": self.irrep,
            "samples": [str(p) for p in SAMPLE_POINTS],
            "seed": self.seed,
            "suites": list(self.suites),
            "coefficient_window": self.coefficient_window,
        }


def read_config_file(path):
    data = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
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
    """The RunConfig of a config file's {key: text} with the --seed and
    --suite overrides; the only place a key's text is converted."""
    kwargs = {}
    for key, value in file_data.items():
        if key == "weights":
            try:
                kwargs["weights"] = [int(w) for w in value.split()]
            except ValueError:
                raise ConfigError("weights must be integers: %r" % value)
        elif key in ("n_max", "irrep", "seed"):
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError("%s must be an integer: %r" % (key, value))
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
# shared objects: the seed changes none, so each is built once per
# process (a skip replays on reuse)

# coefficient window -> (its coeff.Algebra, {key: object or skip} of the
# workspace objects), read by every workspace of the process
_SHARED = {}


class _Workspace:
    """The objects the suites of one run share, read from the memo of
    the window under a key that names their other inputs: idempotents,
    invariants and section bases, the Calculus and its restriction, and
    the tensored section spaces with nabla0 and its curvature.  A
    failing certificate raises and is memoised nowhere."""

    def __init__(self, cfg):
        self.cfg = cfg
        window = cfg.coefficient_window
        if window not in _SHARED:
            _SHARED[window] = (coeff.Algebra(window), {})
        self.algebra, self._memo = _SHARED[window]

    def _get(self, key, builder):
        if key in self._memo:
            value = self._memo[key]
            if isinstance(value, Exception):
                raise value
            return value
        try:
            value = builder()
        except _SKIPS as e:
            self._memo[key] = e
            raise
        self._memo[key] = value
        return value

    def calc(self):
        irrep = self.cfg.irrep
        return self._get(("calc", irrep), lambda: calculus.Calculus(
            self.algebra, calculus.from_rep(repmod.irrep(irrep))))

    def restriction(self):
        return self._get(("restriction", self.cfg.irrep),
                         lambda: self.calc().restrict(3))

    def _bundle_key(self, name, weights=None, level=None):
        # the config's weights at level max |m| by default: a weight-m
        # line has sections from level |m| on, so every line has one there
        if weights is None:
            weights = self.cfg.weights
            level = max(abs(m) for m in weights)
        return name, self.cfg.irrep, weights, level

    def tss(self, weights=None, level=None):
        key = self._bundle_key("tss", weights, level)
        return self._get(key, lambda: connection.TensoredSectionSpace(
            self.calc(), key[2], key[3]))

    def conn0(self, weights=None, level=None):
        key = self._bundle_key("conn0", weights, level)
        return self._get(key, lambda: connection.make_connection(
            self.tss(*key[2:])))

    def curvature0(self, weights=None, level=None):
        key = self._bundle_key("curvature0", weights, level)
        return self._get(key, lambda: connection.CurvatureMap(
            self.conn0(*key[2:])))

    def idempotent(self, weights, N):
        return self._get(("idempotent", weights, N),
                         lambda: bundle.idempotent(self.algebra, weights, N))

    def invariants(self, N):
        return self._get(("invariants", N),
                         lambda: homspace.invariants(self.algebra, N))

    def sections(self, weights, N):
        return self._get(("sections", weights, N),
                         lambda: bundle.sections_basis(
                             self.algebra, weights, N))

    def holomorphic(self, weights, N):
        return self._get(("holomorphic", weights, N),
                         lambda: bundle.holomorphic_sections(
                             self.algebra, weights, N))


def _rng(cfg, suite):
    return random.Random("%d:%s" % (cfg.seed, suite))


def _random_coeff(rnd, max_level=2, nterms=3):
    pairs = []
    for _ in range(nterms):
        n = rnd.randint(0, max_level)
        i = rnd.randint(0, n)
        j = rnd.randint(0, n)
        c = Scalar(rnd.randint(-3, 3))
        pairs.append((c, coeff.basis_element(n, i, j)))
    return coeff.CoeffElement().combination(pairs)


def _random_invariant(rnd, elements, nterms=2):
    pairs = []
    for _ in range(nterms):
        c = rnd.randint(-3, 3)
        if c:
            pairs.append((Scalar(c), rnd.choice(elements)))
    return coeff.CoeffElement().combination(pairs)


def _seeded_norms(ws):
    """The 20 seeded nonzero elements f of level <= 1, each with its
    squared norm h(f* f), drawn lazily."""
    rnd = _rng(ws.cfg, "haar")
    done = 0
    while done < 20:
        f = _random_coeff(rnd, max_level=1, nterms=2)
        if not f.is_zero():
            done += 1
            yield f, ws.algebra.haar_norm_sq(f)


# ----------------------------------------------------------------------
# verification suites


def _check(checks, suite, anchor, name, fn):
    """Run one check and append its report line.  fn() yields the
    check's comparisons lazily: (where, lhs, rhs) for an identity, or a
    failure string for a condition that is not an equality; a check that
    only runs a certificate returns None and fails by raising.  The
    first unequal pair ends the check as a fail with the witness
    "<where>: <residual>", and the first string as a fail with that
    string; _SKIPS end it as a skip and _FAILURES as a fail, each named
    in its witness."""
    line = {"suite": suite, "anchor": anchor, "name": name, "status": "pass"}
    try:
        for item in fn() or ():
            if isinstance(item, str):
                witness = item
            else:
                where, lhs, rhs = item
                witness = _residual(lhs, rhs)
                witness = witness and "%s: %s" % (where, witness)
            if witness:
                line.update(status="fail", witness=witness)
                break
    except _SKIPS as e:
        line.update(status="skip", witness=str(e))
    except _FAILURES as e:
        line.update(status="fail", witness="%s: %s" % (type(e).__name__, e))
    checks.append(line)


def _residual(lhs, rhs):
    """None when lhs == rhs, else what differs: for LinCombs, Matrices
    among them, the residual lhs - rhs, or the two kinds when their
    terms are equal (for sections, the two weight lists), for vectors of
    forms its first nonzero coordinate, and for anything else the two
    values."""
    if lhs == rhs:
        return None
    if isinstance(lhs, LinComb):
        residual = (lhs - rhs).terms
        if residual:
            return scalars._residual_witness(residual)
        return "equal terms, but %s != %s" % (_kind(lhs), _kind(rhs))
    if isinstance(lhs, list) and lhs and isinstance(lhs[0], LinComb):
        gamma = next(g for g in range(len(lhs)) if lhs[g] != rhs[g])
        return "coordinate %d: %s" % (gamma, _residual(lhs[gamma], rhs[gamma]))
    return "%s != %s" % (lhs, rhs)


def _kind(value):
    """The type of a value, with the weights of a section's module."""
    if isinstance(value, bundle.Section):
        return "Section over weights [%s]" % ", ".join(
            str(m) for m in value.weights)
    return type(value).__name__


_TQ_BASIS = [(n, i, j) for n in range(3)
             for i in range(n + 1) for j in range(n + 1)]

# one algebra's Hopf *-structure: element builds the basis element of a
# key, unit is the unit element, and the five maps act on elements
_HopfOps = collections.namedtuple(
    "_HopfOps", "element coproduct counit antipode star multiply unit")


def _hopf_axioms(checks, tag, scope, basis, ops, pairs, star_extra=None):
    """Check the Hopf *-algebra axioms (Klimyk-Schmuedgen 1997, ch. 1) of
    one algebra on every basis key: coassociativity, counit, antipode
    and star, anchored "<tag>-<axiom>".  The star check also reads star
    against the coproduct and S, then anti-multiplicativity on the
    seeded pairs; star_extra(x) adds identities of its own.  A failure
    names its key (or sample) and the residual."""
    def coassociativity(x, dx):
        left, right = {}, {}
        for (k1, k2), s in dx.terms.items():
            for (l1, l2), t in ops.coproduct(ops.element(k1)).terms.items():
                accumulate(left, (l1, l2, k2), s * t)
            for (l1, l2), t in ops.coproduct(ops.element(k2)).terms.items():
                accumulate(right, (k1, l1, l2), s * t)
        yield "coassociativity fails", LinComb(left), LinComb(right)

    def counit(x, dx):
        yield "counit axiom fails", dx.contract(
            lambda l, r: r.scale(ops.counit(l))), x
        yield "counit axiom fails", dx.contract(
            lambda l, r: l.scale(ops.counit(r))), x

    def antipode(x, dx):
        want = ops.unit.scale(ops.counit(x))
        yield "antipode axiom fails", dx.contract(
            lambda l, r: ops.multiply(ops.antipode(l), r)), want
        yield "antipode axiom fails", dx.contract(
            lambda l, r: ops.multiply(l, ops.antipode(r))), want

    def star(x, dx):
        yield "star not involutive", ops.star(ops.star(x)), x
        yield ("star incompatible with the coproduct",
               ops.coproduct(ops.star(x)), dx.map_legs(ops.star, ops.star))
        yield ("S∘* not involutive",
               ops.antipode(ops.star(ops.antipode(ops.star(x)))), x)
        if star_extra:
            yield from star_extra(x)

    def run(axiom, samples=()):
        for key in basis:
            x = ops.element(key)
            for failure, lhs, rhs in axiom(x, ops.coproduct(x)):
                yield "%s on %r = %s" % (failure, key, x), lhs, rhs
        for k, (lhs, rhs) in enumerate(samples):
            yield "star not anti-multiplicative on sample %d" % k, lhs, rhs

    anti = ((ops.star(ops.multiply(x, y)),
             ops.multiply(ops.star(y), ops.star(x))) for x, y in pairs)
    for anchor, name, fn in (
            ("coassociativity", "coassociativity",
             lambda: run(coassociativity)),
            ("counit", "counit axiom", lambda: run(counit)),
            ("antipode", "antipode axiom", lambda: run(antipode)),
            ("star", "star involution", lambda: run(star, anti))):
        _check(checks, "hopf", "%s-%s" % (tag, anchor), scope % name, fn)


def _suite_hopf(ws, checks):
    # the maps are looked up here, when the suite runs, so that wrappers
    # set on uea and coeff.Algebra after import see every call
    rnd = _rng(ws.cfg, "hopf")
    a = ws.algebra
    monomials = uea.pbw_monomials(4)
    uq_pairs = [(uea.monomial(*rnd.choice(monomials)),
                 uea.monomial(*rnd.choice(monomials))) for _ in range(20)]
    tq_pairs = [(_random_coeff(rnd, max_level=1, nterms=2),
                 _random_coeff(rnd, max_level=1, nterms=2))
                for _ in range(10)]
    uq = _HopfOps(lambda m: uea.monomial(*m), uea.coproduct, uea.counit,
                  uea.antipode, uea.star, lambda x, y: x * y, uea.UNIT)
    tq = _HopfOps(lambda key: coeff.basis_element(*key), a.coproduct,
                  a.counit, a.antipode, a.star, a.multiply, coeff.unit())
    pbw2 = uea.pbw_monomials(2)

    def star_pairing(f):
        # <f*, x> = conj <f, (S x)*> on the PBW monomials of degree <= 2
        sf = a.star(f)
        yield ("star pairing identity fails",
               LinComb({m: a.eval(sf, uea.monomial(*m)) for m in pbw2}),
               LinComb({m: a.eval(f, uea.star(uea.antipode(
                   uea.monomial(*m)))).conj() for m in pbw2}))

    _hopf_axioms(checks, "uq", "enveloping algebra %s, degree <= 4",
                 monomials, uq, uq_pairs)
    _hopf_axioms(checks, "tq", "coefficient algebra %s, level <= 2",
                 _TQ_BASIS, tq, tq_pairs, star_pairing)


def _suite_pairing(ws, checks):
    def full_rank():
        # a table certifies its rank per class, naming a deficient class
        for N in (1, 2, 3, 4):
            ws.algebra.pairing_table(N)

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
            for failure, lhs, rhs in (
                    ("circle composition fails",
                     a.circle(x, a.circle(y, h)), a.circle(x * y, h)),
                    ("dot composition fails",
                     a.dot(x, a.dot(y, h)), a.dot(x * y, h)),
                    ("actions do not commute",
                     a.circle(x, a.dot(y, h)), a.dot(y, a.circle(x, h)))):
                yield "%s on sample %d" % (failure, k), lhs, rhs

    def module_algebra():
        rnd = _rng(cfg, "actions-module")
        gens = [uea.E, uea.F, uea.K, uea.K_INV, uea.E * uea.F]
        for k in range(100):
            x = rnd.choice(gens)
            f = _random_coeff(rnd, max_level=1, nterms=2)
            g = _random_coeff(rnd, max_level=1, nterms=2)
            yield ("module-algebra law fails on sample %d" % k,
                   a.circle(x, a.multiply(f, g)),
                   uea.coproduct(x).contract(lambda l, r: a.multiply(
                       a.circle(l, f), a.circle(r, g))))

    _check(checks, "actions", "actions-commute",
           "translations compose and commute, 100 seeded triples",
           compose_commute)
    _check(checks, "actions", "circle-module-algebra",
           "circle action module-algebra law, 100 seeded triples",
           module_algebra)


def _suite_haar(ws, checks):
    a = ws.algebra

    def unit_value():
        yield "normalization h(1) = 1 fails", a.haar(coeff.unit()), ONE

    def invariance():
        for key in _TQ_BASIS:
            f = coeff.basis_element(*key)
            df = a.coproduct(f)
            want = coeff.unit().scale(a.haar(f))
            for lhs in (df.contract(lambda l, r: l.scale(a.haar(r))),
                        df.contract(lambda l, r: r.scale(a.haar(l)))):
                yield "invariance fails on %r = %s" % (key, f), lhs, want

    def positivity():
        for _, norm in _seeded_norms(ws):
            if not norm:
                yield "vanishing squared norm of a nonzero element"
            for u0 in SAMPLE_POINTS:
                if eval_at(norm, u0) <= 0:
                    yield "norm not positive at u0=%s" % u0

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

        def rank(weights=weights):
            proj = ws.idempotent(weights, 3)
            yield "rank against the sections dimension", proj.rank, \
                proj.sections_dim

        _check(checks, "idempotent", "idempotent-squared-" + tag,
               "idempotent squared equals itself, V=%s, N=3" % label,
               squared)
        _check(checks, "idempotent", "idempotent-rank-" + tag,
               "idempotent rank matches sections dimension, V=%s, N=3"
               % label, rank)


def _suite_projection(ws, checks):
    a = ws.algebra
    cfg = ws.cfg
    comp = bundle.Completion(cfg.weights)
    # a weight-m line has sections from level |m| on, and the images of
    # the level <= 2 invariants on it reach level |m| + 2
    m = max(abs(w) for w in cfg.weights)

    def wp(beta, f):
        return bundle.wp(a, comp, bundle.simple_tensor(beta, f))

    def sections():
        # the section basis, read off the weights and memoised per
        # (weights, level); an overflow replays as a skip
        return ws.sections(cfg.weights, m + 2)

    def retraction():
        for j, zeta in enumerate(sections()):
            yield "retraction fails on basis section %d" % j, \
                bundle.wp(a, comp, bundle.im(a, comp, zeta)), zeta

    def injective():
        ech = Echelon()
        for j, zeta in enumerate(sections()):
            if not ech.add(bundle.im(a, comp, zeta).terms):
                yield "inclusion image is rank deficient at basis " \
                    "section %d" % j

    def surjective():
        inv = ws.invariants(2)
        ech = Echelon()
        for beta in range(comp.dim_w):
            for f in inv:
                ech.add(wp(beta, f).terms)
        window = [s for s in sections()
                  if s.level <= max(abs(cfg.weights[r]) for r in s.coords) + 2]
        yield "projection images span rank", ech.rank, len(window)
        for j, zeta in enumerate(window):
            yield "section %d escapes the projection image" % j, \
                LinComb(ech.reduce(zeta.terms)), LinComb()
        yield "section count up to level %d" % (m + 2), len(sections()), \
            bundle.sections_count(cfg.weights, m + 2)

    def right_linear():
        rnd = _rng(cfg, "projection")
        inv = ws.invariants(2)
        basis = [s for s in sections() if s.level <= m + 1]
        small = [f for f in inv if f.level <= 2]
        for k in range(10):
            f = rnd.choice(inv)
            g = rnd.choice(small)
            beta = rnd.randint(0, comp.dim_w - 1)
            yield ("projection not right-linear on sample %d" % k,
                   wp(beta, a.multiply(f, g)), wp(beta, f).times(g))
            zeta = rnd.choice(basis)
            yield ("inclusion not right-linear on sample %d" % k,
                   bundle.im(a, comp, zeta.times(g)),
                   bundle.im(a, comp, zeta).map(lambda h: a.multiply(h, g)))

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

    def braiding():
        # certificate only: BraidingSplit also reads sigma(1) = flip
        ws.calc().braiding()

    def top_degree():
        calc = ws.calc()
        K = calc.data.K
        yield "dim of the degree-%d forms" % (K + 1), calc.omega_dims(K + 1), 0

    def d_squared():
        calc = ws.calc()
        rnd = _rng(cfg, "calculus-d")
        for k in range(50):
            f = _random_coeff(rnd)
            if k % 2:
                w = calc.form0(f)
            else:
                w = calc.left_mult(f, calc.d0(_random_coeff(rnd)))
            ddw = calc.d(calc.d(w))
            yield "d^2 != 0 on sample %d" % k, ddw, calc.zero(ddw.degree)

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
            yield ("product rule fails on sample %d" % k,
                   calc.d(calc.multiply(w1, w2)),
                   calc.multiply(calc.d(w1), w2)
                   + calc.multiply(w1, calc.d(w2)).scale(sign))

    def equivariance():
        calc = ws.calc()
        a = ws.algebra
        rnd = _rng(cfg, "calculus-equivariance")
        gens = (uea.E, uea.F, uea.K, uea.K * uea.E)
        for k in range(50):
            f = _random_coeff(rnd)
            w = calc.left_mult(f, calc.d0(_random_coeff(rnd)))
            dw, df = calc.d(w), calc.d0(f)
            for x in gens:
                yield ("translation equivariance fails on sample %d" % k,
                       calc.dot_on_forms(x, dw),
                       calc.d(calc.dot_on_forms(x, w)))
                yield ("degree-zero equivariance fails on sample %d" % k,
                       calc.dot_on_forms(x, df), calc.d0(a.dot(x, f)))

    _check(checks, "calculus", "structure-functionals",
           "shift functionals satisfy the structure identities", axioms)
    _check(checks, "calculus", "braiding-classical-limit",
           "braiding specializes to the flip at u=1", braiding)
    _check(checks, "calculus", "braiding-projectors",
           "braiding antisymmetrizer splits exactly", braiding)
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
            for n, rest in enumerate(ws.restriction().closure_check(degree)):
                yield ("d image escapes the restricted span in degree "
                       "%d on basis entry %d" % (degree, n), LinComb(rest),
                       LinComb())
        return run

    def epsilon_trivial():
        restriction = ws.restriction()
        for degree in (0, 1, 2):
            for n, entry in enumerate(restriction.bases[degree]):
                for p in (uea.K, uea.K_INV):
                    yield ("Levi generator %s moves the degree-%d basis "
                           "entry %d" % (p, degree, n),
                           restriction.circle_presented(
                               p, entry["presentation"]), entry["form"])

    _check(checks, "closure", "d-closure-degree-0",
           "restricted forms closed under d in degree 0", closure(0))
    _check(checks, "closure", "d-closure-degree-1",
           "restricted forms closed under d in degree 1", closure(1))
    _check(checks, "closure", "levi-epsilon-triviality",
           "Levi generators act through the counit on restricted forms",
           epsilon_trivial)


def _connection_law(tss, calc, conn, psi, w):
    """The two sides of the connection law at (psi, w)."""
    sign = -ONE if tss.degree_of(psi) % 2 else ONE
    return (conn.apply(tss.right_mult(psi, w)),
            tss.add(tss.right_mult(conn.apply(psi), w),
                    [x.scale(sign) for x in tss.right_mult(psi, calc.d(w))]))


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
        inv = ws.invariants(2)
        for k in range(50):
            cs = [Scalar(rnd.randint(-2, 2)) for _ in tss.vectors]
            combo = [w.combination((c, vec[g]) for c, vec
                                   in zip(cs, tss.vectors))
                     for g, w in enumerate(tss.zero(0))]
            psi = tss.right_mult(combo, calc.theta()) if k % 3 == 2 else combo
            pick = k % 3
            if pick == 0:
                w = calc.form0(_random_invariant(rnd, inv))
            else:
                w = calc.d0(_random_invariant(rnd, inv))
            yield ("connection law fails on sample %d" % k,
                   *_connection_law(tss, calc, conn, psi, w))

    def law_perturbed():
        tss = ws.tss()
        rnd = _rng(cfg, "connection-perturbed")
        gens = homspace.podles_generators()
        conns = _seeded_perturbations(tss, rnd, 10)
        for n in range(len(conns)):
            # each map, with the images it keeps, is freed after its walk
            conn, conns[n] = conns[n], None
            for j, g, lhs, rhs in tss.right_linearity(conn.apply, gens):
                yield ("connection law fails for perturbation %d" % n,
                       lhs, tss.add(rhs, tss.leibniz(j, g)))

    def differences():
        tss = ws.tss()
        rnd = _rng(cfg, "connection-differences")
        conns = [ws.conn0()] + _seeded_perturbations(tss, rnd, 3)
        for n in range(len(conns) - 1):
            # c1 is freed after this pair, c2 after the next
            c1, c2, conns[n] = conns[n], conns[n + 1], None

            def diff(vec):
                return tss.add(c1.apply(vec),
                               [x.scale(-ONE) for x in c2.apply(vec)])

            for _, _, lhs, rhs in tss.right_linearity(
                    diff, homspace.podles_generators()):
                yield "difference %d not right-linear" % n, lhs, rhs

    _check(checks, "connection", "connection-law-nabla0",
           "distinguished connection law, 50 seeded pairs", law_nabla0)
    _check(checks, "connection", "connection-law-perturbed",
           "perturbed connections satisfy the law, 10 seeded", law_perturbed)
    _check(checks, "connection", "connection-difference-linear",
           "differences of connections are right-linear", differences)


def _suite_curvature(ws, checks):
    def right_linear():
        F = ws.curvature0()
        for j, g, lhs, rhs in F.conn.tss.right_linearity(
                F.apply, homspace.podles_generators()):
            yield ("curvature not right-linear over the invariants on basis "
                   "section %d, a = %s" % (j, g), lhs, rhs)

    def bianchi():
        F = ws.curvature0()
        failing = [n for n, ok in enumerate(F.bianchi_check()) if not ok]
        if failing:
            yield ("operator identity fails on sections %s; section %d"
                   % (failing, failing[0]), *F.bianchi_sides(failing[0]))

    def trivial_flat():
        F = ws.curvature0((0,), 2)
        for label, values in (("generator", F.on_generators),
                              ("basis section", F.on_sections)):
            for n, vec in enumerate(values):
                yield ("trivial line bundle curvature on %s %d" % (label, n),
                       vec, F.conn.tss.zero(2))

    _check(checks, "curvature", "curvature-right-linear",
           "curvature is right-linear over the invariants", right_linear)
    _check(checks, "curvature", "bianchi-operator-identity",
           "operator Bianchi identity on the sections basis", bianchi)
    _check(checks, "curvature", "curvature-trivial-flat",
           "trivial line bundle is flat", trivial_flat)


def _suite_borelweil(ws, checks):
    a = ws.algebra

    def dimension():
        holo = ws.holomorphic((-1,), 4)
        yield ("holomorphic sections dimension", len(holo),
               repmod.irrep(1).dim)

    def irreducible():
        holo = ws.holomorphic((-1,), 4)
        yield ("highest weights of the translation module",
               [n for n, _, _ in bundle.dot_module(a, holo)[1]], [1])

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

# the canonical suite order
SUITES = tuple(_SUITE_RUNNERS)


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
    for suite in cfg.suites:
        if suite in _SUITE_FORM_DEGREE:
            _check_word_space(cfg, "verify suite " + suite,
                              _SUITE_FORM_DEGREE[suite]((cfg.irrep + 1) ** 2))
    ws = _Workspace(cfg)
    checks = []
    for suite in cfg.suites:
        t0 = time.perf_counter()
        _SUITE_RUNNERS[suite](ws, checks)
        print("suite %-11s %6.1fs" % (suite, time.perf_counter() - t0),
              file=sys.stderr)
    for name, cache in (("gcd cofactor cache", scalars._cancel),
                        ("primitive gcd cache", scalars._primitive_gcd)):
        info = cache.cache_info()
        print("%s: %d hits, %d misses, %d/%d entries"
              % (name, info.hits, info.misses, info.currsize, info.maxsize),
              file=sys.stderr)
    print("unreduced sums: %d finished, %d cancelled, %d denominator "
          "products, %d lcm pairs"
          % (scalars.SUM_STATS["finished"], scalars.SUM_STATS["cancelled"],
             scalars._den_product.cache_info().currsize,
             scalars._den_lcm.cache_info().currsize),
          file=sys.stderr)
    print("action matrix cache: %d entries"
          % sum(len(mod._acts) for mod in repmod._IRREPS.values()),
          file=sys.stderr)
    # the translations' memos: S^{-1} x per window, and the cached action
    # matrices whose columns circle has grouped
    print("translation cache: %d inverse antipodes, %d column-grouped "
          "action matrices"
          % (sum(len(alg._antipode_inv) for alg, _ in _SHARED.values()),
             sum(mat.columns_grouped() for mod in repmod._IRREPS.values()
                 for mat in mod._acts.values())),
          file=sys.stderr)
    built = collections.Counter(
        key[0] for _, memo in _SHARED.values() for key, value in memo.items()
        if not isinstance(value, Exception))
    # the invariants are the sections of the trivial line, and the
    # holomorphic sections those that e also annihilates
    print("shared tables: %d windows, %d idempotents, %d section bases, "
          "%d monomial matrices"
          % (len(_SHARED), built["idempotent"],
             built["sections"] + built["invariants"] + built["holomorphic"],
             sum(len(mod._monos) for mod in repmod._IRREPS.values())),
          file=sys.stderr)
    # the memo entries of this config, built by this run or an earlier one
    calc = ws._memo.get(("calc", cfg.irrep))
    memos = ((calc._product_tables, calc._d_tables, calc._nf, calc._normal,
              calc._j_ech) if isinstance(calc, calculus.Calculus) else [()] * 5)
    print("calculus table cache: %d product tables, %d d tables"
          % tuple(map(len, memos[:2])), file=sys.stderr)
    print("exterior ideal cache: %d normal forms, %d normal word degrees, "
          "%d echelons" % tuple(map(len, memos[2:])), file=sys.stderr)
    tss = ws._memo.get(ws._bundle_key("tss"))
    rows = tss._rows if isinstance(tss, connection.TensoredSectionSpace) else ()
    print("connection table cache: %d projection rows" % len(rows),
          file=sys.stderr)
    checks.sort(key=lambda c: (c["suite"], c["anchor"]))
    summary = {status: sum(c["status"] == status for c in checks)
               for status in ("pass", "fail", "skip")}
    _emit({"config": cfg.as_dict(), "checks": checks, "summary": summary},
          out_path)
    return 0 if summary["fail"] == 0 and summary["skip"] == 0 else 1


def _form_json(w):
    return {"(%s)" % ",".join(str(i) for i in key): str(ce)
            for key, ce in sorted(w.coords.items())}


def _check_word_space(cfg, command, degree):
    """ConfigError, before any work, when the command would build forms
    of this degree on more than WORD_SPACE_CAP words."""
    K = (cfg.irrep + 1) ** 2
    # K ** degree is cheap to compute while K is within the cap
    small = K <= WORD_SPACE_CAP
    if small and K ** degree <= WORD_SPACE_CAP:
        return
    words = "%d^%d" % (K, degree)
    if small and K ** degree < 10 ** 20:
        words += " = %d" % K ** degree
    raise ConfigError(
        "%s at irrep = %d builds degree-%d forms on %s words, above the "
        "word-space cap %d" % (command, cfg.irrep, degree, words,
                               WORD_SPACE_CAP))


def cmd_dims(cfg, out_path):
    _check_word_space(cfg, "dims", (cfg.irrep + 1) ** 2 + 1)
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
    _check_word_space(cfg, "connection", 3)
    F = _Workspace(cfg).curvature0()
    bianchi = F.bianchi_check()
    payload = {
        "config": cfg.as_dict(),
        "partial_on_sections": [[_form_json(w) for w in nabla]
                                for nabla in F.nabla_sections],
        "nabla0_on_generators": [[_form_json(w) for w in nabla]
                                 for nabla in F.nabla_generators],
        "curvature_on_generators": [[_form_json(w) for w in fv]
                                    for fv in F.on_generators],
        "curvature_right_linear": F.linearity_check(),
        "bianchi": bianchi,
    }
    payload["ok"] = payload["curvature_right_linear"] and all(bianchi)
    _emit(payload, out_path)
    return 0 if payload["ok"] else 1


def cmd_haar(cfg, out_path):
    rows = []
    ok = True
    for f, norm in _seeded_norms(_Workspace(cfg)):
        values = {}
        for u0 in SAMPLE_POINTS:
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
