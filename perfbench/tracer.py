"""Per-layer tracing of qhvb from outside the package.

`install()` replaces the public functions and methods listed in SPANS with
wrappers that time each call, and adds counters on Scalar normalisation,
the polynomial gcd and `Calculus.reduce_mod_J`.  Nothing under src/ is
changed: the wrappers are set on the imported modules and classes, so
every caller that looks the name up at call time goes through them.

A span's self time is its duration minus the durations of the spans it
called.  Spans are aggregated per name in memory (self time, inclusive
time, calls) and returned by `collect()` when the run ends.  The sum of
all self times equals the summed duration of the outermost spans, which
the harness checks against the child's wall time.
"""

import functools
import importlib
import time

# (module, class or None, attribute) for every span recorded
SPANS = [
    ("scalars", "Matrix", "rref"),
    ("scalars", "Matrix", "solve"),
    ("scalars", "Matrix", "kernel"),
    ("scalars", "Matrix", "inverse"),
    ("scalars", "Matrix", "__mul__"),
    ("scalars", "Echelon", "add"),
    ("scalars", "Echelon", "reduce"),
    ("uea", None, "coproduct"),
    ("uea", None, "antipode"),
    ("uea", "UEAElement", "__mul__"),
    ("repmod", None, "decompose"),
    ("homspace", None, "invariants"),
    ("bundle", None, "idempotent"),
    ("bundle", None, "sections_basis"),
    ("bundle", None, "wp"),
    ("bundle", None, "im"),
    ("bundle", None, "holomorphic_sections"),
    ("bundle", None, "dot_module"),
    ("coeff", "Algebra", "multiply"),
    ("coeff", "Algebra", "circle"),
    ("coeff", "Algebra", "dot"),
    ("coeff", "Algebra", "coproduct"),
    ("coeff", "Algebra", "antipode"),
    ("coeff", "Algebra", "star"),
    ("coeff", "Algebra", "haar"),
    ("coeff", "Algebra", "pairing_table"),
    ("calculus", "Calculus", "d"),
    ("calculus", "Calculus", "multiply"),
    ("calculus", "Calculus", "reduce_mod_J"),
    ("calculus", "Calculus", "dot_on_forms"),
    ("calculus", "Calculus", "braiding"),
    ("calculus", "Calculus", "restrict"),
    ("calculus", "Calculus", "omega_dims"),
    ("calculus", "Restriction", "closure_check"),
    ("connection", None, "make_connection"),
    ("connection", "ConnectionMap", "apply"),
    ("connection", "ConnectionMap", "on_section"),
    ("connection", "TensoredSectionSpace", "project"),
    ("connection", "TensoredSectionSpace", "right_mult"),
    ("connection", "CurvatureMap", "hat"),
    ("connection", "CurvatureMap", "linearity_check"),
    ("connection", "CurvatureMap", "bianchi_check"),
]

# memo tables whose sizes are reported at the end of the run:
# (module, class or None, attribute)
CACHES = [
    ("uea", None, "_EF_MEMO"),
    ("uea", None, "_DELTA_MONO"),
    ("uea", None, "_ANTIPODE_MEMO"),
    ("repmod", None, "_IRREPS"),
    ("coeff", "Algebra", "_pair_prod"),
    ("coeff", "Algebra", "_mono_act"),
    ("coeff", "Algebra", "_cg"),
    ("coeff", "Algebra", "_class_inv"),
    ("coeff", "Algebra", "_pairing_tables"),
    ("calculus", "Calculus", "_transfer"),
    ("calculus", "Calculus", "_j_ech"),
]


def span_name(module, cls, attr):
    return ".".join(p for p in (module, cls, attr) if p)


def suite_span(suite):
    return "cli." + suite


class _State:
    def __init__(self):
        # per span name: [self seconds, inclusive seconds, calls]
        self.spans = {}
        # child time of each open span; the bottom entry collects the
        # duration of the outermost spans
        self.stack = [0.0]
        self.counts = dict.fromkeys(
            ("normalisations", "den_monomial", "u2", "u4", "degree_sum",
             "gcd_reduced", "reduce_in", "reduce_kept"), 0)
        # the most recently built instance of each class with a cache
        self.last = {}


_state = None


def _wrap(name, fn):
    rec = _state.spans.setdefault(name, [0.0, 0.0, 0])
    stack = _state.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def span(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            rec[0] += dt - stack.pop()
            rec[1] += dt
            rec[2] += 1
            stack[-1] += dt
    return span


def _degree(p):
    n = len(p) - 1
    while n >= 0 and not p[n]:
        n -= 1
    return n


def _count_normalisation(num, den):
    """Classify the inputs of one Scalar construction."""
    c = _state.counts
    num = (num,) if num.__class__ is int else num
    den = (den,) if den.__class__ is int else den
    c["normalisations"] += 1
    if den.count(0) == len(den) - 1:
        c["den_monomial"] += 1
    if not (any(num[1::2]) or any(den[1::2])):
        c["u2"] += 1
        if not (any(num[2::4]) or any(den[2::4])):
            c["u4"] += 1
    c["degree_sum"] += max(_degree(num), _degree(den), 0)


def _coordinates(form):
    return sum(len(f.terms) for f in form.coords.values())


def install():
    """Install every wrapper; call once, before any qhvb object exists."""
    global _state
    from qhvb import cli, scalars

    _state = _State()
    counts = _state.counts

    def target(module, cls):
        mod = importlib.import_module("qhvb." + module)
        return getattr(mod, cls) if cls else mod

    for module, cls, attr in SPANS:
        owner = target(module, cls)
        setattr(owner, attr,
                _wrap(span_name(module, cls, attr), getattr(owner, attr)))

    for suite, runner in list(cli._SUITE_RUNNERS.items()):
        cli._SUITE_RUNNERS[suite] = _wrap(suite_span(suite), runner)

    init = scalars.Scalar.__init__

    def scalar_init(self, num, den=(1,)):
        init(self, num, den)
        _count_normalisation(num, den)

    scalars.Scalar.__init__ = scalar_init

    pgcd = scalars._pgcd

    def gcd(a, b):
        g = pgcd(a, b)
        if g != (1,):
            counts["gcd_reduced"] += 1
        return g

    scalars._pgcd = gcd

    calc_cls = target("calculus", "Calculus")
    reduce_mod_j = calc_cls.reduce_mod_J

    def reduce_counted(self, w):
        out = reduce_mod_j(self, w)
        if w.degree >= 2:
            counts["reduce_in"] += _coordinates(w)
            counts["reduce_kept"] += _coordinates(out)
        return out

    calc_cls.reduce_mod_J = reduce_counted

    for module, cls in sorted({(m, c) for m, c, _ in CACHES if c}):
        _remember_instances(target(module, cls))


def _remember_instances(cls):
    init = cls.__init__

    def remembered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _state.last[cls.__name__] = self

    cls.__init__ = remembered


def collect():
    """The statistics gathered since `install()`, as plain JSON data."""
    caches = {}
    for module, cls, attr in CACHES:
        if cls:
            owner = _state.last.get(cls)
        else:
            owner = importlib.import_module("qhvb." + module)
        table = getattr(owner, attr, None) if owner is not None else None
        caches[span_name(module, cls, attr)] = len(table) if table else 0
    return {
        "spans": {k: list(v) for k, v in _state.spans.items()},
        "outermost_s": _state.stack[0],
        "counts": dict(_state.counts),
        "caches": caches,
    }
