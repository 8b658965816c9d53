"""No module of the package or of the tests imports a name it never
uses.  A name is used when some expression reads it, alone or as the
base of an attribute, or when the module's `__all__` lists it.

The package defines no function, method or class that its own code never
reads: code only the tests use lives in tests/.  The check goes by name,
so a definition counts as read when any expression of the package reads
that name, alone or as an attribute.

No module of the package but scalars touches the polynomial fields
`num` and `den` of a Scalar, the row and column groupings `_by_row`
and `_by_col` that a Matrix caches or the hash `_hash` that a LinComb
caches, and no module changes the `terms` of a LinComb in place: the
cached grouping and hash would no longer match them.  No module but
scalars reads the prime `PRIME`, and no code outside the class `Fp`
takes a modular inverse.  No function of the package sums a linear
combination by repeated `+`, in a loop or through the builtin `sum`
from a start that is not a number: `LinComb.combination` builds it in
one pass.  Outside scalars, a Scalar is evaluated at a rational point
only where the exact run alone can read it: the classical limit of the
braiding and the Haar positivity at the sample points."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of every import binding in source that no
    expression reads and no `__all__` lists, in source order."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_scan_sees_names_and_attribute_bases():
    source = ("import os\nimport os.path as osp\nimport sys\n"
              "from json import dumps, loads as read_json\n"
              "from . import kept\n__all__ = ['kept']\n"
              "print(sys.argv, dumps)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"),
                                      (4, "read_json")]


def test_no_unused_imports():
    found = {}
    for path in sorted((ROOT / "src" / "qhvb").glob("*.py")) + \
            sorted((ROOT / "tests").glob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


# definitions no code of the package reads, each with why it stays there
UNREAD_ALLOWED = {
    "calculus.Calculus.reduce_mod_J":
        "tracer-wrapped: perfbench/tracer.py lists it in SPANS",
    "scalars.Matrix.rref":
        "tracer-wrapped: perfbench/tracer.py lists it in SPANS",
    "connection.ConnectionMap.on_section":
        "tracer-wrapped: perfbench/tracer.py lists it in SPANS",
}


def tracer_spans():
    """The "module.Class.attr" (or "module.attr") names that
    perfbench/tracer.py wraps, read from its SPANS literal without
    importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    spans, = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)]
              == ["SPANS"]]
    return {".".join(part for part in span if part)
            for span in ast.literal_eval(spans)}


def test_every_allowed_unread_definition_is_a_tracer_span():
    # the tracer keeps these names in src/; the list empties when the
    # tracer stops wrapping them
    assert set(UNREAD_ALLOWED) <= tracer_spans()


def unread_definitions(sources):
    """Sorted "module.qualified.name" of every function, method and class
    defined in sources ({module: source}), dunders excluded, whose name no
    expression in any of the sources reads, alone or as an attribute."""
    defined = []

    def collect(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.append(("%s.%s%s" % (module, prefix, name), name))
                collect(module, child, prefix + name + ".")
            else:
                collect(module, child, prefix)

    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        collect(module, tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return sorted(qualified for qualified, name in defined
                  if name not in read)


def test_the_definition_scan_sees_calls_and_attributes():
    sources = {
        "a": ("class Kept:\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    def __repr__(self): return 'k'\n"
              "def helper(): pass\n"
              "def orphan():\n"
              "    def inner(): pass\n"
              "    return Kept().used\n"),
        "b": "from a import helper\nhelper()\n",
    }
    assert unread_definitions(sources) == [
        "a.Kept.unused", "a.orphan", "a.orphan.inner"]


def test_every_definition_of_the_package_is_read():
    sources = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "qhvb").glob("*.py"))}
    assert unread_definitions(sources) == sorted(UNREAD_ALLOWED)


# the polynomial layout of a Scalar and the row and column groupings of a
# Matrix are private to scalars: every other module works with Scalars
# and reads rows and columns through Matrix.row and Matrix.col
LAYOUT_ATTRIBUTES = {"num", "den", "_by_row", "_by_col", "_hash"}


def layout_reads(source):
    """(line, attribute) of every use of a Scalar's polynomial fields, of
    a Matrix's row or column grouping or of a LinComb's cached hash in
    source."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in LAYOUT_ATTRIBUTES)


def test_the_layout_scan_sees_field_reads():
    assert layout_reads("x = s.num\nn, d = a.b.den, s.numerator\n"
                        "m._by_row = m._by_col = None\nh = x._hash\n") == [
        (1, "num"), (2, "den"), (3, "_by_col"), (3, "_by_row"),
        (4, "_hash")]


def test_only_scalars_reads_the_polynomial_layout():
    found = {}
    for path in sorted((ROOT / "src" / "qhvb").glob("*.py")):
        reads = layout_reads(path.read_text())
        if reads and path.name != "scalars.py":
            found[path.name] = reads
    assert found == {}


# arithmetic mod p lives in scalars: no other module reads the prime, and
# the one modular inverse is the division of Fp, so a second elimination
# over F_p has nothing to build on
def modular_uses(source):
    """(line, use) of every import or read of PRIME in source, as a name
    or an attribute, and of every modular inverse pow(_, -1, _) outside
    the class Fp."""
    found = []

    def visit(node, in_fp):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                found.extend((child.lineno, "PRIME") for a in child.names
                             if a.name == "PRIME")
            elif (isinstance(child, ast.Name) and child.id == "PRIME"
                  or isinstance(child, ast.Attribute)
                  and child.attr == "PRIME"):
                found.append((child.lineno, "PRIME"))
            elif (not in_fp and isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Name)
                  and child.func.id == "pow" and len(child.args) == 3
                  and ast.unparse(child.args[1]) == "-1"):
                found.append((child.lineno, "pow"))
            visit(child, in_fp or isinstance(child, ast.ClassDef)
                  and child.name == "Fp")

    visit(ast.parse(source), False)
    return sorted(found)


def test_the_modular_scan_sees_the_prime_and_inverses():
    source = ("from .scalars import PRIME as P\n"
              "x = y % scalars.PRIME\n"
              "class Fp:\n"
              "    def __truediv__(self, other):\n"
              "        return pow(other.value, -1, PRIME)\n"
              "inv = pow(a, -1, p)\n"
              "power = pow(a, 2, p)\n"
              "def f(a, p):\n"
              "    return pow(a, -1, p)\n")
    assert modular_uses(source) == [
        (1, "PRIME"), (2, "PRIME"), (5, "PRIME"), (6, "pow"), (9, "pow")]


def test_only_scalars_does_arithmetic_mod_p():
    found = {}
    for path in sorted((ROOT / "src" / "qhvb").glob("*.py")):
        uses = [(line, use) for line, use in modular_uses(path.read_text())
                if path.name != "scalars.py" or use != "PRIME"]
        if uses:
            found[path.name] = uses
    assert found == {}


# the dict methods that change a dict in place
MUTATORS = {"pop", "popitem", "update", "setdefault", "clear"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def terms_changes(source):
    """(line, statement or method) of every in-place change in source of
    the terms of a LinComb: a subscript assignment or deletion, or a
    call of a mutating dict method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and _is_terms(sub.value):
                    found.append((node.lineno, type(node).__name__))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and _is_terms(node.func.value)):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_the_terms_scan_sees_in_place_changes():
    source = ("x.terms[k] = s\ndel m.terms[k]\nf.terms.pop(k)\n"
              "f.terms.update(g)\nf.terms.setdefault(k, s)\n"
              "f.terms.clear()\nm.terms[k] += s\n"
              "a, x.terms[k] = 1, s\n"
              "d = dict(f.terms)\nd[k] = s\nf.terms.get(k)\n")
    assert terms_changes(source) == [
        (1, "Assign"), (2, "Delete"), (3, "pop"), (4, "update"),
        (5, "setdefault"), (6, "clear"), (7, "AugAssign"), (8, "Assign")]


def test_no_module_changes_terms_in_place():
    found = {}
    for path in sorted((ROOT / "src" / "qhvb").glob("*.py")):
        changes = terms_changes(path.read_text())
        if changes:
            found[path.name] = changes
    assert found == {}


# the calls that start a LinComb: its constructors, the unfiltered
# builders LinComb._of, Matrix._shaped and FormElement._graded, and the
# zero(...) of a calculus or of a tensored section space
LINCOMB_STARTS = {"LinComb", "CoeffElement", "UEAElement", "TensorUEA",
                  "_of", "_shaped", "_graded", "zero"}


def _starts_lincomb(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in LINCOMB_STARTS
        or isinstance(node.func, ast.Attribute)
        and node.func.attr in LINCOMB_STARTS)


# the starts of a builtin sum over numbers or Scalars: the Scalar
# constants and a Fraction, besides a literal number
NUMBER_STARTS = {"ZERO", "ONE", "Fraction"}


def _sums_by_addition(node):
    """Is node a builtin sum(xs, start) whose start is neither a number
    nor a Scalar constant, so that it may add LinCombs by repeated `+`?"""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"):
        return False
    starts = node.args[1:] + [k.value for k in node.keywords
                              if k.arg == "start"]
    return any(not (isinstance(start, ast.Constant)
                    and isinstance(start.value, (int, float))
                    or isinstance(start, ast.Name)
                    and start.id in NUMBER_STARTS
                    or isinstance(start, ast.Call)
                    and isinstance(start.func, ast.Name)
                    and start.func.id in NUMBER_STARTS)
               for start in starts)


def addition_loops(source):
    """(line, name) of every `v = v + ...`, `v = v - ...` or `v += ...`
    inside a loop of a function that binds v to a LinComb constructor
    call, or to a zero(...), before the loop, and (line, "sum") of every
    builtin sum whose start is not a number or a Scalar constant."""
    tree = ast.parse(source)
    found = {(node.lineno, "sum") for node in ast.walk(tree)
             if _sums_by_addition(node)}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        started = {}
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _starts_lincomb(node.value)):
                name = node.targets[0].id
                started[name] = min(started.get(name, node.lineno),
                                    node.lineno)
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if (isinstance(node, ast.AugAssign)
                        and isinstance(node.op, (ast.Add, ast.Sub))):
                    target = node.target
                elif (isinstance(node, ast.Assign)
                      and len(node.targets) == 1
                      and isinstance(node.value, ast.BinOp)
                      and isinstance(node.value.op, (ast.Add, ast.Sub))
                      and isinstance(node.value.left, ast.Name)):
                    target = node.targets[0]
                    if not (isinstance(target, ast.Name)
                            and target.id == node.value.left.id):
                        continue
                else:
                    continue
                if (isinstance(target, ast.Name)
                        and started.get(target.id, loop.lineno) < loop.lineno):
                    found.add((node.lineno, target.id))
    return sorted(found)


def test_the_addition_scan_sees_linear_combination_loops():
    source = ("def f(xs):\n"
              "    acc = coeff.CoeffElement()\n"
              "    for s, x in xs:\n"
              "        acc = acc + x.scale(s)\n"
              "    return acc\n"
              "def g(calc, xs):\n"
              "    out = calc.zero(1)\n"
              "    while xs:\n"
              "        out -= xs.pop()\n"
              "    return out\n"
              "def h(xs):\n"
              "    acc = ZERO\n"
              "    for x in xs:\n"
              "        acc = acc + x\n"
              "    total = UEAElement()\n"
              "    total = total + xs[0]\n"
              "    for x in xs:\n"
              "        more = total + x\n"
              "    n = LinComb()\n"
              "    return acc\n"
              "def i(xs):\n"
              "    a = CoeffElement._of({})\n"
              "    b = Matrix._shaped(2, 2, {})\n"
              "    c = FormElement._graded(1, {})\n"
              "    for x in xs:\n"
              "        a = a + x\n"
              "        b -= x\n"
              "        c += x\n"
              "    return a, b, c\n"
              "def j(ms):\n"
              "    whole = sum(ms[1:], ms[0])\n"
              "    part = sum(ms, start=Matrix.zeros(2, 2))\n"
              "    n = sum(len(m) for m in ms) + sum(ms, 0) + sum(ms, ZERO)\n"
              "    return whole, part, n + sum(ms, Fraction(0))\n")
    assert addition_loops(source) == [(4, "acc"), (9, "out"), (26, "a"),
                                      (27, "b"), (28, "c"), (31, "sum"),
                                      (32, "sum")]


def test_no_linear_combination_is_summed_in_a_loop():
    found = {}
    for path in sorted((ROOT / "src" / "qhvb").glob("*.py")):
        loops = addition_loops(path.read_text())
        if loops:
            found[path.name] = loops
    assert found == {}


# the reads of a Scalar at a rational point.  An image of the run at one
# residue of u mod p cannot make them, so each is a read that only the
# exact run makes: the classical limit of the braiding, and the Haar
# positivity check and command at the sample points
EVALUATION_SITES = ["calculus.BraidingSplit.__init__", "cli._suite_haar",
                    "cli.cmd_haar"]


def evaluation_sites(module, source):
    """Sorted "module.Class.function" of the outermost function (a nested
    function counts to it), or "module" at module level, of every read
    of eval_at in source, called or not: eval_at(...), x.eval_at(...)."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if not in_function and isinstance(
                    child, (ast.ClassDef, ast.FunctionDef,
                            ast.AsyncFunctionDef)):
                inner = scope + "." + child.name
            if (isinstance(child, ast.Name) and child.id == "eval_at"
                    or isinstance(child, ast.Attribute)
                    and child.attr == "eval_at"):
                found.add(scope)
            visit(child, inner, in_function
                  or isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)))

    visit(ast.parse(source), module, False)
    return sorted(found)


def test_the_evaluation_scan_sees_calls_by_outermost_function():
    source = ("from .scalars import eval_at\n"
              "def f(s):\n"
              "    return eval_at(s, 1)\n"
              "class C:\n"
              "    def m(self):\n"
              "        def inner():\n"
              "            return self.mat.eval_at(2)\n"
              "        return inner\n"
              "    def aliased(self, s):\n"
              "        at = s.eval_at\n"
              "        return at(1)\n"
              "    def clean(self, s):\n"
              "        return s.monomial()\n"
              "x = scalars.eval_at(ONE, 0)\n")
    assert evaluation_sites("a", source) == [
        "a", "a.C.aliased", "a.C.m", "a.f"]


def test_only_the_exact_reads_evaluate_a_scalar():
    found = []
    for path in sorted((ROOT / "src" / "qhvb").glob("*.py")):
        if path.name != "scalars.py":
            found += evaluation_sites(path.stem, path.read_text())
    assert found == EVALUATION_SITES
