"""No module of the package or of the tests imports a name it never
uses.  A name is used when some expression reads it, alone or as the
base of an attribute, or when the module's `__all__` lists it."""

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
