"""No module under src/, tests/ or demos/ imports a name it never uses.

A small stand-in for a linter's unused-import rule, built on ``ast`` alone:
a name bound by an import counts as used when it appears as a name anywhere
in the module (an attribute chain ``np.linalg`` uses ``np``) or is listed in
the module's ``__all__``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source):
    """``(line, name)`` of each imported name the module never uses."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_names():
    source = ("import os\nimport numpy as np\nimport os.path as osp\n"
              "from json import dumps, loads\nfrom a.b import c\n"
              "__all__ = ['c']\nprint(np.zeros(1), loads)\n")
    assert unused_imports(source) == [(1, "os"), (3, "osp"), (4, "dumps")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
