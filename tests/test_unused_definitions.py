"""Every module-level function and class under src/causalinv/ has a caller.

A small stand-in for a linter's dead-code rule, built on ``ast`` alone, like
``test_unused_imports.py``. A definition counts as used when one of these
holds:

* it is named in the package outside its own body (as a name, an attribute
  such as ``gp._density_slope`` or an imported name);
* it is listed in the package's ``__all__``;
* it is named by ``perfbench/`` or ``demos/``, which drive the package from
  outside.

Tests do not count: a helper that only tests call is dead code.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "causalinv"
OUTSIDE = ("perfbench", "demos")


def _names(node):
    """Every name, attribute and imported name under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _exported(tree):
    """The strings of the module's ``__all__`` list, if it has one."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == "__all__"
            for elt in node.value.elts if isinstance(elt, ast.Constant)}


def unnamed_definitions(package, outside):
    """``(module, name)`` of each module-level function or class of
    ``package`` (module name to source) that meets none of the rules above;
    ``outside`` lists the sources of the code that drives the package."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    exported = set().union(*map(_exported, trees.values()))
    named_outside = set().union(*(_names(ast.parse(src)) for src in outside))
    # per top-level statement of the package, the names it uses
    used = {(mod, i): _names(node) for mod, tree in trees.items()
            for i, node in enumerate(tree.body)}
    statements_naming = Counter(name for names in used.values() for name in names)
    unnamed = []
    for mod, tree in trees.items():
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            elsewhere = statements_naming[node.name] - (node.name in used[mod, i])
            if not (elsewhere or node.name in exported
                    or node.name in named_outside):
                unnamed.append((mod, node.name))
    return sorted(unnamed)


def test_checker_finds_unnamed_definitions():
    package = {
        "__init__.py": "__all__ = ['main']\n",
        "a.py": ("def main():\n    return _twice(1)\n\n"
                 "def _twice(x):\n    return 2 * x\n\n"
                 "def helper():\n    return 1\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class Driven:\n    pass\n\n"
                 "class Dead:\n    def method(self):\n        return Dead\n"),
        "b.py": "from .a import helper as _helper\n",
    }
    outside = ["from pkg.a import Driven\n"]
    assert unnamed_definitions(package, outside) == [("a.py", "Dead"),
                                                     ("a.py", "recursive")]


def test_no_unnamed_definitions():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text(encoding="utf-8") for top in OUTSIDE
               for path in sorted((ROOT / top).rglob("*.py"))]
    found = unnamed_definitions(package, outside)
    assert not found, "definitions nothing names:\n" + "\n".join(
        f"src/causalinv/{mod}: {name}" for mod, name in found)
