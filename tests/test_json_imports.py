"""Only ``causalinv.data`` imports ``json``.

Every JSON document the package reads or writes goes through
``data.read_json`` and ``data.write_json``; this ``ast`` scan keeps a second
reader or writer from growing back in another module.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "causalinv"


def json_imports(source):
    """Line numbers of the statements in ``source`` that import ``json``
    or a submodule of it, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "json" or name.startswith("json.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_json_imports():
    source = ("import os, json as j\nfrom json import dumps\n"
              "import json.decoder\nfrom . import json\nfrom .json import x\n"
              "import jsonschema\nfrom jsonx import y\n"
              "def f():\n    from json.decoder import JSONDecodeError\n")
    assert json_imports(source) == [1, 2, 3, 9]


def test_only_data_imports_json():
    modules = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{line}" for path in modules if path.name != "data.py"
             for line in json_imports(path.read_text(encoding="utf-8"))]
    assert not found, "json imported outside data.py:\n" + "\n".join(found)
    assert json_imports((PACKAGE / "data.py").read_text(encoding="utf-8"))
