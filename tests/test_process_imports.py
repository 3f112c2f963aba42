"""Only ``causalinv.experiment._shared`` starts processes.

It is the one function that imports ``multiprocessing``, and nothing under
``src/`` imports ``concurrent``; this ``ast`` scan keeps a second way of
starting processes, such as a process pool, from growing back.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HELPER = ("causalinv/experiment.py", "multiprocessing", "_shared")


def process_imports(source):
    """``(line, package, function)`` of each statement in ``source`` that
    imports ``multiprocessing`` or ``concurrent`` or a submodule of either,
    where ``function`` is the innermost function around it, or None."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            for name in names:
                package = name.split(".")[0]
                if package in ("multiprocessing", "concurrent"):
                    found.append((child.lineno, package, function))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_process_imports():
    source = ("import os, multiprocessing as mp\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "from . import multiprocessing\nimport multiprocessingx\n"
              "def f():\n    def g():\n        import multiprocessing.pool\n"
              "    import concurrent\n"
              "class C:\n    def h(self):\n"
              "        from multiprocessing import Process\n")
    assert process_imports(source) == [
        (1, "multiprocessing", None), (2, "concurrent", None),
        (7, "multiprocessing", "g"), (8, "concurrent", "f"),
        (11, "multiprocessing", "h")]


def test_only_the_helper_starts_processes():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        found += [(name, package, function) for _, package, function
                  in process_imports(path.read_text(encoding="utf-8"))]
    assert HELPER in found
    others = [f for f in found if f != HELPER]
    assert not others, f"process imports outside {HELPER[2]}: {others}"
