"""The traced benchmark run (``perfbench/run.py --trace``) wraps causalinv
functions by module and name, and its hooks read some of their arguments by
parameter name. These checks read ``perfbench/spans.py`` as it stands and fail
when a change to the package would break that run."""

import importlib
import importlib.util
import inspect
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def _params(module, func):
    fn = getattr(importlib.import_module(f"causalinv.{module}"), func)
    return set(inspect.signature(fn).parameters)


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for module, func in traced:
        mod = importlib.import_module(f"causalinv.{module}")
        assert inspect.isfunction(getattr(mod, func, None)), \
            f"causalinv.{module}.{func} is not a module-level function"


def test_hooked_parameter_names():
    # the names the benchmark's optimize and project hooks bind
    assert {"x_bar", "schema", "cfg"} <= _params("optimize", "optimize")
    assert {"x", "l", "u"} <= _params("optimize", "project")
