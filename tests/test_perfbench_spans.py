"""The benchmark (``perfbench/run.py``) drives causalinv from outside: its
traced run wraps functions by module and name and its hooks read some of their
arguments by parameter name, and its sweep workload counts and keeps every
``optimize`` call that ``causalinv evaluate`` makes. These checks read
``perfbench/spans.py`` and ``perfbench/run.py`` as they stand and fail when a
change to the package would break either run; the last one runs
``perfbench/selftest.py``, which calls the package the way the benchmark's
output checks do."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from causalinv import synth
from causalinv.cli import build_parser, cmd_evaluate, main
from causalinv.experiment import (TrainSettings, fit_side_models, ifee,
                                  run_experiment)
from causalinv.gp import treatment_profile
from causalinv.nets import predict_proba
from tests.conftest import make_dataset

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")
LIGHT = TrainSettings(gp_restarts=0, folds=2, arch_grid=((4,),), epochs=10)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _params(module, func):
    fn = getattr(importlib.import_module(f"causalinv.{module}"), func)
    return set(inspect.signature(fn).parameters)


def test_traced_functions_resolve():
    traced = _spans().TRACED
    assert traced
    for module, func in traced:
        mod = importlib.import_module(f"causalinv.{module}")
        assert inspect.isfunction(getattr(mod, func, None)), \
            f"causalinv.{module}.{func} is not a module-level function"


def test_hooked_parameter_names():
    # the names the benchmark's optimize and project hooks bind
    assert {"x_bar", "schema", "cfg"} <= _params("optimize", "optimize")
    assert {"x", "l", "u"} <= _params("optimize", "project")


def test_sweep_command_parses():
    args = build_parser().parse_args(
        ["evaluate", "--data", "d.csv", "--schema", "s.json", "--out", "o",
         "--seed", "0", "--budget", "0,1", "--variant", "g,fprime-noopt,f",
         "--lambda", "0.1", "--jobs", "1"])
    assert args.func is cmd_evaluate and args.jobs == 1


@pytest.fixture(scope="module")
def tiny():
    return make_dataset(n=24, n_c=2, n_i=1, n_t=2, seed=5)


def test_sweep_optimizes_one_row_per_call(tiny):
    # one call per (cell, validation row), each with one 1-D x_bar and a
    # result carrying x_T_star, seen through the rebinding the benchmark uses
    spans = _spans()
    original = importlib.import_module("causalinv.optimize").optimize
    signature = inspect.signature(original)
    calls = []

    def kept(*args, **kwargs):
        res = original(*args, **kwargs)
        x_bar = signature.bind(*args, **kwargs).arguments["x_bar"]
        calls.append((np.shape(x_bar), np.shape(res.x_T_star)))
        return res

    spans.replace_everywhere(original, kept)
    try:
        rep = run_experiment(tiny, budgets=[0.0, 0.5], lambdas=[0.1],
                             variants=["g", "fprime-noopt", "f"], seed=0,
                             settings=LIGHT, max_iters=10, jobs=1)
    finally:
        spans.replace_everywhere(kept, original)
    assert len(calls) == len(rep.cells) * rep.n_val
    assert set(calls) == {((tiny.schema.n_features,),
                           (tiny.schema.n_treatments,))}


def test_ifee_scores_one_row(tiny):
    side = fit_side_models(tiny, 3, LIGHT)
    schema = tiny.schema
    x_bar = tiny.X[0]
    x_star = np.clip(tiny.treatments()[0] - 0.1, 0.0, 1.0)
    eff = ifee(side.f_weighted, side.H, side.gps, schema, x_bar, x_star,
               weighted=True)
    x_C, x_bar_T = tiny.controls()[0], tiny.treatments()[0]
    profile = treatment_profile(side.gps, x_C)
    before = predict_proba(side.f_weighted, side.H, x_C, x_bar_T, profile)
    after = predict_proba(side.f_weighted, side.H, x_C, x_star, profile)
    assert isinstance(eff, float) and abs(eff - (before - after)) < 1e-12


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    # perfbench/run.py's own LayerTrace around train, optimize and evaluate:
    # every hook it installs fires on the package's real calls, and the
    # metrics it derives are exactly BENCHMARK.json's per-layer list
    monkeypatch.setattr(sys, "path", [PERFBENCH] + sys.path)
    environ = set(os.environ)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for var in set(os.environ) - environ:  # run.py pins BLAS threads
        monkeypatch.delenv(var)
    for name in ("checks", "spans"):  # perfbench's modules, named generically
        sys.modules.pop(name, None)
    csv_path, schema_path = synth.write_corpus(str(tmp_path / "corpus"), n=40)
    data = ["--data", csv_path, "--schema", schema_path,
            "--out", str(tmp_path / "out")]
    training = ["--gp-restarts", "0", "--folds", "2", "--epochs", "5",
                "--arch", "4"]
    search = ["--budget", "1", "--max-iters", "10"]
    trace = run.LayerTrace()
    trace.start()
    try:
        assert main(["train", *data, *training]) == 0
        assert main(["optimize", *data, *search, "--instances", "0,1"]) == 0
        assert main(["evaluate", *data, *training, "--budget", "0", *search,
                     "--jobs", "1"]) == 0
    finally:
        trace.stop()
    with open(os.path.join(PERFBENCH, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(trace.metrics([0.0])) == per_layer


def test_benchmark_selftest_passes():
    # the benchmark's output checks run against this package's real output;
    # the self-test writes only under perfbench/out/
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
