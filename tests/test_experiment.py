import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from causalinv.experiment import (ADJUST_THRESHOLD, TrainSettings,
                                  _cell_grid, _filter_3sigma, ifee,
                                  report_to_dict, run_experiment,
                                  write_sweep_csv)
from causalinv.gp import ApsResult, KernelConfig, fit_gp
from causalinv.nets import IndirectEstimator, MlpClassifier
from causalinv.optimize import (TOL, OptimizationConfig, OptimizationError,
                                PolicyResult, Variant)
from tests.conftest import make_dataset, make_schema


def _monotone_f(n_c, n_t, slope=2.5, weighted=False):
    p = n_c + n_t
    W = np.zeros((1, p))
    W[0, n_c:] = slope
    return MlpClassifier((p, 1), [W], [np.zeros(1)], weighted, n_c, 0, n_t)


def _gps(n_c, n_t, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((25, n_c))
    return tuple(
        fit_gp(X, 0.5 + 0.2 * X[:, 0] + rng.normal(0, 0.1, 25),
               KernelConfig(1.0, 0.3, 0.05), optimize_hypers=False)
        for _ in range(n_t))


class TestIfee:
    def setup_method(self):
        self.schema = make_schema(1, 0, 1)
        self.H = IndirectEstimator.passthrough(1, 1)
        self.gps = _gps(1, 1)

    def test_identical_vectors_give_zero(self):
        f = _monotone_f(1, 1)
        x_bar = np.array([0.4, 0.5])
        val = ifee(f, self.H, self.gps, self.schema, x_bar, np.array([0.5]),
                   weighted=False)
        assert val == 0.0

    def test_constant_model_gives_zero(self):
        f = _monotone_f(1, 1, slope=0.0)
        x_bar = np.array([0.4, 0.5])
        val = ifee(f, self.H, self.gps, self.schema, x_bar, np.array([0.1]),
                   weighted=False)
        assert val == 0.0

    def test_sign_follows_monotonicity(self):
        # f increasing in the treatment: lowering it must improve (positive)
        f = _monotone_f(1, 1, slope=3.0)
        x_bar = np.array([0.4, 0.6])
        down = ifee(f, self.H, self.gps, self.schema, x_bar, np.array([0.3]),
                    weighted=False)
        up = ifee(f, self.H, self.gps, self.schema, x_bar, np.array([0.9]),
                  weighted=False)
        assert down > 0 > up

    def test_antisymmetry(self):
        f = _monotone_f(1, 1, slope=1.7, weighted=True)
        rng = np.random.default_rng(1)
        x_bar = np.array([0.4, 0.5])
        for _ in range(10):
            a, b = rng.random(1), rng.random(1)
            xa = np.concatenate([x_bar[:1], a])
            xb = np.concatenate([x_bar[:1], b])
            ab = ifee(f, self.H, self.gps, self.schema, xa, b, weighted=True)
            ba = ifee(f, self.H, self.gps, self.schema, xb, a, weighted=True)
            assert abs(ab + ba) < 1e-15

    def test_classifier_decides_weighting(self):
        # whether the GP profile is needed follows f.weighted; the weighted
        # keyword does not change the value
        f = _monotone_f(1, 1, slope=1.7, weighted=True)
        x_bar = np.array([0.4, 0.5])
        x_star = np.array([0.3])
        assert (ifee(f, self.H, self.gps, self.schema, x_bar, x_star,
                     weighted=False)
                == ifee(f, self.H, self.gps, self.schema, x_bar, x_star,
                        weighted=True))


class TestAverageAps:
    """A cell's average APS: the instance APS of each policy, over the
    treatments it adjusts, then :func:`_filter_3sigma` over the instances."""

    def test_identical_means_all_kept(self):
        mean, kept = _filter_3sigma([0.7] * 8)
        assert mean == pytest.approx(0.7)
        assert kept == 8

    def test_outlier_filtered(self):
        rng = np.random.default_rng(2)
        inst = list(0.5 + 0.01 * rng.standard_normal(99))
        outlier = float(np.mean(inst)) + 10 * float(np.std(inst))
        inst.append(outlier)
        assert abs(outlier - np.mean(inst)) > 3 * float(np.std(inst))
        mean, kept = _filter_3sigma(inst)
        assert kept == 99

    def test_single_policy(self):
        mean, kept = _filter_3sigma([0.42])
        assert mean == pytest.approx(0.42)
        assert kept == 1

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            _filter_3sigma([])

    def test_adjusted_treatments_only(self, tiny_ds, monkeypatch):
        # only the moved treatment's density enters the instance mean
        cell, = _fixed_policy_sweep(tiny_ds, [0.2, 0.0], [0.9, 0.1],
                                    monkeypatch).cells
        assert cell.aps_mean == pytest.approx(0.9)
        assert cell.freq_counts == (cell.n_instances, 0)

    def test_empty_policy_falls_back_to_all(self, tiny_ds, monkeypatch):
        # the fallback averages every treatment but counts none as adjusted
        cell, = _fixed_policy_sweep(tiny_ds, [0.0, 0.0], [0.9, 0.1],
                                    monkeypatch).cells
        assert cell.aps_mean == pytest.approx(0.5)
        assert cell.freq_counts == (0, 0)


class TestCellGrid:
    def test_lambda_applies_only_to_g(self):
        cells = _cell_grid([Variant.G, Variant.NON_CAUSAL_F], [1, 2],
                           [0.0, 0.5, 1.0], step=0.05, max_iters=300)
        g_cells = [c for c in cells if c.variant is Variant.G]
        f_cells = [c for c in cells if c.variant is Variant.NON_CAUSAL_F]
        assert len(g_cells) == 6 and len(f_cells) == 2
        assert {c.lam for c in f_cells} == {0.0}

    def test_cells_are_optimization_configs(self):
        cells = _cell_grid(["f"], [0, 2], [0.0], step=0.02, max_iters=7)
        assert cells == [
            OptimizationConfig(budget=b, step=0.02, max_iters=7, lam=0.0,
                               variant=Variant.NON_CAUSAL_F)
            for b in (0.0, 2.0)]


SMALL_SETTINGS = TrainSettings(folds=2, arch_grid=((4,),), epochs=25,
                               gp_restarts=1)


def test_empty_arch_grid_rejected():
    # the CLI cannot pass an empty grid: no --arch means the default grid
    with pytest.raises(ValueError, match="architecture grid must not be empty"):
        TrainSettings(arch_grid=())


def test_folds_checked_against_both_halves_before_fitting(monkeypatch):
    # 37 rows split 19/18: 19 folds fit the first half, not the second
    import causalinv.experiment as experiment

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_gp called")

    monkeypatch.setattr(experiment, "fit_gp", no_fit)
    with pytest.raises(ValueError, match="--folds must be at most 18"):
        run_experiment(make_dataset(n=37), budgets=[0.0], lambdas=[0.0],
                       variants=["f"], seed=1,
                       settings=replace(SMALL_SETTINGS, folds=19))


@pytest.fixture(scope="module")
def tiny_ds():
    return make_dataset(n=36, n_c=2, n_i=1, n_t=2, seed=17)


class TestRunExperiment:
    def test_zero_budget_zero_ifee(self, tiny_ds):
        rep = run_experiment(tiny_ds, budgets=[0.0], lambdas=[0.5],
                             variants=list(Variant), seed=5,
                             settings=SMALL_SETTINGS, max_iters=40)
        assert len(rep.cells) == 4
        # the report records the search and SGD constants and the default step
        assert rep.config["tol"] == TOL
        assert rep.config["threshold"] == ADJUST_THRESHOLD
        assert rep.config["step"] == OptimizationConfig.step
        assert rep.config["max_iters"] == 40
        assert rep.config["lr"] == 0.05 and rep.config["batch"] == 32
        for c in rep.cells:
            assert c.ifee_mean == 0.0
            assert c.freq_counts == (0, 0)
            assert c.n_failed == 0

    def test_deterministic_bitwise(self, tiny_ds):
        kw = dict(budgets=[0.0, 0.4], lambdas=[0.5], variants=["g", "f"],
                  seed=9, settings=SMALL_SETTINGS, max_iters=40)
        r1 = run_experiment(tiny_ds, **kw)
        r2 = run_experiment(tiny_ds, **kw)
        assert json.dumps(report_to_dict(r1), sort_keys=True) == \
               json.dumps(report_to_dict(r2), sort_keys=True)

    def test_cell_where_every_row_fails_is_reported(self, tiny_ds, monkeypatch):
        import causalinv.experiment as experiment
        kw = dict(budgets=[0.0, 0.4], lambdas=[0.5],
                  variants=["g", "fprime-noopt", "f"], seed=9,
                  settings=SMALL_SETTINGS, max_iters=40)
        clean = run_experiment(tiny_ds, **kw)
        real = experiment.optimize

        def fail_fprime(x_bar, f, H, gps, schema, cfg, profile=None):
            if cfg.variant is Variant.FPRIME_NOOPT:
                raise OptimizationError("forced failure")
            return real(x_bar, f, H, gps, schema, cfg, profile=profile)

        monkeypatch.setattr(experiment, "optimize", fail_fprime)
        rep = run_experiment(tiny_ds, **kw)
        assert len(rep.cells) == len(clean.cells) == 6
        for cell, ref in zip(rep.cells, clean.cells):
            if cell.variant != "fprime-noopt":
                assert cell == ref
                continue
            assert cell.n_instances == 0 and cell.kept == 0
            assert cell.n_failed == rep.n_val
            assert cell.failed_rows == tuple(range(rep.n_val))
            assert np.isnan(cell.ifee_mean) and np.isnan(cell.aps_mean)
            assert cell.freq_counts == (0, 0)

    def test_requires_normalized(self, tiny_ds):
        from causalinv.data import Dataset
        raw = Dataset(X=tiny_ds.X, y=tiny_ds.y, schema=tiny_ds.schema)
        with pytest.raises(ValueError, match="normalized"):
            run_experiment(raw, budgets=[1.0], lambdas=[0.0], variants=["g"],
                           seed=0, settings=SMALL_SETTINGS)

    @pytest.mark.parametrize("kw", [
        dict(budgets=[-1]), dict(step=-0.1), dict(max_iters=0),
        dict(lambdas=[-1]), dict(budgets=[np.nan]), dict(step=np.nan),
        dict(step=np.inf), dict(lambdas=[np.nan]), dict(lambdas=[np.inf])])
    def test_bad_cell_rejected_before_fitting(self, tiny_ds, monkeypatch, kw):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_side_models called before the cells "
                                 "were checked")

        monkeypatch.setattr("causalinv.experiment.fit_side_models", no_fit)
        args = dict(budgets=[1.0], lambdas=[0.0], variants=["g"], seed=0,
                    settings=SMALL_SETTINGS)
        with pytest.raises(ValueError):
            run_experiment(tiny_ds, **{**args, **kw})

    def test_empty_budgets_rejected(self, tiny_ds):
        with pytest.raises(ValueError, match="budget"):
            run_experiment(tiny_ds, budgets=[], lambdas=[0.0], variants=["g"],
                           seed=0, settings=SMALL_SETTINGS)

    def test_sweep_csv_row_count(self, tiny_ds, tmp_path):
        rep = run_experiment(tiny_ds, budgets=[0.0, 0.4], lambdas=[0.0, 0.5],
                             variants=["g", "f"], seed=9,
                             settings=SMALL_SETTINGS, max_iters=40)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        # header + 2 metrics x (2 budgets x 2 lambdas for g + 2 budgets for f)
        assert len(lines) == 1 + 2 * (2 * 2 + 2)
        assert lines[0] == "variant,budget,lambda,metric,value"


def _threshold_sweep(ds, budget, threshold, monkeypatch):
    monkeypatch.setattr("causalinv.experiment.ADJUST_THRESHOLD", threshold)
    return run_experiment(ds, budgets=[budget], lambdas=[0.5],
                          variants=["g", "f"], seed=9, settings=SMALL_SETTINGS,
                          max_iters=40)


def _fixed_policy_sweep(ds, move, density, monkeypatch):
    """A sweep whose every search moves the row's treatments by ``move`` and
    reports the APS ``density``."""
    def fixed(x_bar, f, H, gps, schema, cfg, profile=None):
        x_T = x_bar[list(schema.treatment_idx)]
        return PolicyResult(x_T + move, np.zeros(1), ApsResult(np.array(density)),
                            0, 0.0, x_T[None, :])

    monkeypatch.setattr("causalinv.experiment.optimize", fixed)
    return run_experiment(ds, budgets=[1.0], lambdas=[0.0], variants=["f"],
                          seed=9, settings=SMALL_SETTINGS)


class TestTreatmentFrequency:
    """Per-cell ``freq_counts``: instances whose policy moves a treatment by
    more than the adjustment threshold."""

    def test_no_adjustment_zero_counts(self, tiny_ds, monkeypatch):
        # at a zero budget no treatment moves, so even a zero threshold counts 0
        rep = _threshold_sweep(tiny_ds, 0.0, 0.0, monkeypatch)
        for c in rep.cells:
            assert c.n_instances > 0
            assert c.freq_counts == (0, 0)

    def test_infinite_threshold(self, tiny_ds, monkeypatch):
        rep = _threshold_sweep(tiny_ds, 0.4, np.inf, monkeypatch)
        for c in rep.cells:
            assert c.n_instances > 0
            assert c.freq_counts == (0, 0)

    def test_counts(self, tiny_ds, monkeypatch):
        # a negative threshold counts every instance for every treatment
        rep = _threshold_sweep(tiny_ds, 0.4, -1.0, monkeypatch)
        assert rep.config["threshold"] == -1.0
        for c in rep.cells:
            assert c.n_instances > 0
            assert c.freq_counts == (c.n_instances, c.n_instances)


def test_import_leaves_process_pools_out():
    # only a sweep with jobs > 1 imports concurrent.futures.process and with
    # it multiprocessing
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, causalinv; "
         "print('concurrent.futures.process' in sys.modules, "
         "'multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
