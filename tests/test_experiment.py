import csv
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

import causalinv.experiment as experiment
from causalinv.cli import main
from causalinv.experiment import (ADJUST_THRESHOLD, DEFAULT_KERNEL,
                                  TrainSettings, _cell_grid, _derive_seed,
                                  _filter_3sigma, fit_side_models, ifee,
                                  report_to_dict, run_experiment,
                                  write_sweep_csv)
from causalinv.gp import (ApsResult, KernelConfig, fit_gp, gp_to_dict,
                          search_hypers)
from causalinv.nets import (IndirectEstimator, MlpClassifier, net_to_dict,
                            train_classifier, train_indirect)
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
               KernelConfig(1.0, 0.3, 0.05))
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
        kw = dict(budgets=[0.0, 0.4], lambdas=[0.5],
                  variants=["g", "fprime-noopt", "f"], seed=9,
                  settings=SMALL_SETTINGS, max_iters=40)
        clean = run_experiment(tiny_ds, **kw)
        real = experiment.optimize

        def fail_fprime(x_bar, f, H, gps, schema, cfg, profile=None,
                        reuse=None):
            if cfg.variant is Variant.FPRIME_NOOPT:
                raise OptimizationError("forced failure")
            return real(x_bar, f, H, gps, schema, cfg, profile=profile,
                        reuse=reuse)

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

    def test_reuse_changes_no_report_byte(self, tiny_ds, monkeypatch):
        # each column's budgets run from the largest down, and a search that
        # reuses the larger budget's gives the report of fresh searches
        kw = dict(budgets=[0.0, 0.4, 10.0], lambdas=[0.0, 0.5],
                  variants=["g", "f"], seed=9, settings=SMALL_SETTINGS,
                  max_iters=40)
        real = experiment.optimize
        reused = []

        def counted(*args, reuse=None, **kwargs):
            res = real(*args, reuse=reuse, **kwargs)
            reused.append(res is reuse)
            return res

        def fresh(*args, reuse=None, **kwargs):
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "optimize", counted)
        rep = run_experiment(tiny_ds, **kw)
        monkeypatch.setattr(experiment, "optimize", fresh)
        ref = run_experiment(tiny_ds, **kw)
        assert len(reused) == len(rep.cells) * rep.n_val and any(reused)
        assert json.dumps(report_to_dict(rep)) == json.dumps(report_to_dict(ref))

    def test_pool_gives_the_serial_report(self, tiny_ds):
        kw = dict(budgets=[0.0, 0.4], lambdas=[0.5], variants=["g", "f"],
                  seed=9, settings=SMALL_SETTINGS, max_iters=40)
        serial = asdict(run_experiment(tiny_ds, jobs=1, **kw))
        pooled = asdict(run_experiment(tiny_ds, jobs=2, **kw))
        assert pooled.keys() == serial.keys()
        for name, value in serial.items():
            assert _bits(pooled[name]) == _bits(value), name

    def test_requires_normalized(self, tiny_ds):
        from causalinv.data import Dataset
        raw = Dataset(X=tiny_ds.X, y=tiny_ds.y, schema=tiny_ds.schema)
        with pytest.raises(ValueError, match="normalized"):
            run_experiment(raw, budgets=[1.0], lambdas=[0.0], variants=["g"],
                           seed=0, settings=SMALL_SETTINGS)

    @pytest.mark.parametrize("kw", [
        dict(budgets=[-1]), dict(step=-0.1), dict(max_iters=0),
        dict(lambdas=[-1]), dict(budgets=[np.nan]), dict(step=np.nan),
        dict(step=np.inf), dict(lambdas=[np.nan]), dict(lambdas=[np.inf]),
        # a repeated value would search and report the same cells twice
        dict(budgets=[1, 2, 1.0]), dict(lambdas=[0.1, 0.5, 0.1]),
        dict(variants=["g", "f", "g"]),
        dict(variants=["g", "g"], budgets=[1, 1], lambdas=[0.1, 0.1]),
        dict(jobs=0), dict(jobs=-1)])  # and a pool of no worker
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


class ChildFitError(LookupError):
    """Raised by a fit in a forked child."""


def _model_documents(side):
    nets = [net_to_dict(net) for net in (side.f_weighted, side.f_plain, side.H)]
    gps = [gp_to_dict(gp) for gp in side.gps]
    return (json.dumps([nets, gps], sort_keys=True),
            [gp.alpha.tobytes() for gp in side.gps])


def _bits(value):
    """``value`` with every float replaced by its bytes, so that ``==``
    compares floats bitwise."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _searched_gp(controls, targets, seed, j):
    """Treatment ``j``'s GP as ``fit_side_models(half, seed, SMALL_SETTINGS)``
    fits it: searched, factorized and marked with the search's bounds."""
    kernel, at_bound = search_hypers(controls, targets, DEFAULT_KERNEL,
                                     seed=_derive_seed(seed, 11, j),
                                     restarts=SMALL_SETTINGS.gp_restarts)
    return replace(fit_gp(controls, targets, kernel), at_bound=at_bound)


def _counted_gp_fits(monkeypatch, seed):
    """Record the GP work ``fit_side_models(..., seed)`` does in this
    process: ``"search j"`` for treatment j's hyperparameter search and
    ``"fit"`` for each factorization, in call order."""
    real_search, real_fit = experiment.search_hypers, experiment.fit_gp
    calls = []
    treatment = {_derive_seed(seed, 11, j): j for j in range(8)}

    def search(*args, **kwargs):
        calls.append(f"search {treatment[kwargs['seed']]}")
        return real_search(*args, **kwargs)

    def fit(*args, **kwargs):
        calls.append("fit")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiment, "search_hypers", search)
    monkeypatch.setattr(experiment, "fit_gp", fit)
    return calls


class TestFitSideModels:
    """One forked child searches every second treatment's GP hyperparameters
    while the parent searches the others' and then factorizes every GP;
    another trains the plain classifier while the parent fits H and the
    weighted classifier."""

    @pytest.fixture(autouse=True)
    def no_child_left(self, monkeypatch):
        # the search child starts whatever BLAS thread count the tests run at
        monkeypatch.setattr(experiment, "_spare_cores", lambda: True)
        yield
        assert multiprocessing.active_children() == []

    def test_models_match_direct_fits(self, tiny_ds):
        seed, st = 4, SMALL_SETTINGS
        Xc, Xt = tiny_ds.controls(), tiny_ds.treatments()
        gps = tuple(_searched_gp(Xc, Xt[:, j], seed, j) for j in range(2))
        f_w, f_p = (train_classifier(tiny_ds, given, st.folds, st.arch_grid,
                                     _derive_seed(seed, part), st.epochs)
                    for given, part in ((gps, 17), (None, 19)))
        H = train_indirect(tiny_ds, seed=_derive_seed(seed, 13),
                           epochs=st.epochs)
        direct = experiment.SideModels(f_w, f_p, H, gps)
        assert (_model_documents(fit_side_models(tiny_ds, seed, st))
                == _model_documents(direct))

    @pytest.mark.parametrize("where", ["no fork", "pool worker"])
    def test_without_child_same_models(self, tiny_ds, monkeypatch, where):
        calls = _counted_gp_fits(monkeypatch, 4)
        forked = fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        forked_calls = list(calls)
        calls.clear()

        def no_context(*args):
            raise AssertionError("a child was started")

        if where == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        else:  # a daemonic process may not start children
            monkeypatch.setattr(multiprocessing.current_process(), "daemon",
                                True)
        monkeypatch.setattr(multiprocessing, "get_context", no_context)
        alone = fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        assert _model_documents(alone) == _model_documents(forked)
        assert ([gp.at_bound for gp in alone.gps]
                == [gp.at_bound for gp in forked.gps])
        # the child's treatment is searched here only without a child; every
        # GP is factorized here, after all searches, either way
        assert forked_calls == ["search 0", "fit", "fit"]
        assert calls == ["search 0", "search 1", "fit", "fit"]

    def _children(self, monkeypatch):
        """Record each function ``fit_side_models`` forks a child for."""
        started, real = [], experiment._forked

        def spy(fn):
            started.append(fn)
            return real(fn)

        monkeypatch.setattr(experiment, "_forked", spy)
        return started

    def test_one_treatment_starts_no_search_child(self, monkeypatch):
        ds = make_dataset(n=36, n_c=2, n_i=1, n_t=1, seed=17)
        started = self._children(monkeypatch)
        side = fit_side_models(ds, 4, SMALL_SETTINGS)
        assert len(started) == 1  # the plain classifier's child alone
        direct = _searched_gp(ds.controls(), ds.treatments()[:, 0], 4, 0)
        assert gp_to_dict(side.gps[0]) == gp_to_dict(direct)

    def test_no_spare_core_searches_in_process(self, tiny_ds, monkeypatch):
        forked = fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        monkeypatch.setattr(experiment, "_spare_cores", lambda: False)
        started = self._children(monkeypatch)
        alone = fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        assert len(started) == 1  # the plain classifier's child alone
        assert _model_documents(alone) == _model_documents(forked)

    def test_bound_found_in_child_is_kept(self, tmp_path):
        # the second treatment, whose search runs in the child, is a
        # noise-free function of a control, so its search ends on the noise
        # variance's floor; the model and the manifest both report it
        ds = make_dataset(n=40, n_c=2, n_i=1, n_t=2, seed=6)
        X = ds.X.copy()
        X[:, -1] = 0.2 + 0.5 * X[:, 0]
        ds = replace(ds, X=X)
        gp = fit_side_models(ds, 4, SMALL_SETTINGS).gps[1]
        direct = _searched_gp(ds.controls(), X[:, -1], 4, 1)
        assert "noise_variance" in gp.at_bound
        assert gp.at_bound == direct.at_bound
        assert gp.log_marginal == direct.log_marginal

        names = ds.schema.feature_names
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*names, "y"])
            writer.writerows([*map(repr, row), label]
                             for row, label in zip(X.tolist(), ds.y))
        schema_path.write_text(json.dumps({
            "label": "y", "control": list(names[:2]),
            "indirect": [names[2]], "treatment": list(names[3:])}))
        out = tmp_path / "art"
        assert main(["train", "--data", str(csv_path), "--schema",
                     str(schema_path), "--out", str(out), "--seed", "0",
                     "--folds", "2", "--epochs", "5", "--arch", "4",
                     "--gp-restarts", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "noise_variance" in manifest["gps"][names[-1]]["at_bound"]

    def _plain_fit(self, monkeypatch, body):
        """Replace the plain classifier's fit by ``body()``."""
        real = experiment.train_classifier

        def fit(ds, gps, *args):
            return body() if gps is None else real(ds, gps, *args)

        monkeypatch.setattr(experiment, "train_classifier", fit)

    def _search(self, monkeypatch, body):
        """Replace the hyperparameter searches of the forked child by
        ``body()``; this process's own searches stay real."""
        real, parent = experiment.search_hypers, os.getpid()

        def search(*args, **kwargs):
            if os.getpid() == parent:
                return real(*args, **kwargs)
            return body()

        monkeypatch.setattr(experiment, "search_hypers", search)

    def test_child_error_keeps_its_type(self, tiny_ds, monkeypatch):
        def fail():
            raise ChildFitError(f"plain fit failed in process {os.getpid()}")

        self._plain_fit(monkeypatch, fail)
        with pytest.raises(ChildFitError, match="plain fit failed") as err:
            fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        assert f"process {os.getpid()}" not in str(err.value)

    def test_search_error_keeps_its_type(self, tiny_ds, monkeypatch):
        def fail():
            raise ChildFitError(f"search failed in process {os.getpid()}")

        self._search(monkeypatch, fail)
        with pytest.raises(ChildFitError, match="search failed") as err:
            fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        assert f"process {os.getpid()}" not in str(err.value)

    def test_child_dying_without_reply_named(self, tiny_ds, monkeypatch):
        self._plain_fit(monkeypatch, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            fit_side_models(tiny_ds, 4, SMALL_SETTINGS)

    def test_search_child_dying_without_reply_named(self, tiny_ds,
                                                    monkeypatch):
        self._search(monkeypatch, lambda: os._exit(5))
        with pytest.raises(RuntimeError, match="exited with code 5"):
            fit_side_models(tiny_ds, 4, SMALL_SETTINGS)

    def test_parent_error_terminates_child(self, tiny_ds, monkeypatch):
        def no_fit(*args, **kwargs):
            raise ChildFitError("indirect fit failed")

        self._plain_fit(monkeypatch, lambda: time.sleep(60))
        monkeypatch.setattr(experiment, "train_indirect", no_fit)
        t0 = time.monotonic()
        with pytest.raises(ChildFitError, match="indirect fit failed"):
            fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        assert time.monotonic() - t0 < 30

    def test_parent_gp_error_terminates_search_child(self, tiny_ds,
                                                     monkeypatch):
        # the child's search hangs; this process's own search fails
        parent = os.getpid()

        def search(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            raise ChildFitError("GP search failed")

        monkeypatch.setattr(experiment, "search_hypers", search)
        t0 = time.monotonic()
        with pytest.raises(ChildFitError, match="GP search failed"):
            fit_side_models(tiny_ds, 4, SMALL_SETTINGS)
        assert time.monotonic() - t0 < 30


@pytest.mark.parametrize("env, cores, spare", [
    ({}, 2, False),  # OpenBLAS runs a thread per core
    ({}, 8, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, True),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "one"}, 2, False),
])
def test_spare_cores_counts_blas_threads(monkeypatch, env, cores, spare):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert experiment._spare_cores() is spare


def _threshold_sweep(ds, budget, threshold, monkeypatch):
    monkeypatch.setattr("causalinv.experiment.ADJUST_THRESHOLD", threshold)
    return run_experiment(ds, budgets=[budget], lambdas=[0.5],
                          variants=["g", "f"], seed=9, settings=SMALL_SETTINGS,
                          max_iters=40)


def _fixed_policy_sweep(ds, move, density, monkeypatch):
    """A sweep whose every search moves the row's treatments by ``move`` and
    reports the APS ``density``."""
    def fixed(x_bar, f, H, gps, schema, cfg, profile=None, reuse=None):
        x_T = x_bar[list(schema.treatment_idx)]
        return PolicyResult(x_T + move, np.zeros(1), ApsResult(np.array(density)),
                            0, 0.0, x_T[None, :], cfg)

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
    # multiprocessing loads only when a model fit forks its child, and
    # concurrent.futures.process only when a sweep runs with jobs > 1
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
