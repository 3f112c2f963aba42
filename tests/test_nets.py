import json
from dataclasses import fields

import numpy as np
import pytest

from causalinv.data import Dataset
from causalinv.gp import SQRT_2PI, KernelConfig, aps, fit_gp, treatment_profile
from causalinv.nets import (BATCH, LR, IndirectEstimator, MlpClassifier,
                            _design, _sgd_train, grad_wrt_treatments,
                            net_from_dict, net_to_dict, predict_proba,
                            train_classifier, train_indirect)
from tests.conftest import make_dataset, make_schema
from tests.oracles import central_diff, classifier_output, sgd_one_run


def _random_classifier(n_c, n_i, n_t, seed=0, weighted=False, hidden=(8,)):
    rng = np.random.default_rng(seed)
    p = n_c + n_i + n_t
    dims = (p, *hidden, 1)
    weights = [rng.normal(0, 1.0, (o, i)) for i, o in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0, 0.3, o) for o in dims[1:]]
    return MlpClassifier(dims, weights, biases, weighted, n_c, n_i, n_t)


def _random_indirect(n_c, n_t, n_i, seed=1):
    rng = np.random.default_rng(seed)
    h = 2 * (n_c + n_t)
    weights = [rng.normal(0, 0.7, (h, n_c + n_t)), rng.normal(0, 0.7, (n_i, h))]
    biases = [rng.normal(0, 0.2, h), rng.normal(0.5, 0.2, n_i)]
    return IndirectEstimator(weights, biases, n_c, n_t, n_i)


def _separable_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    margin = X[:, 0] + X[:, 1] - 1.0
    keep = np.abs(margin) > 0.1  # enforce a margin, then top up
    X = X[keep][:n]
    while len(X) < n:
        extra = rng.random((n, 2))
        m = extra[:, 0] + extra[:, 1] - 1.0
        X = np.vstack([X, extra[np.abs(m) > 0.1]])[:n]
    y = (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)
    schema = make_schema(1, 0, 1)
    return Dataset(X=X, y=y, schema=schema,
                   norm_params=np.column_stack([np.zeros(2), np.ones(2)]))


class TestClassifierTraining:
    def test_separable_toy_accuracy(self):
        ds = _separable_dataset()
        f = train_classifier(ds, folds=3, arch_grid=((8,),), seed=0,
                             epochs=150)
        probs = f.forward(np.concatenate([ds.controls(), ds.indirects(),
                                          ds.treatments()], axis=1))
        acc = ((probs > 0.5).astype(int) == ds.y).mean()
        assert acc >= 0.95

    def test_zero_weight_network_outputs_half(self):
        f = _random_classifier(2, 1, 1)
        f.weights = [np.zeros_like(w) for w in f.weights]
        f.biases = [np.zeros_like(b) for b in f.biases]
        rng = np.random.default_rng(3)
        assert np.all(f.forward(rng.normal(0, 2, (5, 4))) == 0.5)

    def test_selected_architecture_minimizes_cv_loss(self, small_ds):
        grid = ((4,), (8,))
        f = train_classifier(small_ds, folds=3, arch_grid=grid,
                             seed=1, epochs=40)
        meta = f.training_meta
        assert not f.weighted and meta["weighted"] is False  # no GPs given
        assert tuple(meta["arch"]) in grid
        assert meta["cv_loss"] == min(meta["cv_losses"].values())

    def test_empty_grid_rejected(self, small_ds):
        with pytest.raises(ValueError):
            train_classifier(small_ds, arch_grid=())

    def test_bad_fold_count_rejected(self, small_ds):
        with pytest.raises(ValueError):
            train_classifier(small_ds, folds=1, arch_grid=((4,),))
        with pytest.raises(ValueError):
            train_classifier(small_ds, folds=small_ds.n + 1, arch_grid=((4,),))

    def test_weighted_needs_gps(self, small_ds):
        # one GP per treatment: small_ds has two
        gp = fit_gp(small_ds.controls(), small_ds.treatments()[:, 0],
                    KernelConfig(1.0, 0.5, 0.05))
        with pytest.raises(ValueError, match="one fitted GP per treatment"):
            train_classifier(small_ds, gps=(gp,), arch_grid=((4,),))

    def test_deterministic_weights(self, small_ds):
        kw = dict(folds=2, arch_grid=((4,),), seed=9, epochs=30)
        f1 = train_classifier(small_ds, **kw)
        f2 = train_classifier(small_ds, **kw)
        for w1, w2 in zip(f1.weights, f2.weights):
            np.testing.assert_array_equal(w1, w2)


class TestLockstepTraining:
    """A stack of SGD runs gives each run the weights it gets alone."""

    @pytest.mark.parametrize("loss", ["bce", "mse"])
    @pytest.mark.parametrize("hidden", [(6,), (5, 4)])
    def test_stack_matches_runs_alone(self, loss, hidden):
        rng = np.random.default_rng(4)
        n_runs, n, p, n_out = 3, 23, 4, (1 if loss == "bce" else 2)
        X = rng.normal(size=(n_runs, n, p))
        Y = (rng.random((n_runs, n, n_out)) < 0.5).astype(np.float64)
        dims = (p, *hidden, n_out)
        seeds = [[7, r] for r in range(n_runs)]
        # batch 8 over 23 rows leaves a partial last batch of 7
        kw = dict(epochs=6, lr=0.1, batch=8, loss=loss)
        runs = _sgd_train(X, Y, dims, seeds=seeds, **kw)
        assert len(runs) == n_runs
        for r, (w, b) in enumerate(runs):
            w_ref, b_ref = sgd_one_run(X[r], Y[r], dims, seeds[r], **kw)
            for got, ref in zip(w + b, w_ref + b_ref):
                assert got.shape == ref.shape
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("hidden", [(4,), (4, 3)])
    def test_cv_losses_match_folds_trained_alone(self, hidden):
        # 59 rows in 5 folds: training sets of 47 and 48 rows, two stacks
        ds = make_dataset(n=59, seed=8)
        seed, folds, epochs = 3, 5, 15
        f = train_classifier(ds, folds=folds, arch_grid=(hidden,), seed=seed,
                             epochs=epochs)
        Z = np.concatenate([ds.controls(), ds.indirects(), ds.treatments()],
                           axis=1)
        y = ds.y.astype(np.float64)
        fold_ids = np.array_split(
            np.random.default_rng(seed).permutation(ds.n), folds)
        assert {ds.n - len(t) for t in fold_ids} == {47, 48}
        assert 47 % BATCH and 48 % BATCH  # each ends on a partial mini-batch
        losses = []
        for fi, test in enumerate(fold_ids):
            train = np.setdiff1d(np.arange(ds.n), test)
            w, b = sgd_one_run(Z[train], y[train, None], (Z.shape[1], *hidden, 1),
                               [seed, 0, fi], epochs, LR, BATCH, "bce")
            a = Z[test]
            for W, c in zip(w[:-1], b[:-1]):
                a = np.tanh(a @ W.T + c)
            prob = np.clip(1.0 / (1.0 + np.exp(-(a @ w[-1].T + b[-1])[:, 0])),
                           1e-12, 1.0 - 1e-12)
            losses.append(float(-np.mean(y[test] * np.log(prob)
                                         + (1.0 - y[test]) * np.log(1.0 - prob))))
        assert f.training_meta["cv_losses"] == {str(list(hidden)):
                                                float(np.mean(losses))}


class TestIndirect:
    def test_copy_task_rmse(self):
        # indirect feature duplicates a control column
        rng = np.random.default_rng(4)
        n = 500
        Xc = rng.random((n, 2))
        Xt = rng.random((n, 1))
        Xi = Xc[:, [0]]
        X = np.concatenate([Xc, Xi, Xt], axis=1)
        ds = Dataset(X=X, y=rng.integers(0, 2, n), schema=make_schema(2, 1, 1),
                     norm_params=np.column_stack([np.zeros(4), np.ones(4)]))
        tr, te = ds.take(np.arange(400)), ds.take(np.arange(400, 500))
        H = train_indirect(tr, seed=0, epochs=200)
        pred = H.predict(te.controls(), te.treatments())
        rmse = float(np.sqrt(np.mean((pred - te.indirects()) ** 2)))
        assert rmse <= 0.05

    def test_constant_column(self):
        rng = np.random.default_rng(5)
        n = 200
        Xc = rng.random((n, 2))
        Xt = rng.random((n, 1))
        Xi = np.full((n, 1), 0.62)
        X = np.concatenate([Xc, Xi, Xt], axis=1)
        ds = Dataset(X=X, y=rng.integers(0, 2, n), schema=make_schema(2, 1, 1),
                     norm_params=np.column_stack([np.zeros(4), np.ones(4)]))
        H = train_indirect(ds, seed=0, epochs=150)
        pred = H.predict(ds.controls(), ds.treatments())
        assert np.abs(pred - 0.62).max() < 0.05

    def test_output_shape(self):
        H = _random_indirect(3, 2, 4)
        out = H.predict(np.zeros((1, 3)), np.zeros((1, 2)))
        assert out.shape == (1, 4)
        assert np.all((out >= 0) & (out <= 1))

    def test_passthrough_when_no_indirect(self, small_ds):
        ds = make_dataset(n=30, n_c=2, n_i=0, n_t=2, seed=6)
        H = train_indirect(ds, seed=0, epochs=10)
        assert H.n_indirect == 0
        assert H.predict(np.zeros((1, 2)), np.zeros((1, 2))).shape == (1, 0)
        # at one row it adds no features and no gradient path
        f = _random_classifier(2, 0, 2, seed=3)
        x_C, x_T = np.array([0.2, 0.7]), np.array([0.4, 0.6])
        val, g = grad_wrt_treatments(f, H, x_C, x_T)
        assert val == predict_proba(f, H, x_C, x_T)
        assert abs(val - classifier_output(f, H, x_C, x_T)) < 1e-15
        assert g.shape == (2,)
        fd = central_diff(lambda xt: predict_proba(f, H, x_C, xt), x_T)
        assert np.abs(g - fd).max() < 1e-5


class TestPredictProba:
    def test_output_in_unit_interval(self):
        f = _random_classifier(2, 1, 2, seed=7)
        H = _random_indirect(2, 2, 1, seed=8)
        rng = np.random.default_rng(9)
        Z = rng.normal(0, 2, (10_000, 4))
        vals = np.array([predict_proba(f, H, z[:2], z[2:]) for z in Z[:200]])
        assert np.all((vals > 0) & (vals < 1))
        # batch check on assembled inputs for the full grid
        probs = f.forward(rng.normal(0, 3, (10_000, 5)))
        assert np.all((probs > 0) & (probs < 1))

    def test_unweighted_ignores_aps(self):
        f = _random_classifier(2, 1, 2, seed=10, weighted=False)
        H = _random_indirect(2, 2, 1, seed=11)
        x_C, x_T = np.array([0.2, 0.8]), np.array([0.5, 0.4])
        profile = ([0.5, 0.5], [0.3, 0.3])
        assert (predict_proba(f, H, x_C, x_T, profile)
                == predict_proba(f, H, x_C, x_T))

    def test_weighted_unit_density_equals_raw(self):
        f = _random_classifier(2, 1, 2, seed=12, weighted=True)
        H = _random_indirect(2, 2, 1, seed=13)
        x_C, x_T = np.array([0.3, 0.6]), np.array([0.4, 0.9])
        # centred at x_T with std 1/sqrt(2 pi), the density is exactly 1
        weighted_val = predict_proba(f, H, x_C, x_T,
                                     (x_T, np.full(2, 1 / SQRT_2PI)))
        f_raw = MlpClassifier(f.layer_dims, f.weights, f.biases, False,
                              f.n_controls, f.n_indirect, f.n_treatments)
        assert abs(weighted_val - predict_proba(f_raw, H, x_C, x_T)) < 1e-15

    def test_weighted_rejects_nonpositive_stds(self):
        f = _random_classifier(2, 1, 2, seed=14, weighted=True)
        H = _random_indirect(2, 2, 1, seed=15)
        for stds in ([0.3, 0.0], [0.3, -0.2], [np.nan, 0.3]):
            for fn in (predict_proba, grad_wrt_treatments):
                with pytest.raises(ValueError, match="stds must be positive"):
                    fn(f, H, np.zeros(2), np.zeros(2), (np.zeros(2), stds))

    def test_weighted_requires_aps(self):
        f = _random_classifier(2, 1, 2, seed=14, weighted=True)
        H = _random_indirect(2, 2, 1, seed=15)
        with pytest.raises(ValueError, match="profile"):
            predict_proba(f, H, np.zeros(2), np.zeros(2))


class TestGradient:
    def _setup(self, seed, weighted):
        f = _random_classifier(3, 2, 2, seed=seed, weighted=weighted,
                               hidden=(8, 6))
        H = _random_indirect(3, 2, 2, seed=seed + 1)
        return f, H

    def test_matches_fd_unweighted(self):
        f, H = self._setup(20, weighted=False)
        rng = np.random.default_rng(21)
        for _ in range(25):
            x_C, x_T = rng.random(3), rng.random(2)
            _, g = grad_wrt_treatments(f, H, x_C, x_T)
            fd = central_diff(lambda xt: predict_proba(f, H, x_C, xt), x_T)
            assert np.abs(g - fd).max() < 1e-5

    def test_matches_fd_weighted_both_flags(self):
        f, H = self._setup(22, weighted=True)
        rng = np.random.default_rng(23)
        means, stds = rng.random(2), rng.uniform(0.15, 0.5, 2)
        for _ in range(25):
            x_C, x_T = rng.random(3), rng.random(2)
            # propensity frozen at the evaluation point
            density = aps(x_T, means, stds)
            _, g_frozen = grad_wrt_treatments(f, H, x_C, x_T, (means, stds),
                                              include_aps_chain=False)
            fd_frozen = central_diff(
                lambda xt: classifier_output(f, H, x_C, xt, density), x_T)
            assert np.abs(g_frozen - fd_frozen).max() < 1e-5
            # full chain: density recomputed at each probe point
            _, g_chain = grad_wrt_treatments(f, H, x_C, x_T, (means, stds),
                                             include_aps_chain=True)
            fd_chain = central_diff(
                lambda xt: predict_proba(f, H, x_C, xt, (means, stds)), x_T)
            assert np.abs(g_chain - fd_chain).max() < 1e-5

    def test_zero_network_zero_gradient(self):
        f = _random_classifier(2, 1, 2, seed=24)
        f.weights = [np.zeros_like(w) for w in f.weights]
        f.biases = [np.zeros_like(b) for b in f.biases]
        H = _random_indirect(2, 2, 1, seed=25)
        _, g = grad_wrt_treatments(f, H, np.ones(2), np.ones(2))
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_unit_density_chain_flag_irrelevant(self):
        f, H = self._setup(26, weighted=True)
        x_C, x_T = np.full(3, 0.4), np.full(2, 0.6)
        unit = (x_T, np.full(2, 1 / SQRT_2PI))  # density 1, gradient 0
        _, g_off = grad_wrt_treatments(f, H, x_C, x_T, unit,
                                       include_aps_chain=False)
        _, g_on = grad_wrt_treatments(f, H, x_C, x_T, unit,
                                      include_aps_chain=True)
        np.testing.assert_allclose(g_off, g_on, atol=1e-15)


class TestDesign:
    """The classifier input: treatments weighted elementwise by the density."""

    def test_identity_weights(self):
        np.testing.assert_array_equal(
            _design([0.1], [], [0.3, 0.7], np.ones(2)), [0.1, 0.3, 0.7])

    def test_zero_vector_absorbs(self):
        np.testing.assert_array_equal(
            _design([0.1], [0.2], [0.0, 0.0], np.array([0.4, 0.2])),
            [0.1, 0.2, 0.0, 0.0])

    def test_elementwise_product(self):
        np.testing.assert_allclose(
            _design([0.1], [0.2], [0.5, 1.0], np.array([0.4, 0.2])),
            [0.1, 0.2, 0.2, 0.2])

    def test_rows_of_a_matrix(self):
        X_C, X_I, X_T = np.ones((3, 1)), np.full((3, 1), 0.5), np.full((3, 2), 2.0)
        density = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        np.testing.assert_array_equal(
            _design(X_C, X_I, X_T, density),
            np.column_stack([X_C, X_I, 2.0 * density]))
        np.testing.assert_array_equal(_design(X_C, X_I, X_T),
                                      np.column_stack([X_C, X_I, X_T]))


class TestWeightedTraining:
    def test_weighted_design_uses_propensity(self, small_ds):
        gps = tuple(
            fit_gp(small_ds.controls(), small_ds.treatments()[:, j],
                   KernelConfig(1.0, 0.5, 0.05))
            for j in range(2))
        f = train_classifier(small_ds, gps, folds=2, arch_grid=((4,),), seed=2,
                             epochs=30)
        assert f.weighted and f.training_meta["weighted"] is True
        x_C, x_T = small_ds.controls()[0], small_ds.treatments()[0]
        profile = treatment_profile(gps, x_C)
        H = train_indirect(small_ds, seed=0, epochs=20)
        assert 0.0 < predict_proba(f, H, x_C, x_T, profile) < 1.0


def _json_roundtrip(net):
    return net_from_dict(json.loads(json.dumps(net_to_dict(net))), type(net))


class TestSerialization:
    def test_classifier_roundtrip(self):
        f = _random_classifier(2, 1, 2, seed=30, weighted=True)
        back = _json_roundtrip(f)
        Z = np.random.default_rng(31).random((3, 5))
        np.testing.assert_array_equal(back.forward(Z), f.forward(Z))
        assert back.weighted == f.weighted

    def test_indirect_roundtrip(self):
        H = _random_indirect(2, 2, 1, seed=32)
        back = _json_roundtrip(H)
        out1 = H.predict(np.full((1, 2), 0.3), np.full((1, 2), 0.7))
        out2 = back.predict(np.full((1, 2), 0.3), np.full((1, 2), 0.7))
        np.testing.assert_array_equal(out1, out2)

    @pytest.mark.parametrize("net", [
        _random_classifier(2, 1, 2, seed=33, weighted=True, hidden=(4, 3)),
        _random_indirect(2, 2, 1, seed=34),
        IndirectEstimator.passthrough(2, 2)], ids=["classifier", "indirect",
                                                   "passthrough"])
    def test_document_is_format_plus_every_field(self, net):
        net.training_meta["seed"] = 35
        doc = net_to_dict(net)
        assert set(doc) == {"format"} | {f.name for f in fields(net)}
        back = _json_roundtrip(net)
        for f in fields(net):
            mine, theirs = getattr(net, f.name), getattr(back, f.name)
            if f.name in ("weights", "biases"):
                assert len(theirs) == len(mine)
                for a, b in zip(mine, theirs):
                    assert b.dtype == np.float64
                    np.testing.assert_array_equal(a, b)
            else:
                assert type(theirs) is type(mine), f.name
                assert theirs == mine, f.name

    def test_format_checked(self):
        doc = net_to_dict(_random_indirect(2, 2, 1))
        with pytest.raises(ValueError, match="unsupported MlpClassifier"):
            net_from_dict(doc, MlpClassifier)

    def test_layers_checked_on_construction(self):
        # weights and biases must be finite and chain from the input width
        # to the output width the count fields give
        f = _random_classifier(2, 1, 2, seed=34)
        H = _random_indirect(2, 2, 1, seed=35)
        w_nan = [f.weights[0].copy(), f.weights[1]]
        w_nan[0][0, 0] = np.nan
        bad = [
            (lambda: MlpClassifier(f.layer_dims, w_nan, f.biases, False, 2, 1, 2),
             "weights hold a non-finite value"),
            (lambda: MlpClassifier(f.layer_dims, f.weights, f.biases, False, 3, 1, 2),
             "layer_dims .* n_controls"),
            (lambda: MlpClassifier((5, 7, 1), f.weights, f.biases, False, 2, 1, 2),
             "weights have shapes"),
            (lambda: IndirectEstimator(H.weights, [H.biases[0], np.ones(2)], 2, 2, 1),
             "biases have shapes"),
            (lambda: IndirectEstimator([], [], 2, 2, 1), "weights have shapes"),
            (lambda: IndirectEstimator(H.weights, H.biases, 2, 2, 0),
             "weights have shapes"),
            (lambda: IndirectEstimator(H.weights, [H.biases[0][:-1], H.biases[1]],
                                       2, 2, 1), "weights have shapes")]
        for build, message in bad:
            with pytest.raises(ValueError, match=message):
                build()
        IndirectEstimator.passthrough(2, 2)  # no layers, no outputs: valid
