import numpy as np
import pytest

from causalinv.data import Dataset
from causalinv.gp import SQRT_2PI, KernelConfig, aps, fit_gp, treatment_profile
from causalinv.nets import (IndirectEstimator, MlpClassifier, _design,
                            classifier_from_dict, classifier_to_dict,
                            grad_wrt_treatments, indirect_from_dict,
                            indirect_to_dict, predict_proba, train_classifier,
                            train_indirect)
from tests.conftest import make_dataset, make_schema
from tests.oracles import central_diff, classifier_output


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
        f = train_classifier(ds, weighted=False, folds=3, arch_grid=((8,),),
                             seed=0, epochs=150)
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
        f = train_classifier(small_ds, weighted=False, folds=3, arch_grid=grid,
                             seed=1, epochs=40)
        meta = f.training_meta
        assert tuple(meta["arch"]) in grid
        assert meta["cv_loss"] == min(meta["cv_losses"].values())

    def test_empty_grid_rejected(self, small_ds):
        with pytest.raises(ValueError):
            train_classifier(small_ds, weighted=False, arch_grid=())

    def test_bad_fold_count_rejected(self, small_ds):
        with pytest.raises(ValueError):
            train_classifier(small_ds, weighted=False, folds=1,
                             arch_grid=((4,),))
        with pytest.raises(ValueError):
            train_classifier(small_ds, weighted=False, folds=small_ds.n + 1,
                             arch_grid=((4,),))

    def test_weighted_needs_gps(self, small_ds):
        with pytest.raises(ValueError):
            train_classifier(small_ds, weighted=True, gps=None,
                             arch_grid=((4,),))

    def test_deterministic_weights(self, small_ds):
        kw = dict(weighted=False, folds=2, arch_grid=((4,),), seed=9, epochs=30)
        f1 = train_classifier(small_ds, **kw)
        f2 = train_classifier(small_ds, **kw)
        for w1, w2 in zip(f1.weights, f2.weights):
            np.testing.assert_array_equal(w1, w2)


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
        h, jac = H.jacobian_wrt_treatments(np.zeros(2), np.zeros(2))
        assert h.shape == (0,) and jac.shape == (0, 2)


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
                   KernelConfig(1.0, 0.5, 0.05), optimize_hypers=False)
            for j in range(2))
        f = train_classifier(small_ds, weighted=True, gps=gps, folds=2,
                             arch_grid=((4,),), seed=2, epochs=30)
        assert f.weighted
        x_C, x_T = small_ds.controls()[0], small_ds.treatments()[0]
        profile = treatment_profile(gps, x_C)
        H = train_indirect(small_ds, seed=0, epochs=20)
        assert 0.0 < predict_proba(f, H, x_C, x_T, profile) < 1.0


class TestSerialization:
    def test_classifier_roundtrip(self):
        f = _random_classifier(2, 1, 2, seed=30, weighted=True)
        back = classifier_from_dict(classifier_to_dict(f))
        Z = np.random.default_rng(31).random((3, 5))
        np.testing.assert_array_equal(back.forward(Z), f.forward(Z))
        assert back.weighted == f.weighted

    def test_indirect_roundtrip(self):
        H = _random_indirect(2, 2, 1, seed=32)
        back = indirect_from_dict(indirect_to_dict(H))
        out1 = H.predict(np.full((1, 2), 0.3), np.full((1, 2), 0.7))
        out2 = back.predict(np.full((1, 2), 0.3), np.full((1, 2), 0.7))
        np.testing.assert_array_equal(out1, out2)
