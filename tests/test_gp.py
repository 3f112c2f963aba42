import json
from dataclasses import fields

import numpy as np
import pytest

from causalinv.gp import (KernelConfig, _density_slope, _factorize,
                          _lml_and_grad, _sqdist, _tril_inv, aps, fit_gp,
                          gp_from_dict, gp_to_dict, predict_batch,
                          search_hypers, treatment_profile)
from tests.oracles import (central_diff, dense_gp_predict, dense_log_marginal,
                           ref_factorize, ref_lml_and_grad)


def _toy_gp(m=25, d=3, seed=0, noise=0.01, optimize=False, ls=0.8, sv=1.0):
    rng = np.random.default_rng(seed)
    X = rng.random((m, d))
    t = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, np.sqrt(noise), m)
    cfg = KernelConfig(lengthscale=ls, signal_variance=sv, noise_variance=noise)
    if optimize:
        cfg, _ = search_hypers(X, t, cfg, seed=seed)
    return fit_gp(X, t, cfg), X, t


class TestApsDensity:
    def test_peak_at_mean_unit_sigma(self):
        val = aps([2.0], [2.0], [1.0])
        assert abs(val[0] - 0.3989422804014327) < 1e-10

    def test_one_sigma_away(self):
        val = aps([3.0], [2.0], [1.0])
        assert abs(val[0] - 0.24197072451914337) < 1e-10

    def test_peak_half_sigma(self):
        val = aps([2.0], [2.0], [0.5])
        assert abs(val[0] - 0.7978845608028654) < 1e-10

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            aps([1.0], [1.0], [0.0])

    def test_rejects_nan_std(self):
        with pytest.raises(ValueError, match="stds must be positive"):
            aps([0.5], [0.5], [np.nan])

    def test_density_bounds_over_grid(self):
        # nonzero-probability proxy: 0 < density <= peak within +-6 sigma
        rng = np.random.default_rng(1)
        mu = rng.uniform(-3, 3, 1000)
        sd = rng.uniform(0.05, 2.0, 1000)
        x = mu + sd * rng.uniform(-6, 6, 1000)
        val = aps(x, mu, sd)
        assert np.all(val > 0)
        assert np.all(val <= 1.0 / (np.sqrt(2 * np.pi) * sd) + 1e-15)


def _slope(x, mu, sd):
    """The density's derivative as the propensity chain rule computes it."""
    x, mu, sd = (np.asarray(a, dtype=np.float64) for a in (x, mu, sd))
    return _density_slope(aps(x, mu, sd), x - mu, sd)


class TestApsGradient:
    def test_zero_at_mean(self):
        assert _slope([2.0], [2.0], [0.7])[0] == 0.0

    def test_value_one_sigma(self):
        val = _slope([3.0], [2.0], [1.0])
        assert abs(val[0] - (-0.24197072451914337)) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, 1000)
        mu = rng.uniform(-2, 2, 1000)
        sd = rng.uniform(0.1, 1.5, 1000)
        grad = _slope(x, mu, sd)
        fd = np.array([
            (aps([xi + 1e-5], [m], [s])[0] - aps([xi - 1e-5], [m], [s])[0]) / 2e-5
            for xi, m, s in zip(x, mu, sd)])
        assert np.abs(grad - fd).max() < 1e-6


class TestKernelConfig:
    @pytest.mark.parametrize("kw, message", [
        (dict(lengthscale=np.nan), "lengthscale must be positive and finite, got nan"),
        (dict(lengthscale=np.inf), "lengthscale must be positive and finite, got inf"),
        (dict(lengthscale=0.0), "lengthscale must be positive and finite, got 0.0"),
        (dict(signal_variance=np.nan),
         "signal_variance must be positive and finite, got nan"),
        (dict(signal_variance=-1.0),
         "signal_variance must be positive and finite, got -1.0"),
        (dict(noise_variance=np.nan),
         "noise_variance must be nonnegative and finite, got nan"),
        (dict(noise_variance=np.inf),
         "noise_variance must be nonnegative and finite, got inf"),
        (dict(noise_variance=-1e-9),
         "noise_variance must be nonnegative and finite, got -1e-09"),
        (dict(mean_mode="zero"), "unknown mean_mode 'zero'")])
    def test_rejects_bad_hyperparameters(self, kw, message):
        with pytest.raises(ValueError) as err:
            KernelConfig(**{"lengthscale": 1.0, "signal_variance": 1.0,
                            "noise_variance": 0.1, **kw})
        assert message in str(err.value)

    def test_zero_noise_is_legal(self):
        assert KernelConfig(1.0, 1.0, 0.0).noise_variance == 0.0


class TestFit:
    def test_single_row_rejected(self):
        cfg = KernelConfig(1.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            fit_gp(np.ones((1, 2)), [1.0], cfg)

    def test_duplicate_rows_survive_via_jitter(self):
        cfg = KernelConfig(1.0, 1.0, 1e-6)
        gp = fit_gp(np.ones((2, 2)), [1.0, 1.0], cfg)
        assert np.all(np.diag(gp.chol_inv) > 0)

    def test_noise_free_interpolation(self):
        gp, X, t = _toy_gp(noise=1e-10)
        (mean,), (std,) = predict_batch(gp, X[3][None])
        assert abs(mean - t[3]) < 1e-5
        assert std < 1e-3 * np.sqrt(gp.kernel.signal_variance)

    def test_far_query_reverts_to_prior(self):
        cfg = KernelConfig(lengthscale=0.5, signal_variance=2.0,
                           noise_variance=1e-8)
        rng = np.random.default_rng(4)
        X = rng.random((10, 2))
        t = rng.normal(3.0, 1.0, 10)
        gp = fit_gp(X, t, cfg)
        assert gp.mean_const == float(np.mean(t))
        # >= 10 lengthscales away
        (mean,), (std,) = predict_batch(gp, (X[0] + 20.0)[None])
        assert abs(mean - gp.mean_const) < 1e-3
        assert abs(std - np.sqrt(2.0)) < 1e-3

    def test_predict_matches_dense_solve(self):
        gp, X, _ = _toy_gp(noise=0.05)
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = rng.random(3)
            (mean,), (std,) = predict_batch(gp, q[None])
            mean_o, std_o = dense_gp_predict(gp, q)
            assert abs(mean - mean_o) < 1e-8
            assert abs(std - std_o) < 1e-8

    def test_hyperopt_improves_log_marginal(self):
        rng = np.random.default_rng(6)
        X = rng.random((40, 2))
        t = np.sin(4 * X[:, 0]) + rng.normal(0, 0.1, 40)
        start = KernelConfig(lengthscale=3.0, signal_variance=0.2,
                             noise_variance=0.2)
        gp = fit_gp(X, t, search_hypers(X, t, start, seed=0)[0])
        mean_const = float(np.mean(t))
        lml_start = dense_log_marginal(X, t, mean_const, 3.0, 0.2, 0.2)
        lml_fit = dense_log_marginal(X, t, mean_const, gp.kernel.lengthscale,
                                     gp.kernel.signal_variance,
                                     gp.kernel.noise_variance, jitter=gp.jitter)
        assert lml_fit >= lml_start - 1e-9
        assert abs(lml_fit - gp.log_marginal) < 1e-6

    def test_row_permutation_invariance(self):
        gp, X, t = _toy_gp(noise=0.02)
        perm = np.random.default_rng(7).permutation(len(t))
        gp2 = fit_gp(X[perm], t[perm], gp.kernel)
        q = np.full(3, 0.4)
        (m1,), (s1,) = predict_batch(gp, q[None])
        (m2,), (s2,) = predict_batch(gp2, q[None])
        assert abs(m1 - m2) < 1e-10
        assert abs(s1 - s2) < 1e-10

    def test_treatments_fit_independently(self):
        # changing treatment k's data leaves treatment t's density alone
        gp_t, X, _ = _toy_gp(seed=8)
        rng = np.random.default_rng(9)
        gp_k1 = fit_gp(X, rng.random(len(X)), gp_t.kernel)
        gp_k2 = fit_gp(X, rng.random(len(X)), gp_t.kernel)
        q = X[0]
        del gp_k1, gp_k2
        (m1,), (s1,) = predict_batch(gp_t, q[None])
        res = _slope([0.3], [m1], [s1]), aps([0.3], [m1], [s1])
        (m2,), (s2,) = predict_batch(gp_t, q[None])
        res2 = _slope([0.3], [m2], [s2]), aps([0.3], [m2], [s2])
        np.testing.assert_array_equal(res, res2)

    def test_variance_floor(self):
        gp, X, _ = _toy_gp(noise=0.0)
        _, (std,) = predict_batch(gp, X[0][None])
        assert std >= 1e-6

    def test_noise_free_targets_report_noise_bound(self):
        rng = np.random.default_rng(12)
        X = rng.random((40, 2))
        t = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1]
        kernel, at_bound = search_hypers(X, t, KernelConfig(1.0, 1.0, 0.1))
        # the search floors the noise at 5% of the target variance
        assert "noise_variance" in at_bound
        assert abs(kernel.noise_variance / (0.05 * np.var(t)) - 1) < 1e-12
        assert fit_gp(X, t, kernel).at_bound == ()

    def test_search_then_refit_is_the_searched_fit(self):
        # a side's fit searches a strided column of its treatment matrix and
        # factorizes at the result; both read only the values, so the
        # contiguous copy a single call once made gives the same bytes
        rng = np.random.default_rng(13)
        X = rng.random((30, 2))
        T = np.column_stack([np.sin(3 * X[:, 0]) + rng.normal(0, 0.1, 30),
                             rng.random(30)])
        t = np.ascontiguousarray(T[:, 0])
        start = KernelConfig(1.0, 1.0, 0.1)
        kernel, at_bound = search_hypers(X, T[:, 0], start, seed=3, restarts=2)
        assert (kernel, at_bound) == search_hypers(X, t, start, seed=3,
                                                   restarts=2)
        refit, searched = fit_gp(X, T[:, 0], kernel), fit_gp(X, t, kernel)
        assert refit.alpha.tobytes() == searched.alpha.tobytes()
        assert refit.chol_inv.tobytes() == searched.chol_inv.tobytes()
        assert refit.log_marginal == searched.log_marginal


def _bound_corner(X, t):
    """Hyperparameters at the worst conditioning the search bounds allow:
    lengthscale 50x the median distance, signal variance 30x and noise 5%
    of the target variance."""
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    med = np.median(d[d > 0])
    var_t = np.var(t)
    return 50.0 * med, 30.0 * var_t, 0.05 * var_t


class TestLogMarginalGradient:
    @pytest.fixture(scope="class")
    def data(self):
        # 80 rows: the triangular inverse recurses two levels below the root
        rng = np.random.default_rng(13)
        X = rng.random((80, 3))
        t = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, 0.1, 80)
        return X, t, float(np.mean(t))

    @pytest.mark.parametrize("theta", ["interior", "short", "corner"])
    def test_value_and_gradient_match_dense_oracle(self, data, theta):
        X, t, c = data
        ls, sv, nv = {"interior": (0.6, 0.4, 0.02),
                      "short": (0.12, 1.5, 0.3),
                      "corner": _bound_corner(X, t)}[theta]
        log_theta = np.log([ls, sv, nv])
        lml, grad = _lml_and_grad(t - c, log_theta, _sqdist(X, X))

        def oracle(lt):
            return dense_log_marginal(X, t, c, *np.exp(lt))

        assert abs(lml - oracle(log_theta)) < 1e-9 * max(1.0, abs(lml))
        # h = 1e-4 balances truncation against the oracle's rounding, which
        # is largest at the ill-conditioned corner
        fd = central_diff(oracle, log_theta, h=1e-4)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestBitIdenticalToReference:
    """The in-place marginal-likelihood evaluation performs the reference's
    operations in the reference's order, so every output has its bits."""

    @staticmethod
    def _check(X, resid, ls, sv, nv):
        sqd = _sqdist(X, X)
        ref = ref_factorize(resid, ls, sv, nv, sqd)
        got = _factorize(resid, ls, sv, nv, sqd)
        for a, b in zip(got, ref):  # K, L_inv, alpha, lml, jitter
            _assert_same_bits(a, b)
        with np.errstate(divide="ignore"):  # nv = 0 has log -inf
            log_theta = np.log([ls, sv, nv])
        lml, grad = _lml_and_grad(resid, log_theta, sqd)
        lml_ref, grad_ref = ref_lml_and_grad(resid, log_theta, sqd)
        _assert_same_bits(lml, lml_ref)
        _assert_same_bits(grad, grad_ref)
        return ref[4]

    @pytest.mark.parametrize("m", [1, 2, 33, 80, 325])
    @pytest.mark.parametrize("theta", ["interior", "short", "corner"])
    def test_lml_gradient_factor_alpha_and_jitter(self, m, theta):
        rng = np.random.default_rng(100 + m)
        X = rng.random((m, 3))
        t = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, 0.1, m)
        ls, sv, nv = {"interior": (0.6, 0.4, 0.02),
                      "short": (0.12, 1.5, 0.3),
                      "corner": (_bound_corner(X, t) if m > 1
                                 else (50.0, 30.0, 0.05))}[theta]
        self._check(X, t - np.mean(t), ls, sv, nv)

    def test_jittered_factor(self):
        # every row twice and no noise: K is singular, so only an added
        # jitter lets the factorization through
        rng = np.random.default_rng(7)
        X = np.repeat(rng.random((40, 3)), 2, axis=0)
        t = X[:, 0] + rng.normal(0, 0.1, 80)
        assert self._check(X, t - np.mean(t), 0.8, 1.0, 0.0) > 0.0


class TestTriangularInverse:
    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 65, 325])
    def test_exact_lower_triangle_and_identity(self, m):
        rng = np.random.default_rng(m)
        X = rng.random((m, 4))
        t = rng.normal(size=m)
        ls, sv, nv = _bound_corner(X, t) if m > 1 else (1.0, 1.0, 0.05)
        K = sv * np.exp(-0.5 * _sqdist(X, X) / ls ** 2) + nv * np.eye(m)
        L = np.linalg.cholesky(K)
        # D L is the factor of D K D; its rows grow down the matrix, so the
        # leaves' LU pivots and can leave roundoff above the diagonal
        D = np.linspace(1.0, 100.0, m)[:, None]
        for factor in (L, D * L):
            inv = _tril_inv(factor)
            assert np.all(np.triu(inv, 1) == 0.0)
            assert np.abs(factor @ inv - np.eye(m)).max() < 1e-10

    def test_worst_conditioning_predicts_like_dense_solve(self):
        rng = np.random.default_rng(14)
        X = rng.random((325, 4))
        t = np.sin(3 * X[:, 0]) + rng.normal(0, 0.2, 325)
        ls, sv, nv = _bound_corner(X, t)
        gp = fit_gp(X, t, KernelConfig(ls, sv, nv))
        Q = rng.random((20, 4))
        means, stds = predict_batch(gp, Q)
        for q, mean, std in zip(Q, means, stds):
            mean_o, std_o = dense_gp_predict(gp, q)
            assert abs(mean - mean_o) < 1e-9
            assert abs(std - std_o) < 1e-9


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        gp, X, _ = _toy_gp(noise=0.03)
        doc = json.loads(json.dumps(gp_to_dict(gp)))
        back = gp_from_dict(doc)
        q = np.full(3, 0.27)
        np.testing.assert_allclose(predict_batch(back, q[None]),
                                   predict_batch(gp, q[None]), atol=1e-12)

    def test_format_checked(self):
        with pytest.raises(ValueError):
            gp_from_dict({"format": "bogus"})

    def test_document_holds_every_kernel_field(self):
        gp, X, t = _toy_gp(noise=0.03)
        doc = json.loads(json.dumps(gp_to_dict(gp)))
        names = {f.name for f in fields(KernelConfig)}
        assert set(doc) == {"format", "train_controls", "train_targets"} | names
        back = gp_from_dict(doc)
        assert back.kernel == gp.kernel
        np.testing.assert_array_equal(back.train_controls, X)
        np.testing.assert_array_equal(back.train_targets, t)

    def test_non_finite_hyperparameter_rejected_on_load(self):
        gp, _, _ = _toy_gp(noise=0.03)
        doc = dict(gp_to_dict(gp), lengthscale=float("nan"))
        with pytest.raises(ValueError, match="lengthscale must be positive"):
            gp_from_dict(doc)


class TestBatchConsistency:
    def test_batch_matches_single(self):
        gps = [_toy_gp(noise=0.04)[0], _toy_gp(noise=0.02, seed=1)[0]]
        Q = np.random.default_rng(10).random((7, 3))
        means, stds = treatment_profile(gps, Q)
        assert means.shape == stds.shape == (7, 2)
        # a matrix: the columns are each GP's own batch prediction
        for j, gp in enumerate(gps):
            m, s = predict_batch(gp, Q)
            assert np.abs(m - means[:, j]).max() < 1e-12
            assert np.abs(s - stds[:, j]).max() < 1e-12
        # one row: the same as the one-row matrix call
        for i in range(7):
            m, s = treatment_profile(gps, Q[i])
            m_row, s_row = treatment_profile(gps, Q[i][None])
            assert m.shape == s.shape == (2,)
            assert np.abs(m - m_row[0]).max() < 1e-12
            assert np.abs(s - s_row[0]).max() < 1e-12
