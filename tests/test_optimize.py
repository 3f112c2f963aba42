import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalinv.gp import KernelConfig, aps, fit_gp, treatment_profile
from causalinv.nets import (IndirectEstimator, MlpClassifier, _design,
                            grad_wrt_treatments, predict_proba)
from causalinv.optimize import (OptimizationConfig, OptimizationError,
                                Variant, cost, optimize, project)
from tests.conftest import make_schema
from tests.oracles import (central_diff, classifier_output, grid_project,
                           ref_grad_wrt_treatments, ref_optimize, ref_project,
                           value_and_direction)
from tests.test_nets import _random_classifier, _random_indirect


class TestCost:
    def test_zero_deviation(self):
        assert cost([0.0, 0.0], [1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_asymmetric_prices(self):
        assert cost([1.0, -2.0], [1.0, 1.0], [2.0, 2.0]) == 5.0

    def test_free_direction(self):
        assert cost([0.3], [0.0], [5.0]) == 0.0


@pytest.mark.parametrize("kw, message", [
    (dict(budget=np.nan), "--budget must be nonnegative, got nan"),
    (dict(step=np.nan), "--step: step size must be nonnegative and finite"),
    (dict(step=np.inf), "--step: step size must be nonnegative and finite"),
    (dict(lam=np.nan), "--lambda: lambda must be nonnegative and finite"),
    (dict(lam=np.inf), "--lambda: lambda must be nonnegative and finite"),
    (dict(max_iters=0), "--max-iters must be at least 1, got 0")])
def test_config_rejects_non_finite_settings(kw, message):
    # an infinite budget never binds and stays legal
    OptimizationConfig(budget=np.inf)
    with pytest.raises(ValueError) as err:
        OptimizationConfig(**{"budget": 1.0, **kw})
    assert message in str(err.value)


def _rand_problem(rng, k):
    l = rng.uniform(-1.0, 0.0, k)
    u = rng.uniform(0.5, 1.5, k)
    x_bar = rng.uniform(l, u)
    c_up = rng.uniform(0.2, 3.0, k)
    c_down = rng.uniform(0.2, 3.0, k)
    v = x_bar + rng.normal(0, 0.8, k)
    B = rng.uniform(0.05, 1.0)
    return v, x_bar, c_up, c_down, B, l, u


class TestProjection:
    def test_feasible_point_unchanged(self):
        x_bar = np.array([0.5, 0.5])
        v = np.array([0.55, 0.45])
        out = project(v, x_bar, [1, 1], [1, 1], 1.0, [0, 0], [1, 1])
        np.testing.assert_array_equal(out, v)

    def test_zero_budget_returns_anchor(self):
        x_bar = np.array([0.3, 0.7])
        v = np.array([0.9, 0.1])
        out = project(v, x_bar, [1, 1], [1, 1], 0.0, [0, 0], [1, 1])
        np.testing.assert_array_equal(out, x_bar)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(12):
            k = 1 + trial % 3
            v, x_bar, c_up, c_down, B, l, u = _rand_problem(rng, k)
            mine = project(v, x_bar, c_up, c_down, B, l, u)
            oracle = grid_project(v, x_bar, c_up, c_down, B, l, u)
            step = (u - l) / 199.0
            coord_close = np.all(np.abs(mine - oracle) <= 2 * step + 1e-12)
            if not coord_close:
                # flat valley: the oracle's own quantization dominates, so the
                # projection must instead beat every feasible grid point
                assert cost(mine - x_bar, c_up, c_down) <= B + 1e-8
                assert ((mine - v) ** 2).sum() <= ((oracle - v) ** 2).sum() + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v, x_bar, c_up, c_down, B, l, u = _rand_problem(rng, 3)
            once = project(v, x_bar, c_up, c_down, B, l, u)
            twice = project(once, x_bar, c_up, c_down, B, l, u)
            assert np.abs(once - twice).max() < 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            v1, x_bar, c_up, c_down, B, l, u = _rand_problem(rng, 3)
            v2 = v1 + rng.normal(0, 0.5, 3)
            p1 = project(v1, x_bar, c_up, c_down, B, l, u)
            p2 = project(v2, x_bar, c_up, c_down, B, l, u)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-10

    def test_budget_respected(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v, x_bar, c_up, c_down, B, l, u = _rand_problem(rng, 3)
            out = project(v, x_bar, c_up, c_down, B, l, u)
            assert cost(out - x_bar, c_up, c_down) <= B + 1e-8
            assert np.all(out >= l - 1e-12) and np.all(out <= u + 1e-12)

    def test_zero_cost_coordinate_never_shrunk(self):
        x_bar = np.array([0.5, 0.5])
        v = np.array([0.9, 0.9])
        out = project(v, x_bar, [0.0, 1.0], [1.0, 1.0], 0.1, [0, 0], [1, 1])
        assert out[0] == 0.9  # free upward move survives any budget
        assert abs((out[1] - 0.5) - 0.1) < 1e-9

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(ValueError):
            project([0.5], [0.5], [1.0], [1.0], 1.0, [1.0], [0.0])
        # an anchor outside its box has no feasible point within budget
        for B in (0.0, 0.1):
            with pytest.raises(ValueError, match="outside the box"):
                project([0.5, 0.5], [1.25, 0.5], [1, 1], [1, 1], B,
                        [0, 0], [1, 1])


@st.composite
def _projection_problem(draw):
    """A point, an anchor inside its box, prices (some zero) and a budget."""
    k = draw(st.integers(1, 6))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=k,
                                      max_size=k)))

    def prices():
        price = st.one_of(st.just(0.0), st.floats(0.1, 3.0))
        return np.array(draw(st.lists(price, min_size=k, max_size=k)))

    l = vec(-1.0, 0.0)
    u = l + vec(0.0, 2.0)
    x_bar = np.clip(l + vec(0.0, 1.0) * (u - l), l, u)
    return (x_bar + vec(-3.0, 3.0), x_bar, prices(), prices(),
            draw(st.floats(0.0, 3.0)), l, u)


PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


class TestProjectionProperties:
    @PROPERTY
    @given(_projection_problem())
    def test_feasible(self, prob):
        v, x_bar, c_up, c_down, B, l, u = prob
        out = project(v, x_bar, c_up, c_down, B, l, u)
        assert np.all((l <= out) & (out <= u))
        assert cost(out - x_bar, c_up, c_down) <= B + 1e-12 * max(1.0, B)

    @PROPERTY
    @given(_projection_problem())
    def test_idempotent(self, prob):
        v, x_bar, c_up, c_down, B, l, u = prob
        once = project(v, x_bar, c_up, c_down, B, l, u)
        twice = project(once, x_bar, c_up, c_down, B, l, u)
        assert np.abs(once - twice).max() <= 1e-10

    @PROPERTY
    @given(_projection_problem(), st.lists(st.floats(-2.0, 2.0), min_size=6,
                                           max_size=6))
    def test_nonexpansive(self, prob, shift):
        v1, x_bar, c_up, c_down, B, l, u = prob
        v2 = v1 + np.array(shift[:len(v1)])
        p1 = project(v1, x_bar, c_up, c_down, B, l, u)
        p2 = project(v2, x_bar, c_up, c_down, B, l, u)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-10

    @PROPERTY
    @given(_projection_problem())
    def test_binding_budget_spent_exactly(self, prob):
        v, x_bar, c_up, c_down, B, l, u = prob
        assume(cost(np.clip(v, l, u) - x_bar, c_up, c_down) > B)
        out = project(v, x_bar, c_up, c_down, B, l, u)
        assert abs(cost(out - x_bar, c_up, c_down) - B) <= 1e-12 * max(1.0, B)


def _monotone_classifier(n_c, n_t, slope=2.0, weighted=False):
    """f = sigmoid(slope * sum(treatment inputs)): increasing in x_T."""
    p = n_c + n_t
    W = np.zeros((1, p))
    W[0, n_c:] = slope
    return MlpClassifier((p, 1), [W], [np.zeros(1)], weighted, n_c, 0, n_t)


def _fitted_gps(n_t, target=0.5, n_c=1, sd=0.15):
    rng = np.random.default_rng(0)
    X = rng.random((30, n_c))
    gps = []
    for j in range(n_t):
        t = np.full(30, target) + rng.normal(0, sd, 30)
        gps.append(fit_gp(X, t, KernelConfig(1.0, 0.3, 0.02)))
    return tuple(gps)


class TestOptimize:
    def setup_method(self):
        self.schema = make_schema(1, 0, 1)
        self.H = IndirectEstimator.passthrough(1, 1)
        self.gps = _fitted_gps(1)

    def test_zero_budget_pins_instance(self):
        f = _monotone_classifier(1, 1)
        cfg = OptimizationConfig(budget=0.0, variant=Variant.NON_CAUSAL_F)
        x_bar = np.array([0.4, 0.5])
        res = optimize(x_bar, f, self.H, self.gps, self.schema, cfg)
        assert res.x_T_star[0] == 0.5
        assert res.cost_spent == 0.0

    def test_zero_step_stays_put(self):
        f = _monotone_classifier(1, 1)
        cfg = OptimizationConfig(budget=0.5, step=0.0,
                                 variant=Variant.NON_CAUSAL_F)
        res = optimize(np.array([0.4, 0.5]), f, self.H, self.gps, self.schema, cfg)
        assert res.x_T_star[0] == 0.5
        assert np.ptp(res.objective_trace) == 0.0

    def test_one_dim_closed_form(self):
        # increasing f, unit costs, B=0.2, interior start: x* = x_bar - 0.2
        f = _monotone_classifier(1, 1)
        cfg = OptimizationConfig(budget=0.2, max_iters=500,
                                 variant=Variant.NON_CAUSAL_F)
        res = optimize(np.array([0.4, 0.5]), f, self.H, self.gps, self.schema, cfg)
        assert abs(res.x_T_star[0] - 0.3) < 1e-8
        # dense 1-D grid of the true objective over the feasible interval
        grid = np.linspace(0.3, 0.7, 2001)
        x_C = np.array([0.4])
        means, stds = treatment_profile(self.gps, x_C)
        vals = [value_and_direction(f, self.H, x_C, np.array([g]), means,
                                    stds, cfg)[0] for g in grid]
        assert res.objective_trace.min() <= min(vals) + 1e-6

    def test_every_iterate_feasible(self):
        f = _monotone_classifier(1, 1, slope=3.0)
        cfg = OptimizationConfig(budget=0.15, variant=Variant.NON_CAUSAL_F)
        x_bar = np.array([0.4, 0.6])
        res = optimize(x_bar, f, self.H, self.gps, self.schema, cfg)
        for it in res.iterates:
            assert cost(it - [0.6], [1.0], [1.0]) <= 0.15 + 1e-8
            assert 0.0 <= it[0] <= 1.0

    def test_best_so_far_nonincreasing(self):
        f = _monotone_classifier(1, 1)
        cfg = OptimizationConfig(budget=0.3, variant=Variant.NON_CAUSAL_F)
        res = optimize(np.array([0.2, 0.6]), f, self.H, self.gps, self.schema, cfg)
        best = np.minimum.accumulate(res.objective_trace)
        assert np.all(np.diff(best) <= 1e-15)
        assert res.objective_trace.min() == best[-1]

    def test_variant_model_mismatch(self):
        f = _monotone_classifier(1, 1, weighted=False)
        cfg = OptimizationConfig(budget=0.2, variant=Variant.G)
        with pytest.raises(ValueError, match="weighted"):
            optimize(np.array([0.4, 0.5]), f, self.H, self.gps, self.schema, cfg)

    def test_non_finite_gradient_reported(self):
        f = _monotone_classifier(1, 1)
        f.weights[0][0, 1] = np.nan
        cfg = OptimizationConfig(budget=0.2, variant=Variant.NON_CAUSAL_F)
        with pytest.raises(OptimizationError, match="iteration 0"):
            optimize(np.array([0.4, 0.5]), f, self.H, self.gps, self.schema, cfg)

    def test_regularizer_pulls_to_assignment_mean(self, monkeypatch):
        # constant f' (zero weights): G iterates converge to the projection
        # of the GP predictive mean onto the feasible set
        p = 2
        f = MlpClassifier((p, 1), [np.zeros((1, p))], [np.zeros(1)],
                          True, 1, 0, 1)
        gps = _fitted_gps(1, target=0.8)
        x_bar = np.array([0.3, 0.2])
        # step chosen below 2 sigma^2 / lambda so the quadratic pull iterates
        # contract instead of entering a best-iterate-guarded 2-cycle
        # ``causalinv.optimize`` is the function; the module holds TOL
        monkeypatch.setattr(sys.modules["causalinv.optimize"], "TOL", 1e-12)
        cfg = OptimizationConfig(budget=10.0, lam=1.0, variant=Variant.G,
                                 step=0.01, max_iters=400)
        res = optimize(x_bar, f, self.H, gps, self.schema, cfg)
        means, _ = treatment_profile(gps, x_bar[:1])
        assert abs(res.x_T_star[0] - means[0]) < 5e-3

    def test_weighted_variant_beats_dense_grid(self):
        # optimizer objective is no worse than a dense scan of the true
        # objective over the feasible interval, for the chain-rule variant
        rng = np.random.default_rng(8)
        W1 = rng.normal(0, 1.2, (6, 2))
        W2 = rng.normal(0, 1.2, (1, 6))
        f = MlpClassifier((2, 6, 1), [W1, W2], [np.zeros(6), np.zeros(1)],
                          True, 1, 0, 1)
        cfg = OptimizationConfig(budget=0.25, variant=Variant.FPRIME_OPT,
                                 max_iters=400)
        x_bar = np.array([0.45, 0.5])
        res = optimize(x_bar, f, self.H, self.gps, self.schema, cfg)
        grid = np.linspace(0.25, 0.75, 2001)
        x_C = x_bar[:1]
        means, stds = treatment_profile(self.gps, x_C)
        vals = [value_and_direction(f, self.H, x_C, np.array([g]), means,
                                    stds, cfg)[0] for g in grid]
        assert res.objective_trace.min() <= min(vals) + 5e-4


class TestObjective:
    def setup_method(self):
        self.schema = make_schema(1, 0, 2)
        self.H = IndirectEstimator.passthrough(1, 2)
        self.gps = _fitted_gps(2)
        rng = np.random.default_rng(9)
        W1 = rng.normal(0, 0.9, (6, 3))
        W2 = rng.normal(0, 0.9, (1, 6))
        self.f = MlpClassifier((3, 6, 1), [W1, W2], [np.zeros(6), np.zeros(1)],
                               True, 1, 0, 2)
        self.x_bar = np.array([0.4, 0.5, 0.5])

    def test_lambda_zero_equals_fprime(self):
        cfg_g = OptimizationConfig(budget=1, lam=0.0, variant=Variant.G)
        cfg_fp = OptimizationConfig(budget=1, variant=Variant.FPRIME_OPT)
        x_T = np.array([0.45, 0.55])
        x_C = self.x_bar[:1]
        means, stds = treatment_profile(self.gps, x_C)
        a = value_and_direction(self.f, self.H, x_C, x_T, means, stds,
                                cfg_g)[0]
        b = value_and_direction(self.f, self.H, x_C, x_T, means, stds,
                                cfg_fp)[0]
        assert a == b

    def test_penalty_vanishes_at_assignment_mean(self):
        x_C = self.x_bar[:1]
        means, stds = treatment_profile(self.gps, x_C)
        cfg0 = OptimizationConfig(budget=1, lam=0.0, variant=Variant.G)
        cfg5 = OptimizationConfig(budget=1, lam=5.0, variant=Variant.G)
        a = value_and_direction(self.f, self.H, x_C, means, means, stds,
                                cfg0)[0]
        b = value_and_direction(self.f, self.H, x_C, means, means, stds,
                                cfg5)[0]
        assert abs(a - b) < 1e-14

    def test_g_objective_differentiates_to_update_direction(self):
        # the finite-difference gradient of the g objective equals the
        # chain-rule direction plus lambda (x - mean) / variance
        cfg = OptimizationConfig(budget=1, lam=0.7, variant=Variant.G)
        x_C = self.x_bar[:1]
        means, stds = treatment_profile(self.gps, x_C)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x_T = rng.uniform(0.3, 0.7, 2)
            direction = (grad_wrt_treatments(self.f, self.H, x_C, x_T,
                                             (means, stds),
                                             include_aps_chain=True)[1]
                         + 0.7 * (x_T - means) / (stds * stds))
            fd = central_diff(
                lambda xt: value_and_direction(self.f, self.H, x_C, xt, means,
                                               stds, cfg)[0], x_T)
            assert np.abs(direction - fd).max() < 1e-5


@st.composite
def _network_problem(draw):
    """A random small classifier pair (plain and weighted), an indirect
    estimator (a pass-through when there are no indirect features),
    predictive moments and an evaluation point."""
    n_c, n_i, n_t = draw(st.integers(1, 3)), draw(st.integers(0, 2)), \
        draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    hidden = (int(rng.integers(2, 7)),)
    f = {weighted: _random_classifier(n_c, n_i, n_t, seed=seed,
                                      weighted=weighted, hidden=hidden)
         for weighted in (False, True)}
    H = (_random_indirect(n_c, n_t, n_i, seed=seed + 1) if n_i
         else IndirectEstimator.passthrough(n_c, n_t))
    return (f, H, rng.random(n_c), rng.uniform(0.05, 0.95, n_t),
            rng.uniform(0.2, 0.8, n_t), rng.uniform(0.15, 0.5, n_t))


class TestDirectionProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_network_problem())
    def test_direction_matches_finite_differences(self, prob):
        # fprime-noopt holds the propensity at the evaluation point, so its
        # direction is the derivative of the value with the density frozen
        f, H, x_C, x_T, means, stds = prob
        frozen = aps(x_T, means, stds)
        for variant in Variant:
            cfg = OptimizationConfig(budget=1.0, variant=variant,
                                     lam=0.8 * (variant is Variant.G))
            f_v = f[variant.needs_weighted]
            _, d = value_and_direction(f_v, H, x_C, x_T, means, stds, cfg)
            if variant is Variant.FPRIME_NOOPT:
                fd = central_diff(
                    lambda xt: classifier_output(f_v, H, x_C, xt, frozen), x_T)
            else:
                fd = central_diff(
                    lambda xt: value_and_direction(f_v, H, x_C, xt, means,
                                                   stds, cfg)[0], x_T)
            assert np.abs(d - fd).max() < 1e-5, variant


class TestOneEvaluationPerIterate:
    """Each iterate's objective value comes from the same network pass as its
    descent direction."""

    def setup_method(self):
        self.schema = make_schema(2, 2, 2)
        self.H = _random_indirect(2, 2, 2, seed=13)
        self.f = {weighted: _random_classifier(2, 2, 2, seed=14,
                                               weighted=weighted)
                  for weighted in (False, True)}
        self.gps = _fitted_gps(2, n_c=2)
        self.x_bar = np.array([0.3, 0.6, 0.4, 0.5, 0.45, 0.55])
        self.cfgs = [OptimizationConfig(budget=1.0, lam=0.7 * (v is Variant.G),
                                        variant=v) for v in Variant]

    def test_value_is_predict_proba_bit_for_bit(self):
        # the one-row value equals an independent pass of the matrix paths:
        # H.predict for the indirect features, then MlpClassifier.forward on
        # the design row, its treatments weighted by aps() when f is weighted;
        # optimize's objective trace holds that value at each of its iterates
        x_C = self.x_bar[:2]
        means, stds = treatment_profile(self.gps, x_C)
        rng = np.random.default_rng(14)
        for cfg in self.cfgs:
            f = self.f[cfg.variant.needs_weighted]

            def ref(x_T):
                density = aps(x_T, means, stds) if f.weighted else None
                h = self.H.predict(x_C[None], x_T[None])[0]
                p = f.forward(_design(x_C, h, x_T, density)[None])[0]
                assert predict_proba(f, self.H, x_C, x_T, (means, stds)) == p
                if cfg.variant is Variant.G:
                    p += cfg.lam * float(np.sum((x_T - means) ** 2
                                                / (2.0 * stds * stds)))
                return p

            for x_T in rng.uniform(0.0, 1.0, (20, 2)):
                val, _ = value_and_direction(f, self.H, x_C, x_T, means, stds,
                                             cfg)
                assert val == ref(x_T)
            res = optimize(self.x_bar, f, self.H, self.gps, self.schema, cfg)
            assert list(res.objective_trace) == [ref(x_T)
                                                 for x_T in res.iterates]

    def test_optimize_makes_one_pass_per_iterate(self, monkeypatch):
        import importlib
        nets = importlib.import_module("causalinv.nets")
        opt_mod = importlib.import_module("causalinv.optimize")
        passes = []
        real_grad = opt_mod.grad_wrt_treatments

        def counted(*args, **kwargs):
            passes.append(1)
            return real_grad(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a second evaluation of an iterate")

        monkeypatch.setattr(opt_mod, "grad_wrt_treatments", counted)
        monkeypatch.setattr(nets, "predict_proba", forbidden)
        for cfg in self.cfgs:
            passes.clear()
            res = optimize(self.x_bar, self.f[cfg.variant.needs_weighted],
                           self.H, self.gps, self.schema, cfg)
            assert res.iterations_used > 1
            assert len(passes) == res.iterations_used + 1


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _projection_edge_case(draw):
    """A projection problem with its edge cases made likely: a budget of
    exactly 0, coordinates copied from coordinate 0 (their kinks coincide),
    and coordinates anchored at a lower bound of 0 whose point is -0.0 (a
    deviation of -0.0, which clipping turns into +0.0)."""
    v, x_bar, c_up, c_down, B, l, u = draw(_projection_problem())
    k = len(v)
    B = draw(st.sampled_from([B, 0.0]))
    for j in draw(st.sets(st.integers(0, k - 1))):
        for a in (v, x_bar, c_up, c_down, l, u):
            a[j] = a[0]
    for j in draw(st.sets(st.integers(0, k - 1))):
        l[j], x_bar[j], u[j], v[j] = 0.0, 0.0, max(u[j], 0.0), -0.0
    return v, x_bar, c_up, c_down, B, l, u


class TestSearchMatchesReference:
    """The policy search reproduces, bit for bit, the reference engine of
    ``tests.oracles``, which evaluates each iterate through every public
    wrapper and computes the propensity density per iterate."""

    @PROPERTY
    @given(_projection_edge_case())
    def test_project_bit_for_bit(self, prob):
        assert _same_bytes(project(*prob), ref_project(*prob))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_network_problem())
    def test_one_row_passes_bit_for_bit(self, prob):
        f, H, x_C, x_T, means, stds = prob
        for f_k in f.values():
            for chain in (False, True):
                val, g = grad_wrt_treatments(f_k, H, x_C, x_T, (means, stds),
                                             include_aps_chain=chain)
                ref_val, ref_g = ref_grad_wrt_treatments(
                    f_k, H, x_C, x_T, (means, stds), include_aps_chain=chain)
                assert val == ref_val and _same_bytes(g, ref_g)
                assert predict_proba(f_k, H, x_C, x_T, (means, stds)) == val

    @pytest.mark.parametrize("n_i", [0, 2])
    def test_every_policy_field_bit_for_bit(self, n_i):
        # budgets: pinned, binding, loose (above the largest possible
        # cost of 3 x 2.5) and unbounded
        n_c, n_t = 2, 3
        schema = make_schema(n_c, n_i, n_t, cost_up=[2.5, 0.5, 1.0],
                             cost_down=[0.5, 2.0, 1.0])
        H = (_random_indirect(n_c, n_t, n_i, seed=31) if n_i
             else IndirectEstimator.passthrough(n_c, n_t))
        f = {weighted: _random_classifier(n_c, n_i, n_t, seed=32,
                                          weighted=weighted, hidden=(6, 4))
             for weighted in (False, True)}
        gps = _fitted_gps(n_t, n_c=n_c)
        rows = np.random.default_rng(33).uniform(0.1, 0.9, (2, n_c + n_i + n_t))
        for variant in Variant:
            for budget in (0.0, 0.05, 10.0, np.inf):
                for lam in (0.0, 0.1, 1.0):
                    cfg = OptimizationConfig(budget=budget, lam=lam,
                                             variant=variant, max_iters=80)
                    for x_bar in rows:
                        args = (x_bar, f[variant.needs_weighted], H, gps,
                                schema, cfg)
                        res, ref = optimize(*args), ref_optimize(*args)
                        for name in ("x_T_star", "objective_trace",
                                     "iterates"):
                            assert _same_bytes(getattr(res, name), ref[name])
                        assert _same_bytes(res.aps_star.density,
                                           ref["aps_star"])
                        assert res.iterations_used == ref["iterations_used"]
                        assert (type(res.cost_spent) is float
                                and _same_bytes(res.cost_spent,
                                                ref["cost_spent"]))


class TestReuseOfLargerBudget:
    """``optimize(..., reuse=...)`` returns the same row's search at a larger
    budget unchanged exactly when a search at this budget takes its path."""

    def setup_method(self):
        n_c, n_t = 2, 3
        self.schema = make_schema(n_c, 0, n_t, cost_up=[2.5, 0.5, 1.0],
                                  cost_down=[0.5, 2.0, 1.0])
        self.H = IndirectEstimator.passthrough(n_c, n_t)
        self.f = _random_classifier(n_c, 0, n_t, seed=32, weighted=True,
                                    hidden=(6, 4))
        self.gps = _fitted_gps(n_t, n_c=n_c)
        self.x_bar = np.random.default_rng(33).uniform(0.1, 0.9, n_c + n_t)

    def _search(self, budget, reuse=None, lam=0.1):
        cfg = OptimizationConfig(budget=budget, lam=lam, variant=Variant.G,
                                 max_iters=80)
        return optimize(self.x_bar, self.f, self.H, self.gps, self.schema,
                        cfg, reuse=reuse)

    def _costliest(self, res):
        x_bar_T = self.x_bar[list(self.schema.treatment_idx)]
        return float(cost(res.iterates - x_bar_T, self.schema.cost_up,
                          self.schema.cost_down).max())

    def _assert_same_search(self, res, ref):
        for name in ("x_T_star", "objective_trace", "iterates"):
            assert _same_bytes(getattr(res, name), getattr(ref, name))
        assert _same_bytes(res.aps_star.density, ref.aps_star.density)
        assert res.iterations_used == ref.iterations_used
        assert _same_bytes(res.cost_spent, ref.cost_spent)

    def test_search_within_budget_reused_as_is(self):
        # budget 10 exceeds the largest cost of 3 x 2.5, so it never binds;
        # at a budget equal to its costliest iterate the search is the same
        wide = self._search(10.0)
        budget = self._costliest(wide)
        assert 0.0 < budget < 10.0
        res = self._search(budget, reuse=wide)
        assert res is wide and res.cfg.budget == 10.0
        self._assert_same_search(res, self._search(budget))

    def test_costlier_iterate_searched_again(self):
        wide = self._search(10.0)
        budget = self._costliest(wide) / 2
        res = self._search(budget, reuse=wide)
        assert res is not wide and res.cfg.budget == budget
        self._assert_same_search(res, self._search(budget))

    def test_binding_search_not_reused_1e13_below(self):
        # a binding iterate costs the budget only to within rounding: here
        # one ulp below 0.05, and a search at that cost takes another path
        wide = self._search(0.05)
        costliest = self._costliest(wide)
        assert 0.05 - 1e-13 < costliest < 0.05
        assert not _same_bytes(self._search(costliest).iterates, wide.iterates)
        for budget in (costliest, 0.05 - 1e-13):
            res = self._search(budget, reuse=wide)
            assert res is not wide
            self._assert_same_search(res, self._search(budget))

    def test_other_settings_rejected(self):
        wide = self._search(10.0)
        with pytest.raises(ValueError, match="same variant, step"):
            self._search(1.0, reuse=wide, lam=0.0)
