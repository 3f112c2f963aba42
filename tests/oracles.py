"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: the projection oracle
scans a dense feasible grid, the GP oracle solves the dense linear system
without a Cholesky factorization, the classifier oracle runs the networks
from their weight arrays, and the finite-difference helpers probe functions
numerically. The ``ref_*`` GP functions are the marginal-likelihood
evaluation written with a fresh array for every intermediate; the library's
in-place version must reproduce them bit for bit. The ``ref_*`` search
functions are the policy search with every wrapper of its first version;
the library's lean loop must reproduce them bit for bit too. The one helper
built on library code, ``value_and_direction``, states each variant's
objective on top of a one-row network pass.
"""

import numpy as np

from causalinv.gp import JITTERS, SQRT_2PI, TRIL_INV_LEAF, treatment_profile
from causalinv.nets import grad_wrt_treatments
from causalinv.optimize import PATIENCE, TOL, OptimizationError, Variant


def grid_project(v, x_bar, c_up, c_down, B, l, u, n_grid=200):
    """Argmin of ||x - v||^2 over a dense grid of the feasible set."""
    k = len(v)
    axes = [np.linspace(l[j], u[j], n_grid) for j in range(k)]
    best_d2, best_x = np.inf, None
    if k == 1:
        grids = [axes[0][:, None]]
    elif k == 2:
        a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
        grids = [np.column_stack([a.ravel(), b.ravel()])]
    else:
        # chunk over the first axis to bound memory
        b, c = np.meshgrid(axes[1], axes[2], indexing="ij")
        tail = np.column_stack([b.ravel(), c.ravel()])
        grids = [np.column_stack([np.full(len(tail), a0), tail]) for a0 in axes[0]]
    for pts in grids:
        dev = pts - x_bar
        psi = (np.asarray(c_up) * np.maximum(dev, 0)
               + np.asarray(c_down) * np.maximum(-dev, 0)).sum(axis=1)
        feas = psi <= B + 1e-12
        if not feas.any():
            continue
        pts = pts[feas]
        d2 = ((pts - v) ** 2).sum(axis=1)
        j = int(np.argmin(d2))
        if d2[j] < best_d2:
            best_d2, best_x = d2[j], pts[j]
    return best_x


def dense_gp_predict(gp, q):
    """GP predictive mean/std by dense solve, no Cholesky."""
    X, t = gp.train_controls, gp.train_targets
    ls, sv, nv = (gp.kernel.lengthscale, gp.kernel.signal_variance,
                  gp.kernel.noise_variance)
    def k(A, B_):
        d2 = ((A[:, None, :] - B_[None, :, :]) ** 2).sum(-1)
        return sv * np.exp(-0.5 * d2 / ls ** 2)
    K = k(X, X) + (nv + gp.jitter) * np.eye(len(X))
    ks = k(q[None, :], X)[0]
    resid = t - gp.mean_const
    mean = gp.mean_const + ks @ np.linalg.solve(K, resid)
    var = sv + nv - ks @ np.linalg.solve(K, ks)
    return float(mean), float(np.sqrt(max(var, 1e-12)))


def dense_log_marginal(controls, targets, mean_const, ls, sv, nv, jitter=0.0):
    """Closed-form log marginal likelihood via slogdet and dense solve."""
    X = np.asarray(controls, dtype=np.float64)
    resid = np.asarray(targets, dtype=np.float64) - mean_const
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    K = sv * np.exp(-0.5 * d2 / ls ** 2) + (nv + jitter) * np.eye(len(X))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    m = len(X)
    return float(-0.5 * resid @ np.linalg.solve(K, resid) - 0.5 * logdet
                 - 0.5 * m * np.log(2 * np.pi))


def classifier_output(f, H, x_C, x_T, density=None):
    """Classifier probability at one row by a forward pass written from the
    weight arrays: the indirect features from H (tanh layer, clipped linear
    output) on the raw treatments, and the classifier's treatment inputs
    multiplied by a fixed ``density`` when one is given."""
    def net(weights, biases, z):
        for W, b in zip(weights[:-1], biases[:-1]):
            z = np.tanh(W @ z + b)
        return weights[-1] @ z + biases[-1]

    x_C = np.asarray(x_C, dtype=np.float64)
    x_T = np.asarray(x_T, dtype=np.float64)
    h = (np.clip(net(H.weights, H.biases, np.concatenate([x_C, x_T])), 0.0, 1.0)
         if H.n_indirect else np.zeros(0))
    w = x_T if density is None else density * x_T
    z = net(f.weights, f.biases, np.concatenate([x_C, h, w]))
    return float(1.0 / (1.0 + np.exp(-z[0])))


def sgd_one_run(X, Y, dims, seed, epochs, lr, batch, loss):
    """One network trained alone by mini-batch gradient descent, ``loss``
    'bce' (sigmoid output) or 'mse': the generator seeded with ``seed``
    draws each layer's weights N(0, 1/fan_in) (biases start at zero), then
    one permutation of the rows per epoch. Returns (weights, biases)."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
               for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(fan_out) for fan_out in dims[1:]]
    n = X.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            rows = perm[start:start + batch]
            acts = [X[rows]]
            for W, b in zip(weights[:-1], biases[:-1]):
                acts.append(np.tanh(acts[-1] @ W.T + b))
            z = acts[-1] @ weights[-1].T + biases[-1]
            if loss == "bce":
                delta = (1.0 / (1.0 + np.exp(-z)) - Y[rows]) / len(rows)
            else:
                delta = 2.0 * (z - Y[rows]) / (len(rows) * dims[-1])
            for layer in reversed(range(len(weights))):
                grad_W = delta.T @ acts[layer]
                grad_b = delta.sum(axis=0)
                if layer:
                    delta = (delta @ weights[layer]) * (1.0 - acts[layer] ** 2)
                weights[layer] -= lr * grad_W
                biases[layer] -= lr * grad_b
    return weights, biases


def central_diff(fn, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def ref_chol_with_jitter(K):
    """Cholesky of K, escalating an added diagonal jitter on failure."""
    for jit in JITTERS:
        try:
            return np.linalg.cholesky(K + jit * np.eye(K.shape[0])), jit
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "Cholesky factorization failed even with jitter 1e-4")


def ref_tril_inv(L):
    """Inverse of a lower-triangular matrix by 2x2 block recursion, each
    node assembling its result in a fresh zeroed array."""
    n = L.shape[0]
    if n <= TRIL_INV_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    A_inv = ref_tril_inv(L[:h, :h])
    D_inv = ref_tril_inv(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = A_inv
    out[h:, h:] = D_inv
    out[h:, :h] = -D_inv @ (L[h:, :h] @ A_inv)
    return out


def ref_factorize(resid, ls, sv, nv, sqd):
    """Kernel matrix, inverse Cholesky factor, alpha, log marginal likelihood
    and jitter (GPML Algorithm 2.1) from the squared distances ``sqd``."""
    m = sqd.shape[0]
    K = sv * np.exp(-0.5 * sqd / (ls * ls))
    L, jit = ref_chol_with_jitter(K + nv * np.eye(m))
    L_inv = ref_tril_inv(L)
    alpha = L_inv.T @ (L_inv @ resid)
    lml = (-0.5 * float(resid @ alpha)
           - float(np.sum(np.log(np.diag(L))))
           - 0.5 * m * np.log(2.0 * np.pi))
    return K, L_inv, alpha, lml, jit


def ref_lml_and_grad(resid, log_theta, sqd):
    """Log marginal likelihood and its gradient in (log ls, log sv, log nv)
    (GPML Eq. 5.9)."""
    ls, sv, nv = np.exp(log_theta)
    try:
        K, L_inv, alpha, lml, _ = ref_factorize(resid, ls, sv, nv, sqd)
    except np.linalg.LinAlgError:
        return -np.inf, np.zeros(3)
    K_inv = L_inv.T @ L_inv
    KS = K * (sqd / (ls * ls))
    g_ls = 0.5 * (float(alpha @ KS @ alpha) - float(np.sum(K_inv * KS)))
    g_sv = 0.5 * (float(alpha @ K @ alpha) - float(np.sum(K_inv * K)))
    g_nv = 0.5 * nv * (float(alpha @ alpha) - float(np.trace(K_inv)))
    return lml, np.array([g_ls, g_sv, g_nv])


# --- the per-row policy search as first written -----------------------------
# Each iterate of ``ref_optimize`` goes through the public ``cost``, ``aps``
# and ``np.clip`` wrappers, computes the propensity density and its
# derivative, and evaluates H and the
# classifier through their one-row Jacobian and input-gradient methods. The
# library's search must reproduce every field of its result bit for bit.

def ref_cost(z, c_up, c_down):
    z = np.asarray(z, dtype=np.float64)
    total = np.sum(np.asarray(c_up) * np.maximum(z, 0.0)
                   + np.asarray(c_down) * np.maximum(-z, 0.0), axis=-1)
    return total if total.ndim else float(total)


def ref_project(x, x_bar, c_up, c_down, B, l, u):
    x = np.asarray(x, dtype=np.float64)
    x_bar = np.asarray(x_bar, dtype=np.float64)
    c_up = np.asarray(c_up, dtype=np.float64)
    c_down = np.asarray(c_down, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if not np.all((l <= x_bar) & (x_bar <= u)):
        raise ValueError("x_bar lies outside the box [l, u]")

    clipped = np.clip(x, l, u)
    if ref_cost(clipped - x_bar, c_up, c_down) <= B:
        return clipped

    d = x - x_bar
    c_dir = np.where(d > 0, c_up, np.where(d < 0, c_down, 0.0))
    costed = c_dir > 0
    if B <= 0.0:
        return np.where(costed, x_bar, clipped)

    c_safe = np.where(costed, c_dir, 1.0)
    reach = np.abs(d) / c_safe
    leave = reach - np.abs(clipped - x_bar) / c_safe

    def shrunk(theta):
        mag = np.where(costed, c_dir * np.maximum(reach - theta, 0.0), np.abs(d))
        return np.clip(x_bar + np.sign(d) * mag, l, u)

    kinks = np.unique(np.concatenate([[0.0], leave[costed], reach[costed]]))
    psi = ref_cost(shrunk(kinks[:, None]) - x_bar, c_up, c_down)
    return shrunk(np.interp(B, psi[::-1], kinks[::-1]))


def ref_aps_result(x_T, means, stds):
    """(density, its derivative) of the propensity at ``x_T``."""
    x_T = np.asarray(x_T, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if np.any(stds <= 0):
        raise ValueError("predictive stds must be positive")
    z = (x_T - means) / stds
    density = np.exp(-0.5 * z * z) / (SQRT_2PI * stds)
    return density, -density * (x_T - means) / (stds * stds)


def _ref_forward_tanh(X, weights, biases):
    acts = [X]
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ W.swapaxes(-1, -2) + b)
        acts.append(a)
    return acts, a @ weights[-1].swapaxes(-1, -2) + biases[-1]


def ref_jacobian_wrt_treatments(H, x_C, x_T):
    if H.n_indirect == 0:
        return np.zeros(0), np.zeros((0, H.n_treatments))
    z = np.concatenate([np.asarray(x_C, dtype=np.float64),
                        np.asarray(x_T, dtype=np.float64)])[None, :]
    acts, z_out = _ref_forward_tanh(z, H.weights, H.biases)
    a1 = acts[1][0]
    inside = ((z_out[0] > 0.0) & (z_out[0] < 1.0)).astype(np.float64)
    W_out, W_in = H.weights[1], H.weights[0]
    jac = (W_out * (1.0 - a1 ** 2)[None, :]) @ W_in[:, H.n_controls:]
    return np.clip(z_out[0], 0.0, 1.0), jac * inside[:, None]


def ref_input_gradient(f, z):
    acts, z_out = _ref_forward_tanh(np.asarray(z, dtype=np.float64)[None, :],
                                    f.weights, f.biases)
    p = 1.0 / (1.0 + np.exp(-z_out[:, 0]))
    delta = (p * (1.0 - p))[:, None]
    for li in range(len(f.weights) - 1, 0, -1):
        delta = (delta @ f.weights[li]) * (1.0 - acts[li] ** 2)
    return float(p[0]), (delta @ f.weights[0])[0]


def ref_grad_wrt_treatments(f, H, x_C, x_T, profile=None,
                            include_aps_chain=False):
    x_C = np.asarray(x_C, dtype=np.float64)
    x_T = np.asarray(x_T, dtype=np.float64)
    density = None
    if f.weighted:
        if profile is None:
            raise ValueError("the assignment GPs' (means, stds) profile is "
                             "required")
        density, density_grad = ref_aps_result(x_T, *profile)
    h, jac = ref_jacobian_wrt_treatments(H, x_C, x_T)
    p, g = ref_input_gradient(f, np.concatenate(
        [x_C, h, x_T if density is None else density * x_T], axis=-1))
    n_c, n_i = f.n_controls, f.n_indirect
    g_I = g[n_c:n_c + n_i]
    g_w = g[n_c + n_i:]
    if f.weighted:
        g_w = g_w * (density + density_grad * x_T
                     if include_aps_chain else density)
    return p, jac.T @ g_I + g_w


def value_and_direction(f, H, x_C, x_T, means, stds, cfg,
                        grad=grad_wrt_treatments):
    """Objective value and descent direction of ``cfg.variant`` at ``x_T``:
    the classifier's output and total derivative (propensity chain rule for
    fprime-opt and g), plus for g the quadratic pull lambda * sum((x_T -
    means)^2 / (2 sigma^2)) and its gradient, from one ``grad`` pass."""
    chain = cfg.variant in (Variant.FPRIME_OPT, Variant.G)
    val, d = grad(f, H, x_C, x_T, (means, stds), include_aps_chain=chain)
    if cfg.variant is Variant.G:
        val += cfg.lam * float(np.sum((x_T - means) ** 2 / (2.0 * stds * stds)))
        d = d + cfg.lam * (x_T - means) / (stds * stds)
    return val, d


def ref_optimize(x_bar, f, H, gps, schema, cfg, profile=None):
    """The policy search with the iterate loop, stall test and best-iterate
    rule of ``causalinv.optimize.optimize``, evaluated through the
    ``ref_*`` functions above. Returns the fields of a ``PolicyResult``
    as a dict, with ``aps_star`` as the density."""
    x_bar = np.asarray(x_bar, dtype=np.float64)
    x_C = x_bar[list(schema.control_idx)]
    x_bar_T = x_bar[list(schema.treatment_idx)]
    means, stds = treatment_profile(gps, x_C) if profile is None else profile
    c_up, c_down = schema.cost_up, schema.cost_down
    l, u = schema.lower, schema.upper

    def evaluate(x_T):
        return value_and_direction(f, H, x_C, x_T, means, stds, cfg,
                                   grad=ref_grad_wrt_treatments)

    x_T = x_bar_T
    val, d = evaluate(x_T)
    trace, iterates = [val], [x_T]
    best = stall = 0
    for m in range(cfg.max_iters):
        if not np.all(np.isfinite(d)):
            raise OptimizationError(f"non-finite gradient at iteration {m}")
        x_T = ref_project(x_T - cfg.step * d, x_bar_T, c_up, c_down,
                          cfg.budget, l, u)
        val, d = evaluate(x_T)
        stall = 0 if val < trace[best] - TOL else stall + 1
        if val < trace[best]:
            best = len(trace)
        trace.append(val)
        iterates.append(x_T)
        if stall >= PATIENCE:
            break
    best_x = iterates[best]
    return dict(x_T_star=best_x, objective_trace=np.asarray(trace),
                aps_star=ref_aps_result(best_x, means, stds)[0],
                iterations_used=len(trace) - 1,
                cost_spent=ref_cost(best_x - x_bar_T, c_up, c_down),
                iterates=np.asarray(iterates))
