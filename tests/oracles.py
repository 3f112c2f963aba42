"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: the projection oracle
scans a dense feasible grid, the GP oracle solves the dense linear system
without a Cholesky factorization, the classifier oracle runs the networks
from their weight arrays, and the finite-difference helpers probe functions
numerically.
"""

import numpy as np


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
