"""Feed-forward outcome classifier and indirect-feature estimator.

The classifier maps (controls, indirect features, treatments) to the
probability of the undesirable class; in its propensity-corrected form the
treatment inputs are first multiplied elementwise by their approximate
propensity scores, which the classifier computes itself from the assignment
GPs' predictive profile (means, stds) at the row's controls. The indirect
estimator regresses the indirectly changeable features on (controls,
treatments) so that a candidate policy's downstream feature values can be
re-estimated during optimization. At one row both networks are evaluated by
:func:`grad_wrt_treatments` alone, which gives the output and its gradient
from one pass of each.

Both networks are plain numpy: tanh hidden layers, seeded initialization,
mini-batch gradient descent. Architecture selection for the classifier is by
k-fold cross-validated log-loss over a small grid, then a retrain on all rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gp import aps, make_aps_result, treatment_profile

DEFAULT_ARCH_GRID = ((16,), (32,), (16, 16), (32, 16))
DEFAULT_EPOCHS = 400
DEFAULT_LR = 0.05
DEFAULT_BATCH = 32

MLP_FORMAT = "causalinv-mlp-1"
IND_FORMAT = "causalinv-indirect-1"


def _init_layers(dims, rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward_tanh(X, weights, biases):
    """Hidden activations (tanh) plus the final pre-activation."""
    acts = [X]
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ W.T + b)
        acts.append(a)
    z_out = a @ weights[-1].T + biases[-1]
    return acts, z_out


def _sgd_train(X, Y, dims, seed, epochs, lr, batch, loss):
    """Mini-batch gradient descent; ``loss`` is 'bce' or 'mse'."""
    rng = np.random.default_rng(seed)
    weights, biases = _init_layers(dims, rng)
    n = X.shape[0]
    n_out = dims[-1]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for s in range(0, n, batch):
            idx = perm[s:s + batch]
            xb, yb = X[idx], Y[idx]
            acts, z_out = _forward_tanh(xb, weights, biases)
            if loss == "bce":
                p = 1.0 / (1.0 + np.exp(-z_out))
                delta = (p - yb) / len(idx)
            else:
                delta = 2.0 * (z_out - yb) / (len(idx) * n_out)
            for li in range(len(weights) - 1, -1, -1):
                gW = delta.T @ acts[li]
                gb = delta.sum(axis=0)
                if li > 0:
                    delta = (delta @ weights[li]) * (1.0 - acts[li] ** 2)
                weights[li] -= lr * gW
                biases[li] -= lr * gb
    return weights, biases


def _log_loss(p, y):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass
class MlpClassifier:
    """Binary classifier with tanh hidden layers and a sigmoid output.

    ``weighted`` records whether training inputs used propensity-weighted
    treatments. A weighted classifier needs the assignment GPs' profile
    ``(means, stds)`` at a row's controls to be evaluated there, and weights
    its treatments with the density it gives; a plain one ignores it.
    """

    layer_dims: tuple
    weights: list
    biases: list
    weighted: bool
    n_controls: int
    n_indirect: int
    n_treatments: int
    training_meta: dict = field(default_factory=dict)

    def forward(self, Z):
        """Probability of the undesirable class for each assembled input row
        of the matrix ``Z``."""
        _, z_out = _forward_tanh(np.asarray(Z, dtype=np.float64),
                                 self.weights, self.biases)
        return 1.0 / (1.0 + np.exp(-z_out[:, 0]))

    def input_gradient(self, z):
        """Output probability at one input row, as :meth:`forward` gives it
        for that row, and its gradient with respect to the row."""
        acts, z_out = _forward_tanh(np.asarray(z, dtype=np.float64)[None, :],
                                    self.weights, self.biases)
        p = 1.0 / (1.0 + np.exp(-z_out[:, 0]))
        delta = (p * (1.0 - p))[:, None]
        for li in range(len(self.weights) - 1, 0, -1):
            delta = (delta @ self.weights[li]) * (1.0 - acts[li] ** 2)
        return float(p[0]), (delta @ self.weights[0])[0]


@dataclass
class IndirectEstimator:
    """Regressor from (controls, treatments) to the indirect features.

    One tanh hidden layer, linear outputs clipped to [0, 1]. With no indirect
    features it degenerates to an empty pass-through.
    """

    weights: list
    biases: list
    n_controls: int
    n_treatments: int
    n_indirect: int
    training_meta: dict = field(default_factory=dict)

    @classmethod
    def passthrough(cls, n_controls, n_treatments):
        return cls(weights=[], biases=[], n_controls=n_controls,
                   n_treatments=n_treatments, n_indirect=0)

    def predict(self, X_C, X_T):
        """Indirect features for each row of the control and treatment
        matrices."""
        X_C = np.asarray(X_C, dtype=np.float64)
        if self.n_indirect == 0:
            return np.zeros((X_C.shape[0], 0))
        Z = np.concatenate([X_C, np.asarray(X_T, dtype=np.float64)], axis=1)
        return np.clip(_forward_tanh(Z, self.weights, self.biases)[1], 0.0, 1.0)

    def jacobian_wrt_treatments(self, x_C, x_T):
        """:meth:`predict` at one row, as a vector, and d(predict)/d(x_T),
        with zero Jacobian rows where the output clip saturates."""
        if self.n_indirect == 0:
            return np.zeros(0), np.zeros((0, self.n_treatments))
        z = np.concatenate([np.asarray(x_C, dtype=np.float64),
                            np.asarray(x_T, dtype=np.float64)])[None, :]
        acts, z_out = _forward_tanh(z, self.weights, self.biases)
        a1 = acts[1][0]
        inside = ((z_out[0] > 0.0) & (z_out[0] < 1.0)).astype(np.float64)
        W_out, W_in = self.weights[1], self.weights[0]
        jac = (W_out * (1.0 - a1 ** 2)[None, :]) @ W_in[:, self.n_controls:]
        return np.clip(z_out[0], 0.0, 1.0), jac * inside[:, None]


def _design(X_C, X_I, X_T, density=None):
    """Classifier input: controls, indirect features and treatments, the
    treatments multiplied elementwise by their propensity ``density`` when
    one is given. Rows (1-D arguments) or matrices (one row per instance)."""
    return np.concatenate([X_C, X_I, X_T if density is None else density * X_T],
                          axis=-1)


def train_classifier(ds, weighted: bool, gps=None, folds: int = 5,
                     arch_grid=DEFAULT_ARCH_GRID, seed: int = 0,
                     epochs: int = DEFAULT_EPOCHS, lr: float = DEFAULT_LR,
                     batch: int = DEFAULT_BATCH) -> MlpClassifier:
    """Cross-validated architecture selection, then a retrain on all rows."""
    arch_grid = [tuple(a) for a in arch_grid]
    if not arch_grid:
        raise ValueError("arch_grid must not be empty")
    if folds < 2 or folds > ds.n:
        raise ValueError(f"fold count {folds} out of range [2, {ds.n}]")
    Xc, Xt = ds.controls(), ds.treatments()
    density = None
    if weighted:
        if gps is None or len(gps) != ds.schema.n_treatments:
            raise ValueError("weighted training needs one fitted GP per treatment")
        density = aps(Xt, *treatment_profile(gps, Xc))
    Z = _design(Xc, ds.indirects(), Xt, density)
    y = ds.y.astype(np.float64)
    n, p = Z.shape

    fold_ids = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    cv_losses = []
    for ai, arch in enumerate(arch_grid):
        dims = (p, *arch, 1)
        losses = []
        for fi, test_idx in enumerate(fold_ids):
            train_mask = np.ones(n, dtype=bool)
            train_mask[test_idx] = False
            w, b = _sgd_train(Z[train_mask], y[train_mask][:, None], dims,
                              seed=[seed, ai, fi],
                              epochs=epochs, lr=lr, batch=batch, loss="bce")
            net = MlpClassifier(dims, w, b, weighted, 0, 0, 0)
            losses.append(_log_loss(net.forward(Z[test_idx]), y[test_idx]))
        cv_losses.append(float(np.mean(losses)))

    best = int(np.argmin(cv_losses))
    dims = (p, *arch_grid[best], 1)
    w, b = _sgd_train(Z, y[:, None], dims, seed=[seed, 7919],
                      epochs=epochs, lr=lr, batch=batch, loss="bce")
    meta = {
        "arch": list(arch_grid[best]),
        "cv_loss": cv_losses[best],
        "cv_losses": {str(list(a)): l for a, l in zip(arch_grid, cv_losses)},
        "folds": folds, "epochs": epochs, "lr": lr, "batch": batch,
        "seed": seed, "weighted": weighted,
    }
    return MlpClassifier(layer_dims=dims, weights=w, biases=b, weighted=weighted,
                         n_controls=len(ds.schema.control_idx),
                         n_indirect=len(ds.schema.indirect_idx),
                         n_treatments=ds.schema.n_treatments,
                         training_meta=meta)


def train_indirect(ds, seed: int = 0, epochs: int = DEFAULT_EPOCHS,
                   lr: float = DEFAULT_LR, batch: int = DEFAULT_BATCH) -> IndirectEstimator:
    """MSE regression of the indirect features on (controls, treatments).

    Fixed architecture: one tanh hidden layer of width 2*(|C|+|T|).
    """
    n_c = len(ds.schema.control_idx)
    n_t = ds.schema.n_treatments
    n_i = len(ds.schema.indirect_idx)
    if n_i == 0:
        return IndirectEstimator.passthrough(n_c, n_t)
    Z = np.concatenate([ds.controls(), ds.treatments()], axis=1)
    Y = ds.indirects()
    dims = (n_c + n_t, 2 * (n_c + n_t), n_i)
    w, b = _sgd_train(Z, Y, dims, seed=seed, epochs=epochs, lr=lr, batch=batch,
                      loss="mse")
    return IndirectEstimator(weights=w, biases=b, n_controls=n_c,
                             n_treatments=n_t, n_indirect=n_i,
                             training_meta={"epochs": epochs, "lr": lr,
                                            "batch": batch, "seed": seed})


def predict_proba(f: MlpClassifier, H: IndirectEstimator, x_C, x_T,
                  profile=None) -> float:
    """Classifier output at one row, with the indirect features re-estimated
    from (x_C, x_T): the value :func:`grad_wrt_treatments` returns."""
    return grad_wrt_treatments(f, H, x_C, x_T, profile)[0]


def grad_wrt_treatments(f: MlpClassifier, H: IndirectEstimator, x_C, x_T,
                        profile=None, include_aps_chain: bool = False) -> tuple:
    """Classifier output at one row and its total derivative with respect to
    x_T, as ``(value, gradient)`` from one pass of each network.

    The indirect estimator consumes raw treatments. A weighted classifier
    multiplies its direct treatment inputs by their propensity density under
    ``profile``, the assignment GPs' ``(means, stds)`` at x_C, and raises
    without one; a plain classifier ignores ``profile``. The gradient
    accumulates the indirect path (through H) and the direct treatment path;
    for a weighted classifier the weighting map contributes the factor
    (phi + dphi * x_T) on the direct path when ``include_aps_chain`` is set,
    and phi alone (the propensity held constant) otherwise.
    """
    x_C = np.asarray(x_C, dtype=np.float64)
    x_T = np.asarray(x_T, dtype=np.float64)
    density = None
    if f.weighted:
        if profile is None:
            raise ValueError("classifier was trained on weighted treatments; "
                             "the assignment GPs' (means, stds) profile is "
                             "required")
        res = make_aps_result(x_T, *profile)
        density = res.density
    h, jac = H.jacobian_wrt_treatments(x_C, x_T)
    p, g = f.input_gradient(_design(x_C, h, x_T, density))
    n_c, n_i = f.n_controls, f.n_indirect
    g_I = g[n_c:n_c + n_i]
    g_w = g[n_c + n_i:]
    if f.weighted:
        g_w = g_w * (density + res.density_grad * x_T
                     if include_aps_chain else density)
    return p, jac.T @ g_I + g_w


def classifier_to_dict(f: MlpClassifier) -> dict:
    return {
        "format": MLP_FORMAT,
        "layer_dims": list(f.layer_dims),
        "weights": [w.tolist() for w in f.weights],
        "biases": [b.tolist() for b in f.biases],
        "weighted": f.weighted,
        "n_controls": f.n_controls,
        "n_indirect": f.n_indirect,
        "n_treatments": f.n_treatments,
        "training_meta": f.training_meta,
    }


def classifier_from_dict(doc: dict) -> MlpClassifier:
    if doc.get("format") != MLP_FORMAT:
        raise ValueError(f"unsupported classifier format {doc.get('format')!r}")
    return MlpClassifier(
        layer_dims=tuple(doc["layer_dims"]),
        weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
        weighted=doc["weighted"], n_controls=doc["n_controls"],
        n_indirect=doc["n_indirect"], n_treatments=doc["n_treatments"],
        training_meta=doc.get("training_meta", {}))


def indirect_to_dict(H: IndirectEstimator) -> dict:
    return {
        "format": IND_FORMAT,
        "weights": [w.tolist() for w in H.weights],
        "biases": [b.tolist() for b in H.biases],
        "n_controls": H.n_controls,
        "n_treatments": H.n_treatments,
        "n_indirect": H.n_indirect,
        "training_meta": H.training_meta,
    }


def indirect_from_dict(doc: dict) -> IndirectEstimator:
    if doc.get("format") != IND_FORMAT:
        raise ValueError(f"unsupported estimator format {doc.get('format')!r}")
    return IndirectEstimator(
        weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
        n_controls=doc["n_controls"], n_treatments=doc["n_treatments"],
        n_indirect=doc["n_indirect"], training_meta=doc.get("training_meta", {}))
