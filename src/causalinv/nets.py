"""Feed-forward outcome classifier and indirect-feature estimator.

The classifier maps (controls, indirect features, treatments) to the
probability of the undesirable class; in its propensity-corrected form the
treatment inputs are first multiplied elementwise by their approximate
propensity scores, which the classifier computes itself from the assignment
GPs' predictive profile (means, stds) at the row's controls. The indirect
estimator regresses the indirectly changeable features on (controls,
treatments) so that a candidate policy's downstream feature values can be
re-estimated during optimization. At one row both networks are evaluated by
one forward pass, shared by :func:`predict_proba` and
:func:`grad_wrt_treatments`; the latter adds one backward pass of each.

Both networks are plain numpy: tanh hidden layers, seeded initialization,
mini-batch gradient descent. Architecture selection for the classifier is by
k-fold cross-validated log-loss over a small grid, then a retrain on all rows.
One gradient-descent loop trains every network; it advances a stack of
same-shaped networks in lockstep, which lets the folds of one architecture
train together with the same weights each would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .gp import _density, _density_slope, aps, treatment_profile

# the clip ufunc itself (np.clip adds a Python-level dispatch to each call)
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip

DEFAULT_ARCH_GRID = ((16,), (32,), (16, 16), (32, 16))
DEFAULT_FOLDS = 5
DEFAULT_EPOCHS = 400
LR = 0.05  # SGD step size of every network
BATCH = 32  # SGD mini-batch size of every network


def _init_layers(dims, rng):
    return [rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])]


def _forward_tanh(X, weights, biases):
    """Hidden activations (tanh) plus the final pre-activation, of one
    network (2-D weights, rows of ``X``) or of a stack of networks (weights
    (F, out, in), ``X`` (F, rows, in))."""
    acts = [X]
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ W.swapaxes(-1, -2) + b)
        acts.append(a)
    z_out = a @ weights[-1].swapaxes(-1, -2) + biases[-1]
    return acts, z_out


def _sgd_train(X, Y, dims, seeds, epochs, lr, batch, loss):
    """Mini-batch gradient descent of F networks of one shape in lockstep;
    ``loss`` is 'bce' or 'mse'.

    Run f fits ``X[f]`` (n, p) to ``Y[f]`` (n, out) from its own generator
    seeded with ``seeds[f]``, which draws the initial weights and then one
    permutation per epoch. The runs share every numpy call but none of their
    arithmetic, so each gets the weights it gets when trained alone. Returns
    ``(weights, biases)`` per run.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    weights = [np.stack(ws) for ws in zip(*(_init_layers(dims, rng)
                                            for rng in rngs))]
    biases = [np.zeros((len(rngs), 1, fan_out)) for fan_out in dims[1:]]
    runs = np.arange(len(rngs))[:, None]
    n = X.shape[1]
    n_out = dims[-1]
    for _ in range(epochs):
        perm = np.stack([rng.permutation(n) for rng in rngs])
        X_ep, Y_ep = X[runs, perm], Y[runs, perm]
        for s in range(0, n, batch):
            xb, yb = X_ep[:, s:s + batch], Y_ep[:, s:s + batch]
            m = xb.shape[1]
            acts, z_out = _forward_tanh(xb, weights, biases)
            if loss == "bce":
                p = 1.0 / (1.0 + np.exp(-z_out))
                delta = (p - yb) / m
            else:
                delta = 2.0 * (z_out - yb) / (m * n_out)
            for li in range(len(weights) - 1, -1, -1):
                gW = delta.swapaxes(-1, -2) @ acts[li]
                gb = delta.sum(axis=1, keepdims=True)
                if li > 0:
                    delta = (delta @ weights[li]) * (1.0 - acts[li] ** 2)
                weights[li] -= lr * gW
                biases[li] -= lr * gb
    return [([W[f] for W in weights], [b[f, 0] for b in biases])
            for f in range(len(rngs))]


def _check_layers(net, dims):
    """Reject weights or biases that are not finite or do not chain through
    the layer widths ``dims``."""
    for name, want in (("weights", list(zip(dims[1:], dims[:-1]))),
                       ("biases", [(width,) for width in dims[1:]])):
        got = [np.shape(a) for a in getattr(net, name)]
        if got != want:
            raise ValueError(f"{name} have shapes {got}, expected {want}")
        if not all(np.isfinite(a).all() for a in getattr(net, name)):
            raise ValueError(f"{name} hold a non-finite value")


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

    FORMAT = "causalinv-mlp-1"  # not annotated, so not a field

    layer_dims: tuple
    weights: list
    biases: list
    weighted: bool
    n_controls: int
    n_indirect: int
    n_treatments: int
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_in = self.n_controls + self.n_indirect + self.n_treatments
        if tuple(self.layer_dims) != (n_in, *self.layer_dims[1:-1], 1):
            raise ValueError(f"layer_dims {self.layer_dims} must run from n_controls"
                             f" + n_indirect + n_treatments = {n_in} to 1")
        _check_layers(self, self.layer_dims)

    def forward(self, Z):
        """Probability of the undesirable class for each assembled input row
        of the matrix ``Z``."""
        _, z_out = _forward_tanh(np.asarray(Z, dtype=np.float64),
                                 self.weights, self.biases)
        return 1.0 / (1.0 + np.exp(-z_out[:, 0]))


@dataclass
class IndirectEstimator:
    """Regressor from (controls, treatments) to the indirect features.

    One tanh hidden layer, linear outputs clipped to [0, 1]. With no indirect
    features it degenerates to an empty pass-through.
    """

    FORMAT = "causalinv-indirect-1"

    weights: list
    biases: list
    n_controls: int
    n_treatments: int
    n_indirect: int
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):  # n_controls + n_treatments in, n_indirect out
        n_in = self.n_controls + self.n_treatments
        _check_layers(self, (n_in, *(len(b) for b in self.biases[:-1]),
                             self.n_indirect) if self.n_indirect else (n_in,))

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


def _design(X_C, X_I, X_T, density=None):
    """Classifier input: controls, indirect features and treatments, the
    treatments multiplied elementwise by their propensity ``density`` when
    one is given. Rows (1-D arguments) or matrices (one row per instance)."""
    return np.concatenate([X_C, X_I, X_T if density is None else density * X_T],
                          axis=-1)


def train_classifier(ds, gps=None, folds: int = DEFAULT_FOLDS,
                     arch_grid=DEFAULT_ARCH_GRID, seed: int = 0,
                     epochs: int = DEFAULT_EPOCHS) -> MlpClassifier:
    """Cross-validated architecture selection, then a retrain on all rows.

    Given the assignment GPs ``gps``, one per treatment, the classifier is
    weighted: it trains on treatments multiplied by their propensity density.
    """
    arch_grid = [tuple(a) for a in arch_grid]
    if not arch_grid:
        raise ValueError("arch_grid must not be empty")
    if folds < 2 or folds > ds.n:
        raise ValueError(f"fold count {folds} out of range [2, {ds.n}]")
    Xc, Xt = ds.controls(), ds.treatments()
    weighted, density = gps is not None, None
    if weighted:
        if len(gps) != ds.schema.n_treatments:
            raise ValueError("weighted training needs one fitted GP per treatment")
        density = aps(Xt, *treatment_profile(gps, Xc))
    Z = _design(Xc, ds.indirects(), Xt, density)
    y = ds.y.astype(np.float64)
    n, p = Z.shape
    widths = (len(ds.schema.control_idx), len(ds.schema.indirect_idx),
              ds.schema.n_treatments)

    fold_ids = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    train_ids = [np.delete(np.arange(n), test_idx) for test_idx in fold_ids]
    # folds with equally long training sets train as one stack; padding a
    # shorter one would change the length of its mini-batch sums
    stacks = {}
    for fi, idx in enumerate(train_ids):
        stacks.setdefault(len(idx), []).append(fi)
    cv_losses = []
    for ai, arch in enumerate(arch_grid):
        dims = (p, *arch, 1)
        losses = [None] * folds
        for stack in stacks.values():
            idx = np.stack([train_ids[fi] for fi in stack])
            runs = _sgd_train(Z[idx], y[idx][..., None], dims,
                              seeds=[[seed, ai, fi] for fi in stack],
                              epochs=epochs, lr=LR, batch=BATCH, loss="bce")
            for fi, (w, b) in zip(stack, runs):
                net = MlpClassifier(dims, w, b, weighted, *widths)
                losses[fi] = _log_loss(net.forward(Z[fold_ids[fi]]),
                                       y[fold_ids[fi]])
        cv_losses.append(float(np.mean(losses)))

    best = int(np.argmin(cv_losses))
    dims = (p, *arch_grid[best], 1)
    [(w, b)] = _sgd_train(Z[None], y[None, :, None], dims, seeds=[[seed, 7919]],
                          epochs=epochs, lr=LR, batch=BATCH, loss="bce")
    meta = {
        "arch": list(arch_grid[best]),
        "cv_loss": cv_losses[best],
        "cv_losses": {str(list(a)): l for a, l in zip(arch_grid, cv_losses)},
        "folds": folds, "epochs": epochs, "lr": LR, "batch": BATCH,
        "seed": seed, "weighted": weighted,
    }
    return MlpClassifier(dims, w, b, weighted, *widths, training_meta=meta)


def train_indirect(ds, seed: int = 0,
                   epochs: int = DEFAULT_EPOCHS) -> IndirectEstimator:
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
    [(w, b)] = _sgd_train(Z[None], Y[None], dims, seeds=[seed], epochs=epochs,
                          lr=LR, batch=BATCH, loss="mse")
    return IndirectEstimator(weights=w, biases=b, n_controls=n_c,
                             n_treatments=n_t, n_indirect=n_i,
                             training_meta={"epochs": epochs, "lr": LR,
                                            "batch": BATCH, "seed": seed})


def _forward_row(f, H, x_C, x_T, profile, include_aps_chain=False):
    """Forward pass of both networks at one row, as the matrix paths give it:
    the classifier's output (a 1-vector) and activations, H's activations and
    output pre-activation (None without indirect features), and the weighted
    classifier's direct-path factor phi, or phi + dphi * x_T with the chain."""
    weight = density = h_acts = h_out = None
    if f.weighted:
        if profile is None:
            raise ValueError("a classifier trained on weighted treatments "
                             "needs the assignment GPs' (means, stds) profile")
        means, stds = (np.asarray(a, dtype=np.float64) for a in profile)
        if not np.minimum.reduce(stds) > 0:  # also rejects NaN
            raise ValueError("predictive stds must be positive")
        dev = x_T - means
        weight = density = _density(dev, stds)
        if include_aps_chain:
            weight = density + _density_slope(density, dev, stds) * x_T
    if H.n_indirect:
        h_acts, h_out = _forward_tanh(np.concatenate([x_C, x_T])[None, :],
                                      H.weights, H.biases)
        h = _clip(h_out[0], 0.0, 1.0)
    else:
        h = np.zeros(0)
    acts, z_out = _forward_tanh(_design(x_C, h, x_T, density)[None, :],
                                f.weights, f.biases)
    return 1.0 / (1.0 + np.exp(-z_out[:, 0])), acts, h_acts, h_out, weight


def predict_proba(f: MlpClassifier, H: IndirectEstimator, x_C, x_T,
                  profile=None) -> float:
    """Classifier output at one row, with the indirect features re-estimated
    from (x_C, x_T): the value :func:`grad_wrt_treatments` returns."""
    return float(_forward_row(f, H, np.asarray(x_C, dtype=np.float64),
                              np.asarray(x_T, dtype=np.float64), profile)[0][0])


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
    p, acts, h_acts, h_out, weight = _forward_row(f, H, x_C, x_T, profile,
                                                  include_aps_chain)
    delta = (p * (1.0 - p))[:, None]
    for li in range(len(f.weights) - 1, 0, -1):
        delta = (delta @ f.weights[li]) * (1.0 - acts[li] ** 2)
    g = (delta @ f.weights[0])[0]
    n_c, n_i = f.n_controls, f.n_indirect
    g_w = g[n_c + n_i:] if weight is None else g[n_c + n_i:] * weight
    if H.n_indirect:
        inside = (h_out[0] > 0.0) & (h_out[0] < 1.0)
        jac = ((H.weights[1] * (1.0 - h_acts[1][0] ** 2)[None, :])
               @ H.weights[0][:, H.n_controls:]) * inside[:, None]
    else:
        jac = np.zeros((0, H.n_treatments))
    return float(p[0]), jac.T @ g[n_c:n_c + n_i] + g_w


def net_to_dict(net) -> dict:
    """Model document of a network: its class's ``FORMAT`` and every
    dataclass field, the weight arrays as nested lists."""
    doc = {fld.name: getattr(net, fld.name) for fld in fields(net)}
    for name in ("weights", "biases"):
        doc[name] = [a.tolist() for a in doc[name]]
    return {"format": net.FORMAT, **doc}


def net_from_dict(doc: dict, cls):
    """The ``cls`` network of a :func:`net_to_dict` document."""
    if doc.get("format") != cls.FORMAT:
        raise ValueError(f"unsupported {cls.__name__} format {doc.get('format')!r}")
    kwargs = {fld.name: doc[fld.name] for fld in fields(cls)}
    for name in ("weights", "biases"):
        kwargs[name] = [np.asarray(a, dtype=np.float64) for a in kwargs[name]]
    if "layer_dims" in kwargs:
        kwargs["layer_dims"] = tuple(kwargs["layer_dims"])
    return cls(**kwargs)
