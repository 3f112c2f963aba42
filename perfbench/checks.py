"""Output checks computed apart from the program.

Each check re-derives what the program reported from first principles
written here (a dense solve of the GP equations, a forward pass of the
networks from their weight arrays, the raw schema costs) or tests a property
the method must have. Nothing is compared against stored copies of earlier
output. Every check records one operation per item it checks in a
:class:`Tally`; ``selftest.py`` shows that each one rejects a corrupted
output.
"""

from __future__ import annotations

import json

import numpy as np

STD_FLOOR = 1e-6      # the predictive std floor the method documents
ADJUST_THRESHOLD = 1e-3  # a treatment counts as adjusted past this change


class Tally:
    """Counts checked items and keeps a message for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


# --- independent computations -------------------------------------------

def dense_gp_moments(params, Xq):
    """Predictive mean and std of a constant/zero-mean squared-exponential
    GP, by a dense linear solve (no Cholesky factor).

    ``params`` holds lengthscale, signal_variance, noise_variance,
    mean_mode, jitter, train_controls and train_targets.
    """
    X = np.asarray(params["train_controls"], dtype=np.float64)
    t = np.asarray(params["train_targets"], dtype=np.float64)
    Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
    ls, sv = params["lengthscale"], params["signal_variance"]
    nv = params["noise_variance"] + params.get("jitter", 0.0)
    c = float(np.mean(t)) if params["mean_mode"] == "constant" else 0.0

    def kern(A, B):
        # row by row, so the check adds little to the run's peak memory
        d2 = np.array([((B - a) ** 2).sum(axis=1) for a in A])
        return sv * np.exp(-0.5 * d2 / (ls * ls))

    K = kern(X, X) + nv * np.eye(len(X))
    Ks = kern(Xq, X)
    sol = np.linalg.solve(K, np.column_stack([t - c, Ks.T]))
    mean = c + Ks @ sol[:, 0]
    var = sv + params["noise_variance"] - np.sum(Ks.T * sol[:, 1:], axis=0)
    std = np.maximum(np.sqrt(np.maximum(var, 0.0)), STD_FLOOR)
    return mean, std


def gp_params(gp):
    """The numbers :func:`dense_gp_moments` needs, from a fitted GP."""
    k = gp.kernel
    return {"lengthscale": k.lengthscale, "signal_variance": k.signal_variance,
            "noise_variance": k.noise_variance, "mean_mode": k.mean_mode,
            "jitter": gp.jitter, "train_controls": gp.train_controls,
            "train_targets": gp.train_targets}


def gaussian_density(x, mean, std):
    z = (x - mean) / std
    return np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * std)


def mlp_forward(weights, biases, Z):
    """Final pre-activation of a tanh network for the rows of ``Z``."""
    a = Z
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ np.asarray(W).T + np.asarray(b))
    return a @ np.asarray(weights[-1]).T + np.asarray(biases[-1])


def classifier_output(clf, H, XC, XT, means=None, stds=None):
    """Probability of the undesirable class for rows (x_C, x_T).

    The indirect features are re-estimated by H (tanh layer, clipped linear
    output) from the raw treatments; a weighted classifier sees each
    treatment multiplied by its Gaussian propensity density.
    """
    if H.n_indirect:
        XI = np.clip(mlp_forward(H.weights, H.biases,
                                 np.concatenate([XC, XT], axis=1)), 0.0, 1.0)
    else:
        XI = np.zeros((len(XC), 0))
    W = XT * gaussian_density(XT, means, stds) if clf.weighted else XT
    z = mlp_forward(clf.weights, clf.biases, np.concatenate([XC, XI, W], axis=1))
    return 1.0 / (1.0 + np.exp(-z[:, 0]))


def profile(gps, XC):
    """Dense-solve (means, stds) of every treatment GP, one column each."""
    moments = [dense_gp_moments(gp_params(g), XC) for g in gps]
    return (np.column_stack([m for m, _ in moments]),
            np.column_stack([s for _, s in moments]))


def ifee_values(clf, H, gps, XC, XT_bar, XT_star):
    """Validation-model output at x_bar minus at x_star, row by row."""
    means, stds = profile(gps, XC) if clf.weighted else (None, None)
    return (classifier_output(clf, H, XC, XT_bar, means, stds)
            - classifier_output(clf, H, XC, XT_star, means, stds))


def filtered_aps(density, XT_bar, XT_star):
    """Cell APS: per-row mean density over the adjusted treatments (all of
    them when none is adjusted), averaged within three standard deviations."""
    adjusted = np.abs(XT_star - XT_bar) > ADJUST_THRESHOLD
    none = ~adjusted.any(axis=1)
    adjusted[none] = True
    per_row = (density * adjusted).sum(axis=1) / adjusted.sum(axis=1)
    keep = np.abs(per_row - per_row.mean()) <= 3.0 * per_row.std()
    return float(per_row[keep].mean())


class RawSchema:
    """Per-treatment costs and bounds read straight from the schema file,
    with the box mapped to [0, 1] columns through the raw data's range."""

    def __init__(self, schema_path, treatment_names, raw_treatments):
        with open(schema_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        parents = [name.split("=")[0] for name in treatment_names]
        self.cost_up = np.array([float(raw["cost_up"][p]) for p in parents])
        self.cost_down = np.array([float(raw["cost_down"][p]) for p in parents])
        lo_raw = np.array([float(raw["lower"][p]) for p in parents])
        hi_raw = np.array([float(raw["upper"][p]) for p in parents])
        # indicator columns of a categorical treatment live in [0, 1] already
        lo_col = raw_treatments.min(axis=0)
        span = raw_treatments.max(axis=0) - lo_col
        self.lower = (lo_raw - lo_col) / span
        self.upper = (hi_raw - lo_col) / span

    def cost(self, delta):
        return (np.maximum(delta, 0.0) @ self.cost_up
                + np.maximum(-delta, 0.0) @ self.cost_down)


# --- checks ---------------------------------------------------------------

def check_gp(tally, label, params, Xq, means, stds, rtol=1e-7, atol=1e-9):
    """The program's GP moments at ``Xq`` equal the dense solve."""
    ref_m, ref_s = dense_gp_moments(params, Xq)
    ok = (np.allclose(means, ref_m, rtol=rtol, atol=atol)
          and np.allclose(stds, ref_s, rtol=rtol, atol=atol))
    err = max(np.max(np.abs(means - ref_m)), np.max(np.abs(stds - ref_s)))
    return tally.expect(ok, f"{label}: GP moments differ from a dense solve "
                            f"by {err:.3g}")


def check_policies(tally, label, raw_schema, XT_bar, XT_star, budget,
                   tol=1e-9):
    """Every policy lies in its box and costs at most the budget."""
    cost = raw_schema.cost(XT_star - XT_bar)
    in_box = np.all((XT_star >= raw_schema.lower - 1e-12)
                    & (XT_star <= raw_schema.upper + 1e-12), axis=1)
    ok = 0
    for i in range(len(XT_star)):
        ok += tally.expect(
            in_box[i] and cost[i] <= budget + tol,
            f"{label} row {i}: cost {cost[i]:.6g} vs budget {budget}, "
            f"in box {bool(in_box[i])}")
    return ok == len(XT_star)


def check_ifee(tally, label, ours, reported, atol=1e-9):
    """iFEE values (or a cell mean) equal the independent forward pass."""
    ours = np.atleast_1d(ours)
    reported = np.atleast_1d(np.asarray(reported, dtype=np.float64))
    err = float(np.max(np.abs(ours - reported))) if len(ours) else 0.0
    return tally.expect(ours.shape == reported.shape and err <= atol,
                        f"{label}: iFEE differs from the forward pass by {err:.3g}")


def check_aps(tally, label, gps, XC, XT_bar, XT_star, reported, atol=1e-9):
    """The filtered APS equals one computed from dense-solve densities."""
    ours = filtered_aps(gaussian_density(XT_star, *profile(gps, XC)),
                        XT_bar, XT_star)
    return tally.expect(abs(ours - reported) <= atol,
                        f"{label}: APS {reported!r} but the dense GP "
                        f"densities give {ours!r}")


def check_cell(tally, cell):
    """A sweep cell failed no rows; at budget 0 it moved nothing."""
    label = f"cell {cell['variant']} B={cell['budget']} lam={cell['lambda']}"
    ok = tally.expect(cell["n_failed"] == 0 and not cell["failed_rows"],
                      f"{label}: {cell['n_failed']} failed rows")
    if cell["budget"] == 0.0:
        ok &= tally.expect(
            cell["ifee_mean"] == 0.0 and not any(cell["freq_counts"]),
            f"{label}: zero budget gave iFEE {cell['ifee_mean']!r}, "
            f"adjustments {cell['freq_counts']}")
    return ok


def check_selected_arch(tally, label, meta):
    """The selected architecture is the argmin of the reported CV losses."""
    losses = meta["cv_losses"]
    best = min(losses, key=losses.get)
    return tally.expect(
        best == str(list(meta["arch"])) and meta["cv_loss"] == losses[best],
        f"{label}: selected {meta['arch']} (cv {meta['cv_loss']}) but the "
        f"lowest CV loss is {best} ({losses[best]})")
