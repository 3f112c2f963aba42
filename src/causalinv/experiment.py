"""Two-model evaluation protocol, iFEE, filtered APS averages and sweeps.

The dataset is split in half. One half trains the models used to optimize
policies; the other half trains a deliberately biased validation model and
supplies the instances being optimized. Each validation instance is optimized
with the optimization-side models and the improvement is scored with the
validation-side models: the individual future estimated effect is the
validation classifier's output at the original treatments minus its output at
the optimized treatments, so positive values mean the policy lowered the
predicted probability of the undesirable class.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .data import Dataset, split_half
from .gp import KernelConfig, fit_gp, treatment_profile
from .nets import (DEFAULT_ARCH_GRID, DEFAULT_BATCH, DEFAULT_EPOCHS, DEFAULT_LR,
                   predict_proba, train_classifier, train_indirect)
from .optimize import OptimizationConfig, OptimizationError, Variant, optimize

ADJUST_THRESHOLD = 1e-3
DEFAULT_KERNEL = KernelConfig(lengthscale=2.0, signal_variance=1.0,
                              noise_variance=0.05)


@dataclass(frozen=True)
class TrainSettings:
    """Training hyperparameters shared by both protocol sides."""

    folds: int = 5
    arch_grid: tuple = DEFAULT_ARCH_GRID
    epochs: int = DEFAULT_EPOCHS
    lr: float = DEFAULT_LR
    batch: int = DEFAULT_BATCH
    gp_restarts: int = 5


@dataclass(frozen=True)
class SideModels:
    """Everything one side of the protocol fits: f, f', H and the GPs."""

    f_weighted: object
    f_plain: object
    H: object
    gps: tuple

    def classifier(self, variant):
        """The classifier ``variant`` optimizes or is scored with."""
        return self.f_weighted if variant.needs_weighted else self.f_plain


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (variant, budget, lambda) sweep cell."""

    variant: str
    budget: float
    lam: float
    ifee_mean: float
    aps_mean: float
    kept: int
    n_instances: int
    n_failed: int
    failed_rows: tuple
    freq_counts: tuple


@dataclass(frozen=True)
class ExperimentReport:
    cells: tuple
    treatment_names: tuple
    seed: int
    budgets: tuple
    lambdas: tuple
    variants: tuple
    n_opt: int
    n_val: int
    config: dict = field(default_factory=dict)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def fit_side_models(half: Dataset, seed: int,
                    settings: TrainSettings = TrainSettings()) -> SideModels:
    """Fit GPs, both classifiers and the indirect estimator on one half."""
    Xc = half.controls()
    Xt = half.treatments()
    gps = tuple(
        fit_gp(Xc, Xt[:, j], DEFAULT_KERNEL, optimize_hypers=True,
               seed=_derive_seed(seed, 11, j), restarts=settings.gp_restarts)
        for j in range(half.schema.n_treatments))
    sgd = dict(epochs=settings.epochs, lr=settings.lr, batch=settings.batch)
    H = train_indirect(half, seed=_derive_seed(seed, 13), **sgd)
    f_w, f_p = (train_classifier(half, weighted=weighted, gps=gps,
                                 folds=settings.folds,
                                 arch_grid=settings.arch_grid,
                                 seed=_derive_seed(seed, part), **sgd)
                for weighted, part in ((True, 17), (False, 19)))
    return SideModels(f_weighted=f_w, f_plain=f_p, H=H, gps=gps)


def ifee(f_val, H_val, gps_val, schema, x_bar, x_star, weighted: bool,
         profile=None) -> float:
    """Validation-model improvement: output at x_bar minus output at x_star.

    Only a classifier that weights its treatments (``f_val.weighted``) needs
    the validation GPs' profile at the row's controls, and it is computed
    here unless passed in as ``profile``. ``weighted`` is ignored: it is kept
    only so that existing keyword callers still work.
    """
    x_bar = np.asarray(x_bar, dtype=np.float64)
    x_C = x_bar[list(schema.control_idx)]
    x_bar_T = x_bar[list(schema.treatment_idx)]
    if f_val.weighted and profile is None:
        profile = treatment_profile(gps_val, x_C)
    return (predict_proba(f_val, H_val, x_C, x_bar_T, profile)
            - predict_proba(f_val, H_val, x_C, x_star, profile))


def _filter_3sigma(values) -> tuple:
    """Mean of the values within three standard deviations of their mean."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("no values to average")
    mu, sd = float(np.mean(vals)), float(np.std(vals))
    keep = np.abs(vals - mu) <= 3.0 * sd
    return float(np.mean(vals[keep])), int(np.count_nonzero(keep))


def _policy_aps(density, x_star, x_bar_T, threshold):
    """Instance-level APS: mean density over the treatments the policy
    actually adjusts; over all treatments when nothing was adjusted."""
    adjusted = np.abs(x_star - x_bar_T) > threshold
    return float(np.mean(density[adjusted])) if adjusted.any() else float(np.mean(density))


def _cell_grid(variants, budgets, lambdas, step, max_iters):
    """The :class:`OptimizationConfig` of each sweep cell, in deterministic
    order; lambda only varies for variant g. A bad value raises here."""
    cells = []
    for v in variants:
        v = Variant(v)
        lams = tuple(lambdas) if v is Variant.G else (0.0,)
        for b in budgets:
            for lam in lams:
                cells.append(OptimizationConfig(
                    budget=float(b), step=step, max_iters=max_iters,
                    lam=float(lam), variant=v))
    return cells


def _score_row(val, opt_models, val_models, cells, threshold, i):
    """Optimize validation row ``i`` for every sweep cell and score it: per
    cell ``(ifee, instance APS, adjusted mask)``, or None if the search failed."""
    schema = val.schema
    x_bar = val.X[i]
    x_C = x_bar[list(schema.control_idx)]
    x_bar_T = x_bar[list(schema.treatment_idx)]
    opt_profile = treatment_profile(opt_models.gps, x_C)
    val_profile = treatment_profile(val_models.gps, x_C)
    per_cell = []
    for cfg in cells:
        variant = cfg.variant
        try:
            policy = optimize(x_bar, opt_models.classifier(variant), opt_models.H,
                              opt_models.gps, schema, cfg, profile=opt_profile)
        except OptimizationError:
            per_cell.append(None)
            continue
        eff = ifee(val_models.classifier(variant), val_models.H, val_models.gps,
                   schema, x_bar, policy.x_T_star,
                   weighted=variant.needs_weighted, profile=val_profile)
        inst_aps = _policy_aps(policy.aps_star.density, policy.x_T_star,
                               x_bar_T, threshold)
        adjusted = np.abs(policy.x_T_star - x_bar_T) > threshold
        per_cell.append((eff, inst_aps, adjusted))
    return per_cell


def run_experiment(ds: Dataset, budgets, lambdas, variants, seed: int,
                   settings: TrainSettings = TrainSettings(),
                   step: float = 0.05, max_iters: int = 300,
                   threshold: float = ADJUST_THRESHOLD,
                   jobs: int = 1) -> ExperimentReport:
    """Full protocol: half split, two model sides, per-instance optimization.

    Every validation-half instance is optimized with the optimization-side
    models for every sweep cell, scored with the validation-side models, and
    aggregated into per-cell average iFEE, filtered average APS and
    treatment-adjustment counts. Failed optimizations are excluded from the
    averages and reported per cell, never silently dropped; a cell in which
    every row failed reports NaN averages.
    """
    if ds.norm_params is None:
        raise ValueError("dataset must be normalized first")
    if not budgets:
        raise ValueError("empty budget sweep")
    if ds.schema.n_treatments < 1:
        raise ValueError("need at least one treatment")
    variants = tuple(Variant(v) for v in variants)
    lambdas = tuple(float(x) for x in lambdas) or (0.0,)
    cells = _cell_grid(variants, budgets, lambdas, step, max_iters)

    opt_half, val_half = split_half(ds, seed)
    opt_models = fit_side_models(opt_half, _derive_seed(seed, 1), settings)
    val_models = fit_side_models(val_half, _derive_seed(seed, 2), settings)

    score = partial(_score_row, val_half, opt_models, val_models, cells,
                    threshold)
    rows = range(val_half.n)
    if jobs > 1:
        # one chunk per worker, so each worker unpickles the models once
        with ProcessPoolExecutor(max_workers=min(jobs, len(rows))) as ex:
            per_row = list(ex.map(score, rows,
                                  chunksize=math.ceil(len(rows) / jobs)))
    else:
        per_row = list(map(score, rows))

    n_t = ds.schema.n_treatments
    cell_stats = []
    for ci, cfg in enumerate(cells):
        effs, apses = [], []
        freq = np.zeros(n_t, dtype=np.int64)
        failed = []
        for i, per_cell in enumerate(per_row):
            rec = per_cell[ci]
            if rec is None:
                failed.append(i)
                continue
            eff, inst_aps, adjusted = rec
            effs.append(eff)
            apses.append(inst_aps)
            freq += adjusted
        if effs:
            ifee_mean = float(np.mean(effs))
            aps_mean, kept = _filter_3sigma(apses)
        else:  # every row failed: report the cell rather than abort the sweep
            ifee_mean, aps_mean, kept = float("nan"), float("nan"), 0
        cell_stats.append(CellStats(
            variant=cfg.variant.value, budget=cfg.budget, lam=cfg.lam,
            ifee_mean=ifee_mean, aps_mean=aps_mean, kept=kept,
            n_instances=len(effs), n_failed=len(failed),
            failed_rows=tuple(failed), freq_counts=tuple(int(c) for c in freq)))

    return ExperimentReport(
        cells=tuple(cell_stats),
        treatment_names=ds.schema.treatment_names(),
        seed=seed,
        budgets=tuple(float(b) for b in budgets),
        lambdas=lambdas,
        variants=tuple(v.value for v in variants),
        n_opt=opt_half.n,
        n_val=val_half.n,
        config={"step": step, "max_iters": max_iters,
                "tol": OptimizationConfig.tol, "threshold": threshold,
                **asdict(settings)},
    )


def report_to_dict(report: ExperimentReport) -> dict:
    doc = asdict(report)
    for cell in doc["cells"]:
        cell["lambda"] = cell.pop("lam")
    return doc


def write_json(doc, path) -> None:
    """The one JSON writer of reports, manifests, models and policies."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def write_report(report: ExperimentReport, path) -> None:
    write_json(report_to_dict(report), path)


def write_sweep_csv(report: ExperimentReport, path) -> None:
    """Tidy sweep curves: one row per (cell, metric)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "budget", "lambda", "metric", "value"])
        for c in report.cells:
            writer.writerow([c.variant, repr(c.budget), repr(c.lam),
                             "ifee", repr(c.ifee_mean)])
            writer.writerow([c.variant, repr(c.budget), repr(c.lam),
                             "aps", repr(c.aps_mean)])
