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
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .data import Dataset, split_half, write_json
from .gp import (DEFAULT_RESTARTS, KernelConfig, fit_gp, search_hypers,
                 treatment_profile)
from .nets import (BATCH, DEFAULT_ARCH_GRID, DEFAULT_EPOCHS, DEFAULT_FOLDS, LR,
                   predict_proba, train_classifier, train_indirect)
from .optimize import TOL, OptimizationConfig, OptimizationError, Variant, optimize

# a policy adjusts a treatment that it moves by more than this
ADJUST_THRESHOLD = 1e-3
DEFAULT_KERNEL = KernelConfig(lengthscale=2.0, signal_variance=1.0,
                              noise_variance=0.05)


@dataclass(frozen=True)
class TrainSettings:
    """Training hyperparameters shared by both protocol sides."""

    folds: int = DEFAULT_FOLDS
    arch_grid: tuple = DEFAULT_ARCH_GRID
    epochs: int = DEFAULT_EPOCHS
    gp_restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        """Reject, before anything is fitted, a value that would train
        nothing, train on NaN or fail after the GP fits. Each message names
        the command-line flag that sets the value."""
        for flag, value, least in (("--folds", self.folds, 2),
                                   ("--epochs", self.epochs, 1),
                                   ("--gp-restarts", self.gp_restarts, 0)):
            if value < least:
                raise ValueError(f"{flag} must be at least {least}, got {value}")
        if not self.arch_grid:
            raise ValueError("--arch: the architecture grid must not be empty")
        seen = set()
        for arch in map(tuple, self.arch_grid):
            name = "x".join(str(w) for w in arch)
            if any(width < 1 for width in arch):
                raise ValueError(f"--arch widths must be at least 1, got {name}")
            if arch in seen:
                raise ValueError(f"--arch {name} is given more than once")
            seen.add(arch)

    def record(self) -> dict:
        """The record of a run's settings: every field plus LR and BATCH."""
        return {**asdict(self), "lr": LR, "batch": BATCH}


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


def _check_folds(settings: TrainSettings, *halves: Dataset) -> None:
    """Reject, before any fit, more folds than a training half has rows."""
    n = min(half.n for half in halves)
    if settings.folds > n:
        raise ValueError(f"--folds must be at most {n}, the rows of a "
                         f"training half, got {settings.folds}")


def _spare_cores() -> bool:
    """Whether a second process making BLAS calls has cores of its own: the
    usable cores are at least twice the threads one BLAS call runs on. That
    count is the first positive integer among the variables OpenBLAS reads
    it from, else one thread per core. Two processes whose BLAS threads
    outnumber the cores slow each other down, as waiting threads spin."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return 2 * int(value) <= cores
    return False  # a thread per core: the BLAS already keeps each core busy


def _reply(fn, conn):
    """Body of a forked child: send ``(True, fn())`` or ``(False, error)``."""
    try:
        conn.send((True, fn()))
    except BaseException as exc:  # re-raised in the parent
        conn.send((False, exc))


def _shared(calls) -> list:
    """The results of ``calls``, in order: the first runs in this process,
    each other in a child forked for it, so only results are pickled. A
    child's exception is raised again with its own type; a child that dies
    without a result raises ``RuntimeError`` naming its exit code. If
    anything raises, every child is terminated; each is joined. Without
    fork, or in a daemonic process (a pool worker or a child of this one),
    which may not start children, every call runs here, in order."""
    import multiprocessing  # not at import: only a fit or a sweep forks
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [call() for call in calls]
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for call in calls[1:]:
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_reply, args=(call, send), daemon=True)
            child.start()
            send.close()
            children.append((child, receive))
        results = [calls[0]()]
        for child, receive in children:
            try:
                ok, value = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a forked child exited with code "
                                   f"{child.exitcode} without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


def fit_side_models(half: Dataset, seed: int,
                    settings: TrainSettings = TrainSettings()) -> SideModels:
    """Fit GPs, both classifiers and the indirect estimator on one half.

    Two splits, each with a forked child (:func:`_shared`). First this
    process searches the GP hyperparameters of treatments 0, 2, ... and the
    child those of 1, 3, ... if the BLAS leaves cores to spare
    (:func:`_spare_cores`; else this process searches all), then factorizes
    every GP in treatment order. Then it fits H and the weighted classifier
    while the child trains the plain one. Each fit draws from its own
    derived seed, so the models are the ones one process fits."""
    _check_folds(settings, half)
    Xc = half.controls()
    Xt = half.treatments()
    k = half.schema.n_treatments

    def search(js):
        return {j: search_hypers(Xc, Xt[:, j], DEFAULT_KERNEL,
                                 seed=_derive_seed(seed, 11, j),
                                 restarts=settings.gp_restarts) for j in js}

    def classifier(gps, part):
        return train_classifier(half, gps, settings.folds, settings.arch_grid,
                                _derive_seed(seed, part), settings.epochs)

    splits = ([range(0, k, 2), range(1, k, 2)] if k > 1 and _spare_cores()
              else [range(k)])
    shares = _shared([partial(search, js) for js in splits])
    found = {j: hypers for share in shares for j, hypers in share.items()}
    gps = tuple(replace(fit_gp(Xc, Xt[:, j], kernel), at_bound=at_bound)
                for j, (kernel, at_bound) in sorted(found.items()))

    def weighted_side():
        return (train_indirect(half, seed=_derive_seed(seed, 13),
                               epochs=settings.epochs), classifier(gps, 17))

    (H, f_w), f_p = _shared([weighted_side, partial(classifier, None, 19)])
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


def _cell_grid(variants, budgets, lambdas, step, max_iters):
    """The :class:`OptimizationConfig` of each sweep cell, in deterministic
    order; lambda only varies for variant g. A bad or repeated value raises
    here, naming its command-line flag."""
    variants = [Variant(v) for v in variants]
    for flag, values in (("--variant", [v.value for v in variants]),
                         ("--budget", [float(b) for b in budgets]),
                         ("--lambda", [float(lam) for lam in lambdas])):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{flag} {value} is given more than once")
    cells = []
    for v in variants:
        lams = tuple(lambdas) if v is Variant.G else (0.0,)
        for b in budgets:
            for lam in lams:
                cells.append(OptimizationConfig(
                    budget=float(b), step=step, max_iters=max_iters,
                    lam=float(lam), variant=v))
    return cells


def _search_row(val, opt_models, cells, i):
    """Search validation row ``i`` for every sweep cell with the
    optimization-side models: per cell the policy's ``(x_T_star, APS
    density)``, or None if the search failed. Each (variant, lambda)
    column's budgets are searched from the largest down, so that a search
    can reuse the larger budget's one when that never binds."""
    x_bar = val.X[i]
    profile = treatment_profile(opt_models.gps,
                                x_bar[list(val.schema.control_idx)])
    found = [None] * len(cells)
    wider = {}  # (variant, lambda): the column's last successful search
    for ci in sorted(range(len(cells)), key=lambda ci: -cells[ci].budget):
        cfg = cells[ci]
        column = (cfg.variant, cfg.lam)
        try:
            policy = optimize(x_bar, opt_models.classifier(cfg.variant),
                              opt_models.H, opt_models.gps, val.schema, cfg,
                              profile=profile, reuse=wider.get(column))
        except OptimizationError:
            continue
        wider[column] = policy
        found[ci] = (policy.x_T_star, policy.aps_star.density)
    return found


def run_experiment(ds: Dataset, budgets, lambdas, variants, seed: int,
                   settings: TrainSettings = TrainSettings(),
                   step: float = OptimizationConfig.step,
                   max_iters: int = OptimizationConfig.max_iters,
                   jobs: int = 1) -> ExperimentReport:
    """Full protocol: half split, two model sides, per-instance optimization.

    Two steps. The search step optimizes every validation-half instance for
    every sweep cell with the optimization-side models alone, in up to
    ``jobs`` contiguous shares of rows, the first in this process and each
    other in a forked child (:func:`_shared`). The scoring step scores each
    cell with the validation-side models: average iFEE, filtered average APS
    and treatment-adjustment counts. Failed optimizations are reported per
    cell and left out of its averages, which are NaN if every row failed.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    if ds.norm_params is None:
        raise ValueError("dataset must be normalized first")
    if not budgets:
        raise ValueError("empty sweep: at least one --budget is required")
    if ds.schema.n_treatments < 1:
        raise ValueError("need at least one treatment")
    variants = tuple(Variant(v) for v in variants)
    lambdas = tuple(float(x) for x in lambdas) or (0.0,)
    cells = _cell_grid(variants, budgets, lambdas, step, max_iters)

    opt_half, val_half = split_half(ds, seed)
    _check_folds(settings, opt_half, val_half)
    opt_models = fit_side_models(opt_half, _derive_seed(seed, 1), settings)
    val_models = fit_side_models(val_half, _derive_seed(seed, 2), settings)

    # search step: the only work split over rows
    def search(rows):
        return [_search_row(val_half, opt_models, cells, i) for i in rows]

    shares = np.array_split(np.arange(val_half.n), min(jobs, val_half.n))
    per_row = sum(_shared([partial(search, rows) for rows in shares]), [])

    # scoring step: each cell once, over all of its rows
    schema = val_half.schema
    val_profiles = [treatment_profile(val_models.gps, x[list(schema.control_idx)])
                    for x in val_half.X]
    cell_stats = []
    for ci, cfg in enumerate(cells):
        found = [row[ci] for row in per_row]
        ok = [i for i, policy in enumerate(found) if policy is not None]
        f_val = val_models.classifier(cfg.variant)
        effs = [ifee(f_val, val_models.H, val_models.gps, schema, val_half.X[i],
                     found[i][0], weighted=cfg.variant.needs_weighted,
                     profile=val_profiles[i]) for i in ok]
        XT_star, density = np.reshape(
            [found[i] for i in ok], (len(ok), 2, schema.n_treatments)).swapaxes(0, 1)
        adjusted = np.abs(XT_star - val_half.treatments()[ok]) > ADJUST_THRESHOLD
        # instance APS: over the adjusted treatments, or all if none is
        over = adjusted | ~adjusted.any(axis=1, keepdims=True)
        inst_aps = np.where(over, density, 0.0).sum(axis=1) / over.sum(axis=1)
        if ok:
            ifee_mean = float(np.mean(effs))
            aps_mean, kept = _filter_3sigma(inst_aps)
        else:  # every row failed: report the cell rather than abort the sweep
            ifee_mean, aps_mean, kept = float("nan"), float("nan"), 0
        cell_stats.append(CellStats(
            variant=cfg.variant.value, budget=cfg.budget, lam=cfg.lam,
            ifee_mean=ifee_mean, aps_mean=aps_mean, kept=kept,
            n_instances=len(ok), n_failed=len(found) - len(ok),
            failed_rows=tuple(i for i, p in enumerate(found) if p is None),
            freq_counts=tuple(int(c) for c in adjusted.sum(axis=0))))

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
                "tol": TOL, "threshold": ADJUST_THRESHOLD,
                **settings.record()},
    )


def report_to_dict(report: ExperimentReport) -> dict:
    doc = asdict(report)
    for cell in doc["cells"]:
        cell["lambda"] = cell.pop("lam")
    return doc


def write_report(report: ExperimentReport, path) -> None:
    write_json(report_to_dict(report), path)


def write_sweep_csv(report: ExperimentReport, path) -> None:
    """Tidy sweep curves: one row per (cell, metric)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "budget", "lambda", "metric", "value"])
        for c in report.cells:
            for metric, value in (("ifee", c.ifee_mean), ("aps", c.aps_mean)):
                writer.writerow([c.variant, repr(c.budget), repr(c.lam),
                                 metric, repr(value)])
