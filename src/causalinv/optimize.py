"""Budget-constrained treatment-policy optimization by projected gradient descent.

The feasible set couples a box per treatment with an asymmetric-cost budget:
deviations from the instance's current treatments are priced per direction and
their total must stay within the budget. Projection onto that set is exact:
the cost of the shrunk point is piecewise linear in the multiplier of the
weighted-l1 constraint, so the multiplier is solved in closed form between
the sorted breakpoints.

Four descent directions are supported: the plain classifier gradient, the
propensity-weighted classifier with the weighting held constant, the same
with the propensity chain rule applied, and the chain-rule direction plus a
quadratic pull toward each treatment's expected assignment value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .gp import ApsResult, aps, treatment_profile
from .nets import _clip, grad_wrt_treatments

# a search stops after PATIENCE iterations that improve its best by <= TOL
TOL = 1e-7
PATIENCE = 5


class Variant(str, Enum):
    """Objective / update-rule choices for the policy optimizer."""

    NON_CAUSAL_F = "f"
    FPRIME_NOOPT = "fprime-noopt"
    FPRIME_OPT = "fprime-opt"
    G = "g"

    @property
    def needs_weighted(self):
        return self is not Variant.NON_CAUSAL_F


class OptimizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizationConfig:
    """One search's settings; the home of the step and max_iters defaults."""

    budget: float
    step: float = 0.05
    max_iters: int = 300
    lam: float = 0.0
    variant: Variant = Variant.G

    def __post_init__(self):
        # NaN fails or NaNs every search; an infinite budget is legal
        if not self.budget >= 0:
            raise ValueError(f"--budget must be nonnegative, got {self.budget}")
        for flag, what, value in (("--step", "step size", self.step),
                                  ("--lambda", "lambda", self.lam)):
            if not (value >= 0 and np.isfinite(value)):
                raise ValueError(f"{flag}: {what} must be nonnegative and "
                                 f"finite, got {value}")
        if self.max_iters < 1:
            raise ValueError(f"--max-iters must be at least 1, got {self.max_iters}")
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass(frozen=True)
class PolicyResult:
    """Optimized treatment vector plus the trajectory that produced it."""

    x_T_star: np.ndarray
    objective_trace: np.ndarray
    aps_star: ApsResult
    iterations_used: int
    cost_spent: float
    iterates: np.ndarray  # (iterations_used + 1, |T|), starting at x_bar_T
    cfg: OptimizationConfig  # the search's settings


def cost(z, c_up, c_down):
    """Asymmetric deviation cost: increases priced by c_up, decreases by c_down.

    One deviation vector gives a scalar; a stack of them, one per row, gives
    an array with one cost per row.
    """
    return np.add.reduce(c_up * np.maximum(z, 0.0)
                         + c_down * np.maximum(np.negative(z), 0.0), axis=-1)


def project(x, x_bar, c_up, c_down, B, l, u) -> np.ndarray:
    """Euclidean projection onto {x : cost(x - x_bar) <= B, l <= x <= u}.

    Requires ``l <= x_bar <= u``. Box-clips first; if the clipped point is
    within budget it is returned. Otherwise each coordinate is
    soft-thresholded toward ``x_bar`` with threshold theta times its
    directional cost, then box-clipped; coordinates whose cost in the active
    direction is zero are never shrunk. The cost of that point is piecewise
    linear and nonincreasing in theta, with kinks where a coordinate comes
    off its box face and where it reaches ``x_bar``. The cost is evaluated
    at the sorted kinks and theta is solved exactly on the segment where it
    crosses B: the weighted, boxed form of the l1-ball projection of Duchi
    et al. (ICML 2008) and Condat (Math. Prog. 2016).
    """
    x = np.asarray(x, dtype=np.float64)
    x_bar = np.asarray(x_bar, dtype=np.float64)
    c_up = np.asarray(c_up, dtype=np.float64)
    c_down = np.asarray(c_down, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if not ((l <= x_bar) & (x_bar <= u)).all():
        raise ValueError("x_bar lies outside the box [l, u]")

    clipped = _clip(x, l, u)
    z = clipped - x_bar
    if cost(z, c_up, c_down) <= B:
        return clipped

    d = x - x_bar
    c_dir = np.where(d > 0, c_up, np.where(d < 0, c_down, 0.0))
    costed = c_dir > 0
    if B <= 0.0:
        # budget forces exactly zero costed deviation
        return np.where(costed, x_bar, clipped)

    c_safe = np.where(costed, c_dir, 1.0)
    size, sign = np.abs(d), np.sign(d)
    reach = size / c_safe  # theta at which a costed coordinate hits x_bar
    leave = reach - np.abs(z) / c_safe  # ... leaves its box face

    def shrunk(theta):
        # c * (reach - theta), not |d| - theta * c: past its reach a costed
        # coordinate sits exactly at x_bar, so psi ends at exactly 0
        mag = np.where(costed, c_dir * np.maximum(reach - theta, 0.0), size)
        return _clip(x_bar + sign * mag, l, u)

    kinks = np.concatenate(([0.0], leave[costed], reach[costed]))
    kinks.sort()
    kinks = kinks[np.concatenate(([True], kinks[1:] != kinks[:-1]))]
    # psi falls from about cost(clipped) > B at theta = 0 to 0 at the last
    # kink, linearly between kinks
    psi = cost(shrunk(kinks[:, None]) - x_bar, c_up, c_down)
    return shrunk(np.interp(B, psi[::-1], kinks[::-1]))


def optimize(x_bar, f, H, gps, schema, cfg: OptimizationConfig,
             profile=None, reuse: PolicyResult | None = None) -> PolicyResult:
    """Projected gradient descent from the instance's current treatments.

    The assignment GPs' predictive moments depend only on the controls and are
    computed once (or passed in as ``profile``); the propensity density and
    its derivative are refreshed at every iterate, and one pass of the
    networks gives both the iterate's objective value and the direction of
    the next step. Stops at ``max_iters`` or once the best objective has not
    improved by :data:`TOL` for :data:`PATIENCE` consecutive iterations, and
    returns the best-objective iterate visited.

    ``reuse`` may be the same row's search, with the same models and settings
    but a larger budget B'. If every one of its iterates costs at most
    ``cfg.budget``, it is returned unchanged: ``project`` returned each of
    them as the clipped point, as it does at this budget too, so this search
    would take the same path. A binding iterate costs B' only to within
    about 1e-12 * max(1, B'), so B' must exceed this budget by more than
    1e-9 * max(1, B').
    """
    variant = cfg.variant
    if variant.needs_weighted != f.weighted:
        kind = "weighted" if variant.needs_weighted else "unweighted"
        raise ValueError(f"variant {variant.value!r} requires a {kind} classifier")

    x_bar = np.asarray(x_bar, dtype=np.float64)
    x_C = x_bar[list(schema.control_idx)]
    x_bar_T = x_bar[list(schema.treatment_idx)]
    means, stds = profile = (treatment_profile(gps, x_C) if profile is None
                             else profile)
    c_up, c_down, l, u = (np.asarray(a, dtype=np.float64) for a in (
        schema.cost_up, schema.cost_down, schema.lower, schema.upper))
    if reuse is not None:
        if replace(reuse.cfg, budget=cfg.budget) != cfg:
            raise ValueError("reuse must be a search with the same variant, "
                             "step, max_iters and lambda")
        B, B_reuse = cfg.budget, reuse.cfg.budget
        if (B_reuse > B + 1e-9 * max(1.0, B_reuse)
                and cost(reuse.iterates - x_bar_T, c_up, c_down).max() <= B):
            return reuse
    chain = variant in (Variant.FPRIME_OPT, Variant.G)
    # g's pull adds lam * sum((x_T - means)^2 / (2 var)) and its gradient
    pull, var, two_var = variant is Variant.G, stds * stds, 2.0 * stds * stds

    # project() returns a new array, so the iterates are never aliased
    x_T = x_bar_T
    trace, iterates = [], []
    best = stall = 0
    for m in range(cfg.max_iters + 1):
        val, d = grad_wrt_treatments(f, H, x_C, x_T, profile, chain)
        if pull:
            dev = x_T - means
            val += cfg.lam * float(np.add.reduce(dev * dev / two_var))
            d = d + cfg.lam * dev / var
        if trace:
            stall = 0 if val < trace[best] - TOL else stall + 1
            if val < trace[best]:
                best = len(trace)
        trace.append(val)
        iterates.append(x_T)
        if stall >= PATIENCE or m == cfg.max_iters:
            break
        if not np.isfinite(d).all():
            raise OptimizationError(f"non-finite gradient at iteration {m}")
        x_T = project(x_T - cfg.step * d, x_bar_T, c_up, c_down, cfg.budget, l, u)
    best_x = iterates[best]
    return PolicyResult(
        x_T_star=best_x,
        objective_trace=np.asarray(trace),
        aps_star=ApsResult(aps(best_x, means, stds)),
        iterations_used=len(trace) - 1,
        cost_spent=float(cost(best_x - x_bar_T, c_up, c_down)),
        iterates=np.asarray(iterates),
        cfg=cfg,
    )
