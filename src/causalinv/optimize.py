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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gp import ApsResult, make_aps_result, treatment_profile
from .nets import grad_wrt_treatments

# consecutive iterations without a ``tol`` improvement that end a search
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
    budget: float
    step: float = 0.05
    max_iters: int = 300
    tol: float = 1e-7
    lam: float = 0.0
    variant: Variant = Variant.G

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.step < 0:
            raise ValueError("step size must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
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


def cost(z, c_up, c_down):
    """Asymmetric deviation cost: increases priced by c_up, decreases by c_down.

    One deviation vector gives a float; a stack of them, one per row, gives
    an array with one cost per row.
    """
    z = np.asarray(z, dtype=np.float64)
    total = np.sum(np.asarray(c_up) * np.maximum(z, 0.0)
                   + np.asarray(c_down) * np.maximum(-z, 0.0), axis=-1)
    return total if total.ndim else float(total)


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
    if not np.all((l <= x_bar) & (x_bar <= u)):
        raise ValueError("x_bar lies outside the box [l, u]")

    clipped = np.clip(x, l, u)
    if cost(clipped - x_bar, c_up, c_down) <= B:
        return clipped

    d = x - x_bar
    c_dir = np.where(d > 0, c_up, np.where(d < 0, c_down, 0.0))
    costed = c_dir > 0
    if B <= 0.0:
        # budget forces exactly zero costed deviation
        return np.where(costed, x_bar, clipped)

    c_safe = np.where(costed, c_dir, 1.0)
    reach = np.abs(d) / c_safe  # theta at which a costed coordinate hits x_bar
    leave = reach - np.abs(clipped - x_bar) / c_safe  # ... leaves its box face

    def shrunk(theta):
        # c * (reach - theta), not |d| - theta * c: past its reach a costed
        # coordinate sits exactly at x_bar, so psi ends at exactly 0
        mag = np.where(costed, c_dir * np.maximum(reach - theta, 0.0), np.abs(d))
        return np.clip(x_bar + np.sign(d) * mag, l, u)

    kinks = np.unique(np.concatenate([[0.0], leave[costed], reach[costed]]))
    # psi falls from about cost(clipped) > B at theta = 0 to 0 at the last
    # kink, linearly between kinks
    psi = cost(shrunk(kinks[:, None]) - x_bar, c_up, c_down)
    return shrunk(np.interp(B, psi[::-1], kinks[::-1]))


def _value_and_direction(f, H, x_C, x_T, means, stds, cfg):
    """Objective value and descent direction of ``cfg.variant`` at ``x_T``,
    from one pass of the classifier and the indirect estimator; ``means`` and
    ``stds`` are the assignment GPs' predictive moments at ``x_C``."""
    chain = cfg.variant in (Variant.FPRIME_OPT, Variant.G)
    val, d = grad_wrt_treatments(f, H, x_C, x_T, (means, stds),
                                 include_aps_chain=chain)
    if cfg.variant is Variant.G:
        val += cfg.lam * float(np.sum((x_T - means) ** 2 / (2.0 * stds * stds)))
        d = d + cfg.lam * (x_T - means) / (stds * stds)
    return val, d


def optimize(x_bar, f, H, gps, schema, cfg: OptimizationConfig,
             profile=None) -> PolicyResult:
    """Projected gradient descent from the instance's current treatments.

    The assignment GPs' predictive moments depend only on the controls and are
    computed once (or passed in as ``profile``); the propensity density and
    its derivative are refreshed at every iterate, and one pass of the
    networks gives both the iterate's objective value and the direction of
    the next step. Stops at ``max_iters`` or once the best objective has not
    improved by ``tol`` for :data:`PATIENCE` consecutive iterations, and
    returns the best-objective iterate visited.
    """
    variant = cfg.variant
    if variant.needs_weighted != f.weighted:
        kind = "weighted" if variant.needs_weighted else "unweighted"
        raise ValueError(f"variant {variant.value!r} requires a {kind} classifier")

    x_bar = np.asarray(x_bar, dtype=np.float64)
    x_C = x_bar[list(schema.control_idx)]
    x_bar_T = x_bar[list(schema.treatment_idx)]
    means, stds = treatment_profile(gps, x_C) if profile is None else profile
    c_up, c_down = schema.cost_up, schema.cost_down
    l, u = schema.lower, schema.upper

    # project() returns a new array, so the iterates are never aliased
    x_T = x_bar_T
    val, d = _value_and_direction(f, H, x_C, x_T, means, stds, cfg)
    trace, iterates = [val], [x_T]
    best = stall = 0
    for m in range(cfg.max_iters):
        if not np.all(np.isfinite(d)):
            raise OptimizationError(f"non-finite gradient at iteration {m}")
        x_T = project(x_T - cfg.step * d, x_bar_T, c_up, c_down, cfg.budget, l, u)
        val, d = _value_and_direction(f, H, x_C, x_T, means, stds, cfg)
        stall = 0 if val < trace[best] - cfg.tol else stall + 1
        if val < trace[best]:
            best = len(trace)
        trace.append(val)
        iterates.append(x_T)
        if stall >= PATIENCE:
            break
    best_x = iterates[best]
    return PolicyResult(
        x_T_star=best_x,
        objective_trace=np.asarray(trace),
        aps_star=make_aps_result(best_x, means, stds),
        iterations_used=len(trace) - 1,
        cost_spent=cost(best_x - x_bar_T, c_up, c_down),
        iterates=np.asarray(iterates),
    )
