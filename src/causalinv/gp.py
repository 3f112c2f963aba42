"""Per-treatment Gaussian-process assignment models and the propensity density.

Each treatment gets an independent GP regression of its observed values on the
control features (squared-exponential kernel, constant mean). The
reconstructed predictive distribution at a query point yields a Gaussian
density of any candidate treatment value -- the approximate propensity score
-- together with its analytic derivative.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)
STD_FLOOR = 1e-6
JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
TRIL_INV_LEAF = 32
HYPER_NAMES = ("lengthscale", "signal_variance", "noise_variance")
DEFAULT_RESTARTS = 5  # seeded starts of the hyperparameter search
# Adam ascent of the marginal likelihood: steps for each start's pilot run,
# steps for the best start's full run, and the step size
PILOT_STEPS = 15
FULL_STEPS = 60
ASCENT_LR = 0.08

SERIAL_FORMAT = "causalinv-gp-1"


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel hyperparameters (constant mean)."""

    lengthscale: float
    signal_variance: float
    noise_variance: float
    mean_mode: str = "constant"  # the only mode; kept as a GP document key

    def __post_init__(self):
        for name in HYPER_NAMES:
            value, zero_ok = getattr(self, name), name == "noise_variance"
            if not (0 < value < np.inf or zero_ok and value == 0):  # NaN fails
                raise ValueError(f"{name} must be "
                                 f"{'nonnegative' if zero_ok else 'positive'} "
                                 f"and finite, got {value}")
        if self.mean_mode != "constant":
            raise ValueError(f"unknown mean_mode {self.mean_mode!r}")


@dataclass(frozen=True)
class TreatmentGP:
    """One fitted assignment GP: hyperparameters plus cached training solve.

    ``chol_inv`` is the inverse of the Cholesky factor of the noisy kernel
    matrix; ``at_bound`` names the hyperparameters that ended the marginal
    likelihood search for ``kernel`` on one of its bounds, as
    :func:`search_hypers` reports them (empty when none was searched).
    """

    kernel: KernelConfig
    train_controls: np.ndarray
    train_targets: np.ndarray
    mean_const: float
    alpha: np.ndarray
    chol_inv: np.ndarray
    jitter: float
    log_marginal: float
    at_bound: tuple = ()


@dataclass(frozen=True)
class ApsResult:
    """Per-treatment propensity density at a policy's treatments."""

    density: np.ndarray


def _sqdist(A, B):
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _chol_with_jitter(K):
    """Cholesky of K, escalating an added diagonal jitter on failure.

    K is factored as given first (jitter 0); only a failure copies it to add
    the jitter on the diagonal.
    """
    for jit in JITTERS:
        Kj = K
        if jit:
            Kj = K.copy()
            Kj.ravel()[::K.shape[0] + 1] += jit
        try:
            return np.linalg.cholesky(Kj), jit
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "Cholesky factorization failed even with jitter 1e-4")


def _tril_inv(L, out=None):
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    With L = [[A, 0], [C, D]], L^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]: all
    the work above the leaves is matrix products. Every block is written in
    place into one zeroed ``out``, so the upper triangle is exactly zero.
    """
    out = np.zeros_like(L) if out is None else out
    n = L.shape[0]
    if n <= TRIL_INV_LEAF:
        out[...] = np.tril(np.linalg.inv(L))
        return out
    h = n // 2
    _tril_inv(L[:h, :h], out[:h, :h])
    _tril_inv(L[h:, h:], out[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])
    return out


def _factorize(resid, ls, sv, nv, sqd):
    """Kernel matrix, inverse Cholesky factor, alpha and log marginal likelihood
    of the training rows whose squared distances are ``sqd``.

    GPML Algorithm 2.1 (Rasmussen & Williams 2006) with the triangular solves
    done by the explicit inverse of the factor. The noise variance, floored at
    5% of the target variance during the search, bounds the condition number
    of the noisy kernel matrix, which keeps the explicit inverse accurate.
    """
    m = sqd.shape[0]
    # the operations of sv * exp(-0.5 * sqd / ls^2) + nv I, in their order,
    # with one n x n array for K and one for its noisy copy
    K = -0.5 * sqd
    K /= ls * ls
    np.exp(K, out=K)
    K *= sv
    Kn = K.copy()
    Kn.ravel()[::m + 1] += nv
    L, jit = _chol_with_jitter(Kn)
    L_inv = _tril_inv(L)
    alpha = L_inv.T @ (L_inv @ resid)
    lml = (-0.5 * float(resid @ alpha)
           - float(np.sum(np.log(np.diag(L))))
           - 0.5 * m * np.log(2.0 * np.pi))
    return K, L_inv, alpha, lml, jit


def _lml_and_grad(resid, log_theta, sqd):
    """Log marginal likelihood and its gradient in (log ls, log sv, log nv)."""
    ls, sv, nv = np.exp(log_theta)
    try:
        K, L_inv, alpha, lml, _ = _factorize(resid, ls, sv, nv, sqd)
    except np.linalg.LinAlgError:
        return -np.inf, np.zeros(3)
    K_inv = L_inv.T @ L_inv
    # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j)
    #                   = 0.5 (alpha^T dK_j alpha - sum(K^-1 * dK_j)),
    # in log-parameter coordinates (GPML Eq. 5.9); one scratch array holds
    # dK/d log ls = K * sqd / ls^2 and then each elementwise product
    work = np.divide(sqd, ls * ls)
    np.multiply(K, work, out=work)
    a_KS_a = float(alpha @ work @ alpha)
    tr_KS = float(np.sum(np.multiply(K_inv, work, out=work)))
    g_ls = 0.5 * (a_KS_a - tr_KS)
    g_sv = 0.5 * (float(alpha @ K @ alpha)
                  - float(np.sum(np.multiply(K_inv, K, out=work))))
    g_nv = 0.5 * nv * (float(alpha @ alpha) - float(np.trace(K_inv)))
    return lml, np.array([g_ls, g_sv, g_nv])


def _ascend(resid, theta0, sqd, steps, bounds):
    """Adam ascent on the log marginal likelihood; best iterate visited wins."""
    theta = np.clip(theta0, bounds[:, 0], bounds[:, 1])
    best_lml, best_theta = -np.inf, theta.copy()
    m_t = np.zeros(3)
    v_t = np.zeros(3)
    for it in range(1, steps + 1):
        lml, grad = _lml_and_grad(resid, theta, sqd)
        if lml > best_lml:
            best_lml, best_theta = lml, theta.copy()
        if not np.all(np.isfinite(grad)):
            break
        m_t = 0.9 * m_t + 0.1 * grad
        v_t = 0.999 * v_t + 0.001 * grad * grad
        mh = m_t / (1.0 - 0.9 ** it)
        vh = v_t / (1.0 - 0.999 ** it)
        theta = theta + ASCENT_LR * mh / (np.sqrt(vh) + 1e-8)
        theta = np.clip(theta, bounds[:, 0], bounds[:, 1])
    try:  # the closing iterate needs only its value
        lml = _factorize(resid, *np.exp(theta), sqd)[3]
    except np.linalg.LinAlgError:
        lml = -np.inf
    if lml > best_lml:
        best_lml, best_theta = lml, theta.copy()
    return best_lml, best_theta


def _training_rows(controls, treatment_values):
    """A GP's training controls and targets as float arrays, checked."""
    controls = np.asarray(controls, dtype=np.float64)
    t = np.asarray(treatment_values, dtype=np.float64).ravel()
    if controls.ndim != 2:
        raise ValueError("controls must be a 2-D matrix")
    m = controls.shape[0]
    if m < 2:
        raise ValueError("need at least 2 training rows to fit a GP")
    if t.shape[0] != m:
        raise ValueError("treatment_values length does not match controls")
    if not np.all(np.isfinite(controls)) or not np.all(np.isfinite(t)):
        raise ValueError("training data must be finite")
    return controls, t


def search_hypers(controls, treatment_values, start: KernelConfig,
                  seed: int = 0, restarts: int = DEFAULT_RESTARTS) -> tuple:
    """Multi-start first-order ascent of the log marginal likelihood.

    Every start (``start``, a median-distance heuristic and ``restarts``
    seeded draws) gets a short pilot ascent; the best pilot continues for the
    full iteration budget. The best iterate ever visited wins, so the result
    is never worse than the starting hyperparameters. Returns the
    :class:`KernelConfig` found and the names of the hyperparameters that
    ended on a bound; nothing is factorized for the result.

    Search bounds are data-driven. In particular the noise variance is floored
    at 5% of the target variance and the lengthscale at 15% of the median
    pairwise distance: unbounded, the marginal likelihood of near-discrete
    treatments is happy to memorize the training rows (noise -> 0), which
    would make the propensity density at training points arbitrarily peaked
    while staying flat at query points.
    """
    controls, t = _training_rows(controls, treatment_values)
    resid = t - float(np.mean(t))
    sqd = _sqdist(controls, controls)
    med = np.sqrt(np.median(sqd[sqd > 0])) if np.any(sqd > 0) else 1.0
    var_t = max(float(np.var(resid)), 1e-8)
    bounds = np.log(np.array([
        [0.15 * med, 50.0 * med],
        [1e-3 * var_t, 30.0 * var_t],
        [0.05 * var_t, 2.0 * var_t],
    ]))
    rng = np.random.default_rng(seed)

    starts = [np.log([start.lengthscale, start.signal_variance,
                      max(start.noise_variance, 1e-9)])]
    starts.append(np.log([med, var_t, 0.1 * var_t]))  # median-heuristic start
    for _ in range(restarts):
        starts.append(np.array([
            rng.uniform(np.log(0.2 * med), np.log(10.0 * med)),
            rng.uniform(np.log(0.05 * var_t), np.log(5.0 * var_t)),
            rng.uniform(np.log(0.05 * var_t), np.log(0.8 * var_t)),
        ]))

    best_lml, best_theta = -np.inf, starts[0]
    for theta0 in starts:
        lml, theta = _ascend(resid, theta0, sqd, PILOT_STEPS, bounds)
        if lml > best_lml:
            best_lml, best_theta = lml, theta
    lml, theta = _ascend(resid, best_theta, sqd, FULL_STEPS, bounds)
    if lml > best_lml:
        best_lml, best_theta = lml, theta
    on_bound = (best_theta <= bounds[:, 0]) | (best_theta >= bounds[:, 1])
    ls, sv, nv = np.exp(best_theta)
    return (KernelConfig(lengthscale=float(ls), signal_variance=float(sv),
                         noise_variance=float(nv)),
            tuple(name for name, hit in zip(HYPER_NAMES, on_bound) if hit))


def fit_gp(controls, treatment_values, config: KernelConfig) -> TreatmentGP:
    """Factorize one treatment's assignment GP on the control features at the
    hyperparameters ``config``; :func:`search_hypers` finds them."""
    controls, t = _training_rows(controls, treatment_values)
    mean_const = float(np.mean(t))
    _, L_inv, alpha, lml, jit = _factorize(
        t - mean_const, config.lengthscale, config.signal_variance,
        config.noise_variance, _sqdist(controls, controls))
    return TreatmentGP(kernel=config, train_controls=controls, train_targets=t,
                       mean_const=mean_const, alpha=alpha, chol_inv=L_inv,
                       jitter=jit, log_marginal=lml)


def predict_batch(gp: TreatmentGP, X_C) -> tuple:
    """Predictive mean and standard deviation at each row of ``X_C``.

    The variance includes the fitted observation noise (the propensity density
    is over observed treatment values); the std is floored at 1e-6.
    """
    X_C = np.asarray(X_C, dtype=np.float64)
    ls = gp.kernel.lengthscale
    sv = gp.kernel.signal_variance
    sqd = _sqdist(X_C, gp.train_controls)
    ks = sv * np.exp(-0.5 * sqd / (ls * ls))
    means = gp.mean_const + ks @ gp.alpha
    v = gp.chol_inv @ ks.T
    var = sv + gp.kernel.noise_variance - np.sum(v * v, axis=0)
    stds = np.sqrt(np.maximum(var, STD_FLOOR * STD_FLOOR))
    return means, np.maximum(stds, STD_FLOOR)


def treatment_profile(gps, x_C) -> tuple:
    """Each treatment GP's predictive (mean, std) at the controls ``x_C``.

    One control vector gives two ``(|T|,)`` arrays; a matrix of N control rows
    gives two ``(N, |T|)`` arrays.
    """
    x_C = np.asarray(x_C, dtype=np.float64)
    X_C = np.atleast_2d(x_C)
    pairs = [predict_batch(gp, X_C) for gp in gps]
    means = np.column_stack([m for m, _ in pairs])
    stds = np.column_stack([s for _, s in pairs])
    if x_C.ndim == 1:
        return means[0], stds[0]
    return means, stds


def aps(x_T, means, stds) -> np.ndarray:
    """Approximate propensity score: Gaussian density of each treatment value
    under its reconstructed predictive distribution, independently per
    treatment."""
    x_T = np.asarray(x_T, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if not np.all(stds > 0):  # also rejects NaN
        raise ValueError("predictive stds must be positive")
    return _density(x_T - means, stds)


def _density(dev, stds):
    """:func:`aps` of the deviations ``x_T - means``; float arrays, no checks."""
    z = dev / stds
    return np.exp(-0.5 * z * z) / (SQRT_2PI * stds)


def _density_slope(density, dev, stds):
    """d :func:`_density` / d x_T, from the density and ``dev = x_T - means``."""
    return -density * dev / (stds * stds)


def gp_to_dict(gp: TreatmentGP) -> dict:
    """Model document of a GP: every :class:`KernelConfig` field and the rows."""
    return {"format": SERIAL_FORMAT, **asdict(gp.kernel),
            "train_controls": gp.train_controls.tolist(),
            "train_targets": gp.train_targets.tolist()}


def gp_from_dict(doc: dict) -> TreatmentGP:
    if doc.get("format") != SERIAL_FORMAT:
        raise ValueError(f"unsupported GP document format {doc.get('format')!r}")
    config = KernelConfig(**{f.name: doc[f.name] for f in fields(KernelConfig)})
    # alpha and the inverse Cholesky factor are recomputed, not stored
    return fit_gp(np.asarray(doc["train_controls"], dtype=np.float64),
                  np.asarray(doc["train_targets"], dtype=np.float64), config)
