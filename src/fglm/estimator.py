"""Truncated maximum-likelihood slope estimation.

The estimator projects each predictor onto the leading estimated
principal components, fits a GLM by damped Newton iteration on the
concave log likelihood

    L(g) = sum_i [ y_i eta_i - psi(eta_i) ],   eta_i = g_0 + <g, scores_i>,

over N + 1 coefficients, then keeps only the first m score coefficients
to rebuild the slope function.  The truncation levels follow the rate
calculation: m grows like n^(1 / (alpha + 2 beta_s)) while N grows a
little faster, its exponent chosen strictly inside the admissible
interval ((alpha + 2 beta_s - 1)^-1, (2 + 2 alpha)^-1).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .datagen import Dataset, GroundTruth, check_smoothness
from .expfam import ExpFamilySpec
from .fpca import spectral_estimate
from .funcspace import norm_sq

__all__ = [
    "TuningRule",
    "NewtonConfig",
    "MLEFit",
    "FitResult",
    "zeta_interval",
    "tuning",
    "fit_mle",
    "estimate_slope",
    "loss",
]

MIN_OBSERVATIONS = 8


class TuningRule:
    """Constants for the truncation levels; zeta=None takes the midpoint."""

    __slots__ = ("c_m", "c_N", "zeta")

    def __init__(self, c_m: float = 1.0, c_N: float = 2.0, zeta: float | None = None):
        if not (0 < c_m < math.inf and 0 < c_N < math.inf):
            raise ValueError("tuning constants must be finite and positive")
        self.c_m, self.c_N, self.zeta = c_m, c_N, zeta

    def __eq__(self, other):
        if not isinstance(other, TuningRule):
            return NotImplemented
        return (self.c_m, self.c_N, self.zeta) == (other.c_m, other.c_N, other.zeta)

    def __repr__(self):
        return f"TuningRule(c_m={self.c_m!r}, c_N={self.c_N!r}, zeta={self.zeta!r})"


_SEPARATION_THRESHOLD = 1e3  # see fit_mle


class NewtonConfig:
    """Newton stopping rule: step-size tolerance `tol` and at most `max_iter` steps."""

    __slots__ = ("tol", "max_iter")

    def __init__(self, tol: float = 1e-10, max_iter: int = 100):
        if not 0 < tol < math.inf or max_iter < 1:
            raise ValueError("Newton tol must be finite and > 0, and max_iter >= 1")
        self.tol, self.max_iter = tol, max_iter

    def __eq__(self, other):
        if not isinstance(other, NewtonConfig):
            return NotImplemented
        return (self.tol, self.max_iter) == (other.tol, other.max_iter)

    def __repr__(self):
        return f"NewtonConfig(tol={self.tol!r}, max_iter={self.max_iter!r})"


class MLEFit(NamedTuple):
    """Raw GLM fit: coefficient vector (intercept first) plus solver state."""

    coefs: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    separated: bool
    objective: float


class FitResult(NamedTuple):
    """The Newton fit of the N + 1 coefficients, MLEFit's fields in its
    order, plus the truncation levels (m, N = n_components) and the slope
    they give.

    `slope` holds the K coefficients phi_tilde[:, :m] @ coefs[1 : m + 1] of
    the estimated slope in the fixed basis, read-only.
    """

    coefs: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    separated: bool
    objective: float
    slope: np.ndarray
    m: int
    n_components: int


def zeta_interval(alpha: float, beta_s: float) -> tuple[float, float]:
    """Open interval of admissible exponents for the fitting dimension N."""
    check_smoothness(alpha, beta_s)
    lo = 1.0 / (alpha + 2.0 * beta_s - 1.0)
    hi = 1.0 / (2.0 + 2.0 * alpha)
    if not lo < hi:
        raise ValueError("empty exponent interval; needs beta_s > (alpha + 3) / 2")
    return lo, hi


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def tuning(n: int, alpha: float, beta_s: float, rule: TuningRule = TuningRule()) -> tuple[int, int]:
    """Truncation levels (m, N) for sample size n."""
    if n < MIN_OBSERVATIONS:
        raise ValueError(f"tuning needs n >= {MIN_OBSERVATIONS}")
    lo, hi = zeta_interval(alpha, beta_s)
    zeta = 0.5 * (lo + hi) if rule.zeta is None else rule.zeta
    if not lo < zeta < hi:
        raise ValueError(f"zeta must lie strictly inside ({lo:.6g}, {hi:.6g})")
    m = max(1, _round_half_up(rule.c_m * n ** (1.0 / (alpha + 2.0 * beta_s))))
    if m > n - 2:
        raise ValueError("sample too small for the requested truncation level")
    n_comp = _round_half_up(rule.c_N * n**zeta)
    n_comp = min(max(n_comp, m), n - 2)
    return m, n_comp


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve hess @ d = grad, escalating a Levenberg shift if needed.

    The shift only safeguards the linear solve; convergence is judged on
    the gradient alone.
    """
    p = hess.shape[0]
    tau = 0.0
    base = 1e-8 * np.trace(hess) / p
    if base <= 0 or not np.isfinite(base):
        base = 1e-8
    eye = np.eye(p)
    for _ in range(64):
        try:
            chol = np.linalg.cholesky(hess + tau * eye if tau else hess)
        except np.linalg.LinAlgError:
            tau = base if tau == 0.0 else 2.0 * tau
            continue
        half = np.linalg.solve(chol, grad)
        return np.linalg.solve(chol.T, half)
    raise RuntimeError("hessian could not be factored even with shift")


def fit_mle(
    y: np.ndarray,
    scores: np.ndarray,
    family: ExpFamilySpec,
    config: NewtonConfig = NewtonConfig(),
) -> MLEFit:
    """Maximize the exponential-family log likelihood by damped Newton.

    `scores` is the n x N design without the intercept column; the fit
    always includes an intercept as coefficient 0.  Steps are halved
    until the objective does not decrease, so the objective is
    nondecreasing along accepted iterates up to float evaluation noise
    (near the maximum the predicted gain is far below one ulp of the
    objective, so exact monotone acceptance would stall the quadratic
    phase).  In a family whose maximizer may not exist
    (`family.mle_may_not_exist`: Poisson, Bernoulli), a coefficient
    escaping beyond `_SEPARATION_THRESHOLD` (1e3) stops the solver with
    separated=True and converged=False; a gaussian maximizer always
    exists, and its coefficients may be as large as the responses.
    Newton starts from the intercept
    `family.init_natural(mean(y), n)` and zero slopes, where the objective
    depends on the responses alone: one that is not finite there (say, a
    response of 1e200 in the gaussian family overflows it) is bad input,
    refused with ValueError and no floating-point warning.  A non-finite
    objective after that is a hard error.
    """
    y = np.asarray(y, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != y.shape[0]:
        raise ValueError("scores must be n x N with one row per response")
    n, n_comp = scores.shape
    if n < n_comp + 2:
        raise ValueError("need n >= N + 2 observations")
    design = np.column_stack([np.ones(n), scores])
    p = n_comp + 1

    def objective(eta):
        return float(y @ eta - np.sum(family.psi(eta)))

    g = np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):
        g[0] = family.init_natural(float(y.mean()), n)
        eta = design @ g
        obj = objective(eta)
    if not np.isfinite(obj):
        raise ValueError("log likelihood of the responses is not finite at the initial point")

    tol = config.tol * n
    iterations = 0
    separated = False
    grad = design.T @ (y - family.dpsi(eta))
    grad_norm = float(np.max(np.abs(grad)))

    for _ in range(config.max_iter):
        if grad_norm <= tol:
            break
        weights = family.d2psi(eta)
        hess = (design * weights[:, None]).T @ design
        direction = _newton_direction(hess, grad)

        step = 1.0
        accepted = False
        flat = 16.0 * np.finfo(float).eps * (1.0 + abs(obj))  # objective ulp scale
        for _ in range(60):
            g_try = g + step * direction
            eta_try = design @ g_try
            obj_try = objective(eta_try)
            if np.isfinite(obj_try) and obj_try >= obj - flat:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no ascent direction survives damping: numerically stationary
            break
        g, eta, obj = g_try, eta_try, obj_try
        iterations += 1
        grad = design.T @ (y - family.dpsi(eta))
        grad_norm = float(np.max(np.abs(grad)))
        if family.mle_may_not_exist and np.max(np.abs(g)) > _SEPARATION_THRESHOLD:
            separated = True
            break

    converged = grad_norm <= tol and not separated
    if not np.isfinite(obj):
        raise RuntimeError("log likelihood diverged")
    return MLEFit(
        coefs=g,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        separated=separated,
        objective=obj,
    )


def estimate_slope(
    ds: Dataset,
    family: ExpFamilySpec,
    alpha: float,
    beta_s: float,
    rule: TuningRule = TuningRule(),
    config: NewtonConfig = NewtonConfig(),
    *,
    overwrite_x: bool = False,
) -> FitResult:
    """Full pipeline: spectral estimate, tuning, GLM fit, slope rebuild.

    A sample is its maker's: `overwrite_x=True` lends `ds.x` to
    `spectral_estimate`, which centres it in place where it is writable and
    contiguous; pass it only for a sample that is not used again.
    """
    if ds.n < MIN_OBSERVATIONS:
        raise ValueError(f"estimation needs at least {MIN_OBSERVATIONS} observations")
    m, n_comp = tuning(ds.n, alpha, beta_s, rule)
    # the truncated basis cannot supply more components than it has
    m = min(m, ds.k_trunc)
    n_comp = min(n_comp, ds.k_trunc)
    _, phi_tilde, scores = spectral_estimate(ds, n_comp, overwrite_x=overwrite_x)
    fit = fit_mle(ds.y, scores, family, config)
    slope = phi_tilde[:, :m] @ fit.coefs[1 : m + 1]
    slope.flags.writeable = False
    return FitResult(*fit, slope, m, n_comp)


def loss(slope_hat: np.ndarray, gt: GroundTruth) -> float:
    """Squared L2 distance between estimated and true slope: by Parseval, the
    squared distance between their coefficient arrays, which must both have
    the truth's K entries."""
    if np.shape(slope_hat) != gt.slope_coeffs.shape:
        raise ValueError(f"slope estimate must have the truth's {gt.k_trunc} coefficients")
    return norm_sq(slope_hat - gt.slope_coeffs)
