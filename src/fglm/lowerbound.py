"""Hypercube lower-bound construction at desk scale.

The minimax risk of slope estimation is bounded below by testing between
slopes indexed by corners of a hypercube: coordinates j in J = {m+1,
..., 2m} of a process with spectrum theta_k = k^-alpha carry
coefficients eps * gamma_j * beta_j with beta_j = j^-beta, and flipping
one bit changes the squared distance by (eps beta_j)^2 while moving the
data distribution by a controlled Hellinger amount.  The cube is fixed
by m and the exponents alpha and beta; the amplitude eps is its only
size, and calibration sets it from n, so a scale factor on beta_j would
cancel.  This module computes the pieces that make that argument
quantitative: the corner slopes, Monte Carlo estimates of the affinity
between one-bit neighbors, and the resulting risk-bound value.

The affinity estimate averages 1 - sqrt(min(2, sum_i h_i^2)) over fresh
design draws, which lower-bounds the expected overlap between the two
product measures.  With eps calibrated so that n * eps^2 * beta_j^2 *
theta_j stays of order one, the estimate remains bounded away from zero
as n grows — the mechanism behind the rate-optimality of the bound.
"""
from __future__ import annotations

import math

import numpy as np

from .expfam import ExpFamilySpec, hellinger_sq_exact

__all__ = [
    "AssouadConfig",
    "hypercube_slope",
    "require_affinity_draws",
    "affinity_detail",
    "calibrated_eps",
    "assouad_bound_value",
    "affinity_study",
]


class AssouadConfig:
    """Hypercube of slope perturbations on coordinates m+1 .. 2m.

    The process spectrum is theta_k = k^-alpha and a corner's coefficient
    on coordinate j is eps_scale * j^-beta_s.  `eps_scale` may be zero,
    which collapses all corners to the zero slope.
    """

    __slots__ = ("m", "family", "alpha", "beta_s", "eps_scale")

    def __init__(
        self,
        m: int,
        family: ExpFamilySpec,
        alpha: float = 2.0,
        beta_s: float = 3.0,
        eps_scale: float = 1.0,
    ):
        if m < 1:
            raise ValueError("m must be a positive integer")
        if not (eps_scale >= 0.0 and math.isfinite(eps_scale)):
            raise ValueError("eps_scale must be finite and nonnegative")
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {alpha}")
        if not 0.0 < beta_s < math.inf:
            raise ValueError("beta_s must be finite and positive")
        self.m, self.family = m, family
        self.alpha, self.beta_s, self.eps_scale = alpha, beta_s, eps_scale

    @property
    def j_set(self) -> tuple[int, ...]:
        """Perturbed coordinates, 1-indexed."""
        return tuple(range(self.m + 1, 2 * self.m + 1))

    @property
    def beta_weights(self) -> np.ndarray:
        """beta_j = j^-beta for j in the perturbed set, decreasing."""
        j = np.arange(self.m + 1, 2 * self.m + 1, dtype=float)
        return j**-self.beta_s

    @property
    def theta_j(self) -> np.ndarray:
        """Process eigenvalues theta_j = j^-alpha on the perturbed set."""
        j = np.arange(self.m + 1, 2 * self.m + 1, dtype=float)
        return j**-self.alpha


def _check_gamma(cfg: AssouadConfig, gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (cfg.m,):
        raise ValueError(f"gamma must have exactly {cfg.m} bits")
    if not np.all((gamma == 0.0) | (gamma == 1.0)):
        raise ValueError("gamma entries must be 0 or 1")
    return gamma


def hypercube_slope(cfg: AssouadConfig, gamma) -> np.ndarray:
    """Slope at a hypercube corner: eps * gamma_j * beta_j on coordinate j."""
    gamma = _check_gamma(cfg, gamma)
    coeffs = np.zeros(2 * cfg.m)
    coeffs[cfg.m :] = cfg.eps_scale * gamma * cfg.beta_weights
    return coeffs


def require_affinity_draws(n_mc: int) -> None:
    """Refuse fewer than 2 affinity draws: a standard error needs two."""
    if n_mc < 2:
        raise ValueError(f"affinity draws n_mc must be at least 2, got {n_mc}")


def affinity_detail(
    cfg: AssouadConfig,
    n: int,
    j: int,
    gamma,
    n_mc: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo lower bound on the overlap of one-bit neighbors.

    Each draw samples a fresh n-row design with independent scores
    z_ik ~ N(0, theta_k) on the hypercube coordinates, computes the
    exact per-observation squared Hellinger distance between the
    responses under gamma and under gamma with bit j flipped, and
    evaluates 1 - sqrt(min(2, sum_i h_i^2)).  Returns the mean over the
    `n_mc` draws and its standard error.  j must lie in `cfg.j_set`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    require_affinity_draws(n_mc)
    weights = hypercube_slope(cfg, gamma)[cfg.m :]
    if j not in cfg.j_set:
        raise ValueError(f"flip index {j} outside coordinates {cfg.j_set}")
    pos = j - cfg.m - 1
    # flipping bit j removes or adds eps*beta_j on the j-th coordinate
    step = -weights[pos] if gamma[pos] else cfg.eps_scale * cfg.beta_weights[pos]
    scale = np.sqrt(cfg.theta_j)
    rng = np.random.default_rng(seed)
    vals = np.empty(n_mc)
    for d in range(n_mc):
        z = rng.standard_normal((n, cfg.m)) * scale
        lam = z @ weights
        delta = step * z[:, pos]
        s = min(2.0, float(np.sum(hellinger_sq_exact(cfg.family, lam, delta))))
        vals[d] = 1.0 - math.sqrt(s)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_mc))


def calibrated_eps(cfg: AssouadConfig, n: int) -> float:
    """eps making the most informative coordinate carry unit signal.

    Solves n * eps^2 * max_j beta_j^2 theta_j = 1; with decaying beta
    and theta the maximum sits at j = m+1.  Keeps the per-flip Hellinger
    sum of order one for every n, so the affinity floor is n-free.  An
    alpha or beta_s so large that eps or eps^2 leaves float64 is refused
    (beta_s from 325 up at alpha = 2, m = 2, n = 100).
    """
    if n < 1:
        raise ValueError("n must be positive")
    top = float(np.max(cfg.beta_weights**2 * cfg.theta_j))
    eps = 1.0 / math.sqrt(n * top) if top > 0.0 else math.inf
    if not 0.0 < eps * eps < math.inf:  # a float ** would raise OverflowError
        raise ValueError(
            f"alpha={cfg.alpha:g}, beta_s={cfg.beta_s:g}, m={cfg.m} and n={n} put the hypercube "
            "out of float range: the calibrated eps and its square must be finite and positive"
        )
    return eps


def assouad_bound_value(cfg: AssouadConfig, affinity_floor: float) -> float:
    """Risk lower bound implied by a uniform affinity floor.

    Every bit contributes half of a quarter of its squared separation
    (eps beta_j)^2 times the floor: (floor / 8) eps^2 sum_j beta_j^2.
    """
    if not 0.0 <= affinity_floor <= 1.0:
        raise ValueError("affinity_floor must lie in [0, 1]")
    eps_sq = cfg.eps_scale * cfg.eps_scale  # a float ** would raise OverflowError
    value = affinity_floor / 8.0 * eps_sq * float(np.sum(cfg.beta_weights**2))
    if not math.isfinite(value):
        raise ValueError(f"eps_scale {cfg.eps_scale:g} makes the bound value infinite")
    return value


def affinity_study(
    cfg: AssouadConfig,
    n_grid,
    n_mc: int = 200,
    seed: int = 0,
) -> list[dict]:
    """Calibrated affinity across sample sizes, one row per (n, j).

    For each n the config is re-calibrated via `calibrated_eps` and the
    exact-Hellinger affinity estimated at every flip coordinate from the
    all-ones corner.  Rows carry enough to check that the minimum
    affinity stays bounded away from zero as n grows.  Every n is
    calibrated before the first draw, so a refused one costs no Monte Carlo.
    """
    if cfg.m > 1000:  # the seed rule below gives each cell its own stream only up to here
        raise ValueError(
            f"m={cfg.m} is above 1000: cell (n_idx, j_idx) is seeded seed + 1000 * n_idx + "
            "j_idx, so two cells would share a random stream"
        )
    n_grid = [int(v) for v in n_grid]
    if any(v < 1 for v in n_grid):
        raise ValueError("sample sizes must be positive")
    if len(set(n_grid)) < len(n_grid):
        raise ValueError(f"sample sizes must not repeat, got {n_grid}")
    gamma = (1,) * cfg.m
    cubes = [AssouadConfig(cfg.m, cfg.family, cfg.alpha, cfg.beta_s, calibrated_eps(cfg, n))
             for n in n_grid]
    rows = []
    for n_idx, (n, scaled) in enumerate(zip(n_grid, cubes)):
        for j_idx, j in enumerate(scaled.j_set):
            mean, se = affinity_detail(
                scaled,
                n,
                j,
                gamma,
                n_mc=n_mc,
                seed=seed + 1000 * n_idx + j_idx,
            )
            rows.append(
                {
                    "n": n,
                    "j": j,
                    "eps": scaled.eps_scale,
                    "affinity": mean,
                    "se": se,
                    "bound_value": assouad_bound_value(scaled, max(mean, 0.0)),
                }
            )
    return rows
