"""Hypercube lower-bound construction at desk scale.

The minimax risk of slope estimation is bounded below by testing between
slopes indexed by corners of a hypercube: coordinates j in J = {m+1,
..., 2m} carry coefficients eps * gamma_j * beta_j with beta_j = R
j^-beta, and flipping one bit changes the squared distance by (eps
beta_j)^2 while moving the data distribution by a controlled Hellinger
amount.  This module computes the pieces that make that argument
quantitative: the corner slopes, Monte Carlo estimates of the affinity
between one-bit neighbors, and the resulting risk-bound value.

The affinity estimate averages 1 - sqrt(min(2, sum_i h_i^2)) over fresh
design draws, which lower-bounds the expected overlap between the two
product measures.  With eps calibrated so that n * eps^2 * beta_j^2 *
theta_j stays of order one, the estimate remains bounded away from zero
as n grows — the mechanism behind the rate-optimality of the bound.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .expfam import ExpFamilySpec, hellinger_sq_exact
from .funcspace import FunctionRep

__all__ = [
    "AssouadConfig",
    "standard_config",
    "hypercube_slope",
    "flip",
    "AffinityEstimate",
    "affinity_detail",
    "calibrated_eps",
    "calibrated_config",
    "assouad_bound_value",
    "affinity_study",
]


@dataclass(frozen=True)
class AssouadConfig:
    """Hypercube of slope perturbations on coordinates m+1 .. 2m.

    `theta` lists process eigenvalues by 1-indexed coordinate and must
    cover the hypercube coordinates (length >= 2m).  `eps_scale` may be
    zero, which collapses all corners to the zero slope.
    """

    m: int
    eps_scale: float
    radius: float
    beta_s: float
    family: ExpFamilySpec
    theta: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not (self.eps_scale >= 0.0 and math.isfinite(self.eps_scale)):
            raise ValueError("eps_scale must be finite and nonnegative")
        if not (0.0 < self.radius < math.inf and 0.0 < self.beta_s < math.inf):
            raise ValueError("radius and beta_s must be finite and positive")
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or theta.shape[0] < 2 * self.m:
            raise ValueError("theta must cover coordinates 1 .. 2m")
        if np.any(theta <= 0) or not np.all(np.isfinite(theta)):
            raise ValueError("theta entries must be positive and finite")
        object.__setattr__(self, "theta", theta.copy())
        self.theta.setflags(write=False)

    @property
    def j_set(self) -> tuple[int, ...]:
        """Perturbed coordinates, 1-indexed."""
        return tuple(range(self.m + 1, 2 * self.m + 1))

    @property
    def beta_weights(self) -> np.ndarray:
        """beta_j = R j^-beta for j in the perturbed set, decreasing."""
        j = np.arange(self.m + 1, 2 * self.m + 1, dtype=float)
        return self.radius * j**-self.beta_s

    @property
    def theta_j(self) -> np.ndarray:
        return self.theta[self.m : 2 * self.m]


def standard_config(
    m: int,
    family: ExpFamilySpec,
    alpha: float = 2.0,
    beta_s: float = 3.0,
    eps_scale: float = 1.0,
    radius: float = 1.0,
) -> AssouadConfig:
    """Config over the polynomially decaying spectrum theta_k = k^-alpha."""
    k = np.arange(1, 2 * m + 1, dtype=float)
    return AssouadConfig(
        m=m,
        eps_scale=eps_scale,
        radius=radius,
        beta_s=beta_s,
        family=family,
        theta=k**-alpha,
    )


def _check_gamma(cfg: AssouadConfig, gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (cfg.m,):
        raise ValueError(f"gamma must have exactly {cfg.m} bits")
    if not np.all((gamma == 0.0) | (gamma == 1.0)):
        raise ValueError("gamma entries must be 0 or 1")
    return gamma


def hypercube_slope(cfg: AssouadConfig, gamma) -> FunctionRep:
    """Slope at a hypercube corner: eps * gamma_j * beta_j on coordinate j."""
    gamma = _check_gamma(cfg, gamma)
    coeffs = np.zeros(2 * cfg.m)
    coeffs[cfg.m :] = cfg.eps_scale * gamma * cfg.beta_weights
    return FunctionRep(coeffs)


def flip(cfg: AssouadConfig, gamma, j: int) -> tuple[int, ...]:
    """Corner with bit j (1-indexed coordinate in J) flipped."""
    gamma = _check_gamma(cfg, gamma)
    if j not in cfg.j_set:
        raise ValueError(f"flip index {j} outside coordinates {cfg.j_set}")
    out = gamma.astype(int).tolist()
    pos = j - cfg.m - 1
    out[pos] = 1 - out[pos]
    return tuple(out)


@dataclass(frozen=True)
class AffinityEstimate:
    mean: float
    se: float
    n_mc: int


def affinity_detail(
    cfg: AssouadConfig,
    n: int,
    j: int,
    gamma,
    n_mc: int = 200,
    seed: int = 0,
) -> AffinityEstimate:
    """Monte Carlo lower bound on the overlap of one-bit neighbors.

    Each draw samples a fresh n-row design with independent scores
    z_ik ~ N(0, theta_k) on the hypercube coordinates, computes the
    exact per-observation squared Hellinger distance between the
    responses under gamma and under gamma with bit j flipped, and
    evaluates 1 - sqrt(min(2, sum_i h_i^2)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    weights = hypercube_slope(cfg, gamma).coeffs[cfg.m :]
    pos = j - cfg.m - 1
    # flipping bit j adds or removes eps*beta_j from the j-th coordinate
    step = hypercube_slope(cfg, flip(cfg, gamma, j)).coeffs[j - 1] - weights[pos]
    scale = np.sqrt(cfg.theta_j)
    rng = np.random.default_rng(seed)
    vals = np.empty(n_mc)
    for d in range(n_mc):
        z = rng.standard_normal((n, cfg.m)) * scale
        lam = z @ weights
        delta = step * z[:, pos]
        s = min(2.0, float(np.sum(hellinger_sq_exact(cfg.family, lam, delta))))
        vals[d] = 1.0 - math.sqrt(s)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
    return AffinityEstimate(mean=mean, se=se, n_mc=n_mc)


def calibrated_eps(cfg: AssouadConfig, n: int) -> float:
    """eps making the most informative coordinate carry unit signal.

    Solves n * eps^2 * max_j beta_j^2 theta_j = 1; with decaying beta
    and theta the maximum sits at j = m+1.  Keeps the per-flip Hellinger
    sum of order one for every n, so the affinity floor is n-free.  A
    radius so large or small that eps is not finite and positive in
    float64 is refused.
    """
    if n < 1:
        raise ValueError("n must be positive")
    with np.errstate(over="ignore"):  # an overflow is refused below
        top = float(np.max(cfg.beta_weights**2 * cfg.theta_j))
    eps = 1.0 / math.sqrt(n * top) if top > 0.0 else math.inf
    if not 0.0 < eps < math.inf:
        raise ValueError(
            f"radius {cfg.radius:g} is out of range: the calibrated eps at n={n} "
            "is not finite and positive"
        )
    return eps


def calibrated_config(cfg: AssouadConfig, n: int) -> AssouadConfig:
    return dataclasses.replace(cfg, eps_scale=calibrated_eps(cfg, n))


def assouad_bound_value(cfg: AssouadConfig, affinity_floor: float) -> float:
    """Risk lower bound implied by a uniform affinity floor.

    Every bit contributes half of a quarter of its squared separation
    (eps beta_j)^2 times the floor: (floor / 8) eps^2 sum_j beta_j^2.
    """
    if not 0.0 <= affinity_floor <= 1.0:
        raise ValueError("affinity_floor must lie in [0, 1]")
    with np.errstate(over="ignore"):  # an overflow is refused below
        value = affinity_floor / 8.0 * cfg.eps_scale**2 * float(np.sum(cfg.beta_weights**2))
    if not math.isfinite(value):
        raise ValueError(f"radius {cfg.radius:g} is out of range: the bound value is not finite")
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
    affinity stays bounded away from zero as n grows.
    """
    n_grid = [int(v) for v in n_grid]
    if any(v < 1 for v in n_grid):
        raise ValueError("sample sizes must be positive")
    if len(set(n_grid)) < len(n_grid):
        raise ValueError(f"sample sizes must not repeat, got {n_grid}")
    gamma = (1,) * cfg.m
    rows = []
    for n_idx, n in enumerate(n_grid):
        scaled = calibrated_config(cfg, n)
        for j_idx, j in enumerate(scaled.j_set):
            detail = affinity_detail(
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
                    "affinity": detail.mean,
                    "se": detail.se,
                    "bound_value": assouad_bound_value(scaled, max(detail.mean, 0.0)),
                }
            )
    return rows
