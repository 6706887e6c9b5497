"""Ground-truth construction and data generation for the regression model.

The predictor is a Gaussian process X = mu + sum_k z_k phi_k with
independent scores z_k ~ N(0, theta_k) in the fixed cosine basis, and
the response is drawn from the chosen exponential family at natural
parameter lam = a + <X, B>.  Truth objects carry the eigenvalue decay
exponent alpha (theta_k = k^-alpha) and the slope decay exponent beta_s
(|b_k| <= radius * k^-beta_s), with the class radius chosen so that all
membership conditions hold by construction and are re-verified at build
time.  The mean, the eigenvalues and the slope are read-only arrays of
K coefficients each in the fixed cosine basis of `funcspace`.
"""
from __future__ import annotations

import numpy as np

from .expfam import ExpFamilySpec, sample_response

__all__ = [
    "GroundTruth",
    "Dataset",
    "check_smoothness",
    "make_ground_truth",
    "sample_dataset",
    "MU_MODES",
]

MU_MODES = ("zero", "bumps")  # the mean functions `make_ground_truth` can build


class GroundTruth:
    """Population quantities defining one simulation scenario.

    The mean, eigenvalue and slope arrays are read-only copies of those
    given; the constructor checks that they define a model in the class.
    """

    __slots__ = ("alpha", "beta_s", "radius", "intercept", "mean", "eigvals", "slope_coeffs",
                 "family")

    def __init__(
        self,
        alpha: float,
        beta_s: float,
        radius: float,
        intercept: float,
        mean: np.ndarray,
        eigvals: np.ndarray,
        slope_coeffs: np.ndarray,
        family: ExpFamilySpec,
    ):
        self.alpha, self.beta_s, self.radius, self.intercept = alpha, beta_s, radius, intercept
        self.mean = _read_only_copy(mean)
        self.eigvals = _read_only_copy(eigvals)
        self.slope_coeffs = _read_only_copy(slope_coeffs)
        self.family = family
        if not self.mean.shape == self.slope_coeffs.shape == self.eigvals.shape:
            raise ValueError("mean, slope_coeffs and eigvals must have the same length")
        _check_membership(self)

    @property
    def k_trunc(self) -> int:
        return self.eigvals.shape[0]


def _read_only_copy(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.flags.writeable = False
    return arr


def _check_membership(gt: GroundTruth) -> None:
    check_smoothness(gt.alpha, gt.beta_s)
    theta, b, r = gt.eigvals, gt.slope_coeffs, gt.radius
    # every comparison with NaN is False, and an infinite radius passes every envelope
    if not np.isfinite(gt.intercept):
        raise ValueError("intercept must be finite")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"class radius must be finite and positive, got {r}")
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(b))):
        raise ValueError("eigenvalues and slope coefficients must be finite")
    if not np.all(np.isfinite(gt.mean)):
        raise ValueError("mean coefficients must be finite")
    k = np.arange(1, gt.k_trunc + 1, dtype=float)  # numpy refuses ints to negative int powers
    if np.any(theta <= 0) or np.any(np.diff(theta) >= 0):
        raise ValueError("eigenvalues must be positive and strictly decreasing")
    if np.any(theta > r * k ** -gt.alpha):
        raise ValueError("eigenvalues exceed the decay envelope")
    # The adjacent gaps imply the pairwise condition theta_k - theta_j >=
    # (k^-alpha - j^-alpha) / r for all k < j: the left side is the sum of
    # the adjacent gaps i = k..j-1, each at least (alpha / r) i^(-alpha-1),
    # which by the mean value theorem is at least (i^-alpha - (i+1)^-alpha) / r,
    # and those terms sum to the right side.
    if np.any(theta[:-1] - theta[1:] < (gt.alpha / r) * k[:-1] ** (-gt.alpha - 1.0)):
        raise ValueError("adjacent eigenvalue gaps too small")
    if np.any(np.abs(b) > r * k ** -gt.beta_s):
        raise ValueError("slope coefficients exceed the decay envelope")
    if abs(gt.intercept) > r:
        raise ValueError("intercept exceeds the class radius")
    if np.sqrt(np.dot(gt.mean, gt.mean)) > r:
        raise ValueError("mean function exceeds the class radius")


def check_smoothness(alpha: float, beta_s: float) -> None:
    """Refuse decay exponents outside the model class: alpha > 1, beta_s > (alpha + 3) / 2."""
    if not np.isfinite(alpha) or alpha <= 1.0:
        raise ValueError("alpha must be finite and > 1")
    if not np.isfinite(beta_s) or beta_s <= (alpha + 3.0) / 2.0:
        raise ValueError("beta_s must be finite and > (alpha + 3) / 2")


def make_ground_truth(
    alpha: float,
    beta_s: float,
    family: ExpFamilySpec,
    k_trunc: int = 200,
    intercept: float = 0.5,
    mu_mode: str = "zero",
) -> GroundTruth:
    """Build the canonical truth: theta_k = k^-alpha, b_k = (-1)^(k+1) k^-beta_s.

    The radius is max(2^(alpha+1), 1 + |intercept| + ||mu||), which makes
    every class-membership condition hold; the GroundTruth constructor
    verifies them, the smoothness class and a finite radius included.
    """
    if k_trunc < 4:
        raise ValueError("k_trunc must be at least 4")
    if mu_mode not in MU_MODES:
        raise ValueError(f"mu_mode must be one of {MU_MODES}")

    k = np.arange(1, k_trunc + 1, dtype=float)
    # numpy powers overflow to inf, where a float power would raise, for
    # exponents outside the class; GroundTruth refuses them and the radius
    with np.errstate(over="ignore"):
        theta = k ** -alpha
        b = np.where(np.arange(k_trunc) % 2 == 0, 1.0, -1.0) * k ** -beta_s
        envelope = float(np.float64(2.0) ** (alpha + 1.0))
    mu = np.zeros(k_trunc)
    if mu_mode == "bumps":
        mu[:4] = np.arange(1.0, 5.0) ** -2.0
    radius = max(envelope, 1.0 + abs(intercept) + float(np.linalg.norm(mu)))
    gt = GroundTruth(
        alpha=alpha,
        beta_s=beta_s,
        radius=radius,
        intercept=intercept,
        mean=mu,
        eigvals=theta,
        slope_coeffs=b,
        family=family,
    )
    return gt


class Dataset:
    """One sample: predictor coefficients x (n x K), responses, true parameters.

    A sample is its maker's: the arrays passed in are held as they are,
    converted to float64 only where they are not float64 already.
    """

    __slots__ = ("x", "y", "lambda_true")

    def __init__(self, x: np.ndarray, y: np.ndarray, lambda_true: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.lambda_true = np.asarray(lambda_true, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be an n x K matrix")
        n = self.x.shape[0]
        if self.y.shape != (n,) or self.lambda_true.shape != (n,):
            raise ValueError("y and lambda_true must have one entry per row of x")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k_trunc(self) -> int:
        return self.x.shape[1]


def sample_dataset(gt: GroundTruth, n: int, seed: int) -> Dataset:
    """Draw n observations from the truth, deterministically in `seed`."""
    if n < 2:
        raise ValueError("need at least 2 observations")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, gt.k_trunc))
    x *= np.sqrt(gt.eigvals)  # scores of X - mu
    lam = gt.intercept + float(np.dot(gt.mean, gt.slope_coeffs)) + x @ gt.slope_coeffs
    x += gt.mean
    y = sample_response(gt.family, lam, rng)
    return Dataset(x=x, y=y, lambda_true=lam)

