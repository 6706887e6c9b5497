"""Functional principal components from observed predictor curves.

Everything happens in coefficient space.  `spectral_estimate` centres
the sample once, at the coefficient average, and takes both the
covariance ((n - 1) divisor) and the scores from that centred sample.
Its SpectralEstimate holds the eigenpairs and scores only; `sample_mean`
and `sample_cov` give the mean and covariance on their own.
Eigenvalues are sorted descending and clamped to be nonnegative.  The
scores of the requested leading components (the slope estimator asks
for the N it fits) have exact zero column means, and their Gram matrix
reproduces the estimated eigenvalues.

Eigenvectors are LAPACK's ascending columns reversed and copied to C
order.  BLAS sums a matrix-vector product such as the slope rebuild
phi_tilde[:, :m] @ coefs in an order that depends on the layout, so the
last bits of the study losses do too; the stock-study CSVs are pinned
to C order.  SpectralEstimate holds read-only views of its arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .funcspace import FunctionRep

__all__ = [
    "SpectralEstimate",
    "sample_mean",
    "sample_cov",
    "eigendecompose",
    "compute_scores",
    "spectral_estimate",
]


@dataclass(frozen=True)
class SpectralEstimate:
    """All eigenpairs, and the centred scores of the requested leading
    components of one sample."""

    theta_tilde: np.ndarray
    phi_tilde: np.ndarray  # columns are eigenvectors in the fixed basis
    scores: np.ndarray  # n x (requested components)

    def __post_init__(self):
        for name in ("theta_tilde", "phi_tilde", "scores"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def sample_mean(ds: Dataset) -> FunctionRep:
    return FunctionRep(ds.x.mean(axis=0))


def sample_cov(ds: Dataset) -> np.ndarray:
    """Covariance x.T @ x / (n - 1) of a sample `ds` the caller has centred."""
    if ds.n < 2:
        raise ValueError("covariance needs at least 2 observations")
    return ds.x.T @ ds.x / (ds.n - 1.0)


def eigendecompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clamped >= 0) and eigenvectors of `cov`.

    Accepts any numerically symmetric PSD matrix; small negative
    eigenvalues from roundoff are clamped to zero.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-10:
        raise ValueError("covariance is not symmetric within 1e-10")
    vals, vecs = np.linalg.eigh(cov)  # ascending
    return np.maximum(vals[::-1], 0.0), np.ascontiguousarray(vecs[:, ::-1])


def compute_scores(ds: Dataset, phi_tilde: np.ndarray, n_components: int) -> np.ndarray:
    """Scores x @ phi_tilde[:, :n_components] of a sample `ds` the caller has centred."""
    if not 0 <= n_components <= ds.k_trunc:
        raise ValueError("n_components must lie in [0, k_trunc]")
    return ds.x @ phi_tilde[:, :n_components]


def spectral_estimate(ds: Dataset, n_components: int) -> SpectralEstimate:
    """Spectral summary of a dataset; its scores cover the first
    n_components components."""
    centred = Dataset(x=ds.x - sample_mean(ds).coeffs, y=ds.y, lambda_true=ds.lambda_true)
    theta_tilde, phi_tilde = eigendecompose(sample_cov(centred))
    scores = compute_scores(centred, phi_tilde, n_components)
    return SpectralEstimate(theta_tilde=theta_tilde, phi_tilde=phi_tilde, scores=scores)
