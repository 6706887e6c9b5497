"""Functional principal components from observed predictor curves.

Everything happens in coefficient space: the sample mean is the
coefficient average, the sample covariance uses the (n - 1) divisor,
and eigenpairs come from a symmetric eigensolver with eigenvalues
sorted descending and clamped to be nonnegative.  Scores are inner
products of centered curves with the requested leading estimated
eigenfunctions, so each score column has exact zero mean and the score
Gram matrix reproduces the estimated eigenvalues.  Only the requested
leading components are scored: the slope estimator asks for the N it
fits.

Eigenvectors are returned in C order.  The column gather that sorts
them leaves a Fortran-order array, and BLAS sums a matrix-vector
product such as the slope rebuild phi_tilde[:, :m] @ coefs in an order
that depends on the layout, so the last bits of the study losses do
too; the stock-study CSVs are pinned to C order.  SpectralEstimate
holds read-only views of its arrays, not copies.
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
    """Mean, covariance, all eigenpairs, and the centered scores of the
    requested leading components of one sample."""

    xbar: FunctionRep
    cov: np.ndarray
    theta_tilde: np.ndarray
    phi_tilde: np.ndarray  # columns are eigenvectors in the fixed basis
    scores: np.ndarray  # n x (requested components)

    def __post_init__(self):
        for name in ("cov", "theta_tilde", "phi_tilde", "scores"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def sample_mean(ds: Dataset) -> FunctionRep:
    return FunctionRep(ds.x.mean(axis=0))


def sample_cov(ds: Dataset) -> np.ndarray:
    """Sample covariance of the predictor coefficients, divisor n - 1."""
    if ds.n < 2:
        raise ValueError("covariance needs at least 2 observations")
    centered = ds.x - ds.x.mean(axis=0)
    return centered.T @ centered / (ds.n - 1.0)


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
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    # the gather leaves Fortran order; see the module docstring for why C order
    return np.maximum(vals[order], 0.0), np.ascontiguousarray(vecs[:, order])


def compute_scores(
    ds: Dataset, xbar: FunctionRep, phi_tilde: np.ndarray, n_components: int
) -> np.ndarray:
    """Centered scores <X_i - xbar, phi_tilde_k>, shape n x n_components."""
    k = ds.k_trunc
    if not 0 <= n_components <= k:
        raise ValueError("n_components must lie in [0, k_trunc]")
    if xbar.basis_size != k:
        raise ValueError("xbar must live in the same truncated basis")
    centered = ds.x - xbar.coeffs
    return centered @ phi_tilde[:, :n_components]


def spectral_estimate(ds: Dataset, n_components: int) -> SpectralEstimate:
    """Spectral summary of a dataset; its scores cover the first
    n_components components."""
    xbar = sample_mean(ds)
    cov = sample_cov(ds)
    theta_tilde, phi_tilde = eigendecompose(cov)
    scores = compute_scores(ds, xbar, phi_tilde, n_components)
    return SpectralEstimate(
        xbar=xbar, cov=cov, theta_tilde=theta_tilde, phi_tilde=phi_tilde, scores=scores
    )
