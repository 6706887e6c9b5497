"""Functional principal components from observed predictor curves.

Everything happens in coefficient space.  `spectral_estimate` centres
the sample once, at the coefficient average, and takes both the
covariance ((n - 1) divisor) and the scores from that centred sample.
It returns the eigenpairs and scores only; `sample_mean` (a 1-D
coefficient array) and `sample_cov` give the mean and covariance on
their own.

Shared truth is read-only, a sample is its maker's.  By default the
centred sample is a fresh copy and `ds` is left as it was.  With
`overwrite_x=True` (after scipy's `overwrite_a`) the maker lends `ds.x`
to the fit, and the centred values are written into it.  Where `ds.x`
is read-only (its write flag is off, as for any read-only view or
`np.frombuffer` of bytes) or not one contiguous block, the copy is made
anyway.  Either way every result keeps its bits.

Eigenvalues are sorted descending and clamped to be nonnegative.  The
scores of the requested leading components (the slope estimator asks
for the N it fits) have exact zero column means, and their Gram matrix
reproduces the estimated eigenvalues.

Eigenvectors are LAPACK's ascending columns reversed and copied to C
order.  BLAS sums a matrix-vector product such as the slope rebuild
phi_tilde[:, :m] @ coefs in an order that depends on the layout, so the
last bits of the study losses do too; the stock-study CSVs are pinned
to C order.
"""
from __future__ import annotations

import numpy as np

from .datagen import Dataset

__all__ = [
    "sample_mean",
    "sample_cov",
    "eigendecompose",
    "compute_scores",
    "spectral_estimate",
]


def sample_mean(ds: Dataset) -> np.ndarray:
    """Coefficient average of the sample's predictors."""
    return ds.x.mean(axis=0)


def sample_cov(ds: Dataset) -> np.ndarray:
    """Covariance x.T @ x / (n - 1) of a sample `ds` the caller has centred."""
    if ds.n < 2:
        raise ValueError("covariance needs at least 2 observations")
    return ds.x.T @ ds.x / (ds.n - 1.0)


def eigendecompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clamped >= 0) and eigenvectors of `cov`.

    Accepts any finite, numerically symmetric PSD matrix; small negative
    eigenvalues from roundoff are clamped to zero.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance is not finite")
    if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-10:
        raise ValueError("covariance is not symmetric within 1e-10")
    vals, vecs = np.linalg.eigh(cov)  # ascending
    return np.maximum(vals[::-1], 0.0), np.ascontiguousarray(vecs[:, ::-1])


def compute_scores(ds: Dataset, phi_tilde: np.ndarray, n_components: int) -> np.ndarray:
    """Scores x @ phi_tilde[:, :n_components] of a sample `ds` the caller has centred."""
    if not 0 <= n_components <= ds.k_trunc:
        raise ValueError("n_components must lie in [0, k_trunc]")
    return ds.x @ phi_tilde[:, :n_components]


def spectral_estimate(
    ds: Dataset, n_components: int, *, overwrite_x: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta_tilde, phi_tilde, scores) of a dataset: all eigenvalues, all
    eigenvectors as columns in the fixed basis, and the n x n_components
    centred scores of the leading components.

    With `overwrite_x=True` a writable, contiguous `ds.x` is centred in
    its own memory, and then holds the centred sample.
    """
    x = ds.x
    in_place = overwrite_x and x.flags.writeable and (x.flags.c_contiguous or x.flags.f_contiguous)
    # huge predictors overflow to inf here, and eigendecompose refuses that covariance
    with np.errstate(over="ignore", invalid="ignore"):
        centred_x = np.subtract(x, sample_mean(ds), out=x if in_place else None)
        centred = Dataset(x=centred_x, y=ds.y, lambda_true=ds.lambda_true)
        cov = sample_cov(centred)
    theta_tilde, phi_tilde = eigendecompose(cov)
    return theta_tilde, phi_tilde, compute_scores(centred, phi_tilde, n_components)
