"""Coefficient-space representation of functions on [0, 1].

Every function is a 1-D float array of its coefficients in one fixed
orthonormal basis, phi_k(t) = sqrt(2) * cos(k * pi * t) for k = 1, 2, ...
Norms are Parseval sums over coefficients; evaluation on a grid is
derived output.  Functions here read their arrays and never write them.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "norm_sq",
    "evaluate_on_grid",
    "uniform_grid",
]


def norm_sq(coeffs: np.ndarray) -> float:
    """Squared L2 norm of the function with these coefficients."""
    return float(np.dot(coeffs, coeffs))


def uniform_grid(num_points: int) -> np.ndarray:
    """`num_points` equally spaced points spanning [0, 1]."""
    if num_points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, 1.0, num_points)


def evaluate_on_grid(coeffs: np.ndarray, num_points: int) -> np.ndarray:
    """Values on the uniform grid with `num_points` points of the function
    with these coefficients."""
    if np.ndim(coeffs) != 1:
        raise ValueError("coefficient array must be one-dimensional")
    k = np.arange(1, len(coeffs) + 1)
    return np.sqrt(2.0) * np.cos(np.outer(uniform_grid(num_points), k) * np.pi) @ coeffs
