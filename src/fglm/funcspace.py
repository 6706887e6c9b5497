"""Coefficient-space representation of functions on [0, 1].

Every function is stored by its coefficients in one fixed orthonormal
basis, phi_k(t) = sqrt(2) * cos(k * pi * t) for k = 1, 2, ...  Norms
are Parseval sums over coefficients; evaluation on a grid is derived
output.  Representations of different length are compatible: the
shorter one is treated as zero-padded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FunctionRep",
    "norm_sq",
    "evaluate_on_grid",
    "uniform_grid",
]


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("coefficient array must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return arr


@dataclass(frozen=True)
class FunctionRep:
    """A function on [0, 1], stored as cosine-basis coefficients.

    An empty coefficient array represents the zero function.  Instances
    are immutable; the coefficient array is copied and locked at
    construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_coeffs(self.coeffs).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def basis_size(self) -> int:
        return self.coeffs.shape[0]

    def padded(self, size: int) -> np.ndarray:
        """Coefficients zero-padded to the requested length."""
        if size < self.basis_size:
            raise ValueError("cannot pad to a smaller size")
        out = np.zeros(size)
        out[: self.basis_size] = self.coeffs
        return out

    def __sub__(self, other: "FunctionRep") -> "FunctionRep":
        size = max(self.basis_size, other.basis_size)
        return FunctionRep(self.padded(size) - other.padded(size))


def norm_sq(f: FunctionRep) -> float:
    """Squared L2 norm of f."""
    return float(np.dot(f.coeffs, f.coeffs))


def uniform_grid(num_points: int) -> np.ndarray:
    """`num_points` equally spaced points spanning [0, 1]."""
    if num_points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, 1.0, num_points)


def evaluate_on_grid(f: FunctionRep, num_points: int) -> np.ndarray:
    """Values of f on the uniform grid with `num_points` points."""
    k = np.arange(1, f.basis_size + 1)
    return np.sqrt(2.0) * np.cos(np.outer(uniform_grid(num_points), k) * np.pi) @ f.coeffs
