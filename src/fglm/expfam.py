"""One-parameter exponential families through their cumulant function.

A family is determined by psi with psi(0) = 0: the density against the
base measure at natural parameter lam is exp(lam * y - psi(lam)), so the
response has mean dpsi(lam) and variance d2psi(lam).  Each family also
carries an increasing envelope G with G(0) >= 1 controlling third
derivatives, |d3psi(lam + h)| <= d2psi(lam) * G(|h|), which drives the
squared-Hellinger bound used by the affinity computations.

The Bernoulli cumulant is shifted by -log 2 so that psi(0) = 0; the
shift leaves all derivatives, and hence the family itself, unchanged.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ExpFamilySpec",
    "get_family",
    "family_names",
    "sample_response",
    "hellinger_sq_exact",
    "hellinger_sq_bound",
    "verify_envelope",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ExpFamilySpec(NamedTuple):
    """Cumulant function, its derivatives, envelope, and a sampler.

    `mle_may_not_exist` marks a family whose responses can sit on the edge
    of its mean range (a Poisson 0, a Bernoulli 0 or 1): on a sample that a
    linear predictor separates that way, the likelihood keeps rising as a
    coefficient runs off to infinity, and no maximizer exists.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    d2psi: Callable[[np.ndarray], np.ndarray]
    d3psi: Callable[[np.ndarray], np.ndarray]
    envelope: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    init_natural: Callable[[float, int], float]
    mle_may_not_exist: bool


def _gaussian() -> ExpFamilySpec:
    return ExpFamilySpec(
        name="gaussian",
        psi=lambda lam: 0.5 * np.square(lam),
        dpsi=lambda lam: np.asarray(lam, dtype=float),
        d2psi=lambda lam: np.ones_like(np.asarray(lam, dtype=float)),
        d3psi=lambda lam: np.zeros_like(np.asarray(lam, dtype=float)),
        envelope=lambda h: np.ones_like(np.asarray(h, dtype=float)),
        sample=lambda lam, rng: lam + rng.standard_normal(np.shape(lam)),
        init_natural=lambda ybar, n: float(ybar),
        mle_may_not_exist=False,
    )


def _poisson() -> ExpFamilySpec:
    def _init(ybar: float, n: int) -> float:
        # intensity exp(g0) must stay positive even for an all-zero sample
        return math.log(max(ybar, 1.0 / (n + 1.0)))

    return ExpFamilySpec(
        name="poisson",
        psi=lambda lam: np.expm1(lam),
        dpsi=np.exp,
        d2psi=np.exp,
        d3psi=np.exp,
        envelope=np.exp,
        sample=lambda lam, rng: rng.poisson(np.exp(lam)).astype(float),
        init_natural=_init,
        mle_may_not_exist=True,
    )


def _bernoulli() -> ExpFamilySpec:
    log2 = math.log(2.0)

    def _d2(lam):
        p = _sigmoid(lam)
        return p * (1.0 - p)

    def _d3(lam):
        p = _sigmoid(lam)
        return p * (1.0 - p) * (1.0 - 2.0 * p)

    def _init(ybar: float, n: int) -> float:
        p = min(max(ybar, 1.0 / (n + 1.0)), n / (n + 1.0))
        return math.log(p / (1.0 - p))

    return ExpFamilySpec(
        name="bernoulli",
        psi=lambda lam: np.logaddexp(0.0, lam) - log2,
        dpsi=_sigmoid,
        d2psi=_d2,
        d3psi=_d3,
        envelope=np.exp,
        sample=lambda lam, rng: (rng.random(np.shape(lam)) < _sigmoid(lam)).astype(float),
        init_natural=_init,
        mle_may_not_exist=True,
    )


_FAMILIES = {fam.name: fam for fam in (_gaussian(), _poisson(), _bernoulli())}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def get_family(name: str) -> ExpFamilySpec:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {', '.join(family_names())}"
        ) from None


def sample_response(family: ExpFamilySpec, lam, rng: np.random.Generator):
    """Draw responses at natural parameter(s) `lam`.

    Scalar input yields a float, array input an array of the same shape.
    """
    arr = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("natural parameter must be finite")
    try:
        with np.errstate(over="ignore"):  # exp(lam) = inf is refused by numpy below
            out = family.sample(arr, rng)
    except ValueError as exc:  # numpy samples Poisson intensities up to about 9e18 only
        top = f"{family.name} responses at natural parameters up to {float(np.max(arr)):.6g}"
        raise ValueError(f"cannot draw {top}: numpy refuses the intensity ({exc})") from None
    return float(out) if np.isscalar(lam) or arr.ndim == 0 else out


def hellinger_sq_exact(family: ExpFamilySpec, lam, delta):
    """Exact squared Hellinger distance between Q_lam and Q_(lam+delta).

    Follows from the cumulant identity: the affinity between the two
    distributions is exp(psi(mid) - psi(lam)/2 - psi(lam+delta)/2) with
    mid the midpoint, so h^2 = 2 * (1 - affinity).
    """
    lam = np.asarray(lam, dtype=float)
    delta = np.asarray(delta, dtype=float)
    expo = (
        family.psi(lam + 0.5 * delta)
        - 0.5 * family.psi(lam)
        - 0.5 * family.psi(lam + delta)
    )
    # expo <= 0 by midpoint concavity; rounding can leak a ~1e-16-relative
    # positive value for tiny delta, so clamp at the true lower bound
    out = np.maximum(2.0 * -np.expm1(expo), 0.0)
    return float(out) if out.ndim == 0 else out


def hellinger_sq_bound(family: ExpFamilySpec, lam, delta):
    """Upper bound delta^2 * d2psi(lam) * (1 + |delta|) * G(|delta|)."""
    lam = np.asarray(lam, dtype=float)
    delta = np.asarray(delta, dtype=float)
    ad = np.abs(delta)
    out = np.square(delta) * family.d2psi(lam) * (1.0 + ad) * family.envelope(ad)
    return float(out) if out.ndim == 0 else out


def verify_envelope(family: ExpFamilySpec, lambda_grid, h_grid) -> float:
    """Max of |d3psi(lam + h)| / (d2psi(lam) * G(|h|)) over the grid.

    A value <= 1 certifies the envelope condition on the grid.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    h = np.asarray(h_grid, dtype=float)
    if lam.size == 0 or h.size == 0:
        raise ValueError("grids must be nonempty")
    ll, hh = np.meshgrid(lam, h, indexing="ij")
    ratio = np.abs(family.d3psi(ll + hh)) / (family.d2psi(ll) * family.envelope(np.abs(hh)))
    return float(np.max(ratio))
