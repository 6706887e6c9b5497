import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fglm.expfam import get_family, hellinger_sq_exact
from fglm.funcspace import norm_sq
from fglm.lowerbound import (
    AssouadConfig,
    affinity_detail,
    affinity_study,
    assouad_bound_value,
    calibrated_config,
    calibrated_eps,
    flip,
    hypercube_slope,
    standard_config,
)

GAUSS = get_family("gaussian")


def test_config_geometry():
    cfg = standard_config(3, GAUSS)
    assert cfg.j_set == (4, 5, 6)
    assert np.allclose(cfg.beta_weights, np.array([4.0, 5.0, 6.0]) ** -3.0)
    assert np.allclose(cfg.theta_j, np.array([4.0, 5.0, 6.0]) ** -2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        standard_config(0, GAUSS)
    with pytest.raises(ValueError):
        AssouadConfig(
            m=2, eps_scale=1.0, radius=1.0, beta_s=3.0, family=GAUSS, theta=np.ones(3)
        )
    with pytest.raises(ValueError):
        AssouadConfig(
            m=1, eps_scale=-0.5, radius=1.0, beta_s=3.0, family=GAUSS, theta=np.ones(2)
        )


def test_corner_slopes():
    cfg = standard_config(2, GAUSS, eps_scale=0.5)
    slope = hypercube_slope(cfg, (1, 0))
    assert slope.basis_size == 4
    assert np.allclose(slope.coeffs[:2], 0.0)
    assert slope.coeffs[2] == pytest.approx(0.5 * 3.0**-3.0)
    assert slope.coeffs[3] == 0.0
    assert np.all(hypercube_slope(cfg, (0, 0)).coeffs == 0.0)
    # smallest cube: the single active coefficient sits at the second basis
    # index with value eps * 2^-3
    one = hypercube_slope(standard_config(1, GAUSS, eps_scale=1.0), (1,))
    assert one.basis_size == 2
    assert one.coeffs[1] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        hypercube_slope(cfg, (1, 2))
    with pytest.raises(ValueError):
        hypercube_slope(cfg, (1,))


bits = st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3)


@given(gamma=bits, j=st.sampled_from([4, 5, 6]))
@settings(max_examples=60)
def test_flip_involution_and_separation(gamma, j):
    cfg = standard_config(3, GAUSS, eps_scale=0.7)
    flipped = flip(cfg, gamma, j)
    assert flip(cfg, flipped, j) == tuple(gamma)
    assert sum(a != b for a, b in zip(gamma, flipped)) == 1
    # flipping bit j moves the corner slope by exactly eps * beta_j
    gap = norm_sq(hypercube_slope(cfg, gamma) - hypercube_slope(cfg, flipped))
    beta_j = cfg.radius * float(j) ** -cfg.beta_s
    assert gap == pytest.approx((0.7 * beta_j) ** 2, rel=1e-12)


def test_flip_rejects_outside_coordinates():
    cfg = standard_config(2, GAUSS)
    with pytest.raises(ValueError):
        flip(cfg, (0, 1), 2)  # coordinate 2 is below the perturbed block


def test_zero_eps_gives_perfect_affinity():
    cfg = standard_config(2, GAUSS, eps_scale=0.0)
    est = affinity_detail(cfg, 50, 3, (1, 1), n_mc=10, seed=0)
    assert est.mean == 1.0 and est.se == 0.0


def test_affinity_decreases_with_eps():
    vals = [
        affinity_detail(
            standard_config(1, GAUSS, eps_scale=e), 100, 2, (1,), n_mc=80, seed=5
        ).mean
        for e in (0.5, 2.0, 8.0)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_affinity_symmetric_between_neighbor_corners():
    # the Hellinger distance between a corner and its flip is symmetric,
    # so both directions estimate the same quantity
    cfg = standard_config(2, GAUSS, eps_scale=3.0)
    a = affinity_detail(cfg, 60, 3, (0, 1), n_mc=400, seed=1)
    b = affinity_detail(cfg, 60, 3, (1, 1), n_mc=400, seed=2)
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.se, b.se)


def test_affinity_matches_quadrature_oracle():
    # m = 1, n = 1: the affinity is E_z[1 - h(z)] with h^2 the gaussian
    # Hellinger distance at shift eps * beta_2 * z, z ~ N(0, theta_2)
    cfg = standard_config(1, GAUSS, eps_scale=0.8)
    beta2 = cfg.beta_weights[0]
    theta2 = cfg.theta_j[0]

    def f(z):
        h2 = hellinger_sq_exact(GAUSS, 0.0, 0.8 * beta2 * z)
        return (1.0 - math.sqrt(min(2.0, h2))) * stats.norm.pdf(
            z, scale=math.sqrt(theta2)
        )

    exact, _ = integrate.quad(f, -10 * math.sqrt(theta2), 10 * math.sqrt(theta2))
    est = affinity_detail(cfg, 1, 2, (1,), n_mc=4000, seed=3)
    assert abs(est.mean - exact) <= 4.0 * est.se


def test_calibration_makes_affinity_n_free():
    cfg = standard_config(2, GAUSS)
    assert calibrated_eps(cfg, 100) == pytest.approx(
        1.0 / math.sqrt(100 * 3.0**-6.0 * 3.0**-2.0)
    )
    rows = affinity_study(cfg, (100, 1000, 10000), n_mc=150, seed=0)
    assert len(rows) == 6
    by_n = {}
    for row in rows:
        by_n.setdefault(row["n"], []).append(row["affinity"])
    mins = [min(by_n[n]) for n in (100, 1000, 10000)]
    assert all(v >= 0.1 for v in mins)
    assert max(mins) - min(mins) < 0.1


def test_calibrated_eps_shrinks_like_root_n():
    cfg = standard_config(3, GAUSS)
    assert calibrated_eps(cfg, 400) == pytest.approx(calibrated_eps(cfg, 100) / 2.0)
    with pytest.raises(ValueError):
        calibrated_eps(cfg, 0)


@pytest.mark.parametrize(
    "radius, n, message",
    [
        # beta_j^2 overflows, and eps came out as 0 with a NaN bound value
        (1e200, 100, "the calibrated eps at n=100 is not finite and positive"),
        # beta_j^2 underflows to 0, and eps came out as 1/0
        (1e-200, 100, "the calibrated eps at n=100 is not finite and positive"),
        # eps is finite, but the sum of beta_j^2 overflows to an infinite bound value
        (3.57e155, 1, "the bound value is not finite"),
    ],
)
def test_a_radius_out_of_float_range_is_refused(radius, n, message):
    cfg = standard_config(2, GAUSS, radius=radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        with pytest.raises(ValueError) as refused:
            affinity_study(cfg, [n], n_mc=2)
    assert str(refused.value) == f"radius {radius:g} is out of range: {message}"


def test_bound_value_closed_form():
    cfg = standard_config(1, GAUSS, eps_scale=1.0)
    # single bit at coordinate 2: (floor/8) * (1 * 2^-3)^2 with floor 1
    assert assouad_bound_value(cfg, 1.0) == pytest.approx(0.001953125, abs=1e-15)
    assert assouad_bound_value(cfg, 0.0) == 0.0
    with pytest.raises(ValueError):
        assouad_bound_value(cfg, 1.5)


def test_bound_value_matches_partial_sum():
    # at fixed eps the value is (floor/8) * sum_{j=m+1}^{2m} j^(-2 beta),
    # which shrinks as the block moves deeper into the decay
    vals = []
    for m in (2, 4, 8, 16):
        cfg = standard_config(m, GAUSS, eps_scale=1.0)
        j = np.arange(m + 1, 2 * m + 1, dtype=float)
        expected = 0.5 / 8.0 * float(np.sum(j**-6.0))
        got = assouad_bound_value(cfg, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        vals.append(got)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_study_recalibrates_per_n():
    cfg = standard_config(1, GAUSS)
    rows = affinity_study(cfg, (100, 400), n_mc=20, seed=0)
    assert rows[0]["eps"] == pytest.approx(2.0 * rows[1]["eps"])
    assert {row["j"] for row in rows} == {2}
    with pytest.raises(ValueError):
        affinity_study(cfg, (0, 10), n_mc=5)
