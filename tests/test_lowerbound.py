import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fglm import lowerbound
from fglm.expfam import get_family, hellinger_sq_exact
from fglm.funcspace import norm_sq
from fglm.lowerbound import (
    AssouadConfig,
    affinity_detail,
    affinity_study,
    assouad_bound_value,
    calibrated_eps,
    hypercube_slope,
)

GAUSS = get_family("gaussian")


def test_config_geometry():
    cfg = AssouadConfig(3, GAUSS)
    assert cfg.j_set == (4, 5, 6)
    assert np.allclose(cfg.beta_weights, np.array([4.0, 5.0, 6.0]) ** -3.0)
    assert np.allclose(cfg.theta_j, np.array([4.0, 5.0, 6.0]) ** -2.0)


def test_config_validation():
    with pytest.raises(ValueError, match="m must be a positive integer"):
        AssouadConfig(0, GAUSS)
    with pytest.raises(ValueError, match="eps_scale must be finite and nonnegative"):
        AssouadConfig(1, GAUSS, eps_scale=-0.5)
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError) as refused:
            AssouadConfig(2, GAUSS, alpha=alpha)
        assert str(refused.value) == f"alpha must be finite and positive, got {alpha}"
    for beta_s in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta_s must be finite and positive"):
            AssouadConfig(2, GAUSS, beta_s=beta_s)


@pytest.mark.parametrize("m", [1, 2, 3, 40, 1000])
@pytest.mark.parametrize("alpha", [0.5, 1.1, 2.0, 3.0, 7.25, 100.0])
def test_theta_j_matches_the_full_spectrum_bit_for_bit(m, alpha):
    # oracle: the spectrum k^-alpha over k = 1 .. 2m, cut to the perturbed block
    oracle = (np.arange(1, 2 * m + 1, dtype=float) ** -alpha)[m:]
    assert AssouadConfig(m, GAUSS, alpha=alpha).theta_j.tobytes() == oracle.tobytes()


def test_corner_slopes():
    cfg = AssouadConfig(2, GAUSS, eps_scale=0.5)
    slope = hypercube_slope(cfg, (1, 0))
    assert slope.shape == (4,)
    assert np.allclose(slope[:2], 0.0)
    assert slope[2] == pytest.approx(0.5 * 3.0**-3.0)
    assert slope[3] == 0.0
    assert np.all(hypercube_slope(cfg, (0, 0)) == 0.0)
    # smallest cube: the single active coefficient sits at the second basis
    # index with value eps * 2^-3
    one = hypercube_slope(AssouadConfig(1, GAUSS, eps_scale=1.0), (1,))
    assert one.shape == (2,)
    assert one[1] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        hypercube_slope(cfg, (1, 2))
    with pytest.raises(ValueError):
        hypercube_slope(cfg, (1,))


bits = st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3)


@given(gamma=bits, j=st.sampled_from([4, 5, 6]))
@settings(max_examples=60)
def test_one_bit_neighbors_are_eps_beta_j_apart(gamma, j):
    cfg = AssouadConfig(3, GAUSS, eps_scale=0.7)
    flipped = list(gamma)
    flipped[j - 4] = 1 - flipped[j - 4]
    # corners that differ only in bit j are exactly eps * beta_j apart
    gap = norm_sq(hypercube_slope(cfg, gamma) - hypercube_slope(cfg, flipped))
    beta_j = float(j) ** -cfg.beta_s
    assert gap == pytest.approx((0.7 * beta_j) ** 2, rel=1e-12)


def test_affinity_detail_rejects_outside_coordinates():
    cfg = AssouadConfig(2, GAUSS)
    with pytest.raises(ValueError) as refused:
        affinity_detail(cfg, 10, 2, (0, 1))  # coordinate 2 is below the perturbed block
    assert str(refused.value) == "flip index 2 outside coordinates (3, 4)"


def test_zero_eps_gives_perfect_affinity():
    cfg = AssouadConfig(2, GAUSS, eps_scale=0.0)
    mean, se = affinity_detail(cfg, 50, 3, (1, 1), n_mc=10, seed=0)
    assert mean == 1.0 and se == 0.0


def test_affinity_decreases_with_eps():
    vals = [
        affinity_detail(
            AssouadConfig(1, GAUSS, eps_scale=e), 100, 2, (1,), n_mc=80, seed=5
        )[0]
        for e in (0.5, 2.0, 8.0)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_affinity_symmetric_between_neighbor_corners():
    # the Hellinger distance between a corner and its flip is symmetric,
    # so both directions estimate the same quantity
    cfg = AssouadConfig(2, GAUSS, eps_scale=3.0)
    a_mean, a_se = affinity_detail(cfg, 60, 3, (0, 1), n_mc=400, seed=1)
    b_mean, b_se = affinity_detail(cfg, 60, 3, (1, 1), n_mc=400, seed=2)
    assert abs(a_mean - b_mean) <= 4.0 * math.hypot(a_se, b_se)


@pytest.mark.parametrize("eps", [0.8, 20.0])
@pytest.mark.parametrize("family", ["gaussian", "poisson", "bernoulli"])
def test_affinity_matches_quadrature_oracle(family, eps):
    # m = 1, n = 1: the affinity is E_z[1 - sqrt(min(2, h^2))] with h^2 the
    # exact Hellinger distance between the corner at lambda = a z and its
    # flip, which moves lambda by -a z; a = eps * beta_2, z ~ N(0, theta_2)
    spec = get_family(family)
    cfg = AssouadConfig(1, spec, eps_scale=eps)
    a = eps * cfg.beta_weights[0]
    sd = math.sqrt(cfg.theta_j[0])

    def f(z):
        h2 = float(hellinger_sq_exact(spec, a * z, -a * z))
        return (1.0 - math.sqrt(min(2.0, h2))) * stats.norm.pdf(z, scale=sd)

    exact, _ = integrate.quad(f, -10 * sd, 10 * sd)
    mean, se = affinity_detail(cfg, 1, 2, (1,), n_mc=4000, seed=3)
    assert abs(mean - exact) <= 4.0 * se


def test_calibration_makes_affinity_n_free():
    cfg = AssouadConfig(2, GAUSS)
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
    cfg = AssouadConfig(3, GAUSS)
    assert calibrated_eps(cfg, 400) == pytest.approx(calibrated_eps(cfg, 100) / 2.0)
    with pytest.raises(ValueError):
        calibrated_eps(cfg, 0)


@pytest.mark.parametrize(
    "alpha, beta_s, n_ok, n_refused",
    [
        # eps^2 ~ 3^(2 beta_s + alpha) / n overflows below some n, which grows with beta_s
        pytest.param(2.0, 324.0, 100, 10, id="324.0-100-10"),
        pytest.param(2.0, 325.0, 1000, 100, id="325.0-1000-100"),
        # beta_j^2 theta_j underflows to 0, so eps is 1/0 at every n
        pytest.param(2.0, 340.0, None, 10**9, id="340.0-None-1000000000"),
        # theta_j = 3^-alpha alone underflows to 0
        pytest.param(700.0, 3.0, None, 10**9, id="alpha700-3.0-None-1000000000"),
    ],
)
def test_a_cube_out_of_float_range_is_refused(monkeypatch, alpha, beta_s, n_ok, n_refused):
    def no_draws(*args, **kwargs):
        raise AssertionError("an affinity was estimated")

    monkeypatch.setattr(lowerbound, "affinity_detail", no_draws)
    cfg = AssouadConfig(2, GAUSS, alpha=alpha, beta_s=beta_s)
    message = (
        f"alpha={alpha:g}, beta_s={beta_s:g}, m=2 and n={n_refused} put the hypercube out of "
        "float range: the calibrated eps and its square must be finite and positive"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        if n_ok is not None:
            scaled = AssouadConfig(2, GAUSS, alpha, beta_s, calibrated_eps(cfg, n_ok))
            assert math.isfinite(assouad_bound_value(scaled, 1.0))
        with pytest.raises(ValueError) as refused:
            calibrated_eps(cfg, n_refused)
        assert str(refused.value) == message
        # a study calibrates every n before its first draw, so the good n
        # listed first costs no Monte Carlo either
        with pytest.raises(ValueError) as refused:
            affinity_study(cfg, [n for n in (n_ok, n_refused) if n is not None])
        assert str(refused.value) == message


def test_bound_value_closed_form():
    cfg = AssouadConfig(1, GAUSS, eps_scale=1.0)
    # single bit at coordinate 2: (floor/8) * (1 * 2^-3)^2 with floor 1
    assert assouad_bound_value(cfg, 1.0) == pytest.approx(0.001953125, abs=1e-15)
    assert assouad_bound_value(cfg, 0.0) == 0.0
    with pytest.raises(ValueError):
        assouad_bound_value(cfg, 1.5)
    # a library caller's huge eps squares to inf, refused rather than an OverflowError
    with pytest.raises(ValueError, match=r"eps_scale 1e\+200 makes the bound value infinite"):
        assouad_bound_value(AssouadConfig(1, GAUSS, eps_scale=1e200), 1.0)


def test_bound_value_matches_partial_sum():
    # at fixed eps the value is (floor/8) * sum_{j=m+1}^{2m} j^(-2 beta),
    # which shrinks as the block moves deeper into the decay
    vals = []
    for m in (2, 4, 8, 16):
        cfg = AssouadConfig(m, GAUSS, eps_scale=1.0)
        j = np.arange(m + 1, 2 * m + 1, dtype=float)
        expected = 0.5 / 8.0 * float(np.sum(j**-6.0))
        got = assouad_bound_value(cfg, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        vals.append(got)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_study_recalibrates_per_n():
    cfg = AssouadConfig(1, GAUSS)
    rows = affinity_study(cfg, (100, 400), n_mc=20, seed=0)
    assert rows[0]["eps"] == pytest.approx(2.0 * rows[1]["eps"])
    assert {row["j"] for row in rows} == {2}
    with pytest.raises(ValueError):
        affinity_study(cfg, (0, 10), n_mc=5)


def test_every_cell_draws_its_own_seed_up_to_m_1000(monkeypatch):
    # cell (n_idx, j_idx) is seeded seed + 1000 * n_idx + j_idx: distinct for
    # m <= 1000, while m = 1001 over n = 100, 200 would seed (100, j=2002) and
    # (200, j=1002) both with 1006
    seeds = []

    def record(cfg, n, j, gamma, n_mc, seed):
        seeds.append(seed)
        return 0.5, 0.0

    monkeypatch.setattr(lowerbound, "affinity_detail", record)
    rows = affinity_study(AssouadConfig(1000, GAUSS), (100, 200), n_mc=1, seed=6)
    assert len(rows) == len(set(seeds)) == 2000

    def no_work(*args, **kwargs):
        raise AssertionError("the cube was calibrated or sampled")

    monkeypatch.setattr(lowerbound, "affinity_detail", no_work)
    monkeypatch.setattr(lowerbound, "calibrated_eps", no_work)
    with pytest.raises(ValueError) as refused:
        affinity_study(AssouadConfig(1001, GAUSS), (100, 200), n_mc=1, seed=6)
    assert str(refused.value) == (
        "m=1001 is above 1000: cell (n_idx, j_idx) is seeded seed + 1000 * n_idx + j_idx, "
        "so two cells would share a random stream"
    )
