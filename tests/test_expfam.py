import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from fglm.expfam import (
    family_names,
    get_family,
    hellinger_sq_bound,
    hellinger_sq_exact,
    sample_response,
    verify_envelope,
)

lam_st = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
delta_st = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def test_family_registry():
    assert family_names() == ("bernoulli", "gaussian", "poisson")
    with pytest.raises(ValueError):
        get_family("gamma")


@pytest.mark.parametrize("name", family_names())
def test_psi_normalized_at_zero(name):
    fam = get_family(name)
    assert fam.psi(0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name", family_names())
def test_derivatives_consistent(name):
    """dpsi/d2psi/d3psi agree with central differences of psi."""
    fam = get_family(name)
    lam = np.linspace(-2.5, 2.5, 11)
    h = 1e-5
    d1 = (fam.psi(lam + h) - fam.psi(lam - h)) / (2 * h)
    d2 = (fam.psi(lam + h) - 2 * fam.psi(lam) + fam.psi(lam - h)) / h**2
    d3 = (fam.dpsi(lam + h) - 2 * fam.dpsi(lam) + fam.dpsi(lam - h)) / h**2
    assert np.allclose(d1, fam.dpsi(lam), atol=1e-8)
    assert np.allclose(d2, fam.d2psi(lam), atol=1e-5)
    assert np.allclose(d3, fam.d3psi(lam), atol=1e-5)


# --- exact Hellinger against independent density-level oracles ---


def _gauss_h2_quad(lam, delta):
    # integral of (sqrt N(lam,1) - sqrt N(lam+delta,1))^2 over the line
    def f(y):
        a = math.sqrt(stats.norm.pdf(y, loc=lam))
        b = math.sqrt(stats.norm.pdf(y, loc=lam + delta))
        return (a - b) ** 2

    val, _ = integrate.quad(f, lam - 15, lam + delta + 15, limit=200)
    return val


def _poisson_h2_series(lam, delta):
    mu1, mu2 = math.exp(lam), math.exp(lam + delta)
    k = np.arange(0, 200)
    p = stats.poisson.pmf(k, mu1)
    q = stats.poisson.pmf(k, mu2)
    return float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


def _bernoulli_h2_twopoint(lam, delta):
    p1 = 1.0 / (1.0 + math.exp(-lam))
    p2 = 1.0 / (1.0 + math.exp(-(lam + delta)))
    return (math.sqrt(p1) - math.sqrt(p2)) ** 2 + (
        math.sqrt(1 - p1) - math.sqrt(1 - p2)
    ) ** 2


@pytest.mark.parametrize(
    "name,oracle",
    [
        ("gaussian", _gauss_h2_quad),
        ("poisson", _poisson_h2_series),
        ("bernoulli", _bernoulli_h2_twopoint),
    ],
)
def test_exact_hellinger_matches_density_oracle(name, oracle):
    fam = get_family(name)
    for lam in (-1.5, 0.0, 0.8):
        for delta in (-0.7, 0.3, 1.0):
            assert hellinger_sq_exact(fam, lam, delta) == pytest.approx(
                oracle(lam, delta), abs=1e-9
            )


def test_gaussian_closed_form_value():
    # h^2 depends only on delta for unit-variance location families
    expected = 2.0 * (1.0 - math.exp(-1.0 / 8.0))
    assert hellinger_sq_exact(get_family("gaussian"), 0.0, 1.0) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.2350061948308093, abs=1e-15)


def test_poisson_frozen_value():
    val = hellinger_sq_exact(get_family("poisson"), 0.0, math.log(4.0))
    assert val == pytest.approx(2.0 * (1.0 - math.exp(-0.5)), abs=1e-12)
    assert val == pytest.approx(0.7869386805747332, abs=1e-12)


@pytest.mark.parametrize("name", family_names())
@given(lam=lam_st, delta=delta_st)
def test_h2_range_and_shift_symmetry(name, lam, delta):
    fam = get_family(name)
    h2 = hellinger_sq_exact(fam, lam, delta)
    assert 0.0 <= h2 <= 2.0
    assert h2 == pytest.approx(hellinger_sq_exact(fam, lam + delta, -delta), abs=1e-12)


@pytest.mark.parametrize("name", family_names())
@given(lam=lam_st, delta=delta_st)
def test_quadratic_envelope_dominates(name, lam, delta):
    fam = get_family(name)
    exact = hellinger_sq_exact(fam, lam, delta)
    assert exact <= hellinger_sq_bound(fam, lam, delta) + 1e-12


def test_zero_delta_means_zero_distance():
    for name in family_names():
        assert hellinger_sq_exact(get_family(name), 0.7, 0.0) == 0.0


def test_bound_known_values():
    # gaussian: d2psi = 1 and G = 1, so the bound is delta^2 * (1 + |delta|)
    assert hellinger_sq_bound(get_family("gaussian"), -1.3, 1.0) == 2.0
    assert hellinger_sq_bound(get_family("gaussian"), 0.0, 0.0) == 0.0
    got = hellinger_sq_bound(get_family("poisson"), 0.0, 0.5)
    assert got == pytest.approx(0.375 * np.exp(0.5), rel=1e-15)


@pytest.mark.parametrize("name", family_names())
def test_envelope_ratio_at_most_one(name):
    lam = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    h = np.arange(-1.0, 1.0 + 1e-9, 0.1)
    assert verify_envelope(get_family(name), lam, h) <= 1.0 + 1e-9


def test_envelope_ratio_extremes():
    lam = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    h = np.arange(-1.0, 1.0 + 1e-9, 0.1)
    # gaussian third derivative vanishes identically
    assert verify_envelope(get_family("gaussian"), lam, h) == 0.0
    # poisson attains the envelope exactly at every h >= 0
    assert verify_envelope(get_family("poisson"), lam, h) == pytest.approx(1.0)


def test_sampler_moments():
    rng = np.random.default_rng(0)
    n = 200_000
    lam = np.full(n, 0.4)
    y_g = sample_response(get_family("gaussian"), lam, rng)
    assert y_g.mean() == pytest.approx(0.4, abs=0.01)
    assert y_g.var() == pytest.approx(1.0, abs=0.02)
    y_p = sample_response(get_family("poisson"), lam, rng)
    mu = math.exp(0.4)
    assert y_p.mean() == pytest.approx(mu, abs=0.02)
    assert y_p.var() == pytest.approx(mu, abs=0.03)
    y_b = sample_response(get_family("bernoulli"), lam, rng)
    p = 1.0 / (1.0 + math.exp(-0.4))
    assert set(np.unique(y_b)) <= {0.0, 1.0}
    assert y_b.mean() == pytest.approx(p, abs=0.01)


@pytest.mark.parametrize("lam", [50.0, 800.0])
def test_poisson_sampler_refuses_an_intensity_numpy_cannot_draw(lam):
    # exp(800) overflows to inf and exp(50) exceeds numpy's largest Poisson
    # intensity; both are refused by name, with no overflow warning
    with pytest.raises(ValueError, match=f"poisson responses at natural parameters up to {lam:g}"):
        sample_response(get_family("poisson"), np.array([0.0, lam]), np.random.default_rng(0))


def test_sampler_is_deterministic_in_seed():
    for name in family_names():
        fam = get_family(name)
        a = sample_response(fam, np.linspace(-1, 1, 50), np.random.default_rng(42))
        b = sample_response(fam, np.linspace(-1, 1, 50), np.random.default_rng(42))
        assert np.array_equal(a, b)
