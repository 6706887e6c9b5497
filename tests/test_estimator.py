import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglm.datagen import GroundTruth, make_ground_truth, sample_dataset
from fglm.estimator import (
    FitResult,
    MLEFit,
    NewtonConfig,
    TuningRule,
    estimate_slope,
    fit_mle,
    loss,
    tuning,
    zeta_interval,
)
from fglm.expfam import family_names, get_family
from fglm.fpca import spectral_estimate

GAUSS = get_family("gaussian")
POIS = get_family("poisson")
BERN = get_family("bernoulli")


# --- tuning ---


def test_zeta_interval_default_case():
    lo, hi = zeta_interval(2.0, 3.0)
    assert lo == pytest.approx(1.0 / 7.0)
    assert hi == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        zeta_interval(2.0, 2.5)  # interval collapses


def test_tuning_reference_point():
    assert tuning(4096, 2.0, 3.0) == (3, 7)


def test_tuning_rounds_half_up():
    # n = 256: m = 256^(1/8) = 2 exactly, N = 2 * 256^(13/84) = 4.69... -> 5
    m, n_comp = tuning(256, 2.0, 3.0)
    assert (m, n_comp) == (2, 5)


def test_tuning_respects_overrides():
    rule = TuningRule(c_m=2.0, c_N=1.0, zeta=0.15)
    m, n_comp = tuning(4096, 2.0, 3.0, rule)
    assert m == round(2.0 * 4096 ** 0.125)
    assert n_comp == max(m, int(math.floor(1.0 * 4096**0.15 + 0.5)))
    with pytest.raises(ValueError):
        tuning(4096, 2.0, 3.0, TuningRule(zeta=0.5))  # outside the open interval
    with pytest.raises(ValueError):
        TuningRule(c_m=0.0)


@given(n=st.integers(min_value=8, max_value=10**7))
@settings(max_examples=200)
def test_tuning_invariants(n):
    m, n_comp = tuning(n, 2.0, 3.0)
    assert 1 <= m <= n_comp <= n - 2


def test_tuning_rejects_tiny_samples():
    with pytest.raises(ValueError):
        tuning(7, 2.0, 3.0)


# --- GLM fitting ---


def test_gaussian_intercept_only_is_mean():
    y = np.array([0.3, 1.1, -0.4, 2.2, 0.9, 0.0, 1.5, -1.0])
    fit = fit_mle(y, np.zeros((8, 0)), GAUSS)
    assert fit.converged
    assert fit.coefs[0] == pytest.approx(y.mean(), abs=1e-12)


def test_poisson_intercept_only_is_log_mean():
    y = np.array([0.0, 1.0, 2.0, 4.0, 1.0, 0.0, 3.0, 1.0])
    fit = fit_mle(y, np.zeros((8, 0)), POIS)
    assert fit.converged
    assert fit.coefs[0] == pytest.approx(math.log(y.mean()), abs=1e-10)


def test_bernoulli_intercept_only_is_logit_mean():
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    fit = fit_mle(y, np.zeros((8, 0)), BERN)
    p = y.mean()
    assert fit.coefs[0] == pytest.approx(math.log(p / (1 - p)), abs=1e-10)


def test_gaussian_converges_in_one_newton_step():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((40, 3))
    y = 0.5 + scores @ [1.0, -0.5, 0.2] + rng.standard_normal(40)
    fit = fit_mle(y, scores, GAUSS)
    assert fit.converged and fit.iterations == 1


def test_convergence_is_judged_after_the_last_iteration():
    # max_iter stops the loop right after the step; only the check that
    # follows the loop can see that the gaussian step landed on the optimum
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((40, 3))
    y = 0.5 + scores @ [1.0, -0.5, 0.2] + rng.standard_normal(40)
    fit = fit_mle(y, scores, GAUSS, NewtonConfig(max_iter=1))
    assert fit.iterations == 1 and fit.converged is True
    counts = rng.poisson(np.exp(0.3 + scores @ [0.8, -0.5, 0.2])).astype(float)
    fit = fit_mle(counts, scores, POIS, NewtonConfig(max_iter=2))
    assert fit.iterations == 2 and fit.converged is False


def test_gaussian_fit_matches_least_squares():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, p = 60, 4
        scores = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        design = np.column_stack([np.ones(n), scores])
        ref, *_ = np.linalg.lstsq(design, y, rcond=None)
        fit = fit_mle(y, scores, GAUSS)
        assert fit.converged
        assert np.allclose(fit.coefs, ref, atol=1e-9)


@pytest.mark.parametrize("fam", [GAUSS, POIS, BERN])
def test_converged_gradient_is_small(fam):
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((200, 3)) * 0.5
    lam = 0.2 + scores @ [0.4, -0.3, 0.1]
    from fglm.expfam import sample_response

    y = sample_response(fam, lam, rng)
    fit = fit_mle(y, scores, fam)
    assert fit.converged
    assert fit.grad_norm <= 1e-10 * 200


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((50, 2))
    y = rng.poisson(np.exp(0.1 + scores @ [0.3, -0.2])).astype(float)
    perm = rng.permutation(50)
    a = fit_mle(y, scores, POIS)
    b = fit_mle(y[perm], scores[perm], POIS)
    assert np.allclose(a.coefs, b.coefs, atol=1e-10)


def test_zero_design_exercises_singular_hessian():
    # all-zero score columns make the hessian singular; the shifted solve
    # must still return the intercept-only fit with zero slope coefficients
    y = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 0.0, 2.5, 1.0])
    fit = fit_mle(y, np.zeros((8, 2)), GAUSS)
    assert fit.converged
    assert fit.coefs[0] == pytest.approx(y.mean(), abs=1e-10)
    assert np.allclose(fit.coefs[1:], 0.0, atol=1e-10)


def test_separated_bernoulli_sample_is_flagged():
    # perfectly separated with a narrow margin, so the coefficient must
    # travel far past the separation threshold before the gradient dies
    x = np.tile([-1.0, -0.5, -0.01, 0.01, 0.5, 1.0], 4).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(float)
    fit = fit_mle(y, x, BERN, NewtonConfig(max_iter=500))
    assert fit.separated and not fit.converged



def test_large_gaussian_coefficients_are_no_separation():
    # a gaussian maximizer always exists; the separation guard is for the
    # Poisson and Bernoulli families, whose maximizer may not
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((40, 3))
    y = 4e3 + scores @ [2e3, -5e3, 1e3] + rng.standard_normal(40)
    fit = fit_mle(y, scores, GAUSS)
    assert np.max(np.abs(fit.coefs)) > 1e3
    assert fit.converged and not fit.separated and fit.iterations == 1
    guarded = {name: get_family(name).mle_may_not_exist for name in family_names()}
    assert guarded == {"bernoulli": True, "gaussian": False, "poisson": True}

def test_objective_not_below_start():
    rng = np.random.default_rng(9)
    scores = rng.standard_normal((30, 2))
    y = rng.binomial(1, 0.5, 30).astype(float)
    fit = fit_mle(y, scores, BERN)
    # the solver starts at the intercept-only guess with zero slopes
    eta0 = np.full(30, BERN.init_natural(float(y.mean()), 30))
    start = float(y @ eta0 - np.sum(BERN.psi(eta0)))
    assert fit.objective >= start - 1e-12


def test_fit_mle_input_validation():
    y = np.zeros(5)
    with pytest.raises(ValueError):
        fit_mle(y, np.zeros((4, 1)), GAUSS)  # row mismatch
    with pytest.raises(ValueError):
        fit_mle(y, np.zeros((5, 4)), GAUSS)  # n < N + 2


# --- full pipeline ---


def test_estimate_slope_metadata():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=50)
    ds = sample_dataset(gt, 300, seed=0)
    res = estimate_slope(ds, GAUSS, 2.0, 3.0)
    assert isinstance(res, FitResult)
    assert (res.m, res.n_components) == tuning(300, 2.0, 3.0)
    assert res.slope.shape == (50,) and not res.slope.flags.writeable
    assert res.converged and not res.separated
    # kept slope coefficients are the fitted ones rotated back
    assert len(res.coefs) == res.n_components + 1


@pytest.mark.parametrize("family", family_names())
def test_estimate_slope_returns_its_whole_newton_fit(family):
    fam = get_family(family)
    gt = make_ground_truth(2.0, 3.0, fam, k_trunc=50, intercept=0.5)
    ds = sample_dataset(gt, 300, seed=0)
    res = estimate_slope(ds, fam, 2.0, 3.0)
    _, _, scores = spectral_estimate(ds, res.n_components)
    want = fit_mle(ds.y, scores, fam)
    assert FitResult._fields[: len(MLEFit._fields)] == MLEFit._fields  # the fit's own fields
    assert np.array_equal(res.coefs, want.coefs)
    for name in ("iterations", "grad_norm", "converged", "separated", "objective"):
        assert getattr(res, name) == getattr(want, name), name


# Scoring only the N fitted columns instead of all K moves the last bits of
# some losses on some OpenBLAS kernels: none on SkylakeX or Sandybridge; on
# Haswell, Zen, Katmai and Nehalem at most 4.2e-15 relative (coefficients
# 4.6e-16 of the largest).  The bounds leave a factor of about 2.4 and 4.
LEAN_LOSS_RTOL = 1e-14
LEAN_COEF_RTOL = 2e-15


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("family", family_names())
def test_lean_scores_match_the_full_k_path(family, n):
    fam = get_family(family)
    gt = make_ground_truth(2.0, 3.0, fam, k_trunc=200, intercept=0.5)
    for seed in range(6):
        ds = sample_dataset(gt, n, seed=seed)
        lean = estimate_slope(ds, fam, 2.0, 3.0)
        m, n_comp = lean.m, lean.n_components
        _, phi_tilde, scores = spectral_estimate(ds, ds.k_trunc)
        assert scores.shape == (n, 200)
        full = fit_mle(ds.y, scores[:, :n_comp], fam)
        full_loss = loss(phi_tilde[:, :m] @ full.coefs[1 : m + 1], gt)
        assert lean.iterations == full.iterations and lean.converged == full.converged
        assert abs(loss(lean.slope, gt) - full_loss) <= LEAN_LOSS_RTOL * full_loss
        scale = np.max(np.abs(full.coefs))
        assert np.max(np.abs(lean.coefs - full.coefs)) <= LEAN_COEF_RTOL * scale


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize("mu_mode", ["zero", "bumps"])
@pytest.mark.parametrize("family", family_names())
def test_overwrite_x_keeps_every_bit(family, mu_mode):
    # centring in the sample's own memory must not move a bit of any result;
    # the default must leave the sample as it was drawn
    fam = get_family(family)
    gt = make_ground_truth(2.0, 3.0, fam, k_trunc=200, intercept=0.5, mu_mode=mu_mode)
    n, seed = 500, 3

    ds = sample_dataset(gt, n, seed)
    drawn = ds.x.copy()
    want = spectral_estimate(ds, 7)
    assert np.array_equal(_bits(ds.x), _bits(drawn))
    ds = sample_dataset(gt, n, seed)
    got = spectral_estimate(ds, 7, overwrite_x=True)
    for name, got_arr, want_arr in zip(("theta_tilde", "phi_tilde", "scores"), got, want):
        assert np.array_equal(_bits(got_arr), _bits(want_arr)), name
    assert np.array_equal(_bits(ds.x), _bits(drawn - drawn.mean(axis=0)))  # centred in place

    ds = sample_dataset(gt, n, seed)
    want = estimate_slope(ds, fam, 2.0, 3.0)
    assert np.array_equal(_bits(ds.x), _bits(drawn))
    got = estimate_slope(sample_dataset(gt, n, seed), fam, 2.0, 3.0, overwrite_x=True)
    assert np.array_equal(_bits(got.coefs), _bits(want.coefs))
    assert np.array_equal(_bits(got.slope), _bits(want.slope))
    assert (got.m, got.n_components, got.iterations) == (want.m, want.n_components,
                                                         want.iterations)


def test_estimate_slope_loss_shrinks_with_n():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=100)
    small = np.mean(
        [
            loss(estimate_slope(sample_dataset(gt, 250, seed=s), GAUSS, 2.0, 3.0).slope, gt)
            for s in range(10)
        ]
    )
    large = np.mean(
        [
            loss(estimate_slope(sample_dataset(gt, 4000, seed=s), GAUSS, 2.0, 3.0).slope, gt)
            for s in range(10)
        ]
    )
    assert large < small


def test_slope_norm_bound_under_zero_signal():
    # with a zero slope the estimate's squared norm stays below 6 m^(1+alpha) / n
    gt0 = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=40)
    gt = GroundTruth(
        alpha=gt0.alpha,
        beta_s=gt0.beta_s,
        radius=gt0.radius,
        intercept=0.0,
        mean=gt0.mean,
        eigvals=gt0.eigvals,
        slope_coeffs=np.zeros(40),
        family=GAUSS,
    )
    n = 2000
    m, _ = tuning(n, 2.0, 3.0)
    bound = 6.0 * m ** (1.0 + 2.0) / n
    assert bound == pytest.approx(0.081)
    for s in range(20):
        ds = sample_dataset(gt, n, seed=s)
        res = estimate_slope(ds, GAUSS, 2.0, 3.0)
        assert loss(res.slope, gt) <= bound


def test_loss_identities():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=30)
    assert loss(gt.slope_coeffs, gt) == 0.0
    assert loss(np.zeros(30), gt) == float(np.dot(gt.slope_coeffs, gt.slope_coeffs))
    bumped = gt.slope_coeffs.copy()
    bumped[0] += 0.25
    assert loss(bumped, gt) == pytest.approx(0.0625)


@pytest.mark.parametrize("shape", [(29,), (31,), (1,), (30, 1)])
def test_loss_refuses_a_slope_of_another_length(shape):
    # a shorter slope is not zero-padded, and a one-entry one is not broadcast
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=30)
    with pytest.raises(ValueError, match="slope estimate must have the truth's 30 coefficients"):
        loss(np.zeros(shape), gt)


def test_estimate_slope_needs_min_sample():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=20)
    ds = sample_dataset(gt, 7, seed=0)
    with pytest.raises(ValueError):
        estimate_slope(ds, GAUSS, 2.0, 3.0)
