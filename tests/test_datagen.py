import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglm.datagen import (
    Dataset,
    GroundTruth,
    make_ground_truth,
    sample_dataset,
)
from fglm.expfam import get_family
from fglm.fpca import spectral_estimate

GAUSS = get_family("gaussian")


def _rebuilt(gt, **changes):
    """A GroundTruth built anew from `gt`'s constructor arguments with `changes` applied."""
    return GroundTruth(**{**{name: getattr(gt, name) for name in GroundTruth.__slots__}, **changes})


def test_canonical_truth_shape():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=50)
    k = np.arange(1.0, 51.0)
    assert np.array_equal(gt.eigvals, k**-2.0)
    assert np.allclose(np.abs(gt.slope_coeffs), k**-3.0)
    # alternating signs starting positive
    assert gt.slope_coeffs[0] > 0 > gt.slope_coeffs[1]
    assert gt.intercept == 0.5
    assert np.all(gt.mean == 0.0)
    # radius max(2^3, 1 + 0.5 + 0) = 8 with plenty of slack over ||b|| ~ 1.01
    assert gt.radius == 8.0


def test_slope_norm_partial_sum():
    # sum of k^-6 over all k is pi^6 / 945; the K=200 truncation is within 1e-9
    gt = make_ground_truth(2.0, 3.0, GAUSS)
    assert np.dot(gt.slope_coeffs, gt.slope_coeffs) == pytest.approx(
        math.pi**6 / 945.0, abs=1e-9
    )


def test_bumps_mean_mode():
    gt = make_ground_truth(2.0, 3.0, GAUSS, mu_mode="bumps")
    assert np.allclose(gt.mean[:4], np.arange(1.0, 5.0) ** -2.0)
    assert np.all(gt.mean[4:] == 0.0)


def test_integer_exponents_build_the_float_truth_bit_for_bit():
    ints, floats = make_ground_truth(2, 3, GAUSS), make_ground_truth(2.0, 3.0, GAUSS)
    for name in ("mean", "eigvals", "slope_coeffs"):
        assert getattr(ints, name).tobytes() == getattr(floats, name).tobytes()
    assert (ints.alpha, ints.beta_s, ints.radius) == (floats.alpha, floats.beta_s, floats.radius)


def test_truth_arrays_are_read_only_copies():
    mu = np.zeros(10)
    gt = _rebuilt(make_ground_truth(2.0, 3.0, GAUSS, k_trunc=10), mean=mu)
    mu[0] = 5.0
    assert gt.mean[0] == 0.0
    for name in ("mean", "eigvals", "slope_coeffs"):
        with pytest.raises(ValueError):
            getattr(gt, name)[0] = 1.0


@pytest.mark.parametrize("size", [9, 11])
def test_truth_refuses_a_mean_of_another_length(size):
    # a short mean would otherwise fail later, in sample_dataset's broadcast
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=10)
    msg = "mean, slope_coeffs and eigvals must have the same length"
    with pytest.raises(ValueError, match=msg):
        _rebuilt(gt, mean=np.zeros(size))


@pytest.mark.parametrize(
    "alpha,beta_s",
    [(1.0, 5.0), (0.5, 5.0), (2.0, 2.5), (2.0, 2.0)],
)
def test_smoothness_index_constraints(alpha, beta_s):
    with pytest.raises(ValueError):
        make_ground_truth(alpha, beta_s, GAUSS)


@pytest.mark.parametrize(
    "edit,msg",
    [
        (lambda t: t.__setitem__(3, t[2]), "decreasing"),
        (lambda t: t.__setitem__(3, t[2] - 1e-12), "gap"),
        (lambda t: t.__setitem__(0, 10.0), "envelope"),
    ],
)
def test_membership_rejects_bad_eigenvalues(edit, msg):
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=10)
    theta = gt.eigvals.copy()
    edit(theta)
    with pytest.raises(ValueError, match=msg):
        GroundTruth(
            alpha=gt.alpha,
            beta_s=gt.beta_s,
            radius=gt.radius,
            intercept=gt.intercept,
            mean=gt.mean,
            eigvals=theta,
            slope_coeffs=gt.slope_coeffs,
            family=GAUSS,
        )


def test_membership_rejects_oversized_slope():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=10)
    b = gt.slope_coeffs.copy()
    b[5] = 10.0
    with pytest.raises(ValueError, match="slope"):
        GroundTruth(
            alpha=gt.alpha,
            beta_s=gt.beta_s,
            radius=gt.radius,
            intercept=gt.intercept,
            mean=gt.mean,
            eigvals=gt.eigvals,
            slope_coeffs=b,
            family=GAUSS,
        )


def _with_nan_at(name, index):
    def edit(gt):
        values = getattr(gt, name).copy()
        values[index] = math.nan
        return {name: values}

    return edit


@pytest.mark.parametrize(
    "edit, msg",
    [
        (_with_nan_at("eigvals", 5), "eigenvalues and slope coefficients must be finite"),
        (_with_nan_at("slope_coeffs", 3), "eigenvalues and slope coefficients must be finite"),
        (_with_nan_at("mean", 2), "mean coefficients must be finite"),
        (lambda gt: {"mean": np.full(gt.k_trunc, math.inf)}, "mean coefficients must be finite"),
        (lambda gt: {"radius": math.nan}, "class radius must be finite and positive, got nan"),
        (lambda gt: {"radius": math.inf}, "class radius must be finite and positive, got inf"),
        (lambda gt: {"radius": -1.0}, "class radius must be finite and positive, got -1.0"),
        (lambda gt: {"alpha": math.nan}, "alpha must be finite and > 1"),
        (lambda gt: {"beta_s": math.nan}, r"beta_s must be finite and > \(alpha \+ 3\) / 2"),
        (lambda gt: {"intercept": math.nan}, "intercept must be finite"),
    ],
    ids=["nan_eigval", "nan_slope", "nan_mean", "inf_mean", "nan_radius", "inf_radius",
         "negative_radius", "nan_alpha", "nan_beta_s", "nan_intercept"],
)
def test_membership_rejects_non_finite_fields(edit, msg):
    # every comparison with NaN is False and an infinite radius passes every envelope
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=10)
    with pytest.raises(ValueError, match=msg):
        _rebuilt(gt, **edit(gt))


def _pairwise_gap_holds(gt):
    """The pairwise gap condition as the membership check once tested it, all k < j."""
    k = np.arange(1, gt.k_trunc + 1)
    pk = k[:, None] ** -gt.alpha
    diff_theta = gt.eigvals[:, None] - gt.eigvals[None, :]
    diff_pow = pk - pk.T
    upper = np.triu(np.ones((gt.k_trunc, gt.k_trunc), dtype=bool), k=1)
    return not np.any(diff_theta[upper] < diff_pow[upper] / gt.radius - 1e-15)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(1.01, 6.0),
    radius=st.floats(4.0, 100.0),
    margins=st.lists(st.floats(1e-12, 1.0), min_size=3, max_size=60),
    tail=st.floats(1e-6, 1.0),
)
def test_adjacent_gaps_imply_the_pairwise_gap_condition(alpha, radius, margins, tail):
    # every adjacent gap at its floor (alpha / r) i^(-alpha-1), up to a relative margin
    k = np.arange(1.0, len(margins) + 2)
    gaps = (alpha / radius) * k[:-1] ** (-alpha - 1.0) * (1.0 + np.asarray(margins))
    theta = [tail * k[-1] ** -alpha / radius]
    for gap in gaps[::-1]:
        theta.append(theta[-1] + gap)
    gt = GroundTruth(
        alpha=alpha,
        beta_s=(alpha + 3.0) / 2.0 + 1.0,
        radius=radius,
        intercept=0.0,
        mean=np.zeros(k.size),
        eigvals=theta[::-1],
        slope_coeffs=np.zeros(k.size),
        family=GAUSS,
    )
    assert _pairwise_gap_holds(gt)


def test_dataset_validation_and_views():
    ds = Dataset(
        x=[[1.5, -0.5], [1.0, 2.0]],
        y=[1.0, 0.0],
        lambda_true=[0.2, 0.3],
    )
    assert ds.n == 2 and ds.k_trunc == 2
    assert np.array_equal(ds.x, [[1.5, -0.5], [1.0, 2.0]])
    assert ds.x.dtype == ds.y.dtype == ds.lambda_true.dtype == np.float64
    with pytest.raises(ValueError):
        Dataset(x=[0.0, 1.0], y=[1.0], lambda_true=[0.0])
    with pytest.raises(ValueError):
        Dataset(x=[[0.0, 1.0]], y=[1.0, 2.0], lambda_true=[0.0])


def test_dataset_holds_the_callers_arrays():
    # a sample is its maker's: float64 arrays are held as given, write flag
    # included, and overwrite_x centres a writable C-contiguous x in place
    drawn = sample_dataset(make_ground_truth(2.0, 3.0, GAUSS, k_trunc=8), 40, seed=0)
    x, y, lam = drawn.x.copy(), drawn.y.copy(), drawn.lambda_true.copy()
    ds = Dataset(x=x, y=y, lambda_true=lam)
    assert ds.x is x and ds.y is y and ds.lambda_true is lam
    assert x.flags.writeable and x.flags.c_contiguous
    want = spectral_estimate(Dataset(x=drawn.x, y=y, lambda_true=lam), 3)
    got = spectral_estimate(ds, 3, overwrite_x=True)
    assert ds.x is x and np.shares_memory(ds.x, x)
    centred = drawn.x - drawn.x.mean(axis=0)
    assert x.tobytes() == centred.tobytes()
    for name, got_arr, want_arr in zip(("theta_tilde", "phi_tilde", "scores"), got, want):
        assert got_arr.tobytes() == want_arr.tobytes(), name

    frozen = drawn.x.copy()
    frozen.flags.writeable = False
    assert Dataset(x=frozen, y=y, lambda_true=lam).x is frozen


def test_sampling_deterministic_and_seed_sensitive():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=20)
    a = sample_dataset(gt, 16, seed=7)
    b = sample_dataset(gt, 16, seed=7)
    c = sample_dataset(gt, 16, seed=8)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
    assert not np.array_equal(a.y, c.y)


def test_sampled_scores_match_spectrum():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=6)
    ds = sample_dataset(gt, 100_000, seed=1)
    emp = ds.x.var(axis=0, ddof=1)
    assert np.allclose(emp, gt.eigvals, rtol=0.03)
    assert np.allclose(ds.x.mean(axis=0), 0.0, atol=0.02)


def test_lambda_true_recomputes():
    gt = make_ground_truth(2.0, 3.0, GAUSS, k_trunc=30, mu_mode="bumps")
    ds = sample_dataset(gt, 50, seed=3)
    lam = gt.intercept + ds.x @ gt.slope_coeffs
    assert np.allclose(lam, ds.lambda_true, atol=1e-12)
