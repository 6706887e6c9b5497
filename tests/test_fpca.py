import numpy as np
import pytest

from fglm.datagen import Dataset, make_ground_truth, sample_dataset
from fglm.expfam import get_family
from fglm.fpca import (
    compute_scores,
    eigendecompose,
    sample_cov,
    sample_mean,
    spectral_estimate,
)


def _dataset(n=40, k=12, seed=0):
    gt = make_ground_truth(2.0, 3.0, get_family("gaussian"), k_trunc=k)
    return sample_dataset(gt, n, seed=seed)


def _centred(ds):
    """The sample minus its coefficient average, as spectral_estimate passes it on."""
    return Dataset(x=ds.x - ds.x.mean(axis=0), y=ds.y, lambda_true=ds.lambda_true)


def test_sample_mean_is_coefficient_average():
    ds = _dataset()
    assert np.allclose(sample_mean(ds), ds.x.mean(axis=0))


def test_sample_cov_matches_numpy():
    ds = _dataset()
    assert np.allclose(sample_cov(_centred(ds)), np.cov(ds.x, rowvar=False), atol=1e-12)


def test_cov_requires_two_observations():
    ds = Dataset(
        x=[[1.0, 0.0], [0.0, 1.0]],
        y=[0.0, 1.0],
        lambda_true=[0.0, 0.0],
    )
    sample_cov(ds)  # two rows is fine
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError, match="covariance is not symmetric within 1e-10"):
        eigendecompose([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("cov", [np.full((3, 3), np.nan), [[1.0, np.inf], [np.inf, 1.0]]],
                         ids=["nan", "inf"])
def test_eigendecompose_refuses_a_non_finite_matrix(cov):
    # NaN - NaN and inf - inf are NaN, which no symmetry tolerance rejects
    with pytest.raises(ValueError, match="covariance is not finite"):
        eigendecompose(cov)


def test_eigendecompose_known_matrix():
    # eigenvalues of [[2,1],[1,2]] are 3 and 1
    vals, vecs = eigendecompose([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(vals, [3.0, 1.0])
    assert np.allclose(np.abs(vecs[:, 0]), np.sqrt(0.5))
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-14)


def test_eigendecompose_returns_c_order_eigenvectors():
    # the last bits of the score and slope products depend on this layout
    _, vecs = eigendecompose(sample_cov(_dataset()))
    assert vecs.flags.c_contiguous
    ds = _dataset()
    _, phi_tilde, _ = spectral_estimate(ds, ds.k_trunc)
    assert phi_tilde.flags.c_contiguous


def test_eigendecompose_small_offdiagonal():
    # closed form: 1.5 +- sqrt(0.26), so the top eigenvalue moves by ~0.0099
    vals, _ = eigendecompose([[2.0, 0.1], [0.1, 1.0]])
    assert vals[0] == pytest.approx(1.5 + np.sqrt(0.26), rel=1e-15)
    assert vals[1] == pytest.approx(1.5 - np.sqrt(0.26), rel=1e-15)
    assert abs(vals[0] - 2.0) == pytest.approx(0.009901951359278449, abs=1e-12)


def test_eigendecompose_identity_is_degenerate():
    vals, vecs = eigendecompose(np.eye(3))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-14)


def test_cov_of_two_point_sample():
    ds = Dataset(
        x=[[1.0, 0.0], [-1.0, 0.0]],
        y=[0.0, 0.0],
        lambda_true=[0.0, 0.0],
    )
    assert np.array_equal(sample_cov(ds), [[2.0, 0.0], [0.0, 0.0]])


def test_eigendecompose_clamps_roundoff_negatives():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one, eigenvalues 2 and 0
    vals, _ = eigendecompose(m)
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] >= 0.0


def test_scores_have_exact_zero_mean_and_diagonal_gram():
    ds = _dataset(n=60, k=10)
    theta_tilde, _, scores = spectral_estimate(ds, ds.k_trunc)
    assert np.allclose(scores.mean(axis=0), 0.0, atol=1e-13)
    gram = scores.T @ scores / (ds.n - 1.0)
    assert np.allclose(gram, np.diag(theta_tilde), atol=1e-12)


def test_eigenvalues_sorted_descending():
    ds = _dataset()
    theta_tilde, _, _ = spectral_estimate(ds, ds.k_trunc)
    assert np.all(np.diff(theta_tilde) <= 1e-15)


def test_cov_reconstruction_from_eigenpairs():
    ds = _dataset(n=80, k=8)
    theta_tilde, phi_tilde, _ = spectral_estimate(ds, ds.k_trunc)
    rebuilt = phi_tilde @ np.diag(theta_tilde) @ phi_tilde.T
    assert np.allclose(rebuilt, np.cov(ds.x, rowvar=False), atol=1e-12)


def test_partial_scores_prefix_of_full():
    ds = _dataset(n=30, k=9)
    _, phi_tilde, scores = spectral_estimate(ds, ds.k_trunc)
    part = compute_scores(_centred(ds), phi_tilde, 4)
    assert np.allclose(part, scores[:, :4])
    _, _, lean = spectral_estimate(ds, 4)
    assert lean.shape == (30, 4)
    assert np.allclose(lean, scores[:, :4], rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        compute_scores(_centred(ds), phi_tilde, 10)


def test_centring_once_keeps_every_bit_of_a_shifted_sample():
    # a nonzero mean function, so a missed or repeated centring would show;
    # the references are the expressions that each function centred with
    gt = make_ground_truth(2.0, 3.0, get_family("poisson"), k_trunc=15, mu_mode="bumps")
    ds = sample_dataset(gt, 200, seed=4)
    n_comp = 5
    got_theta, got_phi, got_scores = spectral_estimate(ds, n_comp)
    x = ds.x
    xbar = x.mean(axis=0)
    assert abs(xbar[0]) > 0.5  # the sample sits off the origin
    centred = x - xbar
    cov = centred.T @ centred / (ds.n - 1.0)
    assert np.array_equal(sample_mean(ds), xbar)
    assert np.array_equal(sample_cov(_centred(ds)), cov)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    phi_tilde = np.ascontiguousarray(vecs[:, order])
    assert np.array_equal(got_phi, phi_tilde)
    assert got_phi.flags.c_contiguous
    assert np.array_equal(got_theta, np.maximum(vals[order], 0.0))
    assert np.array_equal(got_scores, centred @ phi_tilde[:, :n_comp])


def _read_only(x):
    x.flags.writeable = False
    return x


@pytest.mark.parametrize(
    "hold",
    [lambda x: _read_only(np.array(x)), lambda x: _read_only(np.array(x).view()),
     lambda x: np.frombuffer(x.tobytes()).reshape(x.shape),
     lambda x: np.repeat(x, 2, axis=1)[:, ::2]],
    ids=["read-only-owner", "read-only-view", "frombuffer-bytes", "strided"],
)
def test_overwrite_x_copies_memory_it_may_not_write(hold):
    # these are not writable (a read-only view of a writable owner included),
    # or (strided) the memory is not one block: the sample is centred into
    # a copy and left as it was
    drawn = _dataset(n=50, k=8).x
    ds = Dataset(x=hold(drawn), y=np.zeros(50), lambda_true=np.zeros(50))
    want = spectral_estimate(Dataset(x=drawn, y=ds.y, lambda_true=ds.lambda_true), 3)
    got = spectral_estimate(ds, 3, overwrite_x=True)
    assert np.array_equal(ds.x, drawn)
    for name, got_arr, want_arr in zip(("theta_tilde", "phi_tilde", "scores"), got, want):
        assert np.array_equal(got_arr, want_arr), name


def test_mean_norm_obeys_root_n_bound():
    # ||xbar|| <= 4 sqrt(trace(cov) / n) holds with overwhelming probability;
    # with the top eigenvalue at 1 a violation would be a >4.9 sigma event
    gt = make_ground_truth(2.0, 3.0, get_family("gaussian"), k_trunc=12)
    budget = 4.0 * np.sqrt(gt.eigvals.sum() / 50.0)
    for seed in range(60):
        ds = sample_dataset(gt, 50, seed=seed)
        assert np.linalg.norm(sample_mean(ds)) <= budget


def test_estimated_spectrum_near_truth_for_large_n():
    gt = make_ground_truth(2.0, 3.0, get_family("gaussian"), k_trunc=5)
    ds = sample_dataset(gt, 20_000, seed=2)
    theta_tilde, phi_tilde, _ = spectral_estimate(ds, ds.k_trunc)
    assert np.allclose(theta_tilde, gt.eigvals, rtol=0.06)
    # leading estimated component aligns with the first basis direction
    assert abs(phi_tilde[0, 0]) > 0.99
