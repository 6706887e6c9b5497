import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fglm import spectral_diag
from fglm.expfam import get_family
from fglm.spectral_diag import (
    PerturbationPair,
    aligned_eigen_data,
    check_chisq_maximal,
    check_eigenvalue_bound,
    check_eigenvector_bound,
    check_eigenvector_remainder,
    check_fisher_expectation,
    check_mle_linearization,
    check_projection_bound,
    eigensolver_gap_floor,
    expected_fisher,
    fisher_study,
    fisher_weight_moments,
    random_perturbation_suite,
)

GAUSS = get_family("gaussian")
POIS = get_family("poisson")


def _pair(eps=0.01, dim=6, seed=0, alpha=2.0):
    rng = np.random.default_rng(seed)
    spectrum = np.arange(1, dim + 1, dtype=float) ** -alpha
    base = np.diag(spectrum)
    raw = rng.standard_normal((dim, dim))
    sym = 0.5 * (raw + raw.T)
    sym /= np.max(np.abs(np.linalg.eigvalsh(sym)))
    return PerturbationPair.from_matrices(base, base + eps * sym)


def test_from_matrices_validation():
    with pytest.raises(ValueError):
        PerturbationPair.from_matrices(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="base matrix is not symmetric within 1e-10"):
        PerturbationPair.from_matrices([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    with pytest.raises(ValueError):
        PerturbationPair.from_matrices(np.eye(2), np.eye(3))


@pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), [[1.0, np.inf], [np.inf, 1.0]]],
                         ids=["nan", "inf"])
def test_from_matrices_refuses_a_non_finite_matrix(bad):
    # NaN - NaN and inf - inf are NaN, which no symmetry tolerance rejects
    with pytest.raises(ValueError, match="base matrix is not finite"):
        PerturbationPair.from_matrices(bad, np.eye(2))
    with pytest.raises(ValueError, match="perturbed matrix is not finite"):
        PerturbationPair.from_matrices(np.eye(2), bad)


def test_two_by_two_worked_example():
    # base diag(2, 1); perturbation 0.4 on the off-diagonal moves the
    # eigenvalues to 1.5 +- sqrt(0.41) while delta_op is exactly 0.4
    pair = PerturbationPair.from_matrices(
        [[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.4], [0.4, 1.0]]
    )
    root = math.sqrt(0.41)
    assert pair.theta_tilde[0] == pytest.approx(1.5 + root, abs=1e-12)
    assert pair.theta_tilde[1] == pytest.approx(1.5 - root, abs=1e-12)
    assert pair.delta_op == pytest.approx(0.4, abs=1e-12)
    assert pair.delta_hs == pytest.approx(math.sqrt(0.32), abs=1e-12)
    max_abs_err, passed = check_eigenvalue_bound(pair)
    assert passed
    assert max_abs_err == pytest.approx(root - 0.5, abs=1e-12)


def test_small_offdiagonal_worked_example():
    # same base with a 0.1 coupling: everything has a closed form, down to
    # the rotation angle phi with tan(2 phi) = 0.2
    pair = PerturbationPair.from_matrices(
        [[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.1], [0.1, 1.0]]
    )
    assert pair.delta_op == pytest.approx(0.1, abs=1e-14)
    assert pair.delta_hs == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-14)
    assert pair.theta_tilde[0] == pytest.approx(1.5 + math.sqrt(0.26), abs=1e-14)
    max_abs_err, passed = check_eigenvalue_bound(pair)
    assert passed
    assert max_abs_err == pytest.approx(math.sqrt(0.26) - 0.5, abs=1e-14)

    assert pair.admissible[0]  # gap 1 > 5 * 0.1
    assert check_eigenvector_bound(pair)[0]
    assert np.linalg.norm(pair.lead[:, 0]) == pytest.approx(0.1, abs=1e-14)
    phi = 0.5 * math.atan(0.2)
    err_norm = np.linalg.norm(pair.err[:, 0])
    assert err_norm == pytest.approx(2.0 * math.sin(0.5 * phi), abs=1e-12)

    assert check_eigenvector_remainder(pair)[0]
    assert pair.rem[0, 0] == pytest.approx(-0.5 * err_norm**2, abs=1e-15)
    assert pair.rem[0, 0] == pytest.approx(-0.0049, abs=2e-4)

    admissible, _, identity_passed, ratio = check_projection_bound(pair, [0], [0.0, 1.0])
    assert admissible
    assert identity_passed
    assert ratio <= 10.0


def test_identical_matrices_give_zero_errors():
    mat = np.diag([3.0, 2.0, 1.0])
    pair = PerturbationPair.from_matrices(mat, mat)
    assert pair.delta_op == 0.0
    assert pair.delta_hs == 0.0
    assert np.all(pair.err == 0.0)
    assert np.all(pair.lead == 0.0)
    assert check_eigenvalue_bound(pair)[0] == 0.0
    assert np.all(pair.admissible) and np.all(check_eigenvector_bound(pair))
    _, _, identity_passed, ratio = check_projection_bound(pair, [0, 2], [1.0, -1.0, 2.0])
    assert identity_passed
    assert ratio == 0.0  # rho is zero, or the ratio would be positive or inf


def _per_index_checks(pair, k):
    """The eigenvector and remainder checks as first written, one index k
    per call: (eigenvector passed, remainder passed)."""
    admissible = bool(pair.admissible[k])
    err_norm = float(np.linalg.norm(pair.err[:, k]))
    lead_norm = float(np.linalg.norm(pair.lead[:, k]))
    vec_passed = (not admissible) or err_norm <= 3.0 * lead_norm + 1e-10
    fk_sq = float(np.dot(pair.err[:, k], pair.err[:, k]))
    diag_abs_err = abs(float(pair.rem[k, k]) + 0.5 * fk_sq)
    with np.errstate(divide="ignore"):
        budget = 5.0 * pair.delta_op * lead_norm / pair.gap_table[:, k]
    excess = np.abs(pair.rem[:, k]) - budget
    excess[k] = -np.inf
    max_off_excess = float(np.max(excess))
    rem_passed = (not admissible) or (diag_abs_err <= 1e-10 and max_off_excess <= 1e-10)
    return vec_passed, rem_passed


def _misrotated_pair():
    """diag(3, 2, 1) against a perturbation of size 1e-3 whose reported
    eigenvectors are turned by 0.1 rad in the plane of e_1 and e_2: far
    more than a perturbation of that size can move them, as an eigensolver
    fault would, so the eigenvector and remainder bounds break at indices
    0 and 1.  The errors are recomputed from the turned eigenvectors."""
    base = np.diag([3.0, 2.0, 1.0])
    bump = np.zeros((3, 3))
    bump[0, 1] = bump[1, 0] = 1e-3
    honest = PerturbationPair.from_matrices(base, base + bump)
    turn = np.eye(3)
    turn[:2, :2] = [[math.cos(0.1), -math.sin(0.1)], [math.sin(0.1), math.cos(0.1)]]
    turned = turn @ honest.vecs_tilde
    errors = aligned_eigen_data(base + bump, honest.theta, honest.vecs, turned, honest.delta_op)
    return honest._replace(vecs_tilde=turned, **errors)


def _equivalence_pairs():
    """About 300 pairs: rotated decaying, flat and rank-one spectra at
    perturbation sizes from zero to far past the gap hypothesis, plus a
    tied spectrum, a zero perturbation, the 2 x 2 worked example and a
    pair with misrotated eigenvectors."""
    rng = np.random.default_rng(20)
    pairs = []
    for idx in range(294):
        dim = int(rng.integers(2, 13))
        kind = idx % 6
        if kind == 4:
            spectrum = np.ones(dim)  # every gap is rounding noise
        elif kind == 5:
            spectrum = (np.arange(dim) == 0).astype(float)  # tiny gaps, unperturbed
        else:
            spectrum = np.arange(1, dim + 1, dtype=float) ** -2.0
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        rot = q * np.sign(np.diag(r))
        base = (rot * spectrum) @ rot.T
        base = 0.5 * (base + base.T)
        raw = rng.standard_normal((dim, dim))
        sym = 0.5 * (raw + raw.T)
        eps = 0.0 if kind == 5 else (0.0, 1e-3, 1e-2, 0.2, 1e-2)[kind]
        pairs.append(PerturbationPair.from_matrices(base, base + eps * sym))
    tied = np.diag([3.0, 2.0, 2.0, 1.0])
    bump = np.zeros((4, 4))
    bump[0, 3] = bump[3, 0] = 0.05
    pairs += [
        PerturbationPair.from_matrices(tied, tied),
        PerturbationPair.from_matrices(tied, tied + bump),
        PerturbationPair.from_matrices(np.diag([3.0, 2.0, 1.0]), np.diag([3.0, 2.0, 1.0])),
        PerturbationPair.from_matrices([[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.1], [0.1, 1.0]]),
        PerturbationPair.from_matrices([[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.4], [0.4, 1.0]]),
        _misrotated_pair(),
    ]
    return pairs


def test_array_checks_match_the_per_index_checks():
    seen = np.zeros((2, 2), dtype=int)  # [admissible?, remainder passed?]
    for pair in _equivalence_pairs():
        vec = check_eigenvector_bound(pair)
        rem = check_eigenvector_remainder(pair)
        admissible = check_projection_bound(pair, (0, 1), np.ones(pair.dim))[0]
        assert admissible == bool(pair.admissible[:2].all())
        # a tie puts 0/0 and inf - inf into the budget of inadmissible columns;
        # the checks silence that themselves, the per-index oracle does not
        with np.errstate(invalid="ignore"):
            want = np.array([_per_index_checks(pair, k) for k in range(pair.dim)]).T
        assert vec.shape == rem.shape == (pair.dim,)
        assert vec.tolist() == want[0].tolist()
        assert rem.tolist() == want[1].tolist()
        np.add.at(seen, (pair.admissible.astype(int), rem.astype(int)), 1)
    # both verdicts occur on admissible indices, and inadmissible ones pass
    assert seen[1, 0] > 0 and seen[1, 1] > 0 and seen[0, 1] > 0 and seen[0, 0] == 0


def test_a_real_violation_clears_the_eigensolver_floor():
    pair = _misrotated_pair()
    floor = eigensolver_gap_floor(pair.theta)
    assert pair.gaps.min() == pytest.approx(1.0) and pair.admissible.all()
    assert check_eigenvector_bound(pair).tolist() == [False, False, True]
    assert check_eigenvector_remainder(pair).tolist() == [False, False, True]
    # each broken bound is overshot by far more than the floor
    err_norm = np.linalg.norm(pair.err, axis=0)
    lead_norm = np.linalg.norm(pair.lead, axis=0)
    assert np.all((err_norm - 3.0 * lead_norm)[:2] > 1e3 * floor)
    excess = np.abs(pair.rem) - 5.0 * pair.delta_op * lead_norm / pair.gap_table
    np.fill_diagonal(excess, -np.inf)
    assert np.all(excess.max(axis=0)[:2] > 1e3 * floor)


def test_eigensolver_floor_skips_only_gaps_rounding_can_swamp():
    # dim * eps * theta_max / 1e-10 at dim 12 and theta_max 1
    pair = _pair(dim=12)
    assert eigensolver_gap_floor(pair.theta) == pytest.approx(12 * 2.220446049250313e-16 / 1e-10)
    # the spectrum k^-2 keeps every gap above it, so the stock suite skips no extra index
    spectrum = np.arange(1, 13, dtype=float) ** -2.0
    assert np.min(spectrum[:-1] - spectrum[1:]) > 40.0 * eigensolver_gap_floor(pair.theta)
    # under k^-20 every gap but the first, 1 - 2^-20, is below 1e-6: those indices are skipped
    steep = _pair(eps=1e-25, dim=6, alpha=20.0)
    assert steep.admissible.tolist() == [True] + [False] * 5


def test_eigenvalue_bound_on_random_pairs():
    for seed in range(20):
        pair = _pair(eps=0.05, seed=seed)
        max_abs_err, passed = check_eigenvalue_bound(pair)
        assert passed
        assert max_abs_err <= pair.delta_op + 1e-12


def test_lead_matrix_is_antisymmetric():
    for seed in range(10):
        pair = _pair(seed=seed)
        assert np.allclose(pair.lead + pair.lead.T, 0.0, atol=1e-10)
        assert np.all(np.diag(pair.lead) == 0.0)


def test_remainder_shrinks_quadratically():
    # halving the perturbation four times should shrink the second-order
    # part by roughly 16x each time
    norms = [
        np.linalg.norm(_pair(eps=e, seed=3).rem)
        for e in (4e-3, 1e-3)
    ]
    assert norms[0] / norms[1] == pytest.approx(16.0, rel=0.25)


def test_remainder_diagonal_identity_is_exact():
    # eps small enough that every index clears the 5 delta gap hypothesis
    pair = _pair(eps=0.002, seed=1)
    passed = check_eigenvector_remainder(pair)
    assert np.all(pair.admissible)
    diag_abs_err = np.abs(np.diagonal(pair.rem) + 0.5 * np.sum(pair.err**2, axis=0))
    assert np.all(diag_abs_err <= 1e-13)
    assert passed.shape == (pair.dim,)
    assert np.all(passed)


def test_eigenvector_bound_and_admissibility():
    pair = _pair(eps=0.001, seed=2)
    assert np.all(pair.admissible) and np.all(check_eigenvector_bound(pair))
    err_norm = np.linalg.norm(pair.err, axis=0)
    assert np.all(err_norm <= 3.0 * np.linalg.norm(pair.lead, axis=0) + 1e-10)
    # a perturbation larger than a fifth of the smallest gap voids the
    # hypothesis for the crowded bottom eigenvalues, which pass by convention
    big = _pair(eps=0.05, dim=10, seed=2)
    admissible = big.admissible
    assert not np.all(admissible)
    assert np.all(check_eigenvector_bound(big)[~admissible])


def test_projection_identity_and_envelope():
    pair = _pair(eps=0.01, seed=4)
    b = np.where(np.arange(6) % 2 == 0, 1.0, -1.0) * np.arange(1.0, 7.0) ** -3.0
    admissible, identity_err, identity_passed, ratio = check_projection_bound(pair, (0, 1), b)
    assert admissible
    assert identity_passed
    assert identity_err <= 1e-12
    assert 0 < ratio < 10.0  # a positive ratio needs a positive envelope


def test_projection_input_validation():
    pair = _pair()
    b = np.zeros(6)
    with pytest.raises(ValueError):
        check_projection_bound(pair, (), b)
    with pytest.raises(ValueError):
        check_projection_bound(pair, (0, 99), b)
    with pytest.raises(ValueError):
        check_projection_bound(pair, (0,), np.zeros(5))


def test_random_suite_has_no_violations():
    rows, verdicts = random_perturbation_suite(reps=120, max_dim=10, seed=0)
    assert len(rows) == 120
    assert [v.check for v in verdicts] == [
        "eigenvalue", "eigenvector", "remainder", "projection_identity"
    ]
    for v in verdicts:  # a violation count against bound 0, over what it judged
        assert (v.statistic, v.bound, v.passed) == (0, 0, True)
        assert v.checked > 0
    assert verdicts[0].checked == 120  # every instance
    assert max(row["proj_ratio"] for row in rows if row["proj_admissible"]) < 10.0


@pytest.mark.parametrize("reps", [0, -3])
def test_random_suite_refuses_an_empty_run(reps):
    with pytest.raises(ValueError, match="at least 1"):
        random_perturbation_suite(reps=reps)


# --- Fisher-matrix expectation ---


def test_fisher_moments_gaussian_are_unit():
    r0, r1, r2 = fisher_weight_moments(GAUSS, 0.7, 2.0)
    assert r0 == pytest.approx(1.0, abs=1e-12)
    assert r1 == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fisher_moments_poisson_closed_form():
    # E[nu^j exp(a + k nu)] has log-normal-style closed forms
    a, k = 0.3, 0.5
    base = math.exp(a + 0.5 * k * k)
    r0, r1, r2 = fisher_weight_moments(POIS, a, k)
    assert r0 == pytest.approx(base, rel=1e-12)
    assert r1 == pytest.approx(k * base, rel=1e-12)
    assert r2 == pytest.approx((1.0 + k * k) * base, rel=1e-12)


def test_expected_fisher_gaussian_is_identity():
    out = expected_fisher(GAUSS, [0.5, 0.2, -0.1], [1.0, 1.0, 0.5])
    assert np.allclose(out, np.eye(3), atol=1e-12)


def test_expected_fisher_zero_slope_is_scaled_identity():
    out = expected_fisher(POIS, [0.3, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert np.allclose(out, math.exp(0.3) * np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        expected_fisher(POIS, [0.3, 0.0], [1.0])


def test_fisher_montecarlo_matches_expectation():
    max_abs_z, mean_sq_dev = check_fisher_expectation(
        400, POIS, [0.3, 0.5, -0.2, 0.1], [1.0, 1.0, 0.35, 0.19], reps=150, seed=0
    )
    assert max_abs_z <= 4.0
    assert mean_sq_dev > 0


@pytest.mark.parametrize("reps", [1, 0, -4])
def test_fisher_needs_two_reps_for_a_standard_error(reps):
    with pytest.raises(ValueError, match="at least 2"):
        check_fisher_expectation(50, GAUSS, [0.3, 0.5], [1.0, 1.0], reps=reps)
    with pytest.raises(ValueError, match="at least 2"):
        fisher_study(GAUSS, n_grid=(50,), reps=reps)


@pytest.mark.parametrize(
    "gamma, diag_scale",
    [
        ([0.3, 0.5, -0.2], [1.0, 1.0]),
        ([0.3, 0.5], [1.0, 1.0, 0.35]),
        # no slope, or not a vector: nothing to check, refused as the linearization does
        ([], []),
        ([0.3], [1.0]),
        ([[0.3, 0.1]], [[1.0, 1.0]]),
    ],
)
def test_fisher_refuses_unequal_lengths_before_any_draw(monkeypatch, gamma, diag_scale):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(spectral_diag.np.random, "default_rng", no_draws)
    if len(gamma) < 2:
        message = "gamma must be a vector of an intercept and at least one slope"
    else:
        message = "gamma and diag_scale must be vectors of equal length"
    with pytest.raises(ValueError, match=message):
        check_fisher_expectation(50, POIS, gamma, diag_scale, reps=10)


def test_fisher_study_concentrates():
    reports = fisher_study(GAUSS, n_grid=(200, 1600), reps=60, seed=0)
    assert [(n, n_comp) for n, n_comp, _, _ in reports] == [
        (200, int(math.floor(200**0.2))),
        (1600, int(math.floor(1600**0.2))),
    ]
    assert reports[-1][3] < reports[0][3]  # mean squared deviation
    assert all(max_abs_z <= 5.0 for _, _, max_abs_z, _ in reports)


# --- weighted chi-square maximal inequality ---


def test_chisq_single_cell_matches_exact_tail():
    [(estimate, se, bound)] = check_chisq_maximal(1, (1.0,), (3.0,), reps=200_000, seed=0)
    exact = stats.chi2.sf(12.0, 1)  # threshold is 4 * 1 * (log 1 + 3)
    assert abs(estimate - exact) <= 5.0 * se + 1e-6
    assert estimate <= bound + 4 * se


def test_chisq_two_weights_matches_exact_tail():
    # equal weights 1/2 over two cells make the sum 0.5 * chisq(2), whose
    # tail is exp(-threshold); with n = 2 rows the max has tail 1-(1-p)^2
    [(estimate, se, bound)] = check_chisq_maximal(2, (0.5, 0.5), (0.5,), reps=200_000, seed=1)
    t = 4.0 * (math.log(2.0) + 0.5)
    p_single = math.exp(-t)
    exact = 1.0 - (1.0 - p_single) ** 2
    assert abs(estimate - exact) <= 5.0 * se + 1e-6
    assert estimate <= bound + 4 * se


def test_chisq_polynomial_weights_within_bound():
    tau = np.arange(1, 31, dtype=float) ** -2.0
    pts = check_chisq_maximal(20, tau, (1.0, 2.0, 4.0), reps=30_000, seed=2)
    assert [bound for _, _, bound in pts] == [2.0 * math.exp(-x) for x in (1.0, 2.0, 4.0)]
    assert all(estimate <= bound + 4 * se for estimate, se, bound in pts)


def test_chisq_bound_is_vacuous_at_zero():
    # at x = 0 the bound is 2, which no probability can exceed
    [(estimate, se, bound)] = check_chisq_maximal(4, (0.7, 0.2, 0.1), (0.0,), reps=2_000, seed=3)
    assert bound == 2.0
    assert estimate <= bound + 4 * se


def test_chisq_input_validation():
    with pytest.raises(ValueError):
        check_chisq_maximal(2, (-0.1, 0.2), (1.0,), reps=10)
    with pytest.raises(ValueError):
        check_chisq_maximal(3, np.ones((2, 2)), (1.0,), reps=10)
    with pytest.raises(ValueError):
        check_chisq_maximal(2, (0.0, 0.0), (1.0,), reps=10)
    for reps in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            check_chisq_maximal(2, (0.5, 0.5), (1.0,), reps=reps)


def _chisq_all_at_once(n, tau, x_grid, reps, seed):
    """The maximal-inequality Monte Carlo as first written: every weight
    column's whole (chunk, n) block drawn in one call, temporaries and all."""
    tau = np.asarray(tau, dtype=float)
    weights = np.broadcast_to(tau, (n, tau.shape[0])) if tau.ndim == 1 else tau
    big_t = float(np.max(weights.sum(axis=1)))
    x_arr = np.asarray(x_grid, dtype=float)
    thresholds = 4.0 * big_t * (math.log(n) + x_arr)
    rng = np.random.default_rng(seed)
    exceed = np.zeros(x_arr.shape[0], dtype=np.int64)
    done = 0
    while done < reps:
        size = min(spectral_diag._CHISQ_CHUNK_REPS, reps - done)
        w_sum = np.zeros((size, n))
        for k in range(weights.shape[1]):
            draws = rng.standard_normal((size, n))
            w_sum += weights[None, :, k] * draws * draws
        exceed += (w_sum.max(axis=1)[:, None] > thresholds[None, :]).sum(axis=0)
        done += size
    points = []
    for xi, count in zip(x_arr, exceed):
        est = count / reps
        points.append((est, math.sqrt(est * (1.0 - est) / reps), 2.0 * math.exp(-xi)))
    return points


_TAU_MATRIX = np.random.default_rng(11).uniform(0.0, 0.5, size=(6, 4))


@pytest.mark.parametrize(
    "n, tau, x_grid",
    [
        (10, np.arange(1, 7, dtype=float) ** -2.0, (-1.5, 0.0, 1.0)),
        (6, _TAU_MATRIX, (-1.0, 0.5)),
    ],
    ids=["vector-tau", "matrix-tau"],
)
@pytest.mark.parametrize("slab_rows", [None, 64])
def test_chisq_slabs_match_the_all_at_once_loop(monkeypatch, n, tau, x_grid, slab_rows):
    # 937 reps in chunks of 400: two full chunks and a remainder; 64-row
    # slabs leave a remainder in every chunk, the default slab holds a chunk
    monkeypatch.setattr(spectral_diag, "_CHISQ_CHUNK_REPS", 400)
    if slab_rows is not None:
        monkeypatch.setattr(spectral_diag, "_CHISQ_SLAB_BYTES", slab_rows * 8 * n)
    for seed in (0, 5):
        got = check_chisq_maximal(n, tau, x_grid, reps=937, seed=seed)
        assert got == _chisq_all_at_once(n, tau, x_grid, reps=937, seed=seed)
        assert got[0][0] > 0  # exceedances occur, so the counts are compared


@pytest.mark.parametrize("slab_rows", [1, 7, 300])
def test_chisq_slab_size_does_not_change_results(monkeypatch, slab_rows):
    n, tau, x_grid = 10, np.arange(1, 9, dtype=float) ** -1.5, (-1.0, 0.0, 2.0)
    monkeypatch.setattr(spectral_diag, "_CHISQ_CHUNK_REPS", 300)  # 700 reps: 300 + 300 + 100
    default = check_chisq_maximal(n, tau, x_grid, reps=700, seed=4)
    monkeypatch.setattr(spectral_diag, "_CHISQ_SLAB_BYTES", slab_rows * 8 * n)
    assert check_chisq_maximal(n, tau, x_grid, reps=700, seed=4) == default


def test_chisq_memory_is_about_one_chunk_of_sums():
    # the weighted sums of one chunk are 10000 x 100 float64; drawing each
    # column's block whole, with its product temporaries, peaks near 3x that
    tau = np.arange(1, 51, dtype=float) ** -2.0
    tracemalloc.start()
    try:
        check_chisq_maximal(100, tau, (1.0, 2.0, 4.0), reps=10_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * 10_000 * 100 * 8


# --- one-step linearization of the GLM fit ---


def test_linearization_gaussian_is_exact():
    _, _, violations, _, max_residual = check_mle_linearization(
        100, GAUSS, [0.5, 0.3, -0.2, 0.1], reps=20
    )
    assert max_residual <= 1e-8
    assert violations == 0


def test_linearization_hypotheses_feasible_regime():
    # large intercept + tiny Rademacher scores keep every standardized
    # design row under the smallness budget, so the event actually occurs
    design_ok, satisfied, violations, allowance, _ = check_mle_linearization(
        4000,
        POIS,
        [6.0, 0.02, -0.02],
        reps=30,
        score_scale=0.01,
        score_dist="rademacher",
    )
    assert design_ok == 30
    assert satisfied > 0
    assert violations / satisfied <= allowance


def test_linearization_small_sample_is_vacuous():
    _, satisfied, violations, allowance, _ = check_mle_linearization(
        200, POIS, [0.3, 0.2, -0.1, 0.05], reps=10
    )
    assert satisfied == 0
    assert violations == 0
    assert allowance == pytest.approx(0.2)


def test_linearization_input_validation():
    for gamma in ([0.1], [], [[0.1, 0.2]]):  # no slope, or not a vector
        with pytest.raises(ValueError, match="intercept and at least one slope"):
            check_mle_linearization(50, GAUSS, gamma, reps=2)
    with pytest.raises(ValueError):
        check_mle_linearization(50, GAUSS, [0.1, 0.2, 0.3], score_dist="cauchy")
