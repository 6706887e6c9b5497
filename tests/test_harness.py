import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fglm import harness
from fglm.datagen import make_ground_truth, sample_dataset
from fglm.estimator import NewtonConfig, TuningRule, fit_mle, loss, tuning
from fglm.expfam import family_names, get_family, sample_response
from fglm.funcspace import FunctionRep
from fglm.harness import (
    ExperimentConfig,
    default_jobs,
    fit_loglog_slope,
    format_config,
    load_config,
    parse_config,
    replication_seed,
    run_rate_points,
    run_rate_study,
    theoretical_exponent,
    with_overrides,
    write_csv,
    write_perreplication_csv,
    write_rate_study_csv,
    write_slope_csv,
)

TINY = ExperimentConfig(
    K_trunc=30, n_grid=(40, 80, 160), reps=3, seed=0, newton_max_iter=50
)


# --- configuration round trip ---


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.family == "gaussian"
    assert cfg.n_grid == (500, 1000, 2000, 4000)
    assert cfg.zeta_override is None


def test_parse_format_round_trip():
    cfg = ExperimentConfig(
        family="poisson", alpha=1.5, n_grid=(10, 20), reps=2, zeta_override=0.15
    )
    assert parse_config(format_config(cfg)) == cfg
    # and the default survives too, including zeta_override = none
    assert parse_config(format_config(ExperimentConfig())) == ExperimentConfig()


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config(
        """
        # study setup
        family = poisson   # inline comment
        reps = 4

        n_grid = 16, 32, 64
        """
    )
    assert cfg.family == "poisson"
    assert cfg.reps == 4
    assert cfg.n_grid == (16, 32, 64)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("families = gaussian", "unknown key"),
        ("reps = 2\nreps = 3", "duplicate"),
        ("reps", "expected key = value"),
        ("reps = two", "bad value"),
    ],
)
def test_parse_rejects_malformed_input(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_config(text)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "gamma"},
        {"mu_mode": "spikes"},
        {"n_grid": (100, 100)},
        {"n_grid": ()},
        {"reps": 0},
        {"seed": -1},
        {"seed": 1 << 64},
        {"alpha": float("nan")},
        {"K_trunc": 3},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("family = bernoulli\nreps = 5\n")
    cfg = load_config(str(path))
    assert cfg.family == "bernoulli" and cfg.reps == 5


def test_with_overrides():
    cfg = ExperimentConfig()
    assert with_overrides(cfg).seed == cfg.seed
    assert with_overrides(cfg, seed=9).seed == 9
    assert with_overrides(cfg, out_dir="/tmp/x").out_dir == "/tmp/x"


# --- seeding ---


def test_replication_seed_known_vector():
    # splitmix64 of 0 is the published test vector 0xE220A8397B1DCDAF
    assert replication_seed(0, 0, 0) == 0xE220A8397B1DCDAF
    assert replication_seed(0, 0, 0) == 16294208416658607535


def test_replication_seed_masks_master():
    base = replication_seed(0, 3, 5)
    assert replication_seed(77, 3, 5) == base ^ 77


def test_replication_seed_distinct_across_cells():
    seeds = {
        replication_seed(6, n_idx, rep) for n_idx in range(4) for rep in range(50)
    }
    assert len(seeds) == 200


def test_replication_seed_range_checks():
    with pytest.raises(ValueError):
        replication_seed(-1, 0, 0)
    with pytest.raises(ValueError):
        replication_seed(0, 1 << 32, 0)
    with pytest.raises(ValueError):
        replication_seed(0, 0, -2)


def test_theoretical_exponent():
    assert theoretical_exponent(2.0, 3.0) == pytest.approx(-5.0 / 8.0)
    assert theoretical_exponent(2.0, 4.0) == pytest.approx(-0.7)


# --- slope regression ---


def test_slope_fit_exact_line():
    pts = [(n, 3.0 * n**-1.0) for n in (10, 100, 1000, 10000)]
    slope, se = fit_loglog_slope(pts)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_flat_and_half():
    slope, _ = fit_loglog_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, _ = fit_loglog_slope([(100, 2.0), (400, 1.0), (1600, 0.5)])
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_slope_fit_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([(10, 1.0), (20, 0.5)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(10, 1.0), (20, 0.0), (40, 0.1)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(10, 1.0), (-20, 0.5), (40, 0.1)])


# --- study execution ---


def test_rate_points_shape_and_seeds():
    points, records = run_rate_points(TINY)
    assert [p.n for p in points] == [40, 80, 160]
    assert all(p.reps == 3 for p in points)
    assert len(records) == 9
    for n_idx, n in enumerate(TINY.n_grid):
        for rep in range(TINY.reps):
            rec = records[n_idx * TINY.reps + rep]
            assert (rec.n, rec.rep) == (n, rep)
            assert rec.seed == replication_seed(TINY.seed, n_idx, rep)
    assert all(p.nonconverged == 0 for p in points)


def test_rate_points_deterministic_and_jobs_invariant():
    a = run_rate_points(TINY, jobs=1)
    b = run_rate_points(TINY, jobs=1)
    c = run_rate_points(TINY, jobs=2)
    assert a == b == c


def test_ground_truth_is_built_once_per_study(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_ground_truth(*args, **kwargs)

    monkeypatch.setattr(harness, "make_ground_truth", counting)
    run_rate_points(TINY, jobs=1)
    assert len(calls) == 1


def _reference_replication(cfg, n, seed):
    """One replication computed the long way: the truth rebuilt, X = mu +
    scores rebuilt for every stage, each stage centering on its own, and
    the eigenvectors copied to C order before the slope is rebuilt."""
    family = get_family(cfg.family)
    gt = make_ground_truth(
        cfg.alpha, cfg.beta_s, family, k_trunc=cfg.K_trunc, intercept=cfg.a, mu_mode=cfg.mu_mode
    )
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, cfg.K_trunc)) * np.sqrt(gt.eigvals)
    mu = gt.mean.coeffs
    lam = gt.intercept + float(np.dot(mu, gt.slope_coeffs)) + scores @ gt.slope_coeffs
    y = sample_response(family, lam, rng)
    xbar = (mu[None, :] + scores).mean(axis=0)
    centered = mu[None, :] + scores
    centered = centered - centered.mean(axis=0)
    cov = centered.T @ centered / (n - 1.0)
    vals, vecs = np.linalg.eigh(cov)
    vecs = vecs[:, np.argsort(vals)[::-1]]
    est_scores = ((mu[None, :] + scores) - xbar) @ vecs[:, : cfg.K_trunc]
    phi, est_scores = vecs.copy(), est_scores.copy()
    m, n_comp = tuning(n, cfg.alpha, cfg.beta_s, TuningRule(c_m=cfg.c_m, c_N=cfg.c_N))
    config = NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    fit = fit_mle(y, est_scores[:, :n_comp], family, config)
    slope = FunctionRep(phi[:, :m] @ fit.coefs[1 : m + 1])
    return loss(slope, gt), fit.iterations, fit.converged


@pytest.mark.parametrize("mu_mode", ["zero", "bumps"])
@pytest.mark.parametrize("family", family_names())
def test_replication_matches_the_long_way_bit_for_bit(family, mu_mode):
    cfg = ExperimentConfig(family=family, mu_mode=mu_mode, K_trunc=200, n_grid=(2000,), reps=8)
    gt = make_ground_truth(
        cfg.alpha, cfg.beta_s, get_family(family), k_trunc=200, intercept=cfg.a, mu_mode=mu_mode
    )
    for rep in range(cfg.reps):
        seed = replication_seed(cfg.seed, 0, rep)
        got = harness._replication_task(cfg, gt, 2000, seed)
        want = _reference_replication(cfg, 2000, seed)
        assert float.hex(got[0]) == float.hex(want[0])
        assert got[1:] == want[1:]


def test_replication_failure_names_its_coordinates(monkeypatch):
    failing = replication_seed(TINY.seed, 1, 2)  # n = 80, rep 2
    cause = FloatingPointError("simulated")

    def sample(gt, n, seed):
        if seed == failing:
            raise cause
        return sample_dataset(gt, n, seed)

    monkeypatch.setattr(harness, "sample_dataset", sample)
    with pytest.raises(RuntimeError) as info:
        run_rate_points(TINY, jobs=1)
    assert str(info.value) == f"replication failed at n=80, rep=2, seed={failing}: simulated"
    assert info.value.__cause__ is cause


def test_single_rep_has_zero_se():
    cfg = ExperimentConfig(K_trunc=20, n_grid=(40, 80, 160), reps=1, seed=0)
    points, _ = run_rate_points(cfg)
    assert all(p.mise_se == 0.0 for p in points)


def test_rate_study_needs_three_points():
    with pytest.raises(ValueError):
        run_rate_study(ExperimentConfig(n_grid=(40, 80), reps=1))


def test_rate_study_slope_is_negative():
    result = run_rate_study(TINY)
    assert result.fitted_slope < 0
    assert result.theoretical == pytest.approx(-0.625)
    assert len(result.points) == 3 and len(result.replications) == 9


# --- CSV output ---


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "out" / "vals.csv"
    write_csv(str(path), ["a", "b", "c"], [(1, 0.1, True), (2, float(1 / 3), False)])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.10000000000000001,1"
    assert lines[2] == "2,0.33333333333333331,0"
    # 17 significant digits are enough to round-trip doubles exactly
    assert float(lines[2].split(",")[1]) == 1 / 3


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]


def _per_value_bytes(path, matrix):
    """Bytes of the row-tuple path (`_fmt` on each numpy scalar)."""
    write_csv(str(path), ["c"] * matrix.shape[1], (tuple(row) for row in matrix))
    return path.read_bytes()


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(0, 5)),
        elements=st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    )
)
def test_write_csv_matrix_path_matches_per_value_path(tmp_path_factory, matrix):
    d = tmp_path_factory.mktemp("csv")
    write_csv(str(d / "matrix.csv"), ["c"] * matrix.shape[1], matrix)
    assert (d / "matrix.csv").read_bytes() == _per_value_bytes(d / "values.csv", matrix)


def test_write_csv_matrix_path_spans_row_blocks(tmp_path):
    rng = np.random.default_rng(5)
    shape = (2 * harness._BLOCK_ROWS + 7, 4)  # two full blocks and a partial one
    matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    matrix[::97, 1] = -0.0
    matrix[-1] = [math.nan, math.inf, -math.inf, 5e-324]
    write_csv(str(tmp_path / "matrix.csv"), ["c"] * 4, matrix)
    text = (tmp_path / "matrix.csv").read_bytes()
    assert text == _per_value_bytes(tmp_path / "values.csv", matrix)
    assert text.count(b"\n") == matrix.shape[0] + 1


def test_study_csv_headers_and_determinism(tmp_path):
    result = run_rate_study(TINY)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        write_rate_study_csv(TINY, result, str(d / "rate_study.csv"))
        write_slope_csv(result, str(d / "slope.csv"))
        write_perreplication_csv(result, str(d / "perreplication.csv"))
    for name in ("rate_study.csv", "slope.csv", "perreplication.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "rate_study.csv").read_text().splitlines()[0] == (
        "family,alpha,beta,n,reps,m,N,mise_mean,mise_se,nonconverged"
    )
    assert (d1 / "slope.csv").read_text().splitlines()[0] == "slope,se,theoretical"
    assert (d1 / "perreplication.csv").read_text().splitlines()[0] == (
        "n,rep,seed,loss,iterations,converged"
    )
    assert len((d1 / "perreplication.csv").read_text().splitlines()) == 10


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("FGLM_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("FGLM_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("FGLM_JOBS", "zero")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.setenv("FGLM_JOBS", "0")
    with pytest.raises(ValueError):
        default_jobs()
