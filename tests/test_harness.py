import dataclasses
import math
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fglm import cli, harness
from fglm.datagen import make_ground_truth, sample_dataset
from fglm.estimator import NewtonConfig, TuningRule, estimate_slope, fit_mle, loss, tuning
from fglm.expfam import family_names, get_family, sample_response
from fglm.funcspace import FunctionRep
from fglm.harness import (
    ExperimentConfig,
    fit_loglog_slope,
    format_config,
    load_config,
    map_in_order,
    parse_config,
    replication_seed,
    run_rate_points,
    run_rate_study,
    theoretical_exponent,
    write_csv,
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
        family="poisson", alpha=1.5, n_grid=(10, 20), reps=2, zeta_override=0.175
    )
    assert parse_config(format_config(cfg)) == cfg
    # and the default survives too, including zeta_override = none
    assert parse_config(format_config(ExperimentConfig())) == ExperimentConfig()


def test_solver_settings_are_built_once_at_load(monkeypatch):
    cfg = dataclasses.replace(TINY, c_m=1.5, zeta_override=0.15)
    assert cfg.rule == TuningRule(c_m=1.5, c_N=2.0, zeta=0.15)
    assert cfg.newton == NewtonConfig(tol=1e-10, max_iter=50)
    assert "rule" not in format_config(cfg) and "newton =" not in format_config(cfg)
    built = []
    monkeypatch.setattr(harness, "TuningRule", lambda *args, **kwargs: built.append(args))
    monkeypatch.setattr(harness, "NewtonConfig", lambda *args, **kwargs: built.append(args))
    _, records = run_rate_points(cfg, jobs=2)
    assert len(records) == 9 and built == []


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
        {"alpha": 0.5},
        {"beta_s": 2.0},
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
        got = harness._replication_task(cfg, gt, 2000, rep, seed)
        want = _reference_replication(cfg, 2000, seed)
        assert (got.n, got.rep, got.seed) == (2000, rep, seed)
        assert float.hex(got.loss) == float.hex(want[0])
        assert (got.iterations, got.converged) == want[1:]


@pytest.mark.parametrize("jobs", [1, 2])
def test_replication_failure_names_its_coordinates(monkeypatch, jobs):
    cfg = ExperimentConfig(K_trunc=30, n_grid=(40, 80, 160), reps=12, seed=0, newton_max_iter=50)
    failing = replication_seed(cfg.seed, 1, 5)  # n = 80, rep 5, after five that succeed
    cause = FloatingPointError("simulated")

    def sample(gt, n, seed):
        if seed == failing:
            raise cause
        return sample_dataset(gt, n, seed)

    monkeypatch.setattr(harness, "sample_dataset", sample)
    with pytest.raises(RuntimeError) as info:
        run_rate_points(cfg, jobs=jobs)
    assert str(info.value) == f"replication failed at n=80, rep=5, seed={failing}: simulated"
    assert info.value.__cause__ is cause


def test_components_beyond_k_trunc_are_refused_before_the_first_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a replication was started")

    monkeypatch.setattr(harness, "sample_dataset", no_draws)
    cfg = ExperimentConfig(K_trunc=4, n_grid=(500, 1000, 4000), reps=2, seed=0)
    with pytest.raises(ValueError, match="N=5 components at n=500 exceed K_trunc=4"):
        run_rate_points(cfg, jobs=1)


@pytest.mark.parametrize(
    "jobs, cpus, threads",
    [(1, 8, 1), (2, 8, 2), (2, 1, 1), (10**6, 8, 8), (10**6, 64, 9)],
    ids=["one_job", "jobs", "cpus", "huge_jobs_cpus", "huge_jobs_replications"],
)
def test_replication_threads_are_capped(monkeypatch, jobs, cpus, threads):
    workers = []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=1)  # records the cap without starting that many

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    assert run_rate_points(TINY, jobs=jobs) == run_rate_points(TINY, jobs=1)
    assert workers == [threads, 1]  # TINY has 9 replications


# --- the thread pool ---


def test_map_in_order_yields_in_item_order_when_later_items_finish_first(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    second_done = threading.Event()
    finished = []

    def fn(item):
        if item == 0:
            assert second_done.wait(timeout=60)  # item 1 runs on the other thread
        finished.append(item)
        if item == 1:
            second_done.set()
        return item * 10

    assert list(map_in_order(fn, [0, 1], jobs=2)) == [0, 10]
    assert finished == [1, 0]


def test_map_in_order_raises_the_first_failure_in_item_order(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    errors = {1: ValueError("first"), 2: ValueError("second")}
    second_failed = threading.Event()

    def fn(item):
        if item == 1:
            assert second_failed.wait(timeout=60)  # item 2 fails before item 1 does
        if item == 2:
            second_failed.set()
        if item in errors:
            raise errors[item]
        return item

    results = []
    with pytest.raises(ValueError) as info:
        for value in map_in_order(fn, [0, 1, 2, 3], jobs=2):
            results.append(value)
    assert info.value is errors[1]
    assert results == [0]


def test_map_in_order_cancels_the_items_after_a_failure():
    called = []

    def fn(item):
        called.append(item)
        if item == 1:
            raise RuntimeError("stop")
        return item

    with pytest.raises(RuntimeError, match="stop"):
        list(map_in_order(fn, range(5), jobs=1))
    assert called == [0, 1]  # one worker: items 2-4 were never started


def test_map_in_order_under_thread_switches_yields_nothing_past_the_first_failure(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 4)  # more threads than cores
    rng = np.random.default_rng(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            failing = set(rng.choice(200, size=5, replace=False).tolist())
            errors = {i: ValueError(i) for i in failing}

            def fn(item):
                if item in errors:
                    raise errors[item]
                return item

            results = []
            with pytest.raises(ValueError) as info:
                for value in map_in_order(fn, range(200), jobs=4):
                    results.append(value)
            assert info.value is errors[min(failing)]
            assert results == list(range(min(failing)))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "jobs, items, cpus, threads",
    [(1, 5, 8, 1), (3, 5, 8, 3), (3, 2, 8, 2), (3, 5, 2, 2), (10**6, 4, 10**6, 4)],
    ids=["one_job", "jobs", "items", "cpus", "huge_jobs"],
)
def test_map_in_order_caps_the_threads(monkeypatch, jobs, items, cpus, threads):
    workers = []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=1)  # records the cap without starting that many

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    assert list(map_in_order(str, range(items), jobs)) == [str(i) for i in range(items)]
    assert workers == [threads]


# --- one BLAS thread while the pool runs ---


class FakeBlas:
    """A thread count behind get/set calls, as `_blas_thread_calls` returns them."""

    def __init__(self, count):
        self.count = count

    def calls(self):
        def get():
            return self.count

        def put(count):
            self.count = count

        return get, put


def _finish(gen):
    return list(gen)


def _raise(gen):
    with pytest.raises(RuntimeError, match="stop"):
        list(gen)


def _close_early(gen):
    for _ in gen:
        break
    gen.close()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("end", [_finish, _raise, _close_early], ids=["finish", "raise", "close"])
def test_map_in_order_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, end, jobs):
    blas = FakeBlas(4)
    monkeypatch.setattr(harness, "_blas_thread_calls", blas.calls)
    seen = []

    def fn(item):
        seen.append(blas.count)
        if item == 2 and end is _raise:
            raise RuntimeError("stop")
        return item

    gen = map_in_order(fn, range(5), jobs)
    assert blas.count == 4  # a generator sets nothing before iteration starts
    end(gen)
    assert seen and set(seen) == {1}
    assert blas.count == 4


@pytest.fixture
def fresh_blas_lookup():
    harness._blas_thread_calls.cache_clear()
    yield
    harness._blas_thread_calls.cache_clear()


@pytest.mark.parametrize(
    "libs",
    [[], [types.SimpleNamespace()], [types.SimpleNamespace(openblas_get_num_threads64_=lambda: 4)]],
    ids=["no_library", "no_symbol", "no_setter"],
)
def test_missing_openblas_leaves_blas_alone(monkeypatch, fresh_blas_lookup, libs):
    monkeypatch.setattr(harness, "_numpy_openblas", lambda: libs)
    assert harness._blas_thread_calls() is None
    assert list(map_in_order(lambda i: i * i, range(5), 2)) == [0, 1, 4, 9, 16]


def test_the_numpy_1x_symbols_are_used_when_the_new_ones_are_missing(monkeypatch, fresh_blas_lookup):
    blas = FakeBlas(4)
    get, put = blas.calls()
    lib = types.SimpleNamespace(openblas_get_num_threads64_=get, openblas_set_num_threads64_=put)
    monkeypatch.setattr(harness, "_numpy_openblas", lambda: [types.SimpleNamespace(), lib])
    assert harness._blas_thread_calls() == (get, put)
    assert list(map_in_order(lambda i: blas.count, range(3), 2)) == [1, 1, 1]
    assert blas.count == 4


def test_pools_open_at_once_share_one_hold(monkeypatch):
    # the first pool ends while the second still runs: its restore must wait
    blas = FakeBlas(4)
    monkeypatch.setattr(harness, "_blas_thread_calls", blas.calls)
    first = map_in_order(lambda i: blas.count, range(2), 1)
    second = map_in_order(lambda i: blas.count, range(2), 1)
    assert next(first) == 1 and next(second) == 1
    assert list(first) == [1]
    assert blas.count == 1
    assert list(second) == [1]
    assert blas.count == 4


def test_pools_on_many_threads_never_see_the_count_restored_under_them(monkeypatch):
    blas = FakeBlas(4)
    monkeypatch.setattr(harness, "_blas_thread_calls", blas.calls)
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def pools():
            for _ in range(50):
                values = list(map_in_order(lambda i: blas.count, range(4), 2))
                seen.extend(values)

        threads = [threading.Thread(target=pools) for _ in range(6)]  # more than cores
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 6 * 50 * 4 and set(seen) == {1}
    assert blas.count == 4


def test_the_real_openblas_runs_one_thread_inside_the_pool():
    calls = harness._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS or its thread calls were not found")
    get, put = calls
    before = get()
    put(2)  # a count the cap visibly changes, whatever the machine started with
    try:
        assert list(map_in_order(lambda i: get(), range(4), 2)) == [1, 1, 1, 1]
        assert get() == 2
    finally:
        put(before)


def test_the_blas_cap_keeps_every_byte_of_a_poisson_study(monkeypatch, tmp_path):
    # Capped runs start from one BLAS thread and from two; uncapped runs (the
    # library "not found") from one, as under OPENBLAS_NUM_THREADS=1.  On some
    # kernels (Nehalem) two-thread eigh rounds differently, so without the cap
    # a study started from two threads would not match.
    calls = harness._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS or its thread calls were not found")
    get, put = calls
    stock = load_config(Path(__file__).resolve().parents[1] / "scripts" / "configs" / "poisson_beta3.cfg")
    cfg = tmp_path / "poisson.cfg"
    cfg.write_text(format_config(dataclasses.replace(stock, reps=5)))
    outputs = {}
    before = get()
    try:
        for capped, start in ((True, 2), (True, 1), (False, 1)):
            if not capped:
                monkeypatch.setattr(harness, "_blas_thread_calls", lambda: None)
            for jobs in ("1", "2"):
                put(start)
                out = tmp_path / f"{capped}-{start}-{jobs}"
                argv = ["rate-study", "--config", str(cfg), "--per-replication", "--jobs", jobs]
                assert cli.main(argv + ["--out", str(out)]) == 0
                assert get() == start
                outputs[capped, start, jobs] = tuple(
                    (out / name).read_bytes()
                    for name in ("rate_study.csv", "slope.csv", "perreplication.csv")
                )
    finally:
        put(before)
    assert len(set(outputs.values())) == 1


@pytest.mark.parametrize("fails", [False, True], ids=["fit", "fit_raises"])
def test_estimate_fits_on_one_blas_thread_and_restores_the_count(monkeypatch, tmp_path, fails):
    blas = FakeBlas(4)
    monkeypatch.setattr(harness, "_blas_thread_calls", blas.calls)
    seen = []

    def fit(*args, **kwargs):
        seen.append(blas.count)
        if fails:
            raise RuntimeError("stop")
        return estimate_slope(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_slope", fit)
    data = str(tmp_path / "data.csv")
    assert cli.main(["generate", "--family", "gaussian", "--n", "60", "--k-trunc", "10",
                     "--out", data]) == 0
    argv = ["estimate", "--data", data, "--family", "gaussian", "--out", str(tmp_path)]
    assert cli.main(argv) == (2 if fails else 0)
    assert seen == [1]
    assert blas.count == 4


def test_estimate_keeps_every_byte_from_any_blas_thread_count(tmp_path):
    # on some kernels (Nehalem) a two-thread eigh of a 200 x 200 covariance
    # rounds differently, so without the hold these files would differ there
    calls = harness._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS or its thread calls were not found")
    get, put = calls
    data = str(tmp_path / "data.csv")
    assert cli.main(["generate", "--family", "gaussian", "--n", "300", "--out", data]) == 0
    outputs = {}
    before = get()
    try:
        for start in (1, 2):
            put(start)
            out = tmp_path / str(start)
            assert cli.main(["estimate", "--data", data, "--family", "gaussian",
                             "--out", str(out)]) == 0
            assert get() == start
            outputs[start] = [(out / name).read_bytes()
                              for name in ("estimate_coefs.csv", "estimate_grid.csv")]
    finally:
        put(before)
    assert outputs[1] == outputs[2]


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
