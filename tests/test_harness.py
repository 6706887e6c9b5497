import ctypes
import math
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fglm import cli, harness
from fglm.datagen import make_ground_truth, sample_dataset
from fglm.estimator import NewtonConfig, TuningRule, estimate_slope, fit_mle, tuning
from fglm.expfam import family_names, get_family, sample_response
from fglm.harness import (
    ExperimentConfig,
    fit_loglog_slope,
    format_config,
    load_config,
    map_in_order,
    parse_config,
    replication_seed,
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
    cfg = parse_config(format_config(TINY), c_m=1.5, zeta_override=0.15)
    assert cfg.rule == TuningRule(c_m=1.5, c_N=2.0, zeta=0.15)
    assert cfg.newton == NewtonConfig(tol=1e-10, max_iter=50)
    assert cfg.levels == tuple(tuning(n, 2.0, 3.0, cfg.rule) for n in cfg.n_grid)
    assert cfg.truth.k_trunc == 30 and cfg.truth.family is get_family("gaussian")
    for attr in ("rule", "newton", "truth", "levels"):
        assert f"{attr} =" not in format_config(cfg)
    built = []
    for name in ("TuningRule", "NewtonConfig", "make_ground_truth", "tuning"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name, **kwargs: built.append(_name))
    _, replications, _, _ = run_rate_study(cfg, jobs=2)
    assert len(replications) == 9 and built == []


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
        ("n_grid = 40,,80, 160,", "bad value for 'n_grid'"),
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
        {"c_m": float("inf")},
        {"newton_tol": float("nan")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_load_config_from_file(tmp_path):
    # a file saved with a UTF-8 byte-order mark, as some editors write it, reads the same
    path = tmp_path / "study.cfg"
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + b"family = bernoulli\nreps = 5\n")
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
    points, records, _, _ = run_rate_study(TINY)
    assert [p[:4] for p in points] == [(n, 3, m, n_comp) for n, (m, n_comp) in
                                       zip(TINY.n_grid, TINY.levels)]
    assert len(records) == 9
    for n_idx, n in enumerate(TINY.n_grid):
        for rep in range(TINY.reps):
            assert records[n_idx * TINY.reps + rep][:3] == (
                n, rep, replication_seed(TINY.seed, n_idx, rep)
            )
    assert all(p[6] == 0 for p in points)  # nonconverged


def test_rate_points_deterministic_and_jobs_invariant():
    a = run_rate_study(TINY, jobs=1)
    b = run_rate_study(TINY, jobs=1)
    c = run_rate_study(TINY, jobs=2)
    assert a == b == c


def test_ground_truth_is_built_once_per_study(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_ground_truth(*args, **kwargs)

    monkeypatch.setattr(harness, "make_ground_truth", counting)
    cfg = parse_config(format_config(TINY))
    assert len(calls) == 1
    run_rate_study(cfg, jobs=1)
    assert len(calls) == 1


def test_integer_exponents_give_the_float_config():
    ints, floats = ExperimentConfig(alpha=2, beta_s=3), ExperimentConfig(alpha=2.0, beta_s=3.0)
    assert ints.levels == floats.levels
    for name in ("mean", "eigvals", "slope_coeffs"):
        assert getattr(ints.truth, name).tobytes() == getattr(floats.truth, name).tobytes()


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
    mu = gt.mean
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
    d = phi[:, :m] @ fit.coefs[1 : m + 1] - gt.slope_coeffs
    return float(d @ d), fit.iterations, fit.converged


@pytest.mark.parametrize("mu_mode", ["zero", "bumps"])
@pytest.mark.parametrize("family", family_names())
def test_replication_matches_the_long_way_bit_for_bit(family, mu_mode):
    cfg = ExperimentConfig(family=family, mu_mode=mu_mode, K_trunc=200, n_grid=(2000,), reps=8)
    for rep in range(cfg.reps):
        seed = replication_seed(cfg.seed, 0, rep)
        got = harness._replication_task(cfg, 2000, rep, seed)
        want = _reference_replication(cfg, 2000, seed)
        assert got[:3] == (2000, rep, seed)
        assert float.hex(got[3]) == float.hex(want[0])  # the loss
        assert got[4:] == want[1:]  # iterations and converged


def test_a_replication_holds_its_sample_once():
    # the sample is centred in its own memory: a centred copy of it would take
    # the traced peak to about 2.16x its bytes; it reads 1.20x
    cfg = ExperimentConfig(K_trunc=200, n_grid=(4000,), reps=1)
    tracemalloc.start()
    try:
        harness._replication_task(cfg, 4000, 0, replication_seed(cfg.seed, 0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4000 * 200 * 8


@pytest.mark.parametrize("jobs", [1, 2])
def test_replication_failure_names_its_coordinates(monkeypatch, jobs):
    cfg = ExperimentConfig(K_trunc=30, n_grid=(40, 80, 160), reps=12, seed=0, newton_max_iter=50)
    failing = replication_seed(cfg.seed, 1, 5)  # n = 80, rep 5, after five that succeed
    cause = FloatingPointError("simulated")

    failed_on = []

    def sample(gt, n, seed):
        if seed == failing:
            failed_on.append(threading.get_ident())
            raise cause
        return sample_dataset(gt, n, seed)

    monkeypatch.setattr(harness, "sample_dataset", sample)
    with pytest.raises(RuntimeError) as info:
        run_rate_study(cfg, jobs=jobs)
    assert str(info.value) == f"replication failed at n=80, rep=5, seed={failing}: simulated"
    assert info.value.__cause__ is cause
    if jobs == 1:  # the caller ran the failing replication itself
        assert failed_on == [threading.get_ident()]


def test_components_beyond_k_trunc_are_refused_before_the_first_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a replication was started")

    monkeypatch.setattr(harness, "sample_dataset", no_draws)
    with pytest.raises(ValueError, match="N=5 components at n=500 exceed K_trunc=4"):
        ExperimentConfig(K_trunc=4, n_grid=(500, 1000, 4000), reps=2, seed=0)


@pytest.fixture
def requested_threads(monkeypatch):
    """The thread count of every pool `map_in_order` starts, in order, its
    workers but the caller; each pool then starts at most one thread, so a
    huge count starts no more than that."""
    requested = []
    start_threads = harness._start_threads

    def start_one(target, count):
        requested.append(count)
        return start_threads(target, min(count, 1))

    monkeypatch.setattr(harness, "_start_threads", start_one)
    return requested


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(1, 8, 1), (2, 8, 2), (2, 1, 1), (10**6, 8, 8), (10**6, 64, 9)],
    ids=["one_job", "jobs", "cpus", "huge_jobs_cpus", "huge_jobs_replications"],
)
def test_replication_threads_are_capped(monkeypatch, requested_threads, jobs, cpus, workers):
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    assert run_rate_study(TINY, jobs=jobs) == run_rate_study(TINY, jobs=1)
    assert requested_threads == [workers - 1, 0]  # TINY has 9 replications; the caller works


# --- the thread pool ---


def hold_the_caller_until(monkeypatch, event):
    """Make `map_in_order` wait for `event` after starting its threads, before
    its caller runs or collects any item, so a thread claims the first ones."""
    start_threads = harness._start_threads

    def start_then_wait(target, count):
        threads = start_threads(target, count)
        assert event.wait(timeout=60)
        return threads

    monkeypatch.setattr(harness, "_start_threads", start_then_wait)


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_in_order_of_no_items_yields_nothing(jobs):
    assert list(map_in_order(lambda item: item, [], jobs)) == []


def test_map_in_order_closed_early_starts_no_more_items_and_joins_its_threads(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    called = []
    running, release = threading.Event(), threading.Event()

    def fn(item):
        called.append(item)
        if item == 1:
            running.set()
            assert release.wait(timeout=60)  # still running when the caller closes
        return item

    hold_the_caller_until(monkeypatch, running)  # the thread ran item 0 and holds item 1
    threads_before = threading.active_count()
    results = map_in_order(fn, range(5), jobs=2)
    assert next(results) == 0
    timer = threading.Timer(0.5, release.set)  # far longer than the step to close()
    timer.start()
    results.close()  # returns once the started item 1 has finished
    assert release.is_set()
    timer.join(timeout=60)
    assert called == [0, 1]
    assert threading.active_count() == threads_before


def test_map_in_order_raises_the_callers_failure_after_the_earlier_results(monkeypatch):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    thread_running, caller_failing = threading.Event(), threading.Event()
    called = []
    error = ValueError("the caller's item")

    def fn(item):
        called.append(item)
        if threading.get_ident() != caller:
            thread_running.set()
            assert caller_failing.wait(timeout=60)
            time.sleep(0.2)  # the caller records its failure meanwhile
            return item
        caller_failing.set()
        raise error

    hold_the_caller_until(monkeypatch, thread_running)  # the thread holds item 0
    results = []
    with pytest.raises(ValueError) as info:
        for value in map_in_order(fn, range(4), jobs=2):
            results.append(value)
    assert info.value is error
    assert results == [0]  # item 0 ran on, and was yielded, before item 1's failure
    assert called == [0, 1]


@pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
def test_map_in_order_raises_an_interrupt_in_the_callers_item_at_once(monkeypatch, stop):
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    thread_running, release = threading.Event(), threading.Event()
    called = []

    def fn(item):
        called.append(item)
        if threading.get_ident() != caller:
            thread_running.set()
            assert release.wait(timeout=60)
            return item
        raise stop

    hold_the_caller_until(monkeypatch, thread_running)  # the thread holds item 0
    threads_before = threading.active_count()
    timer = threading.Timer(0.5, release.set)
    timer.start()
    results = []
    with pytest.raises(stop):
        for value in map_in_order(fn, range(4), jobs=2):
            results.append(value)
    timer.join(timeout=60)
    assert results == []  # item 0's result was not waited for
    assert called == [0, 1]
    assert threading.active_count() == threads_before  # the thread's item 0 was joined


def test_map_in_order_at_one_job_runs_every_call_on_the_calling_thread(requested_threads):
    caller = threading.get_ident()
    assert list(map_in_order(lambda item: threading.get_ident(), range(5), 1)) == [caller] * 5
    assert requested_threads == [0]


@pytest.mark.parametrize("jobs", [0, -3])
def test_map_in_order_refuses_fewer_than_one_job_before_any_call(jobs):
    called = []
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        list(map_in_order(called.append, [1, 2, 3], jobs))
    assert called == []


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
    "jobs, items, cpus, workers",
    [(1, 5, 8, 1), (3, 5, 8, 3), (3, 2, 8, 2), (3, 5, 2, 2), (10**6, 4, 10**6, 4)],
    ids=["one_job", "jobs", "items", "cpus", "huge_jobs"],
)
def test_map_in_order_caps_the_threads(monkeypatch, requested_threads, jobs, items, cpus, workers):
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    assert list(map_in_order(str, range(items), jobs)) == [str(i) for i in range(items)]
    assert requested_threads == [workers - 1]  # the caller is the first worker


# --- one BLAS thread while a command runs ---


class FakeBlas:
    """A thread count behind get/set calls, as `cli._blas_thread_calls` returns them."""

    def __init__(self, count):
        self.count = count

    def calls(self):
        def get():
            return self.count

        def put(count):
            self.count = count

        return get, put


# each subcommand with its required options; the tests below replace its handler
_COMMAND_ARGV = {
    "generate": ["--family", "gaussian", "--n", "10", "--out", "data.csv"],
    "estimate": ["--data", "data.csv", "--family", "gaussian"],
    "rate-study": ["--config", "study.cfg"],
    "perturb-check": [],
    "lower-bound": ["--config", "study.cfg"],
    "diagnostics": ["--config", "study.cfg"],
}


def _main_with_handler(monkeypatch, command, handler):
    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"), lambda args: handler())
    return cli.main([command, *_COMMAND_ARGV[command]])


@pytest.mark.parametrize(
    "fault, code", [(None, 0), (ValueError, 1), (RuntimeError, 2)], ids=["ok", "error", "failure"]
)
@pytest.mark.parametrize("command", list(_COMMAND_ARGV))
def test_every_command_runs_on_one_blas_thread_and_restores_the_count(
    monkeypatch, command, fault, code
):
    blas = FakeBlas(4)
    monkeypatch.setattr(cli, "_blas_thread_calls", blas.calls)
    seen = []

    def handler():
        seen.append(blas.count)
        if fault is not None:
            raise fault("stop")
        return 0

    assert _main_with_handler(monkeypatch, command, handler) == code
    assert seen == [1]
    assert blas.count == 4


@pytest.fixture
def fresh_blas_lookup():
    cli._blas_thread_calls.cache_clear()
    yield
    cli._blas_thread_calls.cache_clear()


@pytest.mark.parametrize(
    "libs",
    [[], [types.SimpleNamespace()], [types.SimpleNamespace(openblas_get_num_threads64_=lambda: 4)]],
    ids=["no_library", "no_symbol", "no_setter"],
)
def test_missing_openblas_leaves_blas_alone(monkeypatch, fresh_blas_lookup, libs):
    monkeypatch.setattr(cli, "_numpy_openblas", lambda: libs)
    assert cli._blas_thread_calls() is None
    squares = []

    def handler():
        squares.extend(map_in_order(lambda i: i * i, range(5), 2))
        return 0

    assert _main_with_handler(monkeypatch, "rate-study", handler) == 0
    assert squares == [0, 1, 4, 9, 16]


def test_the_numpy_1x_symbols_are_used_when_the_new_ones_are_missing(monkeypatch, fresh_blas_lookup):
    blas = FakeBlas(4)
    get, put = blas.calls()
    lib = types.SimpleNamespace(openblas_get_num_threads64_=get, openblas_set_num_threads64_=put)
    monkeypatch.setattr(cli, "_numpy_openblas", lambda: [types.SimpleNamespace(), lib])
    assert cli._blas_thread_calls() == (get, put)
    seen = []

    def handler():
        seen.extend(map_in_order(lambda i: blas.count, range(3), 2))
        return 0

    assert _main_with_handler(monkeypatch, "rate-study", handler) == 0
    assert seen == [1, 1, 1]
    assert blas.count == 4


def test_the_real_openblas_runs_one_thread_inside_the_pool(monkeypatch):
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS or its thread calls were not found")
    get, put = calls
    seen = []

    def handler():
        seen.extend(map_in_order(lambda i: get(), range(4), 2))
        return 0

    before = get()
    put(2)  # a count the hold visibly changes, whatever the machine started with
    try:
        assert _main_with_handler(monkeypatch, "rate-study", handler) == 0
        assert seen == [1, 1, 1, 1]
        assert get() == 2
    finally:
        put(before)


def test_the_blas_cap_keeps_every_byte_of_a_poisson_study(monkeypatch, tmp_path):
    # Capped runs start from one BLAS thread and from two; uncapped runs (the
    # library "not found") from one, as under OPENBLAS_NUM_THREADS=1.  On some
    # kernels (Nehalem) two-thread eigh rounds differently, so without the cap
    # a study started from two threads would not match.
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS or its thread calls were not found")
    get, put = calls
    stock = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "poisson_beta3.cfg"
    cfg = tmp_path / "poisson.cfg"
    cfg.write_text(format_config(load_config(stock, reps=5)))
    outputs = {}
    before = get()
    try:
        for capped, start in ((True, 2), (True, 1), (False, 1)):
            if not capped:
                monkeypatch.setattr(cli, "_blas_thread_calls", lambda: None)
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
    monkeypatch.setattr(cli, "_blas_thread_calls", blas.calls)
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
    calls = cli._blas_thread_calls()
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


# --- freed heap kept in the process ---


@pytest.fixture
def fresh_heap_policy():
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


def test_every_command_sets_both_malloc_thresholds_once_per_process(monkeypatch,
                                                                    fresh_heap_policy):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli, "_process_symbols", lambda: types.SimpleNamespace(mallopt=mallopt))
    for command in _COMMAND_ARGV:
        assert _main_with_handler(monkeypatch, command, lambda: 0) == 0
    # M_TRIM_THRESHOLD to 64 MiB, M_MMAP_THRESHOLD to 32 MiB
    assert calls == [(-1, 64 << 20), (-3, 32 << 20)]
    assert mallopt.argtypes == [ctypes.c_int, ctypes.c_int]


@pytest.mark.parametrize(
    "symbols", [None, types.SimpleNamespace()], ids=["no_library", "no_symbol"]
)
def test_a_c_library_without_mallopt_is_left_alone(monkeypatch, fresh_heap_policy, symbols):
    monkeypatch.setattr(cli, "_process_symbols", lambda: symbols)
    assert _main_with_handler(monkeypatch, "rate-study", lambda: 0) == 0


def test_single_rep_has_zero_se():
    cfg = ExperimentConfig(K_trunc=20, n_grid=(40, 80, 160), reps=1, seed=0)
    points, _, _, _ = run_rate_study(cfg)
    assert all(p[5] == 0.0 for p in points)  # mise_se


def test_rate_study_needs_three_points():
    with pytest.raises(ValueError, match="at least 3 sample sizes"):
        run_rate_study(ExperimentConfig(n_grid=(40, 80), reps=1), jobs=0)  # sizes first
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_rate_study(TINY, jobs=0)


def test_rate_study_slope_is_negative():
    points, replications, slope, _ = run_rate_study(TINY)
    assert slope < 0
    assert len(points) == 3 and len(replications) == 9


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


_SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
    # the edges of the column path's numpy formatter, exact on 2e-6 <= |v| < 1e15
    # ties at the 18th digit round half-even: 2.98023223876953125e-08 (outside
    # that range), 0.100009918212890625, 0.100002288818359375,
    # 0.00100040435791015625, 123456789012345.625 and 123456789012345.375
    2.0**-25, 26217 / 2**18, 26215 / 2**18, 1049 / 2**20, 123456789012345.625, 123456789012345.375,
    1e-7, 1e-6,  # print with exponents -8 and -7
    2e-6, 1e15, 9.999999999999999e14, 0.5,
    *(float(np.nextafter(edge, side)) for edge in (2e-6, 1e15) for side in (-math.inf, math.inf)),
    *(float(np.nextafter(10.0**k, side))
      for k in (-6, -5, -4, -1, 0, 1, 14, 15, 16, 17) for side in (-math.inf, math.inf)),
]


def _per_value_bytes(path, matrix):
    """Bytes of the row-tuple path (`_fmt` on each numpy scalar)."""
    write_csv(str(path), ["c"] * matrix.shape[1], (tuple(row) for row in matrix))
    return path.read_bytes()


@st.composite
def _column_blocks(draw):
    """A tuple of 1-D and 2-D blocks of one length."""
    block = harness._BLOCK_ROWS
    rows = draw(st.one_of(st.integers(0, 6), st.sampled_from([block - 1, block, block + 1,
                                                              2 * block + 3])))
    widths = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=4))
    floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
    return tuple(draw(arrays(np.float64, (rows,) if w is None else (rows, w), elements=floats))
                 for w in widths)


@given(_column_blocks())
@example((np.zeros((1, 0)),))  # zero-width rows
@example((np.array(_SPECIAL_FLOATS), -np.array(_SPECIAL_FLOATS)[:, None]))
def test_write_csv_matrix_path_matches_per_value_path(tmp_path_factory, blocks):
    d = tmp_path_factory.mktemp("csv")
    matrix = np.column_stack(blocks)
    write_csv(str(d / "matrix.csv"), ["c"] * matrix.shape[1], blocks)
    assert (d / "matrix.csv").read_bytes() == _per_value_bytes(d / "values.csv", matrix)


@pytest.mark.parametrize(
    "rows, message",
    [
        ((np.zeros(3), np.zeros((4, 2))),
         "CSV column blocks must have one length, got lengths [3, 4]"),
        ((np.zeros(3), np.arange(3, dtype=np.int64)),
         "CSV column blocks must be 1-D or 2-D float64 arrays, got 1-D int64"),
        ((np.zeros((3, 2), dtype=np.float32),),
         "CSV column blocks must be 1-D or 2-D float64 arrays, got 2-D float32"),
        ((np.zeros(3), np.zeros((3, 2, 1))),
         "CSV column blocks must be 1-D or 2-D float64 arrays, got 3-D float64"),
    ],
    ids=["unequal-lengths", "int-block", "float32-matrix", "3-d-block"],
)
def test_write_csv_refuses_bad_column_blocks_before_opening_the_file(tmp_path, rows, message):
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"keep these bytes\n")
    fresh = tmp_path / "fresh" / "data.csv"
    for path in (kept, fresh):
        with pytest.raises(ValueError) as caught:
            write_csv(str(path), ["c"], rows)
        assert str(caught.value) == message
    assert kept.read_bytes() == b"keep these bytes\n"  # not truncated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]  # nothing created


def test_write_csv_matrix_path_spans_row_blocks(tmp_path):
    rng = np.random.default_rng(5)
    shape = (2 * harness._BLOCK_ROWS + 7, 4)  # two full blocks and a partial one
    matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    matrix[::97, 1] = -0.0
    matrix[-1] = [math.nan, math.inf, -math.inf, 5e-324]
    write_csv(str(tmp_path / "matrix.csv"), ["c"] * 4, (matrix,))
    text = (tmp_path / "matrix.csv").read_bytes()
    assert text == _per_value_bytes(tmp_path / "values.csv", matrix)
    assert text.count(b"\n") == matrix.shape[0] + 1
