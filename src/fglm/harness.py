"""Experiment orchestration: configs, replication loops, the CSV writer.

A study is a flat text config (key = value, `#` comments, keys named
exactly after ExperimentConfig fields) plus a master seed.  Loading a
config validates it and builds its tuning rule and Newton settings once,
so a bad rule is refused by every command before any work.  Every
replication derives its own 64-bit seed from (master, index of n, rep)
through a splitmix64 mix, so results are independent of execution
order and identical across --jobs settings.  Replications share one
ground truth and those settings, run through `map_in_order`, the
package's one thread pool, on at most --jobs threads (default 1), and
each returns its own ReplicationRecord.  While the pool runs, the
OpenBLAS bundled with numpy is held to one thread, so the pool's threads
and not BLAS's own share the cores; the count it had before is restored
when the pool ends.  CSV floats are written with 17 significant digits
to survive a parse round trip.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .datagen import MU_MODES, GroundTruth, check_smoothness, make_ground_truth, sample_dataset
from .estimator import NewtonConfig, TuningRule, estimate_slope, loss, tuning, zeta_interval
from .expfam import get_family

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "format_config",
    "replication_seed",
    "theoretical_exponent",
    "RatePoint",
    "ReplicationRecord",
    "RateStudyResult",
    "run_rate_points",
    "run_rate_study",
    "fit_loglog_slope",
    "write_csv",
    "map_in_order",
    "usable_cpus",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study needs; field names double as config-file keys.

    Construction also builds the study's TuningRule `rule` and NewtonConfig
    `newton` once, as plain attributes: neither is a field or config key.
    """

    family: str = "gaussian"
    alpha: float = 2.0
    beta_s: float = 3.0
    a: float = 0.5
    mu_mode: str = "zero"
    K_trunc: int = 200
    n_grid: tuple[int, ...] = (500, 1000, 2000, 4000)
    reps: int = 100
    seed: int = 6  # master seed; replication slopes sit near the 10-seed median here
    c_m: float = 1.0
    c_N: float = 2.0
    zeta_override: float | None = None
    newton_tol: float = 1e-10
    newton_max_iter: int = 100
    out_dir: str = "."

    def __post_init__(self):
        get_family(self.family)  # raises on unknown names
        if self.mu_mode not in MU_MODES:
            raise ValueError("mu_mode must be 'zero' or 'bumps'")
        grid = tuple(int(v) for v in self.n_grid)
        if len(grid) == 0 or any(v < 1 for v in grid):
            raise ValueError("n_grid must list positive sample sizes")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        check_smoothness(self.alpha, self.beta_s)  # the model class, for every command
        if self.K_trunc < 4 or self.newton_max_iter < 1 or self.newton_tol <= 0:
            raise ValueError("K_trunc must be >= 4, newton_max_iter >= 1 and newton_tol > 0")
        if self.zeta_override is not None:  # as `tuning` would refuse it at every n
            lo, hi = zeta_interval(self.alpha, self.beta_s)
            if not lo < self.zeta_override < hi:
                raise ValueError(f"zeta must lie strictly inside ({lo:.6g}, {hi:.6g})")
        object.__setattr__(self, "rule", TuningRule(self.c_m, self.c_N, self.zeta_override))
        object.__setattr__(self, "newton", NewtonConfig(self.newton_tol, self.newton_max_iter))


# value parser per field annotation (annotations are strings in this module)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda val: tuple(int(v.strip()) for v in val.split(",") if v.strip()),
    "float | None": lambda val: None if val.lower() in ("", "none") else float(val),
}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_PARSERS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {val!r}") from exc
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config, stable field order."""
    lines = []
    for f in fields(ExperimentConfig):
        val = getattr(cfg, f.name)
        if f.name == "n_grid":
            val = ",".join(str(v) for v in val)
        elif val is None:
            val = "none"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replication_seed(master_seed: int, n_index: int, rep: int) -> int:
    """Per-replication seed: master XOR splitmix64 of the (n, rep) pair."""
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master seed must fit in 64 bits")
    if n_index < 0 or rep < 0 or n_index >= (1 << 32) or rep >= (1 << 32):
        raise ValueError("n_index and rep must be 32-bit nonnegative integers")
    return (master_seed ^ _splitmix64((n_index << 32) | rep)) & _MASK64


def theoretical_exponent(alpha: float, beta_s: float) -> float:
    """Risk decay exponent (1 - 2 beta) / (alpha + 2 beta)."""
    return (1.0 - 2.0 * beta_s) / (alpha + 2.0 * beta_s)


@dataclass(frozen=True)
class RatePoint:
    n: int
    reps: int
    m: int
    n_components: int
    mise_mean: float
    mise_se: float
    nonconverged: int


@dataclass(frozen=True)
class ReplicationRecord:
    n: int
    rep: int
    seed: int
    loss: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class RateStudyResult:
    points: tuple[RatePoint, ...]
    replications: tuple[ReplicationRecord, ...]
    fitted_slope: float
    slope_se: float
    theoretical: float


def _replication_task(
    cfg: ExperimentConfig, gt: GroundTruth, n: int, rep: int, seed: int
) -> ReplicationRecord:
    ds = sample_dataset(gt, n, seed)
    fit = estimate_slope(ds, gt.family, cfg.alpha, cfg.beta_s, rule=cfg.rule, config=cfg.newton)
    return ReplicationRecord(
        n=n, rep=rep, seed=seed, loss=loss(fit.slope, gt), iterations=fit.iterations,
        converged=fit.converged,
    )


def run_rate_points(
    cfg: ExperimentConfig, jobs: int = 1
) -> tuple[tuple[RatePoint, ...], tuple[ReplicationRecord, ...]]:
    """All replications of the study, aggregated per sample size.

    The ground truth is built once and shared by every replication.
    Tasks run on up to `jobs` threads but are collected in (n, rep)
    order, so the output is identical for every jobs setting.  A failed
    replication aborts the study with its coordinates; a tuning rule that
    refuses some n or asks for N > K_trunc does so before the first draw.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    gt = make_ground_truth(
        cfg.alpha,
        cfg.beta_s,
        get_family(cfg.family),
        k_trunc=cfg.K_trunc,
        intercept=cfg.a,
        mu_mode=cfg.mu_mode,
    )
    levels = [tuning(n, cfg.alpha, cfg.beta_s, cfg.rule) for n in cfg.n_grid]
    for n, (_, n_comp) in zip(cfg.n_grid, levels):
        if n_comp > cfg.K_trunc:  # estimate_slope would clamp N to K_trunc, unreported
            raise ValueError(f"N={n_comp} components at n={n} exceed K_trunc={cfg.K_trunc}")
    meta = [
        (n, rep, replication_seed(cfg.seed, n_idx, rep))
        for n_idx, n in enumerate(cfg.n_grid)
        for rep in range(cfg.reps)
    ]
    records = []
    try:
        for record in map_in_order(lambda m: _replication_task(cfg, gt, *m), meta, jobs):
            records.append(record)
    except Exception as exc:
        n, rep, seed = meta[len(records)]  # records arrive in meta order
        raise RuntimeError(f"replication failed at n={n}, rep={rep}, seed={seed}: {exc}") from exc

    points = []
    for n_idx, (n, (m, n_comp)) in enumerate(zip(cfg.n_grid, levels)):
        chunk = records[n_idx * cfg.reps : (n_idx + 1) * cfg.reps]
        losses = np.array([r.loss for r in chunk])
        mise_se = float(np.std(losses, ddof=1) / math.sqrt(cfg.reps)) if cfg.reps > 1 else 0.0
        points.append(
            RatePoint(
                n=n,
                reps=cfg.reps,
                m=m,
                n_components=n_comp,
                mise_mean=float(np.mean(losses)),
                mise_se=mise_se,
                nonconverged=sum(1 for r in chunk if not r.converged),
            )
        )
    return tuple(points), tuple(records)


def run_rate_study(cfg: ExperimentConfig, jobs: int = 1) -> RateStudyResult:
    """Rate study plus the log-log slope fit (needs >= 3 sample sizes)."""
    if len(cfg.n_grid) < 3:
        raise ValueError("slope regression needs at least 3 sample sizes in n_grid")
    points, records = run_rate_points(cfg, jobs=jobs)
    slope, se = fit_loglog_slope([(p.n, p.mise_mean) for p in points])
    return RateStudyResult(
        points=points,
        replications=records,
        fitted_slope=slope,
        slope_se=se,
        theoretical=theoretical_exponent(cfg.alpha, cfg.beta_s),
    )


def fit_loglog_slope(points) -> tuple[float, float]:
    """OLS slope of log(mise) on log(n) with its standard error."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("slope regression needs at least 3 points")
    if any(n <= 0 or v <= 0 for n, v in pts):
        raise ValueError("slope regression needs positive n and mise")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0.0:
        raise ValueError("sample sizes must not all coincide")
    slope = float(np.dot(xc, y) / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = len(pts) - 2
    se = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return slope, se


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_BLOCK_ROWS = 1024  # rows formatted per string operation in the matrix path


def write_csv(path: str, header, rows) -> None:
    """Plain CSV, LF newlines, floats at 17 significant digits.

    `rows` is an iterable of rows, each value formatted by `_fmt`, or a
    2-D float64 array, formatted a block of rows at a time from one
    `%.17g` template; both give the same bytes for the same floats.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, rows.shape[0], _BLOCK_ROWS):
                block = rows[start : start + _BLOCK_ROWS]
                fh.write((template * block.shape[0]) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def map_in_order(fn, items, jobs: int):
    """Yield `fn(item)` for every item of a sequence, in order, from a thread pool.

    At most `jobs` threads, and no more than there are items or usable CPUs.
    Calls start in item order; once one raises, the items after it not yet
    started are skipped, and the first exception in item order is raised here.
    From the first `next` until the generator ends, raises or is closed,
    OpenBLAS is held to one thread (see `_OneBlasThread`), at every `jobs`.
    """
    # pool.map cancels unstarted calls only when the caller sees a failure, after a
    # free worker took the next item.  Only appended to: failed[0] is a failed index.
    failed = []

    def call(index):
        if failed and index > failed[0]:
            return None  # never yielded: the failure before it is raised first
        try:
            return fn(items[index])
        except BaseException:
            failed.append(index)
            raise

    # the pool shuts down, its calls all ended, before the BLAS count is restored
    with _ONE_BLAS_THREAD, ThreadPoolExecutor(
        max_workers=min(jobs, len(items), usable_cpus())
    ) as pool:
        yield from pool.map(call, range(len(items)))


def usable_cpus() -> int:
    """CPUs this process may run on: the cap of every thread pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# (get, set) symbol pairs of OpenBLAS's thread count, newest wheels first:
# numpy 2 bundles scipy-openblas, numpy 1.x wheels an ILP64 OpenBLAS of its own
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _numpy_openblas() -> list:
    """Handles of the OpenBLAS libraries bundled with numpy and already loaded."""
    base = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(base + ".libs", "*openblas*"))  # Linux and Windows wheels
    paths += glob.glob(os.path.join(base, ".dylibs", "*openblas*"))  # macOS wheels
    libs = []
    for path in sorted(paths):
        try:  # RTLD_NOLOAD: the copy numpy uses, never a second one
            libs.append(ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0)))
        except OSError:
            pass
    return libs


@functools.cache
def _blas_thread_calls():
    """(get, set) of the loaded OpenBLAS's thread count, or None without one.

    Looked up on first use, not at import, and kept for the process.
    """
    for lib in _numpy_openblas():
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _OneBlasThread:
    """Holds OpenBLAS to one thread while any `map_in_order` pool runs.

    The count is process-wide, so pools open at once on different threads
    share one hold: the first saves the count and sets 1, the last
    restores it.  Restored under a running pool, the count would give that
    pool's BLAS calls more threads, and on some OpenBLAS kernels (Nehalem)
    a threaded eigh rounds differently.  Does nothing when numpy's OpenBLAS
    or its thread calls are not found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pools = 0
        self._calls = None
        self._before = None

    def __enter__(self):
        with self._lock:
            if self._pools == 0:
                self._calls = _blas_thread_calls()
                if self._calls is not None:
                    get, put = self._calls
                    self._before = get()
                    put(1)
            self._pools += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._pools -= 1
            if self._pools == 0 and self._calls is not None:
                self._calls[1](self._before)


_ONE_BLAS_THREAD = _OneBlasThread()
