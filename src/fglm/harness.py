"""Experiment orchestration: configs, replication loops, CSV emission.

A study is a flat text config (key = value, `#` comments, keys named
exactly after ExperimentConfig fields) plus a master seed.  Every
replication derives its own 64-bit seed from (master, index of n, rep)
through a splitmix64 mix, so results are independent of execution
order and identical across --jobs settings; CSV floats are written
with 17 significant digits to survive a parse round trip.
"""
from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .datagen import MU_MODES, GroundTruth, make_ground_truth, sample_dataset
from .estimator import NewtonConfig, TuningRule, estimate_slope, loss, tuning
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
    "write_rate_study_csv",
    "write_slope_csv",
    "write_perreplication_csv",
    "write_csv",
    "default_jobs",
    "with_overrides",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study needs; field names double as config-file keys."""

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
        if self.zeta_override is not None and not math.isfinite(self.zeta_override):
            raise ValueError("zeta_override must be finite")
        if self.K_trunc < 4 or self.newton_max_iter < 1 or self.newton_tol <= 0:
            raise ValueError("K_trunc must be >= 4, newton_max_iter >= 1 and newton_tol > 0")


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
    cfg: ExperimentConfig, gt: GroundTruth, n: int, seed: int
) -> tuple[float, int, bool]:
    ds = sample_dataset(gt, n, seed)
    fit = estimate_slope(
        ds,
        gt.family,
        cfg.alpha,
        cfg.beta_s,
        rule=TuningRule(c_m=cfg.c_m, c_N=cfg.c_N, zeta=cfg.zeta_override),
        config=NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.newton_max_iter),
    )
    return loss(fit.slope, gt), fit.iterations, fit.converged


def run_rate_points(
    cfg: ExperimentConfig, jobs: int | None = None
) -> tuple[tuple[RatePoint, ...], tuple[ReplicationRecord, ...]]:
    """All replications of the study, aggregated per sample size.

    The ground truth is built once and shared by every replication.
    Tasks run concurrently up to `jobs` workers but are collected in
    (n, rep) order, so the output is identical for every jobs setting.
    A replication that raises aborts the study with its coordinates; a
    tuning rule that refuses some n does so before the first draw.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    rule = TuningRule(c_m=cfg.c_m, c_N=cfg.c_N, zeta=cfg.zeta_override)
    gt = make_ground_truth(
        cfg.alpha,
        cfg.beta_s,
        get_family(cfg.family),
        k_trunc=cfg.K_trunc,
        intercept=cfg.a,
        mu_mode=cfg.mu_mode,
    )
    levels = [tuning(n, cfg.alpha, cfg.beta_s, rule) for n in cfg.n_grid]
    task = functools.partial(_replication_task, cfg, gt)
    meta = [
        (n, rep, replication_seed(cfg.seed, n_idx, rep))
        for n_idx, n in enumerate(cfg.n_grid)
        for rep in range(cfg.reps)
    ]
    sizes = [n for n, _, _ in meta]
    seeds = [seed for _, _, seed in meta]

    if jobs == 1:
        stream = map(task, sizes, seeds)
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        stream = pool.map(task, sizes, seeds, chunksize=max(1, len(meta) // (8 * jobs)))
    outcomes = []
    try:
        for outcome in stream:
            outcomes.append(outcome)
    except Exception as exc:
        n, rep, seed = meta[len(outcomes)]  # outcomes arrive in meta order
        raise RuntimeError(f"replication failed at n={n}, rep={rep}, seed={seed}: {exc}") from exc
    finally:
        if jobs > 1:
            pool.shutdown(wait=True)

    records = tuple(
        ReplicationRecord(n=n, rep=rep, seed=seed, loss=o[0], iterations=o[1], converged=o[2])
        for (n, rep, seed), o in zip(meta, outcomes)
    )
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
    return tuple(points), records


def run_rate_study(cfg: ExperimentConfig, jobs: int | None = None) -> RateStudyResult:
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


def write_rate_study_csv(cfg: ExperimentConfig, result: RateStudyResult, path: str) -> None:
    write_csv(
        path,
        ["family", "alpha", "beta", "n", "reps", "m", "N", "mise_mean", "mise_se", "nonconverged"],
        (
            (
                cfg.family,
                cfg.alpha,
                cfg.beta_s,
                p.n,
                p.reps,
                p.m,
                p.n_components,
                p.mise_mean,
                p.mise_se,
                p.nonconverged,
            )
            for p in result.points
        ),
    )


def write_slope_csv(result: RateStudyResult, path: str) -> None:
    write_csv(
        path,
        ["slope", "se", "theoretical"],
        [(result.fitted_slope, result.slope_se, result.theoretical)],
    )


def write_perreplication_csv(result: RateStudyResult, path: str) -> None:
    write_csv(
        path,
        ["n", "rep", "seed", "loss", "iterations", "converged"],
        ((r.n, r.rep, r.seed, r.loss, r.iterations, r.converged) for r in result.replications),
    )


def default_jobs() -> int:
    """--jobs default: the FGLM_JOBS environment variable, else 1."""
    raw = os.environ.get("FGLM_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise ValueError(f"FGLM_JOBS must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise ValueError("FGLM_JOBS must be at least 1")
    return jobs


def with_overrides(cfg: ExperimentConfig, seed=None, out_dir=None) -> ExperimentConfig:
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg
