"""Experiment orchestration: configs, replication loops, the CSV writer.

A study is a flat text config (key = value, `#` comments, keys named
exactly after ExperimentConfig's parameters) plus a master seed.  Building a
config checks it by building, once, what a study needs, each part checked
by its owner, so every command refuses a bad config before any work.
Every replication derives its own 64-bit seed from (master, index of n,
rep) through a splitmix64 mix, so results are independent of execution
order and identical across --jobs settings.  Replications share the
config's ground truth and solver settings, run through `map_in_order`, the
package's one thread pool, on at most --jobs workers (default 1): the
calling thread is the first, and the rest are plain `threading` threads,
which numpy loads anyway, so --jobs 1 starts no thread.  Each replication
returns its own `perreplication.csv` row as a plain tuple.  The pool
leaves BLAS's thread count to the caller: the `fglm` command holds it to
one thread (see `cli`), and a library caller sets its own, for instance
with OPENBLAS_NUM_THREADS=1.  CSV floats are written as `%.17g`, 17
significant digits, to survive a parse round trip.  A table of float
columns, such as a `generate` sample, is written from its own column
arrays a block of rows at a time, never stacked into a second copy, and
formatted in numpy to the same bytes: exactly, by integer arithmetic, for
zeros and for 2e-6 <= |v| < 1e15; every other value (smaller ones,
subnormals, larger ones, inf and nan) goes through `%` one at a time.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from .datagen import make_ground_truth, sample_dataset
from .estimator import NewtonConfig, TuningRule, estimate_slope, loss, tuning
from .expfam import get_family

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "format_config",
    "parse_sample_sizes",
    "require_seed",
    "replication_seed",
    "theoretical_exponent",
    "run_rate_study",
    "fit_loglog_slope",
    "write_csv",
    "map_in_order",
    "usable_cpus",
]

_MASK64 = (1 << 64) - 1


class ExperimentConfig:
    """Everything a study needs; the parameter names double as config-file keys.

    Construction checks the config by building what a study reads: the
    GroundTruth `truth`, the (m, N) `levels` at each n of n_grid, the
    TuningRule `rule` and the NewtonConfig `newton`, attributes that are
    not config keys.  Two configs are equal when their keys' values are.
    """

    def __init__(
        self,
        family: str = "gaussian",
        alpha: float = 2.0,
        beta_s: float = 3.0,
        a: float = 0.5,
        mu_mode: str = "zero",
        K_trunc: int = 200,
        n_grid: tuple[int, ...] = (500, 1000, 2000, 4000),
        reps: int = 100,
        seed: int = 6,  # master seed; replication slopes sit near the 10-seed median here
        c_m: float = 1.0,
        c_N: float = 2.0,
        zeta_override: float | None = None,
        newton_tol: float = 1e-10,
        newton_max_iter: int = 100,
        out_dir: str = ".",
    ):
        grid = tuple(int(v) for v in n_grid)
        if not grid:
            raise ValueError("n_grid must list at least one sample size")
        if any(hi <= lo for lo, hi in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if reps < 1:
            raise ValueError("reps must be at least 1")
        require_seed(seed)
        self.family, self.alpha, self.beta_s, self.a = family, alpha, beta_s, a
        self.mu_mode, self.K_trunc, self.n_grid = mu_mode, K_trunc, grid
        self.reps, self.seed = reps, seed
        self.c_m, self.c_N, self.zeta_override = c_m, c_N, zeta_override
        self.newton_tol, self.newton_max_iter, self.out_dir = newton_tol, newton_max_iter, out_dir
        self.truth = make_ground_truth(
            alpha, beta_s, get_family(family), k_trunc=K_trunc, intercept=a, mu_mode=mu_mode
        )
        self.rule = TuningRule(c_m, c_N, zeta_override)
        self.levels = tuple(tuning(n, alpha, beta_s, self.rule) for n in grid)
        for n, (_, n_comp) in zip(grid, self.levels):
            if n_comp > K_trunc:  # estimate_slope would clamp N to K_trunc, unreported
                raise ValueError(f"N={n_comp} components at n={n} exceed K_trunc={K_trunc}")
        self.newton = NewtonConfig(newton_tol, newton_max_iter)

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in _KEY_PARSERS)

    def __repr__(self):
        pairs = ", ".join(f"{key}={getattr(self, key)!r}" for key in _KEY_PARSERS)
        return f"ExperimentConfig({pairs})"


def parse_sample_sizes(text: str, name: str = "n_grid") -> tuple[int, ...]:
    """Comma-separated sample sizes such as "500, 1000"; an empty entry is refused."""
    if not text.replace(",", "").strip():
        raise ValueError(f"{name} must list at least one sample size")
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{name} must list integers, got {text!r}") from None


# value parser per parameter annotation (annotations are strings in this module)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": parse_sample_sizes,
    "float | None": lambda val: None if val.lower() in ("", "none") else float(val),
}
# the config-file keys in parameter order, the order `format_config` writes
_KEY_PARSERS = {
    key: _PARSERS[kind] for key, kind in ExperimentConfig.__init__.__annotations__.items()
}


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse the flat key = value format, then apply `overrides`; unknown keys are errors."""
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
    return ExperimentConfig(**{**values, **overrides})


def load_config(path: str, **overrides) -> ExperimentConfig:
    """`parse_config` of the file at `path`; a leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config(fh.read(), **overrides)


def format_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config, stable field order."""
    lines = []
    for key in _KEY_PARSERS:
        val = getattr(cfg, key)
        if key == "n_grid":
            val = ",".join(str(v) for v in val)
        elif val is None:
            val = "none"
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def require_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64 - 1], the seeds every command accepts."""
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")


def replication_seed(master_seed: int, n_index: int, rep: int) -> int:
    """Per-replication seed: master XOR splitmix64 of the (n, rep) pair."""
    require_seed(master_seed)
    if n_index < 0 or rep < 0 or n_index >= (1 << 32) or rep >= (1 << 32):
        raise ValueError("n_index and rep must be 32-bit nonnegative integers")
    return (master_seed ^ _splitmix64((n_index << 32) | rep)) & _MASK64


def theoretical_exponent(alpha: float, beta_s: float) -> float:
    """Risk decay exponent (1 - 2 beta) / (alpha + 2 beta)."""
    return (1.0 - 2.0 * beta_s) / (alpha + 2.0 * beta_s)


def _replication_task(cfg: ExperimentConfig, n: int, rep: int, seed: int) -> tuple:
    """The `perreplication.csv` row (n, rep, seed, loss, iterations, converged)."""
    gt = cfg.truth
    ds = sample_dataset(gt, n, seed)
    # the sample is dropped after the fit, so it is centred in its own memory
    fit = estimate_slope(
        ds, gt.family, cfg.alpha, cfg.beta_s, rule=cfg.rule, config=cfg.newton, overwrite_x=True
    )
    return n, rep, seed, loss(fit.slope, gt), fit.iterations, fit.converged


def run_rate_study(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list, list, float, float]:
    """All replications of the study, aggregated per sample size, and the log-log slope fit.

    Returns (points, replications, fitted_slope, slope_se).  A point is
    (n, reps, m, N, mise_mean, mise_se, nonconverged), the `rate_study.csv`
    columns after family, alpha and beta; a replication is
    `_replication_task`'s row.  Needs at least 3 sample sizes.  Every
    replication shares the config's ground truth, solver settings and
    truncation levels.  Tasks run on up to `jobs` workers, the calling
    thread being one, but are collected in (n, rep) order, so the result
    is identical for every jobs setting.  A failed replication aborts the
    study with its coordinates.
    """
    if len(cfg.n_grid) < 3:
        raise ValueError("slope regression needs at least 3 sample sizes in n_grid")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    meta = [
        (n, rep, replication_seed(cfg.seed, n_idx, rep))
        for n_idx, n in enumerate(cfg.n_grid)
        for rep in range(cfg.reps)
    ]
    rows = []
    try:
        for row in map_in_order(lambda m: _replication_task(cfg, *m), meta, jobs):
            rows.append(row)
    except Exception as exc:
        n, rep, seed = meta[len(rows)]  # rows arrive in meta order
        raise RuntimeError(f"replication failed at n={n}, rep={rep}, seed={seed}: {exc}") from exc

    points = []
    for n_idx, (n, (m, n_comp)) in enumerate(zip(cfg.n_grid, cfg.levels)):
        chunk = rows[n_idx * cfg.reps : (n_idx + 1) * cfg.reps]
        losses = np.array([row[3] for row in chunk])
        mise_se = float(np.std(losses, ddof=1) / math.sqrt(cfg.reps)) if cfg.reps > 1 else 0.0
        nonconverged = sum(1 for row in chunk if not row[5])
        points.append((n, cfg.reps, m, n_comp, float(np.mean(losses)), mise_se, nonconverged))
    slope, se = fit_loglog_slope([(p[0], p[4]) for p in points])
    return points, rows, slope, se


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


_BLOCK_ROWS = 128  # rows stacked per block in the column path


# --- `%.17g` of float64 columns, vectorised ---
#
# A value v with 2e-6 <= |v| < 1e15 has decimal exponent x in [-6, 14], so
# q = 16 - x <= 22 and 10**q is an exact double.  Dekker's two-product (a
# Veltkamp split, no FMA) gives |v| * 10**q = p + err exactly; p is then an
# integer, and rounding p + err half-even gives the 17 significant digits D,
# 10**16 <= D < 10**17, that `%.17g` prints.  Each value gets one row of six
# 8-byte words, a superset of the fixed and scientific layouts of `%g`:
#
#   "-0.000" + d0 + "."   then "d.d.d.d." for each 4-digit group of the
#   16 digits after d0, then "e-056" + separator + 2 unused bytes,
#
# and a mask row, looked up by (sign, x, digits left after stripping trailing
# zeros), picks that value's characters.  Zeros take a mask row of their own;
# every other value (|v| < 2e-6, subnormals, |v| >= 1e15, inf and nan) is
# formatted by `%` and spliced in.

_CHUNK = 4096  # values formatted per pass: a larger chunk raises the peak RSS, not the speed
_EXACT = (2e-6, 1e15)
_ZERO, _OTHER = 21, 22  # exponent slots of the mask table after x + 6 in [0, 20]
_SPLIT = 134217729.0  # 2**27 + 1
_TAILS = np.frombuffer(b"e-056,\0\0e-056\n\0\0", dtype=np.uint64)  # within a line, ending it


def _selection_masks():
    """Mask rows over a formatted row, indexed by (sign * 23 + x + 6) * 18 + digits."""
    sign, slot, digits, col = np.ogrid[:2, :23, :18, :48]
    x = slot - 6
    finite = slot < _ZERO
    fixed = finite & (x >= 0)
    small = finite & (x < 0) & (x >= -4)  # 0.000ddd
    sci = finite & (x < -4)
    i = (col - 6) // 2  # the digit at or just before column col
    digit_col = (col >= 6) & (col < 40) & (col % 2 == 0)
    dot_col = (col >= 6) & (col < 40) & (col % 2 == 1)
    shown = np.where(fixed, np.maximum(digits, x + 1), digits)  # whole part kept in full
    return (
        (col == 45)
        | ((col == 0) & (sign == 1) & (slot != _OTHER))
        | ((col == 1) & (small | (slot == _ZERO)))
        | ((col == 2) & small)
        | ((col >= 3) & (col < 6) & small & (col - 3 < -x - 1))
        | (digit_col & finite & (i < shown))
        | (dot_col & fixed & (i == x) & (digits > x + 1))
        | (dot_col & sci & (i == 0) & (digits > 1))
        | ((col >= 40) & (col < 43) & sci)
        | ((col == 43) & sci & (x == -5))
        | ((col == 44) & sci & (x == -6))
    ).reshape(-1, 48)


class _Format17g:
    """`%.17g` of float64 values in numpy, from the lookup tables it builds (about 1 ms)."""

    def __init__(self):
        self.pow10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))  # every product exact
        self.pow10_hi = self.pow10 * _SPLIT - (self.pow10 * _SPLIT - self.pow10)
        self.pow10_lo = self.pow10 - self.pow10_hi
        digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: the digits of g
        # "d.d.d.d." for every 4-digit group, and its trailing zeros (4 for 0000)
        dotted = np.full((10**4, 8), ord("."), dtype=np.uint8)
        dotted[:, ::2] = digits + ord("0")
        self.dotted = dotted.view(np.uint64).ravel()
        self.group_zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
        # "-0.000" + d0 + "." for every leading digit d0
        lead = np.tile(np.frombuffer(b"-0.000d.", dtype=np.uint8), (10, 1))
        lead[:, 6] = np.arange(10) + ord("0")
        self.lead = lead.view(np.uint64).ravel()
        self.masks = _selection_masks()
        self.lengths = self.masks.sum(axis=1)

    def scaled(self, a, q):
        """floor(a * 10**q) as int64 and its fractional part, both exact."""
        p = a * self.pow10[q]
        t = a * _SPLIT
        a_hi = t - (t - a)
        a_lo = a - a_hi
        hi, lo = self.pow10_hi[q], self.pow10_lo[q]
        err = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
        whole = np.floor(err)
        return p.astype(np.int64) + whole.astype(np.int64), err - whole

    def __call__(self, values, ends):
        """Buffers of `b"%.17g" % v` for each value, then "\\n" where `ends` is set, else ","."""
        a = np.abs(values)
        exact = (a >= _EXACT[0]) & (a < _EXACT[1])
        a = np.where(exact, a, 1.0)
        x = np.floor(np.log10(a)).astype(np.int64)
        floor, frac = self.scaled(a, 16 - x)
        wrong = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
        while wrong.size:  # log10 rounded across a power of ten
            x[wrong] += np.where(floor[wrong] < 10**16, -1, 1)
            floor[wrong], frac[wrong] = self.scaled(a[wrong], 16 - x[wrong])
            wrong = wrong[(floor[wrong] < 10**16) | (floor[wrong] >= 10**17)]
        sig = floor + ((frac > 0.5) | ((frac == 0.5) & (floor % 2 == 1)))
        carry = sig == 10**17
        sig[carry] = 10**16
        x += carry
        top, low = np.divmod(sig, 10**8)
        lead, mid = np.divmod(top, 10**8)
        groups = np.divmod(mid, 10**4) + np.divmod(low, 10**4)
        rows = np.empty((values.size, 6), dtype=np.uint64)
        rows[:, 0] = self.lead.take(lead)
        for k, group in enumerate(groups, start=1):
            rows[:, k] = self.dotted.take(group)
        rows[:, 5] = np.where(ends, _TAILS[1], _TAILS[0])
        zeros = self.group_zeros.take(groups[3])  # trailing zeros of the 16 digits after d0
        short = np.flatnonzero(groups[3] == 0)  # few, but for short decimals such as 1.0 or 0.5
        if short.size:
            tail = self.group_zeros.take(groups[0][short])
            for group in groups[1:3]:
                group = group[short]
                tail = np.where(group == 0, tail + 4, self.group_zeros.take(group))
            zeros[short] = tail + 4
        slot = np.where(exact, x + 6, np.where(values == 0, _ZERO, _OTHER))
        key = (np.signbit(values) * 23 + slot) * 18 + (17 - zeros)
        out = np.compress(self.masks.take(key, axis=0).ravel(), rows.view(np.uint8).ravel())
        other = np.flatnonzero(slot == _OTHER)
        if not other.size:
            return [out]
        ends_at = np.cumsum(self.lengths.take(key))[other] - 1  # each one's separator
        pieces, start = [], 0
        for v, end in zip(values[other].tolist(), ends_at.tolist()):
            pieces += [out[start:end], b"%.17g" % v]
            start = end
        pieces.append(out[start:])
        return pieces


def _column_blocks(rows):
    """`rows` as a tuple of float64 column blocks of one length, or None for row tuples."""
    if not (isinstance(rows, tuple) and rows and all(isinstance(b, np.ndarray) for b in rows)):
        return None
    for block in rows:
        if block.dtype != np.float64 or block.ndim not in (1, 2):
            raise ValueError(f"CSV column blocks must be 1-D or 2-D float64 arrays, "
                             f"got {block.ndim}-D {block.dtype}")
    lengths = sorted({block.shape[0] for block in rows})
    if len(lengths) > 1:
        raise ValueError(f"CSV column blocks must have one length, got lengths {lengths}")
    return rows


def write_csv(path: str, header, rows) -> None:
    """Plain CSV, LF newlines, floats at 17 significant digits (`%.17g`).

    `rows` is an iterable of rows, each value formatted by `_fmt`, or the
    float64 columns of the file: a tuple of column blocks of one length,
    a 1-D array being one column and a 2-D array its columns.  Blocks are
    stacked `_BLOCK_ROWS` rows at a time, so no copy of the whole table is
    made, and formatted by numpy `_CHUNK` values at a time, each value to
    exactly the bytes of `%.17g`.  Zeros and values with 2e-6 <= |v| < 1e15
    are formatted in numpy; the rest (smaller values, subnormals, larger
    values, inf and nan) one at a time by `%`.  Both paths give the same
    bytes for the same floats.  Blocks of another dtype or ndim, or of
    unequal lengths, are refused before the file is opened.
    """
    blocks = _column_blocks(rows)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if blocks is None:
            for row in rows:
                fh.write((",".join(_fmt(v) for v in row) + "\n").encode())
            return
        width = sum(1 if block.ndim == 1 else block.shape[1] for block in blocks)
        if width == 0:
            fh.write(b"\n" * blocks[0].shape[0])
            return
        ends = np.zeros((_BLOCK_ROWS, width), dtype=bool)
        ends[:, -1] = True
        ends = ends.ravel()
        # built per call, not cached: kept for the process, its tables would sit on
        # the heap above the sample's freed blocks, and whether `estimate` after
        # `generate` in one process could reuse them then hung on the heap's
        # layout (a peak of 48.5 or 52.7 MB RSS by the checkout's path)
        format_17g = _Format17g()
        for start in range(0, blocks[0].shape[0], _BLOCK_ROWS):
            stacked = np.column_stack([block[start : start + _BLOCK_ROWS] for block in blocks])
            values = stacked.ravel()
            for lo in range(0, values.size, _CHUNK):
                hi = min(lo + _CHUNK, values.size)
                fh.writelines(format_17g(values[lo:hi], ends[lo:hi]))


def map_in_order(fn, items, jobs: int):
    """Yield `fn(item)` for every item of a sequence, in order, from `jobs` workers.

    The calling thread is the first worker: while the result it must yield
    next is not ready, it runs the next item not yet started itself.  The
    other workers are plain `threading` threads, so the pool starts
    `workers - 1` threads, `workers` being `min(jobs, len(items),
    usable_cpus())`; at `jobs=1` every call runs on the calling thread.
    A `jobs` below 1 is refused with ValueError before any call.  Calls
    start in item order; once one raises, the items after it not yet
    started are skipped, and the first exception in item order is raised
    here, after the results before it.  An exception that is not an
    `Exception` (KeyboardInterrupt, SystemExit) raised in the caller's own
    call is raised at once.  Closing the generator early skips the items
    not yet started too; it returns once the running calls have finished.
    BLAS runs at whatever thread count the process has.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not items:
        return
    count = len(items)
    outcomes = [None] * count  # (True, result) or (False, exception), as each call ends
    done = threading.Condition()
    claimed = 0  # items handed to a worker so far, in order
    stop = False  # set on the first failure, and when the caller is done

    def claim():
        """The next item to start, or None; called holding `done`."""
        nonlocal claimed
        if stop or claimed == count:
            return None
        claimed += 1
        return claimed - 1

    def run(index, catching):
        nonlocal stop
        try:
            outcome = (True, fn(items[index]))
        except catching as exc:  # handed to the caller, who raises it in item order
            outcome = (False, exc)
        with done:
            outcomes[index] = outcome
            if not outcome[0]:
                stop = True  # no later item starts
            done.notify_all()

    def work():
        while True:
            with done:
                index = claim()
            if index is None:
                return
            run(index, BaseException)  # the caller raises every failure of a thread

    threads = []
    try:
        threads = _start_threads(work, min(jobs, count, usable_cpus()) - 1)
        for index in range(count):
            while True:
                with done:
                    while (outcome := outcomes[index]) is None and (own := claim()) is None:
                        done.wait()
                    outcomes[index] = None  # the caller holds the result, if any, from here on
                if outcome is not None:
                    break
                # the result due next is not ready: run the next item here; an
                # interrupt in it is no Exception, so it propagates at once
                run(own, Exception)
            ok, value = outcome
            if not ok:
                raise value
            yield value
    finally:
        with done:
            stop = True
        for thread in threads:
            thread.join()


def _start_threads(target, count: int) -> list:
    """Start `count` threads that each run `target`: all the threads `map_in_order` starts."""
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    return threads


def usable_cpus() -> int:
    """CPUs this process may run on: the cap of every thread pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
