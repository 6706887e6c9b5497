"""Command-line front end.

Subcommands:

* ``generate``      write one simulated dataset to CSV
* ``estimate``      fit a dataset CSV, write slope coefficients + grid values
* ``rate-study``    replicate (simulate -> fit -> loss) over an n-grid,
                    write rate_study.csv / slope.csv
* ``perturb-check`` randomized eigen-perturbation certification suite
* ``lower-bound``   calibrated hypercube affinity study, gated on an
                    affinity floor
* ``diagnostics``   envelope, information-matrix, and maximal-inequality checks,
                    write diagnostics.csv

The certification commands judge by one rule, ``_conclude``: a ``Verdict``
fails when it did not pass or checked nothing; each failing one prints
``FAIL: <check>[ n=<n>][ x=<x>]: <statistic> against bound <bound>`` (or
``...: nothing checked``) to stderr and the command exits 2, else it
prints its pass line and exits 0.  ``scripts/run_certifications.py`` only
drives them.

``rate-study``, ``lower-bound`` and ``diagnostics`` build their ``--config``
once, ``--seed`` and ``--out`` applied, so all three refuse the same configs.

Exit codes: 0 success, 1 bad arguments/config/input, 2 runtime or
certification failure.  Refused before any work: a ``--seed`` outside
[0, 2**64 - 1], by every command that takes one; an output directory that
is or lies below a file; a ``generate`` CSV that is a directory or lies
below a file; an output that is or lies below a loop of symbolic links;
an output below a dangling symbolic link; and an output that is a dangling
link, when a directory or when the link target's directory is missing.
``rate-study --jobs`` (default 1) and ``diagnostics`` share the thread
pool ``harness.map_in_order``, built on ``threading``: ``--jobs N`` means
N workers, the command's own thread being one of them, so ``--jobs 1``
starts no thread; output never depends on either.
Every command runs with the OpenBLAS bundled with numpy held to one thread,
and the count it had is restored when the command ends: the pool's workers,
not BLAS's own, share the cores, and on kernels where a threaded BLAS call
rounds differently (Nehalem) no output depends on the core count.
Every command also keeps the memory it frees inside the process: glibc's
trim threshold is set to 64 MiB and its mmap threshold to 32 MiB, once per
process and never restored.  A replication then reuses the pages of the
last one; without the thresholds it faults its sample in again, about
280 minor faults a replication of the stock gaussian study.
With numpy 2, every command runs without OpenSSL's libcrypto, about 3.4 MB
resident: numpy.random imports `hashlib` and `hmac` through `secrets`, and
while a command runs, their `_hashlib` is blocked, so they use the standard
library's built-in hashes, and the block is lifted when the command ends.
A process that loaded `hashlib` before the command keeps OpenSSL; one
whose first `import hashlib` falls inside a command gets the built-in
hashes.  Nothing is blocked where the interpreter was built without its
own SHA-2 modules (`random` needs their sha512), nor with numpy 1, whose
`import numpy` loads numpy.random, and so `_hashlib`, before any command.
Library callers that bypass `main` keep their own process, as they do for
the heap policy.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import errno
import glob
import importlib.util
import os
import sys
import warnings
from contextlib import contextmanager
from functools import cache, partial

import numpy as np

from .datagen import MU_MODES, Dataset, make_ground_truth, sample_dataset
from .estimator import estimate_slope, zeta_interval
from .expfam import family_names, get_family, verify_envelope
from .funcspace import evaluate_on_grid, uniform_grid
from .harness import ExperimentConfig, load_config, map_in_order, parse_sample_sizes
from .harness import require_seed, run_rate_study, theoretical_exponent, write_csv
from .lowerbound import AssouadConfig, affinity_study, require_affinity_draws
from .spectral_diag import (
    Verdict,
    check_chisq_maximal,
    fisher_study,
    random_perturbation_suite,
    require_chisq_reps,
    require_fisher_reps,
)

__all__ = ["main"]

# Smallest calibrated affinity `lower-bound` accepts: the two-point risk
# bound needs the affinity bounded away from zero at every n.
_AFFINITY_FLOOR = 0.1
# Largest third-derivative envelope ratio `diagnostics` accepts.
_ENVELOPE_BOUND = 1.0 + 1e-9
# Largest |z| of an information-matrix entry `diagnostics` accepts.
_INFORMATION_Z_BOUND = 4.0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fglm", description="Functional GLM simulation toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # the options of every command that runs a study config; see _load_config
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--config", required=True)
    study.add_argument("--seed", type=int, default=None, help="override config seed")
    study.add_argument("--out", default=None, help="override config out_dir")
    # the model options of `generate` and `estimate`
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--family", required=True, choices=family_names())
    model.add_argument("--alpha", type=float, default=2.0)
    model.add_argument("--beta", type=float, default=3.0)

    gen = sub.add_parser("generate", parents=[model], help="write one simulated dataset to CSV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--intercept", type=float, default=0.5)
    gen.add_argument("--mu-mode", choices=MU_MODES, default="zero")
    gen.add_argument("--k-trunc", type=int, default=200)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(handler=_cmd_generate)

    est = sub.add_parser("estimate", parents=[model], help="fit one dataset CSV")
    est.add_argument("--data", required=True, help="CSV from `generate`")
    est.add_argument("--grid-points", type=int, default=201)
    est.add_argument("--out", default=".", help="output directory")
    est.set_defaults(handler=_cmd_estimate)

    rate = sub.add_parser("rate-study", parents=[study], help="MISE decay across sample sizes")
    rate.add_argument("--jobs", type=int, default=1)
    rate.add_argument(
        "--per-replication", action="store_true", help="also write perreplication.csv"
    )
    rate.set_defaults(handler=_cmd_rate_study)

    pert = sub.add_parser("perturb-check", help="randomized eigen-perturbation suite")
    pert.add_argument("--reps", type=int, default=500)
    pert.add_argument("--dim", type=int, default=12)
    pert.add_argument("--seed", type=int, default=0)
    pert.add_argument("--alpha", type=float, default=2.0)
    pert.add_argument("--out", default=".", help="output directory")
    pert.set_defaults(handler=_cmd_perturb_check)

    low = sub.add_parser("lower-bound", parents=[study], help="calibrated hypercube affinity study")
    low.add_argument("--m", type=int, default=2, help="hypercube bits")
    low.add_argument("--n-grid", default="100,1000,10000")
    low.add_argument("--n-mc", type=int, default=200)
    low.set_defaults(handler=_cmd_lower_bound)

    diag = sub.add_parser(
        "diagnostics", parents=[study], help="envelope / information / maximal checks"
    )
    diag.add_argument("--fisher-reps", type=int, default=200)
    diag.add_argument("--chisq-reps", type=int, default=100_000)
    diag.set_defaults(handler=_cmd_diagnostics)

    return parser


def _is_link_loop(path: str) -> bool:
    """Whether following the symbolic links on `path` never ends."""
    try:
        os.stat(path)
    except OSError as exc:
        return exc.errno == errno.ELOOP
    return False


def _require_output(path: str, kind: str) -> None:
    """Refuse, before any work, an output `kind` ("file" or "directory") that cannot be made."""
    if kind == "file" and os.path.isdir(path):
        raise ValueError(f"output file {path} is an existing directory")
    if kind == "directory" and os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"output directory {path} is an existing file")
    # nothing can be made below a file, nor through a dangling link or a loop of
    # links (the nearest ancestor that is there must be a directory); a file can
    # be written through a dangling link whose target's directory exists, a
    # directory never
    full = os.path.abspath(path)
    ancestor = os.path.dirname(full)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        if os.path.exists(ancestor):
            what = "existing file"
        else:
            what = "symbolic-link loop" if _is_link_loop(ancestor) else "dangling symbolic link"
        raise ValueError(f"output {kind} {path} lies below the {what} {ancestor}")
    if os.path.islink(full) and not os.path.exists(full):
        if _is_link_loop(full):
            raise ValueError(f"output {kind} {path} is a symbolic-link loop")
        target = os.path.realpath(full)
        if kind == "directory" or not os.path.isdir(os.path.dirname(target)):
            raise ValueError(f"output {kind} {path} is a dangling symbolic link to {target}")


def _load_config(args) -> ExperimentConfig:
    """The --config study built once, with --seed and --out applied; its out_dir is checked."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    cfg = load_config(args.config, **{k: v for k, v in overrides.items() if v is not None})
    _require_output(cfg.out_dir, "directory")
    return cfg


def _cmd_generate(args) -> int:
    require_seed(args.seed)
    _require_output(args.out, "file")
    family = get_family(args.family)
    gt = make_ground_truth(
        args.alpha,
        args.beta,
        family,
        k_trunc=args.k_trunc,
        intercept=args.intercept,
        mu_mode=args.mu_mode,
    )
    ds = sample_dataset(gt, args.n, args.seed)
    header = ["y", "lambda"] + [f"x{k}" for k in range(1, ds.k_trunc + 1)]
    write_csv(args.out, header, (ds.y, ds.lambda_true, ds.x))
    print(f"wrote {args.out}: {ds.n} rows, {ds.k_trunc} coefficient columns")
    return 0


def _count_line_ends(path: str) -> int:
    """How many line ends the file at `path` holds: LF, CR and CRLF count once each."""
    count, after_cr = 0, False
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            returns = block.count(b"\r")
            count += block.count(b"\n") + returns
            if returns:  # the pair search is slower than a byte count: LF files skip it
                count -= block.count(b"\r\n")
            if after_cr and block.startswith(b"\n"):  # a CRLF split between two blocks
                count -= 1
            after_cr = block.endswith(b"\r")
    return count


# bytes of rows moved at a time when x is compacted to the front of the parse
_COMPACT_BLOCK_BYTES = 1 << 18


def _read_dataset_csv(path: str) -> Dataset:
    """Parse a `generate`-style CSV: a header row, then one numeric row per sample.

    Only the y, lambda and x1..xK columns are parsed, and a repeated column
    name is refused; fields may be quoted, lines may end in CRLF and the file
    may start with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" files do.
    loadtxt converts through the same routine as `float`, so every value
    keeps its bits.  The sample is held once: y and lambda are copied out,
    and x is a C-contiguous view of loadtxt's own buffer, with each row's
    K values moved to the front of it in place.
    """
    # every data row but the last ends in a line end, and so does the header
    # when a row follows it: an upper bound on the rows, so that loadtxt
    # allocates its result once instead of regrowing it
    max_rows = _count_line_ends(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        cols = {}
        for i, name in enumerate(next(csv.reader([first]))):
            if name in cols:
                raise ValueError(f"{path}: duplicate column {name!r}")
            cols[name] = i
        if "y" not in cols:
            raise ValueError(f"{path}: missing 'y' column")
        x_names = sorted(
            (name for name in cols if name.startswith("x") and name[1:].isdigit()),
            key=lambda s: int(s[1:]),
        )
        if not x_names:
            raise ValueError(f"{path}: no coefficient columns x1..xK")
        if [int(s[1:]) for s in x_names] != list(range(1, len(x_names) + 1)):
            raise ValueError(f"{path}: coefficient columns must be consecutive x1..xK")
        lead = ["y", "lambda"] if "lambda" in cols else ["y"]
        # x1..xK first, so that x can be moved to the front of the buffer
        usecols = [cols[name] for name in x_names + lead]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                body = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, usecols=usecols, ndmin=2,
                    max_rows=max_rows,
                )
        except ValueError as exc:
            raise ValueError(f"{path}: malformed numeric row: {exc}") from None
    n, k = body.shape[0], len(x_names)
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    y = body[:, k].copy()
    lam = body[:, k + 1].copy() if len(lead) == 2 else np.zeros(n)
    for where, values in (("column y", y), ("column lambda", lam)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: non-finite value in {where}")
    # C order, as `sample_dataset` makes it: BLAS results depend on the layout.
    # Row i's values move from i * (k + len(lead)) to i * k, never forward, so
    # moving the rows in order overwrites only values already moved; numpy
    # buffers a block whose source and target overlap.  Each block is checked
    # on its way, so no mask of the whole of x is made
    x = body.reshape(-1)[: n * k].reshape(n, k)
    step = max(1, _COMPACT_BLOCK_BYTES // body[0].nbytes)
    for start in range(0, n, step):
        block = body[start : start + step, :k]
        if not np.all(np.isfinite(block)):
            raise ValueError(f"{path}: non-finite value in columns x1..xK")
        x[start : start + step] = block
    return Dataset(x=x, y=y, lambda_true=lam)


def _check_support(family: str, y: np.ndarray, path: str) -> None:
    """Refuse responses outside the family's support."""
    if family == "bernoulli" and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"{path}: bernoulli responses y must be 0 or 1")
    if family == "poisson" and not np.all((y >= 0.0) & (y == np.floor(y))):
        raise ValueError(f"{path}: poisson responses y must be non-negative integers")


def _cmd_estimate(args) -> int:
    _require_output(args.out, "directory")
    t = uniform_grid(args.grid_points)  # refuse a bad --grid-points before any output
    zeta_interval(args.alpha, args.beta)  # and a smoothness outside the model class
    ds = _read_dataset_csv(args.data)
    _check_support(args.family, ds.y, args.data)
    # the sample is dropped after the fit, so it is centred in its own memory
    fit = estimate_slope(ds, get_family(args.family), args.alpha, args.beta, overwrite_x=True)
    vals = evaluate_on_grid(fit.slope, args.grid_points)
    coef_path = os.path.join(args.out, "estimate_coefs.csv")
    grid_path = os.path.join(args.out, "estimate_grid.csv")
    write_csv(coef_path, ["k", "coef"], enumerate(fit.slope, start=1))
    write_csv(grid_path, ["t", "value"], zip(t, vals))
    status = "converged" if fit.converged else "NOT converged"
    print(
        f"n={ds.n} m={fit.m} N={fit.n_components} intercept={fit.coefs[0]:.6g} "
        f"{status} in {fit.iterations} iterations"
    )
    print(f"wrote {coef_path} and {grid_path}")
    return 0


def _cmd_rate_study(args) -> int:
    cfg = _load_config(args)
    points, replications, slope, se = run_rate_study(cfg, jobs=args.jobs)
    theoretical = theoretical_exponent(cfg.alpha, cfg.beta_s)
    written = [os.path.join(cfg.out_dir, name) for name in ("rate_study.csv", "slope.csv")]
    write_csv(
        written[0],
        ["family", "alpha", "beta", "n", "reps", "m", "N", "mise_mean", "mise_se", "nonconverged"],
        ((cfg.family, cfg.alpha, cfg.beta_s, *p) for p in points),
    )
    write_csv(written[1], ["slope", "se", "theoretical"], [(slope, se, theoretical)])
    if args.per_replication:
        written.append(os.path.join(cfg.out_dir, "perreplication.csv"))
        write_csv(written[2], ["n", "rep", "seed", "loss", "iterations", "converged"],
                  replications)
    for n, _, m, n_comp, mise_mean, mise_se, nonconverged in points:
        print(
            f"n={n:6d} m={m} N={n_comp} mise={mise_mean:.6g} "
            f"se={mise_se:.2g} nonconverged={nonconverged}"
        )
    print(f"slope {slope:+.4f} (se {se:.4f}), theoretical {theoretical:+.4f}")
    print("wrote " + ", ".join(written))
    return 0


def _cmd_perturb_check(args) -> int:
    require_seed(args.seed)
    _require_output(args.out, "directory")
    rows, verdicts = random_perturbation_suite(args.reps, args.dim, args.seed, args.alpha)
    path = os.path.join(args.out, "perturb_check.csv")
    write_csv(path, list(rows[0].keys()), (tuple(row.values()) for row in rows))
    eigenvalue, eigenvector, remainder, identity = verdicts
    skipped = sum(row["dim"] for row in rows) - eigenvector.checked
    max_ratio = max([0.0] + [row["proj_ratio"] for row in rows if row["proj_admissible"]])
    print(
        f"{eigenvalue.checked} instances: eigenvalue violations {eigenvalue.statistic}, "
        f"eigenvector {eigenvector.statistic}/{eigenvector.checked} checked, "
        f"remainder {remainder.statistic}/{remainder.checked} checked, skipped pairs {skipped}"
    )
    print(
        f"projection: {identity.checked} checked, {identity.statistic} identity failures, "
        f"max ratio {max_ratio:.4g}"
    )
    print(f"wrote {path}")
    return _conclude(verdicts, "all bounds hold")


def _cmd_lower_bound(args) -> int:
    cfg = _load_config(args)
    n_grid = list(parse_sample_sizes(args.n_grid, "--n-grid"))
    require_affinity_draws(args.n_mc)
    cube = AssouadConfig(args.m, get_family(cfg.family), alpha=cfg.alpha, beta_s=cfg.beta_s)
    rows = affinity_study(cube, n_grid, n_mc=args.n_mc, seed=cfg.seed)
    path = os.path.join(cfg.out_dir, "affinity.csv")
    write_csv(path, list(rows[0].keys()), (tuple(row.values()) for row in rows))
    verdicts = []
    for n in n_grid:
        sub = [r for r in rows if r["n"] == n]
        # argmin picks the first NaN if there is one, and a NaN verdict fails
        worst = sub[int(np.argmin([r["affinity"] for r in sub]))]
        lowest = float(worst["affinity"])
        print(
            f"n={n:6d} eps={worst['eps']:.6g} min affinity {lowest:.4f} "
            f"(j={worst['j']}), bound value {worst['bound_value']:.6g}"
        )
        verdicts.append(
            Verdict("affinity", lowest, _AFFINITY_FLOOR, len(sub), lowest >= _AFFINITY_FLOOR, n)
        )
    print(f"wrote {path}")
    return _conclude(verdicts)


def _cmd_diagnostics(args) -> int:
    cfg = _load_config(args)
    # a refused count exits before any Monte Carlo starts or any verdict is printed
    require_fisher_reps(args.fisher_reps)
    require_chisq_reps(args.chisq_reps)
    lam_grid = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    h_grid = np.arange(-1.0, 1.0 + 1e-9, 0.1)
    tau = np.arange(1, 51, dtype=float) ** -2.0
    x_grid = (1.0, 2.0, 4.0)
    # The checks compute independently (each makes its own generator) and
    # spend their time in numpy fills, ufuncs and BLAS, which release the GIL,
    # so threads overlap them; every result keeps its bits at any thread count.
    # Their draws are not independent: both maximal checks and fisher_study's
    # n = 500 instance start from cfg.seed, so their normals overlap.
    # A thread does not inherit the caller's np.errstate: set any inside the task.
    tasks = [
        # the longest check first, so the others fill the remaining workers
        partial(check_chisq_maximal, 100, tau, x_grid, reps=args.chisq_reps, seed=cfg.seed),
        partial(fisher_study, get_family(cfg.family), alpha=cfg.alpha, beta_s=cfg.beta_s,
                reps=args.fisher_reps, seed=cfg.seed),
        partial(check_chisq_maximal, 10, tau, x_grid, reps=args.chisq_reps, seed=cfg.seed),
        *(partial(verify_envelope, get_family(name), lam_grid, h_grid) for name in family_names()),
    ]
    maximal_100, reports, maximal_10, *ratios = map_in_order(
        lambda task: task(), tasks, jobs=len(tasks)
    )

    verdicts = []

    def judge(line, *fields):  # the fields of a Verdict
        verdicts.append(Verdict(*fields))
        print(f"{line} {'PASS' if verdicts[-1].passed else 'FAIL'}")

    for name, ratio in zip(family_names(), ratios):
        judge(f"envelope {name}: max third-derivative ratio {ratio:.6f}", f"envelope_{name}",
              ratio, _ENVELOPE_BOUND, lam_grid.size * h_grid.size, ratio <= _ENVELOPE_BOUND)
    for n, n_comp, max_abs_z, mean_sq_dev in reports:
        judge(f"information n={n} N={n_comp}: max |z| {max_abs_z:.2f}, "
              f"mean sq deviation {mean_sq_dev:.3e}", "information_z", max_abs_z,
              _INFORMATION_Z_BOUND, args.fisher_reps, max_abs_z <= _INFORMATION_Z_BOUND, n)
    (_, _, _, first_dev), (last_n, _, _, last_dev) = reports[0], reports[-1]
    judge("information deviation shrinks with n:", "information_shrinks", last_dev,
          first_dev, args.fisher_reps, last_dev < first_dev, last_n)
    for n, points in ((10, maximal_10), (100, maximal_100)):
        for x, (estimate, se, bound) in zip(x_grid, points):
            # the bound holds in probability: allow four binomial standard errors
            judge(f"maximal n={n} x={x:.0f}: estimate {estimate:.2e} "
                  f"<= bound {bound:.2e} + 4se", "maximal", estimate,
                  bound + 4.0 * se, args.chisq_reps, estimate <= bound + 4.0 * se, n, x)

    path = os.path.join(cfg.out_dir, "diagnostics.csv")
    write_csv(path, ["check", "n", "x", "statistic", "bound", "passed"],
              ((v.check, v.n, v.x, v.statistic, v.bound, v.passed) for v in verdicts))
    print(f"wrote {path}", file=sys.stderr)  # stdout stays the verdicts alone
    return _conclude(verdicts, "all diagnostics pass")


def _conclude(verdicts, passed_line=None) -> int:
    """2 and a `FAIL:` line per verdict that failed or checked nothing, else `passed_line` and 0."""
    failed = [v for v in verdicts if not v.passed or v.checked == 0]
    for v in failed:
        where = (f" n={v.n}" if v.n != "" else "") + (f" x={v.x:g}" if v.x != "" else "")
        judged = f"{v.statistic:.10g} against bound {v.bound:.10g}"
        print(f"FAIL: {v.check}{where}: {judged if v.checked else 'nothing checked'}",
              file=sys.stderr)
    if failed:
        return 2
    if passed_line is not None:
        print(passed_line)
    return 0


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


@cache
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


# glibc's mallopt parameters (malloc.h) and the values every command sets;
# 32 MiB is the largest mmap threshold glibc accepts on 64-bit systems
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = ((_M_TRIM_THRESHOLD, 64 << 20), (_M_MMAP_THRESHOLD, 32 << 20))


def _process_symbols():
    """The symbols already loaded into the process, or None where ctypes cannot list them."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # Windows takes no None
        return None


@cache
def _keep_freed_heap() -> None:
    """Keep the memory a command frees inside the process, once per process.

    Without this, glibc hands each replication's freed sample back to the
    kernel and the next replication faults the pages in again: about 280
    minor faults a replication.  Both thresholds are needed: the trim
    threshold alone leaves the sample's blocks on mmap, the mmap threshold
    alone lets the heap's top be trimmed.
    glibc cannot report the settings, so unlike the BLAS thread count they
    are not restored.  Does nothing where the C library has no `mallopt`
    (macOS, Windows, musl).  Library callers of `run_rate_study` keep
    their process's own policy.
    """
    mallopt = getattr(_process_symbols(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


_BUILTIN_SHA512 = "_sha2" if sys.version_info >= (3, 12) else "_sha512"  # what `random` imports


@contextmanager
def _builtin_hashes():
    """Block `_hashlib` for the length of a command, so libcrypto is never mapped.

    `hashlib` and `hmac`, which numpy.random imports through `secrets`,
    then fall back to the standard library's built-in hashes (`_sha256`,
    `_operator._compare_digest` and the rest), which give the same digests.
    Nothing is blocked when `_hashlib` is already loaded, or when the
    interpreter has no built-in sha512 for `random` to fall back on; on
    exit the block is lifted and `_hashlib` imports again.
    """
    if "_hashlib" in sys.modules or importlib.util.find_spec(_BUILTIN_SHA512) is None:
        yield
        return
    sys.modules["_hashlib"] = None
    try:
        yield
    finally:
        if "_hashlib" in sys.modules and sys.modules["_hashlib"] is None:
            del sys.modules["_hashlib"]


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread; restore the count it had on exit.

    The count is process-wide and the hold keeps no tally of its holders,
    so `main` must not run on two threads at once: the first to finish
    would restore the count under the other.  Does nothing when numpy's
    OpenBLAS or its thread calls are not found.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    _keep_freed_heap()
    try:
        with _one_blas_thread(), _builtin_hashes():
            return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
