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

The three certification commands own their verdicts: each prints a
``FAIL:`` line to stderr and exits 2 when a bound it checks is broken
(``lower-bound`` when the smallest calibrated affinity at any n falls
below 0.1).  ``scripts/run_certifications.py`` only drives them.

Exit codes: 0 success, 1 bad arguments/config/input, 2 runtime or
certification failure; an output directory that is or lies below a file,
and a ``generate`` CSV that is a directory or lies below a file, are
refused before any work.  ``rate-study --jobs`` (default 1) and ``diagnostics``
share the thread pool ``harness.map_in_order``, which holds OpenBLAS to one
thread while it runs; output never depends on either.  ``estimate`` fits
under the same one-thread hold, so its bits do not depend on the core count.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np

from .datagen import MU_MODES, Dataset, make_ground_truth, sample_dataset
from .estimator import estimate_slope, zeta_interval
from .expfam import family_names, get_family, verify_envelope
from .funcspace import evaluate_on_grid, uniform_grid
from .harness import _ONE_BLAS_THREAD
from .harness import ExperimentConfig, load_config, map_in_order, run_rate_study, write_csv
from .lowerbound import affinity_study, standard_config
from .spectral_diag import (
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

    gen = sub.add_parser("generate", help="write one simulated dataset to CSV")
    gen.add_argument("--family", required=True, choices=family_names())
    gen.add_argument("--alpha", type=float, default=2.0)
    gen.add_argument("--beta", type=float, default=3.0)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--intercept", type=float, default=0.5)
    gen.add_argument("--mu-mode", choices=MU_MODES, default="zero")
    gen.add_argument("--k-trunc", type=int, default=200)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(handler=_cmd_generate)

    est = sub.add_parser("estimate", help="fit one dataset CSV")
    est.add_argument("--data", required=True, help="CSV from `generate`")
    est.add_argument("--family", required=True, choices=family_names())
    est.add_argument("--alpha", type=float, default=2.0)
    est.add_argument("--beta", type=float, default=3.0)
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
    low.add_argument("--radius", type=float, default=1.0)
    low.set_defaults(handler=_cmd_lower_bound)

    diag = sub.add_parser(
        "diagnostics", parents=[study], help="envelope / information / maximal checks"
    )
    diag.add_argument("--fisher-reps", type=int, default=200)
    diag.add_argument("--chisq-reps", type=int, default=100_000)
    diag.set_defaults(handler=_cmd_diagnostics)

    return parser


def _require_out_dir(path: str) -> None:
    """Refuse an output directory that is or lies below an existing file, before any work."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"output directory {path} is an existing file")
    _refuse_below_file(path, "directory")


def _load_config(args) -> ExperimentConfig:
    """The --config study with --seed and --out applied; its output directory is checked."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    _require_out_dir(cfg.out_dir)
    return cfg


def _require_out_file(path: str) -> None:
    """Refuse an output file that is an existing directory or lies below an existing file."""
    if os.path.isdir(path):
        raise ValueError(f"output file {path} is an existing directory")
    _refuse_below_file(path, "file")


def _refuse_below_file(path: str, what: str) -> None:
    # the nearest existing ancestor must be a directory, or nothing can be made below it
    ancestor = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ValueError(f"output {what} {path} lies below the existing file {ancestor}")


def _cmd_generate(args) -> int:
    _require_out_file(args.out)
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
    write_csv(args.out, header, np.column_stack([ds.y, ds.lambda_true, ds.x]))
    print(f"wrote {args.out}: {ds.n} rows, {ds.k_trunc} coefficient columns")
    return 0


def _read_dataset_csv(path: str) -> Dataset:
    """Parse a `generate`-style CSV: a header row, then one numeric row per sample.

    Only the y, lambda and x1..xK columns are parsed; fields may be quoted
    and lines may end in CRLF.  loadtxt converts through the same routine
    as `float`, so every value keeps its bits.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        header = next(csv.reader([first]))
        cols = {name: i for i, name in enumerate(header)}
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
        usecols = [cols[name] for name in lead + x_names]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                body = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, usecols=usecols, ndmin=2
                )
        except ValueError as exc:
            raise ValueError(f"{path}: malformed numeric row: {exc}") from None
    if body.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    y = np.ascontiguousarray(body[:, 0])
    lam = np.ascontiguousarray(body[:, 1]) if len(lead) == 2 else np.zeros(body.shape[0])
    # C order, as `sample_dataset` makes it: BLAS results depend on the layout
    x = np.ascontiguousarray(body[:, len(lead) :])
    for where, values in (("column y", y), ("column lambda", lam), ("columns x1..xK", x)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: non-finite value in {where}")
    return Dataset(x=x, y=y, lambda_true=lam)


def _check_support(family: str, y: np.ndarray, path: str) -> None:
    """Refuse responses outside the family's support."""
    if family == "bernoulli" and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"{path}: bernoulli responses y must be 0 or 1")
    if family == "poisson" and not np.all((y >= 0.0) & (y == np.floor(y))):
        raise ValueError(f"{path}: poisson responses y must be non-negative integers")


def _cmd_estimate(args) -> int:
    _require_out_dir(args.out)
    t = uniform_grid(args.grid_points)  # refuse a bad --grid-points before any output
    zeta_interval(args.alpha, args.beta)  # and a smoothness outside the model class
    ds = _read_dataset_csv(args.data)
    _check_support(args.family, ds.y, args.data)
    with _ONE_BLAS_THREAD:  # as in a study, so the bits do not depend on the core count
        fit = estimate_slope(ds, get_family(args.family), args.alpha, args.beta)
        vals = evaluate_on_grid(fit.slope, args.grid_points)
    coef_path = os.path.join(args.out, "estimate_coefs.csv")
    grid_path = os.path.join(args.out, "estimate_grid.csv")
    coeffs = fit.slope.coeffs
    write_csv(coef_path, ["k", "coef"], ((k + 1, coeffs[k]) for k in range(coeffs.shape[0])))
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
    result = run_rate_study(cfg, jobs=args.jobs)
    written = [os.path.join(cfg.out_dir, name) for name in ("rate_study.csv", "slope.csv")]
    write_csv(
        written[0],
        ["family", "alpha", "beta", "n", "reps", "m", "N", "mise_mean", "mise_se", "nonconverged"],
        ((cfg.family, cfg.alpha, cfg.beta_s, p.n, p.reps, p.m, p.n_components, p.mise_mean,
          p.mise_se, p.nonconverged) for p in result.points),
    )
    write_csv(written[1], ["slope", "se", "theoretical"],
              [(result.fitted_slope, result.slope_se, result.theoretical)])
    if args.per_replication:
        written.append(os.path.join(cfg.out_dir, "perreplication.csv"))
        write_csv(
            written[2],
            ["n", "rep", "seed", "loss", "iterations", "converged"],
            ((r.n, r.rep, r.seed, r.loss, r.iterations, r.converged) for r in result.replications),
        )
    for p in result.points:
        print(
            f"n={p.n:6d} m={p.m} N={p.n_components} mise={p.mise_mean:.6g} "
            f"se={p.mise_se:.2g} nonconverged={p.nonconverged}"
        )
    print(
        f"slope {result.fitted_slope:+.4f} (se {result.slope_se:.4f}), "
        f"theoretical {result.theoretical:+.4f}"
    )
    print("wrote " + ", ".join(written))
    return 0


def _cmd_perturb_check(args) -> int:
    _require_out_dir(args.out)
    summary = random_perturbation_suite(
        reps=args.reps, max_dim=args.dim, seed=args.seed, alpha=args.alpha
    )
    path = os.path.join(args.out, "perturb_check.csv")
    header = list(summary.rows[0].keys())
    write_csv(path, header, (tuple(row.values()) for row in summary.rows))
    violations = (
        summary.eigenvalue_violations
        + summary.eigenvector_violations
        + summary.remainder_violations
        + summary.projection_identity_failures
    )
    print(
        f"{summary.instances} instances: eigenvalue violations {summary.eigenvalue_violations}, "
        f"eigenvector {summary.eigenvector_violations}/{summary.checked} checked, "
        f"remainder {summary.remainder_violations}/{summary.checked} checked, "
        f"skipped pairs {summary.skipped_pairs}"
    )
    print(
        f"projection: {summary.projection_checked} checked, "
        f"{summary.projection_identity_failures} identity failures, "
        f"max ratio {summary.max_projection_ratio:.4g}"
    )
    print(f"wrote {path}")
    if violations:
        print(f"FAIL: {violations} bound violations", file=sys.stderr)
        return 2
    print("all bounds hold")
    return 0


def _cmd_lower_bound(args) -> int:
    cfg = _load_config(args)
    try:
        n_grid = [int(v) for v in str(args.n_grid).split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--n-grid must list integers, got {args.n_grid!r}") from None
    if not n_grid:
        raise ValueError("--n-grid must list at least one sample size")
    base = standard_config(
        args.m,
        get_family(cfg.family),
        alpha=cfg.alpha,
        beta_s=cfg.beta_s,
        radius=args.radius,
    )
    rows = affinity_study(base, n_grid, n_mc=args.n_mc, seed=cfg.seed)
    path = os.path.join(cfg.out_dir, "affinity.csv")
    write_csv(
        path,
        ["n", "j", "eps", "affinity", "se", "bound_value"],
        ((r["n"], r["j"], r["eps"], r["affinity"], r["se"], r["bound_value"]) for r in rows),
    )
    for n in n_grid:
        sub = [r for r in rows if r["n"] == n]
        worst = min(sub, key=lambda r: r["affinity"])
        print(
            f"n={n:6d} eps={worst['eps']:.6g} min affinity {worst['affinity']:.4f} "
            f"(j={worst['j']}), bound value {worst['bound_value']:.6g}"
        )
    print(f"wrote {path}")
    lowest = min(r["affinity"] for r in rows)
    if not lowest >= _AFFINITY_FLOOR:  # a NaN affinity fails too
        print(
            f"FAIL: min calibrated affinity {lowest:.4f} below the floor {_AFFINITY_FLOOR}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_diagnostics(args) -> int:
    cfg = _load_config(args)
    # a refused count exits before any Monte Carlo starts or any verdict is printed
    require_fisher_reps(args.fisher_reps)
    require_chisq_reps(args.chisq_reps)
    lam_grid = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    h_grid = np.arange(-1.0, 1.0 + 1e-9, 0.1)
    tau = np.arange(1, 51, dtype=float) ** -2.0
    x_grid = (1.0, 2.0, 4.0)
    # The checks are independent (each seeds its own generator) and spend
    # their time in numpy fills, ufuncs and BLAS, which release the GIL, so
    # threads overlap them; every result keeps its bits at any thread count.
    # A thread does not inherit the caller's np.errstate: set any inside the task.
    tasks = [
        # the longest check first, so the others fill the remaining threads
        partial(check_chisq_maximal, 100, tau, x_grid, reps=args.chisq_reps, seed=cfg.seed),
        partial(fisher_study, get_family(cfg.family), alpha=cfg.alpha, beta_s=cfg.beta_s,
                reps=args.fisher_reps, seed=cfg.seed),
        partial(check_chisq_maximal, 10, tau, x_grid, reps=args.chisq_reps, seed=cfg.seed),
        *(partial(verify_envelope, get_family(name), lam_grid, h_grid) for name in family_names()),
    ]
    maximal_100, reports, maximal_10, *ratios = map_in_order(
        lambda task: task(), tasks, jobs=len(tasks)
    )
    envelopes = zip(family_names(), ratios)
    maximal = [(10, maximal_10), (100, maximal_100)]

    rows = []  # check, n, x, statistic, bound, passed
    for name, ratio in envelopes:
        ok = ratio <= _ENVELOPE_BOUND
        rows.append((f"envelope_{name}", "", "", ratio, _ENVELOPE_BOUND, ok))
        print(f"envelope {name}: max third-derivative ratio {ratio:.6f} "
              f"{'PASS' if ok else 'FAIL'}")
    for rep in reports:
        ok = rep.max_abs_z <= 4.0
        rows.append(("information_z", rep.n, "", rep.max_abs_z, 4.0, ok))
        print(
            f"information n={rep.n} N={rep.n_components}: max |z| {rep.max_abs_z:.2f}, "
            f"mean sq deviation {rep.mean_sq_dev:.3e} {'PASS' if ok else 'FAIL'}"
        )
    shrinking = reports[-1].mean_sq_dev < reports[0].mean_sq_dev
    rows.append(("information_shrinks", reports[-1].n, "", reports[-1].mean_sq_dev,
                 reports[0].mean_sq_dev, shrinking))
    print(f"information deviation shrinks with n: {'PASS' if shrinking else 'FAIL'}")
    for n, points in maximal:
        for point in points:
            rows.append(("maximal", n, point.x, point.estimate, point.bound + 4.0 * point.se,
                         point.passed))
            print(
                f"maximal n={n} x={point.x:.0f}: estimate {point.estimate:.2e} "
                f"<= bound {point.bound:.2e} + 4se {'PASS' if point.passed else 'FAIL'}"
            )

    path = os.path.join(cfg.out_dir, "diagnostics.csv")
    write_csv(path, ["check", "n", "x", "statistic", "bound", "passed"], rows)
    print(f"wrote {path}", file=sys.stderr)  # stdout stays the verdicts alone
    failures = sum(1 for row in rows if not row[-1])
    if failures:
        print(f"FAIL: {failures} diagnostic checks failed", file=sys.stderr)
        return 2
    print("all diagnostics pass")
    return 0


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
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
