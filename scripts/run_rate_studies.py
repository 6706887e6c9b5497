#!/usr/bin/env python3
"""Run the three stock convergence studies and compare fitted decay rates.

Each config in scripts/configs/ is a full study: simulate datasets over an
n-grid, fit the truncated-likelihood slope estimator, average the squared
slope error over replications, and regress log(error) on log(n).  Each
config, with --reps/--seed applied, is run by `fglm rate-study`, which
prints its own lines and writes rate_study.csv / slope.csv per study; the
fitted vs theoretical exponents are read back from slope.csv.  Exits 1 as
soon as a command fails, if a beta_s = 3 study misses its exponent by more
than 0.15, or if the beta_s = 4 study fails to decay visibly faster.
An override that a config refuses (say --reps 0) exits 1 before any
study runs.
"""
from __future__ import annotations

import argparse
import csv
import sys
import tempfile
import time
from pathlib import Path

from fglm import cli
from fglm.harness import format_config, load_config

CONFIG_DIR = Path(__file__).with_name("configs")
STUDIES = ("gaussian_beta3", "poisson_beta3", "gaussian_beta4")
SLOPE_BAND = 0.15
ORDERING_MARGIN = 0.03


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run the stock rate studies")
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--reps", type=int, default=None, help="override config reps")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    args = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in ("reps", "seed") and v is not None}
    try:
        configs = {name: load_config(CONFIG_DIR / f"{name}.cfg", **overrides) for name in STUDIES}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    slopes = {}
    failures = 0
    with tempfile.TemporaryDirectory() as resolved_dir:
        for name, cfg in configs.items():
            resolved = Path(resolved_dir, f"{name}.cfg")
            resolved.write_text(format_config(cfg), encoding="utf-8")
            out = Path(args.out, name)
            t0 = time.perf_counter()
            command = ["rate-study", "--config", str(resolved), "--out", str(out)]
            if cli.main(command + ["--jobs", str(args.jobs)]) != 0:
                return 1
            (row,) = csv.DictReader((out / "slope.csv").read_text(encoding="utf-8").splitlines())
            slope, theoretical = float(row["slope"]), float(row["theoretical"])
            slopes[name] = slope
            print(
                f"[{name}] slope {slope:+.4f} (se {float(row['se']):.4f}) "
                f"theoretical {theoretical:+.4f} in {time.perf_counter() - t0:.1f}s"
            )
            if name.endswith("beta3"):
                gap = abs(slope - theoretical)
                if gap > SLOPE_BAND:
                    failures += 1
                    print(f"[{name}] FAIL: |fitted - theoretical| = {gap:.4f} > {SLOPE_BAND}")

    sep = slopes["gaussian_beta3"] - slopes["gaussian_beta4"]
    if sep < ORDERING_MARGIN:
        failures += 1
        print(f"[ordering] FAIL: beta4 slope only {sep:.4f} below beta3")
    else:
        print(f"[ordering] beta4 decays faster by {sep:.4f}")

    if failures:
        print(f"{failures} study check(s) failed", file=sys.stderr)
        return 1
    print("all studies match the predicted rates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
