#!/usr/bin/env python3
"""Numerically certify the supporting bounds behind the rate analysis.

Runs three `fglm` commands, each exiting 2 when one of its verdicts fails:

1. ``perturb-check``: randomized eigen-perturbation suite (eigenvalue,
   eigenvector, and remainder bounds plus the projection-error identity);
2. ``lower-bound --config configs/gaussian_beta3.cfg``: calibrated
   hypercube affinity floor for the two-point risk bound;
3. ``diagnostics --config configs/poisson_beta3.cfg``: response-family
   envelopes, information-matrix concentration across sample sizes, and
   the weighted chi-square maximal-inequality tail bound.

Their CSVs go to a temporary directory that is removed afterwards.
Exits 0 only if every command exits 0, else 1.  Reps are sized for a
laptop run; raise them for tighter Monte Carlo error.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from fglm import cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Certify the supporting bounds")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--perturb-reps", type=int, default=500)
    ap.add_argument("--affinity-mc", type=int, default=200)
    ap.add_argument("--fisher-reps", type=int, default=200)
    ap.add_argument("--chisq-reps", type=int, default=100_000)
    args = ap.parse_args(argv)

    t0 = time.time()
    with tempfile.TemporaryDirectory() as out:
        commands = [
            ["perturb-check", "--reps", str(args.perturb_reps)],
            ["lower-bound", "--config", os.path.join(CONFIG_DIR, "gaussian_beta3.cfg"),
             "--n-mc", str(args.affinity_mc)],
            ["diagnostics", "--config", os.path.join(CONFIG_DIR, "poisson_beta3.cfg"),
             "--fisher-reps", str(args.fisher_reps), "--chisq-reps", str(args.chisq_reps)],
        ]
        codes = []
        for command in commands:
            print(f"[{command[0]}]")
            codes.append(cli.main(command + ["--seed", str(args.seed), "--out", out]))
    passed = codes.count(0)
    print(f"{passed}/{len(codes)} commands passed in {time.time() - t0:.1f}s")
    return 0 if passed == len(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
