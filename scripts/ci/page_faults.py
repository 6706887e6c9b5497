#!/usr/bin/env python3
"""Check that a replication faults in no fresh pages: freed heap is reused.

Every `fglm` command keeps freed heap in the process (glibc's malloc
thresholds), so a replication reuses the pages of the last one instead of
faulting its n x K sample in again, about 280 minor faults a replication
without them.  This runs the stock gaussian study at 5 and at 20 reps in
fresh processes, with this checkout's sources, and exits 1 when an extra
replication costs more than 100 minor faults on average, else 0:

    python scripts/ci/page_faults.py --jobs 2
"""
from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LIMIT = 100  # minor faults per extra replication


def minor_faults(reps, out, jobs):
    # the benchmark's grid: the stock gaussian study at fewer reps
    with open(os.path.join(ROOT, "scripts", "configs", "gaussian_beta3.cfg")) as fh:
        stock = fh.read()
    for line in ("n_grid = 500, 1000, 2000, 4000", "reps = 100"):
        if line not in stock.splitlines():
            sys.exit(f"the stock gaussian_beta3 config no longer has `{line}`")
    cfg = os.path.join(out, f"reps{reps}.cfg")
    with open(cfg, "w") as fh:
        fh.write(stock.replace("reps = 100", f"reps = {reps}"))
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-W", "error", "-m", "fglm", "rate-study",
                    "--config", cfg, "--jobs", str(jobs), "--out", os.path.join(out, str(reps))],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def main(argv=None):
    ap = argparse.ArgumentParser(description="Minor page faults per extra replication "
                                             f"of the stock gaussian study (limit {LIMIT})")
    ap.add_argument("--jobs", type=int, required=True, help="rate-study --jobs")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        few, many = minor_faults(5, out, args.jobs), minor_faults(20, out, args.jobs)
    per_rep = (many - few) / ((20 - 5) * 4)  # four sample sizes
    print(f"--jobs {args.jobs}: {few} minor faults at 5 reps, {many} at 20: {per_rep:.0f} per extra "
          f"replication (limit {LIMIT})")
    return 0 if per_rep <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
