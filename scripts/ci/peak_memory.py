#!/usr/bin/env python3
"""Check that `generate` and `estimate` hold their sample about once.

Each runs at n=5000 and at n=20000 in fresh processes, with this checkout's
sources and `-W error`, and the growth of its peak RSS is compared with the
growth of the sample's bytes, n x (K + 2) float64 values at generate's
default K:

* generate formats its CSV from the sample's own columns, a block of rows
  at a time; a second whole copy of the sample would double the growth
  (limit 1.25x);
* estimate holds x as a view of loadtxt's buffer, which loadtxt allocates
  once, and the fit centres it in place; a copy of x, a regrown parse or a
  centred copy each add most of the growth again, 2.03x with all three
  (limit 1.4x).

Exits 1 when the ratio is above the limit, else 0; Linux only (ru_maxrss
in KiB):

    python scripts/ci/peak_memory.py generate
    python scripts/ci/peak_memory.py estimate
"""
import argparse
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
K = 200  # generate's default --k-trunc
SMALL, LARGE = 5000, 20000
LIMITS = {"generate": 1.25, "estimate": 1.4}  # peak growth over the sample's growth
# estimate reports its own peak: the largest child so far would be a generate run
MEASURE = ("import resource, sys; from fglm.cli import main; code = main(sys.argv[1:]); "
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024, "
           "file=sys.stderr); sys.exit(code)")


def _env():
    src = os.path.join(ROOT, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def peak_bytes(command, n, out):
    data = os.path.join(out, f"data{n}.csv")
    subprocess.run([sys.executable, "-W", "error", "-m", "fglm", "generate",
                    "--family", "bernoulli", "--n", str(n), "--out", data],
                   check=True, stdout=subprocess.DEVNULL, env=_env())
    if command == "generate":
        # the largest child so far: the smaller n runs first
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    run = subprocess.run([sys.executable, "-W", "error", "-c", MEASURE, "estimate",
                          "--data", data, "--family", "bernoulli", "--out", out],
                         check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True, env=_env())
    return int(run.stderr.splitlines()[-1])


def main(argv=None):
    limits = ", ".join(f"{name} {limit}x" for name, limit in LIMITS.items())
    ap = argparse.ArgumentParser(description="Peak RSS growth of generate or estimate from "
                                             f"n={SMALL} to n={LARGE}, against the sample's bytes "
                                             f"(limits: {limits})")
    ap.add_argument("command", choices=sorted(LIMITS))
    args = ap.parse_args(argv)
    limit = LIMITS[args.command]
    with tempfile.TemporaryDirectory() as out:
        small, large = peak_bytes(args.command, SMALL, out), peak_bytes(args.command, LARGE, out)
    ratio = (large - small) / ((LARGE - SMALL) * (K + 2) * 8)
    print(f"{args.command}: peak RSS {small / 2**20:.1f} MiB at n={SMALL}, {large / 2**20:.1f} "
          f"MiB at n={LARGE}: {ratio:.2f}x the growth of the sample's bytes (limit {limit}x)")
    return 0 if ratio <= limit else 1


if __name__ == "__main__":
    sys.exit(main())
