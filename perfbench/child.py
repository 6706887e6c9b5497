"""One measured process: set up fglm, then run a workload's commands.

Usage: child.py JOB_JSON RESULT_JSON T0

T0 is the parent's CLOCK_MONOTONIC reading taken just before it started
this process.  The job file names the checkout root, the config files to
load and the fglm command lines.  Set-up time runs from T0
to the point where `import fglm` is done and the configs are loaded;
wall time runs from the first call into fglm to the return of the last.
With `spans` set, the commands run under the tracer and the spans go to
that file.
"""
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time


def machine():
    """numpy and BLAS as this process loaded them."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(job_path, result_path, t0):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import fglm.cli
    import fglm.harness

    for path in job["configs"]:
        fglm.harness.load_config(path)
    setup_s = time.monotonic() - t0

    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes, stdouts = [], []
    start = time.perf_counter()
    try:
        for argv in job["commands"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(fglm.cli.main(list(argv)))
            stdouts.append(buf.getvalue())
            if codes[-1] != 0:
                break
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "fglm_file": fglm.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": (own + workers) / 1024.0,
        "codes": codes,
        "stdouts": stdouts,
        "machine": machine(),
    }
    # after the timing: refit a few replications for the parent to compare
    if job["refits"] and not any(codes):
        import workloads

        result["refits"] = workloads.refit_losses(**job["refits"])
    if tracer is not None:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts), "wall_s": wall_s}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
