#!/usr/bin/env python3
"""Benchmark fglm end to end and per layer; see perfbench/README.md.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload certify --seed 3 --seconds 10
    python3 perfbench/run.py --workload study-gaussian --trace 1

Untraced runs report the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); `--trace 1` runs the workload as a user would, then once
more at --jobs 1 under the tracer, and reports the per-layer metrics.
Every run checks the outputs, writes a result file with a machine block
under .perfbench/results/, and prints one JSON object as its last line.
Run from the root of an fglm checkout; it exits 2 without a result when
the checkout has no fglm sources.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
STATE = os.path.join(ROOT, ".perfbench")
WORK = os.path.join(".perfbench", "work")  # relative: fglm prints output paths
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

HARD_LIMIT_S = 170.0  # a run must end within 180 s; children are killed after this
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples beyond it

sys.path.insert(0, HERE)
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import REPLICATION_SPAN, self_times  # noqa: E402


class Unavailable(Exception):
    """The checkout has no fglm to benchmark."""


def preflight():
    needed = [os.path.join(ROOT, "src", "fglm", "cli.py"), os.path.join(ROOT, workloads.GAUSSIAN),
              os.path.join(ROOT, workloads.POISSON)]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise Unavailable("not an fglm checkout, missing: " + ", ".join(missing))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)  # command lines name files relative to the checkout root


# -- machine block ----------------------------------------------------------


def machine() -> dict:
    """What the numbers depend on; the child adds numpy and BLAS.

    The benchmark sets no thread variables, and this process imports no
    numpy, so no BLAS threads of its own compete with the child's.
    """
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        # set, every process compiles fglm again, which set-up time includes
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "loadavg_before": os.getloadavg(),
    }


# -- one process ---------------------------------------------------------


def spawn(p: workloads.Plan, deadline: float, spans: str | None = None) -> dict:
    """Run child.py for plan `p`; its result or a failure."""
    job_dir = os.path.join(STATE, "jobs")
    os.makedirs(job_dir, exist_ok=True)
    job_path, result_path = os.path.join(job_dir, "job.json"), os.path.join(job_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    job = {
        "root": ROOT,
        "configs": list(p.configs),
        "commands": [list(c.argv) for c in p.commands],
        "spans": spans,
        "refits": workloads.refit_job(p),
    }
    shutil.rmtree(p.out, ignore_errors=True)
    os.makedirs(p.out)
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, job_path, result_path, repr(t0)],
                            cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"problems": ["killed at the run's time limit"]}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"problems": [f"benchmark child exited {proc.returncode}"]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    src = os.path.join(ROOT, "src") + os.sep
    result["problems"] = [] if result["fglm_file"].startswith(src) else [
        f"imported fglm from {result['fglm_file']}, not from this checkout"]
    return result


def run_unit(p: workloads.Plan, deadline: float, reference: dict | None,
             spans: str | None = None) -> dict:
    """One process running every command of `p`, with its outputs checked.

    `reference` None skips the comparison with stored outputs (used only
    while writing them).
    """
    unit = spawn(p, deadline, spans)
    problems = unit["problems"]
    if problems:
        return unit
    codes = unit["codes"]
    if len(codes) != len(p.commands) or any(codes):
        problems.append(f"fglm exit codes {codes}")
        return unit
    problems += workloads.check(p, unit["stdouts"])
    problems += workloads.check_refits(p, unit.get("refits"))
    unit["digests"] = workloads.digests(p, unit["stdouts"])
    if reference is not None:
        problems += workloads.compare_reference(p, unit["digests"], reference)
    return unit


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- untraced run: end-to-end metrics --------------------------------------


def measure(workload: str, seed, seconds: float, size: str = "bench") -> dict:
    """Run the workload, each time in a fresh process, until `seconds` have passed.

    The first execution is timed like the rest: a user pays its warm-up
    in every process.
    """
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    p = workloads.plan(workload, seed, os.path.join(WORK, workload), size)
    reference = load_reference()
    units = []
    while not units or time.monotonic() - start < seconds:
        units.append(run_unit(p, deadline, reference))
    good = [u for u in units if not u["problems"]]
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(u["wall_s"] for u in good),
            "setup_s": statistics.median(u["setup_s"] for u in good),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in good),
        }
    return {"attempted": len(units), "failed": len(units) - len(good), "metrics": metrics,
            "units": units}


# -- traced run: per-layer metrics ------------------------------------------


def measure_traced(workload: str, seed, size: str = "stock") -> dict:
    """The workload as typed, then at --jobs 1 untraced and traced; compare outputs."""
    deadline = time.monotonic() + HARD_LIMIT_S
    p = workloads.plan(workload, seed, os.path.join(WORK, workload), size)
    serial = p.with_jobs(1)
    reference = load_reference()
    spans_path = os.path.join(STATE, "jobs", "spans.json")
    as_typed = run_unit(p, deadline, reference)
    baseline = as_typed if p.jobs == 1 else run_unit(serial, deadline, reference)
    traced = run_unit(serial, deadline, reference, spans=spans_path)
    units = [as_typed] if baseline is as_typed else [as_typed, baseline]
    units.append(traced)
    for unit in units[1:]:
        if not unit["problems"] and unit["digests"] != as_typed.get("digests"):
            unit["problems"].append(f"outputs differ from the --jobs {p.jobs} untraced run")
    metrics = {}
    if not any(u["problems"] for u in units):
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        metrics = layer_metrics(trace, baseline["wall_s"], as_typed["wall_s"], p.jobs)
        if p.workload.startswith("study-"):
            # the solver counts come from perreplication.csv; the trace must agree
            from_csv = workloads.solver_totals(p)
            traced_counts = {k: metrics[k] for k in from_csv}
            if traced_counts != from_csv:
                traced["problems"].append(f"traced fits {traced_counts}, perreplication.csv {from_csv}")
            metrics.update(from_csv)
    failed = sum(1 for u in units if u["problems"])
    return {"attempted": len(units), "failed": failed, "metrics": metrics, "units": units}


def layer_metrics(trace: dict, untraced_wall: float, pool_wall: float, jobs: int) -> dict:
    """Per-layer values from a traced run's spans and counts.

    `untraced_wall` is the same command line run untraced at --jobs 1
    (the trace overhead's base); `pool_wall` is the run as typed, at
    `jobs` workers (the pool efficiency's base).
    """
    spans, counts = trace["spans"], Counter(trace["counts"])
    selfs = self_times(spans)
    values: dict = defaultdict(int)
    for span, own in zip(spans, selfs):
        name = span[0]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own
        if name.startswith("fpca.") and span[5] is not None:
            values[f"{name}.n{span[5]}.self_s"] += own
    reps = sorted(s[3] - s[2] for s in spans if s[0] == REPLICATION_SPAN)
    busy = sum(reps)
    values["harness.replications"] = len(reps)
    values["harness.replication_busy_s"] = busy
    values["harness.pool_efficiency"] = busy / (jobs * pool_wall)
    if reps:
        values["harness.replication_p50_ms"] = 1e3 * statistics.median(reps)
    tail = tail_percentile(reps)
    if tail is not None:
        values["harness.replication_tail_ms"] = 1e3 * tail[1]
        values["harness.replication_tail_percentile"] = tail[0]
    for key in ("datagen.normals_drawn", "fpca.cov_flops", "estimator.newton_iters",
                "estimator.nonconverged", "spectral_diag.chisq_draws",
                "spectral_diag.chisq_bytes_computed", "harness.write_csv.bytes"):
        values[key] = counts[key]
    if counts["fpca.score_columns_computed"]:
        values["fpca.score_columns_used_ratio"] = (
            counts["fpca.score_columns_used"] / counts["fpca.score_columns_computed"])
    values["trace.wall_s"] = trace["wall_s"]
    values["trace.unattributed_s"] = trace["wall_s"] - sum(selfs)
    values["trace.overhead_s"] = trace["wall_s"] - untraced_wall
    return dict(values)


def tail_percentile(samples):
    """(percentile, value): the highest percentile with TAIL_SAMPLES samples above it."""
    k = len(samples)
    if k <= TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    return 100.0 * (k - TAIL_SAMPLES) / k, ordered[k - TAIL_SAMPLES - 1]


# -- reporting ----------------------------------------------------------------


def report(workload, seed, trace, outcome, mach) -> dict:
    """Select the contract's metrics, write the result file, return the last line."""
    declared = spec.per_layer() if trace else spec.END_TO_END
    metrics = {}
    if outcome["metrics"]:
        metrics = {m["name"]: {"value": outcome["metrics"].get(m["name"], 0), "unit": m["unit"]}
                   for m in declared}
    problems = [q for u in outcome["units"] for q in u["problems"]]
    line = {
        "correct": not outcome["failed"] and bool(metrics),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"] if metrics else max(1, outcome["failed"]),
        "metrics": metrics,
    }
    mach = dict(mach, loadavg_after=os.getloadavg())
    mach.update(next((u["machine"] for u in outcome["units"] if "machine" in u), {}))
    record = dict(line, workload=workload, seed=seed, trace=trace, machine=mach, problems=problems,
                  all_values=outcome["metrics"],
                  units=[{k: v for k, v in u.items() if k != "stdouts"} for u in outcome["units"]])
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload}.seed{'stock' if seed is None else seed}.trace{int(trace)}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"{workload}: FAILED CHECK: {problem}")
    for metric, entry in metrics.items():
        print(f"{workload}: {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{workload}: {line['failed']} failed of {line['attempted']} attempted")
    return line


def write_reference():
    """Store output digests of every workload and timed size at its stock seeds."""
    reference = {}
    deadline = time.monotonic() + 10 * HARD_LIMIT_S
    for size in ("stock", "bench"):
        for workload in workloads.ALL:
            p = workloads.plan(workload, None, os.path.join(WORK, workload), size)
            unit = run_unit(p, deadline, None)
            if unit["problems"]:
                raise SystemExit(f"{workload} at {size} size: {unit['problems']}")
            reference.setdefault(size, {})[workload] = unit["digests"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.ALL)
    ap.add_argument("--seed", type=int, default=None, help="passed to every fglm command")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json from stock-seed runs and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(SPEC, "w", encoding="utf-8") as fh:
            json.dump(spec.benchmark(), fh, indent=2)
            fh.write("\n")
        return 0
    try:
        preflight()
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0

    mach = machine()
    names = workloads.ALL if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in names:
        if args.trace:
            outcome = measure_traced(workload, args.seed)
        else:
            outcome = measure(workload, args.seed, args.seconds)
        lines[workload] = report(workload, args.seed, bool(args.trace), outcome, mach)
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}/{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
