"""The benchmark's contract: workloads, metrics and bounds (BENCHMARK.json)."""
from __future__ import annotations

from tracer import REPLICATION_SPAN, TRACED
from workloads import GATED, WHY

RUN_SECONDS = 30

# Bounds are shares of the parent's median; setup_s has the largest.  On a
# shared 2-core machine the spread of ten runs was at most 0.10 for every
# metric (README.md, "Steadiness"), so 0.2 leaves room for drift between
# two sets of runs.
END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
)

SUBCOMMANDS = ("generate", "estimate", "rate-study", "perturb-check", "lower-bound", "diagnostics")
FPCA_SPLIT = ("sample_mean", "sample_cov", "eigendecompose", "compute_scores", "spectral_estimate")
STOCK_NS = (500, 1000, 2000, 4000, 20000)  # every n the traced (stock-size) runs fit


def per_layer() -> list[dict]:
    """The traced run's metrics as BENCHMARK.json lists them, in a fixed order."""
    metrics = []
    for module, function in TRACED:
        if (module, function) == ("cli", "main"):
            continue
        metrics.append((f"{module}.{function}.calls", "count"))
        metrics.append((f"{module}.{function}.self_s", "s"))
    metrics += [(f"cli.main.{sub}.self_s", "s") for sub in SUBCOMMANDS]
    metrics += [(f"fpca.{f}.n{n}.self_s", "s") for f in FPCA_SPLIT for n in STOCK_NS]
    metrics += [
        (f"{REPLICATION_SPAN}.self_s", "s"),
        ("harness.replications", "count"),
        ("harness.replication_busy_s", "s"),
        ("harness.replication_p50_ms", "ms"),
        ("harness.replication_tail_ms", "ms"),
        ("harness.pool_efficiency", "ratio"),
        ("harness.write_csv.bytes", "B"),
        ("datagen.normals_drawn", "count_computed"),
        ("fpca.cov_flops", "count_computed"),
        ("fpca.score_columns_used_ratio", "ratio"),
        ("estimator.newton_iters", "count"),
        ("estimator.nonconverged", "count"),
        ("spectral_diag.chisq_draws", "count_computed"),
        ("spectral_diag.chisq_bytes_computed", "B_computed"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    # Self times, counts and ratios: an optimisation should lower the
    # first two and raise pool efficiency and the score-column ratio.
    higher = {"harness.pool_efficiency", "fpca.score_columns_used_ratio"}
    return [
        {"name": name, "unit": unit, "better": "higher" if name in higher else "lower"}
        for name, unit in metrics
    ]


def benchmark() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in GATED],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": per_layer(),
    }
