"""Tests of the benchmark itself (not of fglm).

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at its `tiny` size, which takes about
ten seconds in all.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.preflight()
import fglm  # noqa: E402
import fglm.cli  # noqa: E402,F401


def span(name, parent, start, end):
    return [name, parent, start, end, None, None]


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("b", 0, 3.0, 6.0),  # overlaps a: 1..6 is covered once
        span("c", 0, 9.0, 12.0),  # runs past its parent: clipped to 9..10
        span("d", 1, 2.0, 3.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_self_times_of_nested_spans_add_up_to_the_roots():
    spans = [
        span("r1", -1, 0.0, 5.0),
        span("x", 0, 0.5, 2.0),
        span("y", 1, 1.0, 1.5),
        span("z", 0, 2.0, 4.5),
        span("r2", -1, 6.0, 7.0),
    ]
    assert sum(tracer.self_times(spans)) == pytest.approx(6.0)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    samples = list(range(400))
    assert run.tail_percentile(samples) == (97.5, 389)
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11)))[1] == 0


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fglm" or name.startswith("fglm."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_every_patched_attribute_is_restored():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        patched = {key for key, value in _bindings().items() if value is not before[key]}
        for key in [("fglm.harness", "sample_dataset"), ("fglm.estimator", "fit_mle"),
                    ("fglm.fpca", "sample_cov"), ("fglm.estimator", "spectral_estimate"),
                    ("fglm.datagen", "sample_response"), ("fglm.cli", "main"),
                    ("fglm.harness", "_replication_task")]:
            assert key in patched
        assert len(patched) == len(t._patches)
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_trace_groups_spans_by_replication_and_counts_work():
    cfg = fglm.ExperimentConfig(n_grid=(40, 80, 160), reps=2, K_trunc=12)
    with tracer.Tracer() as t:
        fglm.harness.run_rate_study(cfg, jobs=1)
    names = [s[0] for s in t.spans]
    assert names[0] == "harness.run_rate_study"
    reps = [s for s in t.spans if s[0] == tracer.REPLICATION_SPAN]
    assert [s[4] for s in reps] == list(range(6))
    for s in t.spans:
        if s[0] in ("datagen.sample_dataset", "fpca.sample_cov", "estimator.fit_mle"):
            assert t.spans[s[1]][0] != "harness.run_rate_study"
            assert s[4] is not None
        if s[0].startswith("fpca."):
            assert s[5] in cfg.n_grid
    assert t.counts["datagen.normals_drawn"] == 2 * 12 * sum(cfg.n_grid)
    assert t.counts["fpca.cov_flops"] == 2 * 12**2 * sum(cfg.n_grid)
    assert t.counts["fpca.score_columns_computed"] == 6 * 12


def test_benchmark_json_matches_the_spec_and_the_contract():
    with open(run.SPEC, encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == spec.benchmark()
    metrics = committed["end_to_end"] + committed["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert 2 <= len(committed["workloads"]) <= 8 and len(committed["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])


def test_reference_covers_every_command_at_its_stock_seed():
    reference = run.load_reference()
    assert set(reference) == {"stock", "bench"}
    for size in reference:
        for name in workloads.ALL:
            p = workloads.plan(name, None, os.path.join(run.WORK, name), size)
            for cmd in p.commands:
                assert set(reference[size][name][cmd.label]) == {"stdout", *cmd.outputs}


def test_a_corrupted_reference_fails_the_check():
    p = workloads.plan("csv-roundtrip", None, os.path.join(run.WORK, "csv-roundtrip"))
    got = {"generate": {"stdout": "1", "data.csv": "2"},
           "estimate": {"stdout": "3", "estimate_coefs.csv": "4", "estimate_grid.csv": "5"}}
    reference = {"bench": {"csv-roundtrip": json.loads(json.dumps(got))}}
    assert workloads.compare_reference(p, got, reference) == []
    reference["bench"]["csv-roundtrip"]["estimate"]["estimate_grid.csv"] = "0"
    assert workloads.compare_reference(p, got, reference) == [
        "estimate: estimate_grid.csv differs from the reference"]
    other_seed = workloads.plan("csv-roundtrip", 5, os.path.join(run.WORK, "csv-roundtrip"))
    assert workloads.compare_reference(other_seed, got, reference) == []


@pytest.mark.parametrize("workload", workloads.ALL)
def test_smoke_untraced(workload):
    outcome = run.measure(workload, None, 0, size="tiny")
    assert [u["problems"] for u in outcome["units"]] == [[]]
    assert outcome["failed"] == 0
    line = run.report(workload, None, False, outcome, {})
    assert line["correct"] and set(line["metrics"]) == {m["name"] for m in spec.END_TO_END}
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", workloads.ALL)
def test_smoke_traced(workload):
    outcome = run.measure_traced(workload, 2, size="tiny")
    assert outcome["failed"] == 0, [u["problems"] for u in outcome["units"]]
    values = outcome["metrics"]
    own = [k for k in values if k.endswith(".self_s") and not re.search(r"\.n\d+\.self_s$", k)]
    accounted = sum(values[k] for k in own) + values["trace.unattributed_s"]
    assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert 0 <= values["trace.unattributed_s"] < 0.05 * values["trace.wall_s"] + 1e-3
    line = run.report(workload, 2, True, outcome, {})
    assert line["correct"] and [m["name"] for m in spec.per_layer()] == list(line["metrics"])
    declared = {m["name"] for m in spec.per_layer()}
    assert set(own) <= declared, set(own) - declared


def test_checks_catch_a_changed_output():
    p = workloads.plan("study-gaussian", 4, os.path.join(run.WORK, "study-gaussian"), "tiny")
    unit = run.run_unit(p, time.monotonic() + 120, {})
    assert unit["problems"] == []
    n_idx, rep = workloads.refit_job(p)["spots"][0]
    row = 1 + n_idx * 3 + rep  # 3 reps at the tiny size; line 0 is the header
    path = os.path.join(p.out, "perreplication.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[row].split(",")
    fields[3] = repr(float(fields[3]) * 1.5)
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = workloads.check(p, None) + workloads.check_refits(p, unit["refits"])
    assert any("mise_mean" in q for q in problems)
    assert any("direct refit" in q for q in problems)

def test_without_fglm_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
