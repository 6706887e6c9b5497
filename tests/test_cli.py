import csv
import importlib.util
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from fglm import cli, harness, lowerbound
from fglm.cli import _read_dataset_csv, main
from fglm.datagen import make_ground_truth, sample_dataset
from fglm.estimator import estimate_slope, tuning
from fglm.expfam import get_family

SMALL_CFG = "K_trunc = 30\nn_grid = 40, 80, 160\nreps = 2\nseed = 0\n"


def _write_cfg(tmp_path, text=SMALL_CFG):
    path = tmp_path / "study.cfg"
    path.write_text(text)
    return str(path)


# --- argument handling ---


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_family_is_usage_error(capsys):
    code = main(["generate", "--family", "gamma", "--n", "10", "--out", "x.csv"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["rate-study", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rate-study", "lower-bound", "diagnostics"])
def test_config_commands_refuse_a_missing_config(tmp_path, capsys, command):
    for argv in ([command], [command, "--config", str(tmp_path / "nope.cfg")]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1  # argparse alone exits 2
        assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_bad_config_value(tmp_path, capsys):
    code = main(["rate-study", "--config", _write_cfg(tmp_path, "reps = never\n")])
    assert code == 1


@pytest.mark.parametrize(
    "line, message",
    [("alpha = 0.5", "alpha must be finite and > 1"),
     ("beta_s = 2.0", "beta_s must be finite and > (alpha + 3) / 2"),
     # a tuning rule only rate-study uses is still refused by every command
     ("c_m = -1", "tuning constants must be positive"),
     ("c_N = 0", "tuning constants must be positive"),
     ("zeta_override = 0.9", "zeta must lie strictly inside (0.142857, 0.166667)")],
    ids=["alpha", "beta_s", "c_m", "c_N", "zeta_override"],
)
@pytest.mark.parametrize("command", ["rate-study", "lower-bound", "diagnostics"])
def test_config_commands_refuse_a_config_outside_the_model_class(
    tmp_path, capsys, monkeypatch, command, line, message
):
    # refused when the config is loaded, before any draw
    draws = []
    for module, name in ((lowerbound, "affinity_detail"), (cli, "check_chisq_maximal"),
                         (harness, "sample_dataset")):
        def record(*args, _name=name, _real=getattr(module, name), **kwargs):
            draws.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
    cfg = _write_cfg(tmp_path, SMALL_CFG + line + "\n")
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_dir.exists()  # no CSV
    assert draws == []


@pytest.mark.parametrize(
    "lines, message",
    [
        ("K_trunc = 20\nn_grid = 40, 80, 160\nzeta_override = 0.5\n",
         "zeta must lie strictly inside"),
        ("K_trunc = 20\nn_grid = 40, 80, 160\nnewton_tol = 0\n", "newton_tol > 0"),
        ("K_trunc = 20\nn_grid = 5, 100, 200\n", "tuning needs n >= 8"),
        ("K_trunc = 4\nn_grid = 500, 1000, 4000\n", "N=5 components at n=500 exceed K_trunc=4"),
    ],
    ids=["zeta_override", "newton_tol", "small_n", "n_comp_beyond_k_trunc"],
)
def test_bad_study_config_is_refused_before_the_first_draw(tmp_path, monkeypatch, capsys, lines,
                                                           message):
    def no_draws(*args, **kwargs):
        raise AssertionError("a replication was started")

    monkeypatch.setattr("fglm.harness.sample_dataset", no_draws)
    cfg = _write_cfg(tmp_path, "reps = 2\nseed = 0\n" + lines)
    out = tmp_path / "out"
    assert main(["rate-study", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "rate_study.csv").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- generate / estimate round trip ---


def test_generate_then_estimate(tmp_path, capsys):
    data = tmp_path / "data.csv"
    code = main(
        [
            "generate",
            "--family",
            "gaussian",
            "--n",
            "120",
            "--seed",
            "3",
            "--k-trunc",
            "25",
            "--out",
            str(data),
        ]
    )
    assert code == 0
    lines = data.read_text().splitlines()
    assert lines[0] == "y,lambda," + ",".join(f"x{k}" for k in range(1, 26))
    assert len(lines) == 121

    code = main(
        [
            "estimate",
            "--data",
            str(data),
            "--family",
            "gaussian",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    coefs = (tmp_path / "estimate_coefs.csv").read_text().splitlines()
    assert coefs[0] == "k,coef"
    assert len(coefs) == 26  # header + one row per basis coefficient
    grid = (tmp_path / "estimate_grid.csv").read_text().splitlines()
    assert grid[0] == "t,value"
    assert len(grid) == 202


def test_generate_is_deterministic(tmp_path):
    args = ["generate", "--family", "poisson", "--n", "30", "--seed", "9",
            "--k-trunc", "10"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_rejects_too_few_rows(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    code = main(["generate", "--family", "gaussian", "--n", "5", "--seed", "1",
                 "--k-trunc", "10", "--out", str(data)])
    assert code == 0
    code = main(["estimate", "--data", str(data), "--family", "gaussian"])
    assert code == 1
    assert "at least 8 observations" in capsys.readouterr().err


def test_estimate_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1,x3\n1.0,0.1,0.2\n")  # x2 missing
    code = main(["estimate", "--data", str(bad), "--family", "gaussian"])
    assert code == 1
    assert "consecutive" in capsys.readouterr().err


def test_estimate_handles_missing_lambda_column(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    rows = ["y," + ",".join(f"x{k}" for k in range(1, 4))]
    x = rng.standard_normal((40, 3))
    y = 0.3 + x @ [0.5, -0.2, 0.1] + rng.standard_normal(40)
    for i in range(40):
        rows.append(",".join(str(v) for v in (y[i], *x[i])))
    data.write_text("\n".join(rows) + "\n")
    code = main(
        ["estimate", "--data", str(data), "--family", "gaussian", "--out", str(tmp_path)]
    )
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "family, column, value, message",
    [
        ("gaussian", "y", "nan", "non-finite value in column y"),
        ("gaussian", "y", "inf", "non-finite value in column y"),
        ("gaussian", "lambda", "-inf", "non-finite value in column lambda"),
        ("gaussian", "x2", "nan", "non-finite value in columns x1..xK"),
        ("bernoulli", "y", "2", "must be 0 or 1"),
        ("bernoulli", "y", "0.5", "must be 0 or 1"),
        ("poisson", "y", "-1", "must be non-negative integers"),
        ("poisson", "y", "1.5", "must be non-negative integers"),
    ],
)
def test_estimate_refuses_bad_input(tmp_path, capsys, family, column, value, message):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", family, "--n", "40", "--seed", "2",
                 "--k-trunc", "5", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    col = lines[0].split(",").index(column)
    row = lines[1].split(",")
    row[col] = value
    lines[1] = ",".join(row)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["estimate", "--data", str(data), "--family", family, "--out", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_estimate_refuses_header_only_file(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y,lambda,x1,x2\n\n")
    with warnings.catch_warnings():
        # loadtxt's "no data" warning must neither escape nor turn into a failure
        warnings.simplefilter("error")
        code = main(["estimate", "--data", str(data), "--family", "gaussian",
                     "--out", str(tmp_path)])
    assert code == 1
    assert f"{data}: no data rows" in capsys.readouterr().err


def test_estimate_checks_grid_points_before_writing(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", "gaussian", "--n", "40", "--seed", "2",
                 "--k-trunc", "5", "--out", str(data)]) == 0
    out = tmp_path / "out"
    code = main(["estimate", "--data", str(data), "--family", "gaussian",
                 "--grid-points", "1", "--out", str(out)])
    assert code == 1
    assert "grid needs at least 2 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta", [(-1.0, 3.0), (0.5, 3.0), (2.0, math.inf),
                                         (math.nan, 3.0), (2.0, 2.5)])
def test_estimate_refuses_smoothness_outside_the_class_before_reading(
    tmp_path, capsys, monkeypatch, alpha, beta
):
    def no_read(*args, **kwargs):
        raise AssertionError("the data file was read")

    monkeypatch.setattr("fglm.cli._read_dataset_csv", no_read)
    out = tmp_path / "out"
    code = main(["estimate", "--data", str(tmp_path / "data.csv"), "--family", "gaussian",
                 "--alpha", str(alpha), "--beta", str(beta), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    with pytest.raises(ValueError):
        tuning(1000, alpha, beta)


# --- data-file reader ---


def _read_with_csv_reader(path):
    """The reader's former row-by-row parse: [y, lambda, x1..xK] per row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = [row for row in reader if row]
    cols = {name: i for i, name in enumerate(header)}
    names = ["y", "lambda"] + sorted(
        (name for name in cols if name.startswith("x") and name[1:].isdigit()),
        key=lambda s: int(s[1:]),
    )
    return np.array([[float(row[cols[name]]) for name in names] for row in body])


def _quote_fields(text):
    head, *body = text.split("\n")
    quoted = [",".join(f'"{v}"' for v in line.split(",")) if line else line for line in body]
    return "\n".join([head] + quoted)


def _drop_last_field(text):
    lines = text.split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]
    return "\n".join(lines)


def _bad_token(text):
    lines = text.split("\n")
    fields = lines[2].split(",")
    fields[3] = "abc"
    lines[2] = ",".join(fields)
    return "\n".join(lines)


def _crlf(text):
    return text.replace("\n", "\r\n")


def _trailing_blank_lines(text):
    return text + "\n\n\r\n"


@pytest.mark.parametrize(
    "variant",
    [_quote_fields, _crlf, _trailing_blank_lines],
    ids=["quoted-fields", "crlf", "trailing-blank-lines"],
)
def test_reader_accepts_what_csv_reader_accepted(tmp_path, variant):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", "poisson", "--n", "30", "--seed", "4",
                 "--k-trunc", "6", "--out", str(data)]) == 0
    plain = _read_dataset_csv(str(data))
    data.write_bytes(variant(data.read_text()).encode())
    ds = _read_dataset_csv(str(data))
    got = np.column_stack([ds.y, ds.lambda_true, ds.x])
    want = np.column_stack([plain.y, plain.lambda_true, plain.x])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), _read_with_csv_reader(data).view(np.uint64))


@pytest.mark.parametrize(
    "variant", [_drop_last_field, _bad_token], ids=["ragged-row", "non-numeric-token"]
)
def test_reader_refuses_what_csv_reader_refused(tmp_path, capsys, variant):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", "gaussian", "--n", "30", "--seed", "4",
                 "--k-trunc", "6", "--out", str(data)]) == 0
    data.write_text(variant(data.read_text()))
    with pytest.raises((ValueError, IndexError)):
        _read_with_csv_reader(data)
    capsys.readouterr()
    code = main(["estimate", "--data", str(data), "--family", "gaussian",
                 "--out", str(tmp_path)])
    assert code == 1
    assert f"{data}: malformed numeric row" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["gaussian", "poisson", "bernoulli"])
def test_generated_file_reads_back_bit_for_bit(tmp_path, family):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", family, "--n", "60", "--seed", "8",
                 "--k-trunc", "12", "--mu-mode", "bumps", "--out", str(data)]) == 0
    gt = make_ground_truth(2.0, 3.0, get_family(family), k_trunc=12, intercept=0.5,
                           mu_mode="bumps")
    want = sample_dataset(gt, 60, 8)
    got = _read_dataset_csv(str(data))
    for name in ("y", "lambda_true", "x"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert got.x.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_estimate_from_file_matches_in_memory_fit(tmp_path, capsys, family):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", family, "--n", "400", "--seed", "11",
                 "--k-trunc", "40", "--out", str(data)]) == 0
    assert main(["estimate", "--data", str(data), "--family", family,
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    gt = make_ground_truth(2.0, 3.0, get_family(family), k_trunc=40, intercept=0.5)
    fit = estimate_slope(sample_dataset(gt, 400, 11), get_family(family), 2.0, 3.0)
    rows = (tmp_path / "estimate_coefs.csv").read_text().splitlines()[1:]
    got = [float(row.split(",")[1]).hex() for row in rows]
    assert got == [float(v).hex() for v in fit.slope.coeffs]


# --- rate study ---


def test_rate_study_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        [
            "rate-study",
            "--config",
            _write_cfg(tmp_path),
            "--out",
            str(out),
            "--per-replication",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "slope" in text and "theoretical" in text
    assert (out / "rate_study.csv").exists()
    assert (out / "slope.csv").exists()
    assert (out / "perreplication.csv").exists()
    body = (out / "rate_study.csv").read_text().splitlines()
    assert len(body) == 4  # header + one row per sample size


def test_study_csv_headers_and_determinism(tmp_path):
    cfg = _write_cfg(tmp_path, "K_trunc = 30\nn_grid = 40, 80, 160\nreps = 3\nseed = 0\n"
                               "newton_max_iter = 50\n")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["rate-study", "--config", cfg, "--out", str(d), "--per-replication"]) == 0
    for name in ("rate_study.csv", "slope.csv", "perreplication.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "rate_study.csv").read_text().splitlines()[0] == (
        "family,alpha,beta,n,reps,m,N,mise_mean,mise_se,nonconverged"
    )
    assert (d1 / "slope.csv").read_text().splitlines()[0] == "slope,se,theoretical"
    assert (d1 / "perreplication.csv").read_text().splitlines()[0] == (
        "n,rep,seed,loss,iterations,converged"
    )
    assert len((d1 / "perreplication.csv").read_text().splitlines()) == 10


def test_rate_study_jobs_do_not_change_output(tmp_path):
    cfg = _write_cfg(tmp_path)
    outs = []
    for jobs, sub in (("1", "a"), ("2", "b")):
        out = tmp_path / sub
        assert main(["rate-study", "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 0
        outs.append((out / "rate_study.csv").read_bytes())
    assert outs[0] == outs[1]


def test_rate_study_seed_override_changes_results(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["rate-study", "--config", cfg, "--out", str(a)]) == 0
    assert main(["rate-study", "--config", cfg, "--out", str(b), "--seed", "123"]) == 0
    assert (a / "slope.csv").read_bytes() != (b / "slope.csv").read_bytes()


# --- certification subcommands ---


def test_perturb_check_passes_and_writes_rows(tmp_path, capsys):
    code = main(
        ["perturb-check", "--reps", "30", "--dim", "8", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "all bounds hold" in capsys.readouterr().out
    rows = (tmp_path / "perturb_check.csv").read_text().splitlines()
    assert len(rows) == 31
    assert rows[0].startswith("instance,dim,eps,delta_op")


@pytest.mark.parametrize("alpha, reps", [("10", "500"), ("20", "100"), ("40", "100")])
def test_perturb_check_reports_no_rounding_violations_on_steep_spectra(tmp_path, capsys, alpha, reps):
    # tail eigenvalues of k^-alpha sink below the eigensolver's accuracy;
    # their indices are skipped, not reported as violations
    code = main(["perturb-check", "--alpha", alpha, "--reps", reps, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "eigenvalue violations 0, eigenvector 0/" in out
    assert "all bounds hold" in out


def test_lower_bound_writes_affinity_csv(tmp_path, capsys):
    out = tmp_path / "lb"
    code = main(
        [
            "lower-bound",
            "--config",
            _write_cfg(tmp_path),
            "--out",
            str(out),
            "--m",
            "2",
            "--n-grid",
            "50,500",
            "--n-mc",
            "40",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "min affinity" in text
    rows = (out / "affinity.csv").read_text().splitlines()
    assert rows[0] == "n,j,eps,affinity,se,bound_value"
    assert len(rows) == 5  # 2 sample sizes x 2 flip coordinates


def _affinity_below_floor(cfg, n_grid, **kwargs):
    return [
        {"n": n, "j": j, "eps": 1.0, "affinity": 0.05, "se": 0.01, "bound_value": 0.0}
        for n in n_grid
        for j in (3, 4)
    ]


def test_lower_bound_fails_below_the_affinity_floor(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("fglm.cli.affinity_study", _affinity_below_floor)
    code = main(
        ["lower-bound", "--config", _write_cfg(tmp_path), "--out", str(tmp_path), "--n-grid", "50,500"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "min affinity 0.0500" in captured.out
    assert "FAIL" in captured.err
    assert (tmp_path / "affinity.csv").exists()


def test_lower_bound_refuses_an_empty_n_grid(tmp_path, capsys):
    code = main(["lower-bound", "--config", _write_cfg(tmp_path), "--out", str(tmp_path), "--n-grid", ","])
    assert code == 1
    assert "--n-grid must list at least one sample size" in capsys.readouterr().err
    assert not (tmp_path / "affinity.csv").exists()


def test_lower_bound_refuses_a_non_integer_n_grid(tmp_path, capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("an affinity study was started")

    monkeypatch.setattr(cli, "affinity_study", no_draws)
    code = main(
        ["lower-bound", "--config", _write_cfg(tmp_path), "--out", str(tmp_path), "--n-grid", "100,x"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --n-grid must list integers, got '100,x'\n"
    assert not (tmp_path / "affinity.csv").exists()


def test_diagnostics_small_run_passes(tmp_path, capsys):
    out_dir = tmp_path / "diag"
    code = main(
        [
            "diagnostics",
            "--config",
            _write_cfg(tmp_path, "family = gaussian\nseed = 0\n"),
            "--fisher-reps",
            "40",
            "--chisq-reps",
            "20000",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "all diagnostics pass" in captured.out
    assert "FAIL" not in captured.out
    assert "wrote" not in captured.out  # stdout carries the verdicts alone
    path = out_dir / "diagnostics.csv"
    assert f"wrote {path}" in captured.err
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "n", "x", "statistic", "bound", "passed"]
    checks = [r[0] for r in rows[1:]]
    assert checks == (
        ["envelope_bernoulli", "envelope_gaussian", "envelope_poisson"]
        + ["information_z"] * 3
        + ["information_shrinks"]
        + ["maximal"] * 6
    )
    assert [(r[1], r[2]) for r in rows[-6:]] == [
        (n, x) for n in ("10", "100") for x in ("1", "2", "4")
    ]
    for r in rows[1:]:
        assert r[5] == "1"
        assert float(r[3]) <= float(r[4])
    # the verdict lines and the CSV rows are the same checks in the same order
    verdicts = [line for line in captured.out.splitlines() if line.endswith(("PASS", "FAIL"))]
    assert len(verdicts) == len(rows) - 1


def _diagnostics_argv(tmp_path, out_dir, *extra):
    cfg = _write_cfg(tmp_path, "family = gaussian\nseed = 0\n")
    return ["diagnostics", "--config", cfg, "--fisher-reps", "40", "--chisq-reps", "5000",
            "--out", str(out_dir), *extra]


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_diagnostics_output_does_not_depend_on_the_thread_count(tmp_path, capsys, monkeypatch, seed):
    workers = []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    usable = harness.usable_cpus()
    runs = []
    for label in ("default", "one cpu"):
        if label == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out_dir = tmp_path / label
        code = main(_diagnostics_argv(tmp_path, out_dir, "--seed", seed))
        runs.append((code, capsys.readouterr().out, (out_dir / "diagnostics.csv").read_bytes()))
    assert workers == [min(6, usable), 1]  # six checks, one thread per usable CPU
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize(
    "target, error, code, prefix",
    [
        ("check_chisq_maximal", RuntimeError("chisq broke"), 2, "failure"),
        ("fisher_study", RuntimeError("fisher broke"), 2, "failure"),
        ("verify_envelope", ValueError("envelope broke"), 1, "error"),
    ],
)
def test_diagnostics_task_failure_is_the_command_error(
    tmp_path, capsys, monkeypatch, target, error, code, prefix
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    out_dir = tmp_path / "out"
    result = []
    worker = threading.Thread(
        target=lambda: result.append(main(_diagnostics_argv(tmp_path, out_dir))), daemon=True
    )
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()  # the failure did not hang the command
    assert result == [code]
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial verdict
    assert captured.err == f"{prefix}: {error}\n"
    assert not (out_dir / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["perturb-check", "--reps", "0"], "reps must be at least 1, got 0"),
        (["perturb-check", "--reps", "-3"], "reps must be at least 1, got -3"),
        (["diagnostics", "--chisq-reps", "0"], "maximal-inequality reps must be at least 1, got 0"),
        (["diagnostics", "--chisq-reps", "-5"], "maximal-inequality reps must be at least 1, got -5"),
        (["diagnostics", "--fisher-reps", "0"], "information-matrix reps must be at least 2, got 0"),
        (["diagnostics", "--fisher-reps", "1"], "information-matrix reps must be at least 2, got 1"),
        (["perturb-check", "--alpha", "0"], "alpha must be finite and positive, got 0.0"),
        (["perturb-check", "--alpha", "inf"], "alpha must be finite and positive, got inf"),
        (["perturb-check", "--alpha", "nan"], "alpha must be finite and positive, got nan"),
        (["lower-bound", "--radius", "inf"], "radius and beta_s must be finite and positive"),
        (["lower-bound", "--radius", "nan"], "radius and beta_s must be finite and positive"),
        (
            ["lower-bound", "--radius", "1e200"],
            "radius 1e+200 is out of range: the calibrated eps at n=100 is not finite and positive",
        ),
        (["lower-bound", "--n-grid", "100,100"], "sample sizes must not repeat, got [100, 100]"),
    ],
)
def test_certification_refuses_counts_that_certify_nothing(
    tmp_path, capsys, monkeypatch, argv, message
):
    monte_carlo_calls = []
    for module, name in ((cli, "check_chisq_maximal"), (cli, "fisher_study"),
                         (lowerbound, "affinity_detail")):
        def record(*args, _name=name, _real=getattr(module, name), **kwargs):
            monte_carlo_calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
    out_dir = tmp_path / "out"
    if argv[0] in ("diagnostics", "lower-bound"):
        argv = argv + ["--config", _write_cfg(tmp_path, "family = gaussian\nseed = 0\n")]
    assert main(argv + ["--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""  # no verdict line
    assert not out_dir.exists()  # no CSV
    assert monte_carlo_calls == []  # refused before any Monte Carlo started


@pytest.mark.parametrize(
    "argv",
    [
        ["rate-study", "--config", "CFG"],
        ["lower-bound", "--config", "CFG"],
        ["diagnostics", "--config", "CFG"],
        ["perturb-check"],
        ["estimate", "--data", "data.csv", "--family", "gaussian"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_out_that_names_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for target in ("fglm.harness.sample_dataset", "fglm.cli.affinity_study",
                   "fglm.cli.check_chisq_maximal", "fglm.cli.fisher_study",
                   "fglm.cli.verify_envelope", "fglm.cli.random_perturbation_suite",
                   "fglm.cli._read_dataset_csv"):
        monkeypatch.setattr(target, no_work)
    cfg = _write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep these bytes\n")
    argv = [cfg if arg == "CFG" else arg for arg in argv]
    below = taken / "sub"
    for out, message in [
        (taken, f"output directory {taken} is an existing file"),
        (below, f"output directory {below} lies below the existing file {taken}"),
    ]:
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert taken.read_bytes() == b"keep these bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.cfg", "taken"]


def test_generate_refuses_an_unwritable_out_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a dataset was drawn")

    monkeypatch.setattr("fglm.cli.sample_dataset", no_draws)
    folder = tmp_path / "folder"
    folder.mkdir()
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep these bytes\n")
    below = taken / "data.csv"
    for out, message in [
        (folder, f"output file {folder} is an existing directory"),
        (below, f"output file {below} lies below the existing file {taken}"),
    ]:
        assert main(["generate", "--family", "gaussian", "--n", "20000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert list(folder.iterdir()) == []
    assert taken.read_bytes() == b"keep these bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "taken"]


def test_console_entry_point(tmp_path):
    # the installed script and `python -m` route must both work
    proc = subprocess.run(
        [sys.executable, "-m", "fglm", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "rate-study" in proc.stdout


# --- certification script ---

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_certifications.py"
# small sizes; at fewer than 200 Fisher reps the Poisson z-gate sits near its edge
SCRIPT_SMOKE_ARGS = [
    "--perturb-reps", "20", "--affinity-mc", "20", "--fisher-reps", "200", "--chisq-reps", "2000"
]


def _script_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_certification_script_passes_at_small_sizes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *SCRIPT_SMOKE_ARGS],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=_script_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "all bounds hold" in proc.stdout
    assert "all diagnostics pass" in proc.stdout
    assert "3/3 commands passed" in proc.stdout
    assert list(tmp_path.iterdir()) == []  # outputs went to a temporary directory


def test_certification_script_fails_when_a_command_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_certifications", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr("fglm.cli.affinity_study", _affinity_below_floor)
    assert script.main(SCRIPT_SMOKE_ARGS) == 1
    captured = capsys.readouterr()
    assert "2/3 commands passed" in captured.out
    assert "FAIL: min calibrated affinity" in captured.err


# --- rate-study script ---

RATE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_rate_studies.py"


def test_rate_study_script_verdict_follows_its_csvs(tmp_path):
    # at 3 reps a study may miss its band, so the exit code is recomputed, not assumed
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(RATE_SCRIPT), "--reps", "3", "--seed", "1",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_script_env(),
    )
    slopes, failed = {}, False
    for name in ("gaussian_beta3", "poisson_beta3", "gaussian_beta4"):
        assert (tmp_path / name / "rate_study.csv").exists()
        with open(tmp_path / name / "slope.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        slope, theoretical = float(row["slope"]), float(row["theoretical"])
        assert f"[{name}] slope {slope:+.4f} (se {float(row['se']):.4f}) " in proc.stdout
        slopes[name] = slope
        if name.endswith("beta3"):
            failed |= abs(slope - theoretical) > 0.15
    failed |= slopes["gaussian_beta3"] - slopes["gaussian_beta4"] < 0.03
    assert proc.returncode == (1 if failed else 0), proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "override, message",
    [(["--reps", "0"], "reps must be at least 1"), (["--seed", "-1"], "seed must fit in 64 bits")],
    ids=["reps", "seed"],
)
def test_rate_study_script_refuses_a_bad_override_before_any_study(
    tmp_path, capsys, monkeypatch, override, message
):
    studies = []
    monkeypatch.setattr(cli, "main", lambda argv: studies.append(argv) or 0)
    spec = importlib.util.spec_from_file_location("run_rate_studies", RATE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "results"
    assert script.main([*override, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert studies == []  # no study ran
    assert not out.exists()


def test_rate_study_script_refuses_an_out_below_a_file_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    def no_draws(*args, **kwargs):
        raise AssertionError("a replication was started")

    monkeypatch.setattr("fglm.harness.sample_dataset", no_draws)
    spec = importlib.util.spec_from_file_location("run_rate_studies", RATE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep these bytes\n")
    below = taken / "sub" / "gaussian_beta3"
    assert script.main(["--reps", "2", "--out", str(taken / "sub")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"output directory {below} lies below the existing file {taken}"
    assert captured.err == f"error: {message}\n"
    assert taken.read_bytes() == b"keep these bytes\n"
