import contextlib
import csv
import importlib.util
import io
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "lines, message",
    [("alpha = 0.5", "alpha must be finite and > 1"),
     ("beta_s = 2.0", "beta_s must be finite and > (alpha + 3) / 2"),
     # a tuning rule only rate-study uses is still refused by every command
     ("c_m = -1", "tuning constants must be finite and positive"),
     ("c_N = 0", "tuning constants must be finite and positive"),
     ("zeta_override = 0.9", "zeta must lie strictly inside (0.142857, 0.166667)"),
     ("n_grid = 5, 100, 200", "tuning needs n >= 8"),
     ("K_trunc = 4\nn_grid = 500, 1000, 4000", "N=5 components at n=500 exceed K_trunc=4"),
     # 2^(alpha + 1) overflows a float
     ("alpha = 1100\nbeta_s = 2000", "class radius must be finite and positive, got inf")],
    ids=["alpha", "beta_s", "c_m", "c_N", "zeta_override", "small_n", "n_comp_beyond_k_trunc",
         "large_alpha"],
)
@pytest.mark.parametrize("command", ["rate-study", "lower-bound", "diagnostics"])
def test_config_commands_refuse_a_config_outside_the_model_class(
    tmp_path, capsys, monkeypatch, command, lines, message
):
    # refused when the config is loaded, before any draw
    draws = []
    for module, name in ((lowerbound, "affinity_detail"), (cli, "check_chisq_maximal"),
                         (harness, "sample_dataset")):
        def record(*args, _name=name, _real=getattr(module, name), **kwargs):
            draws.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
    # SMALL_CFG with the keys that `lines` sets taken out: a config may not repeat a key
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in SMALL_CFG.splitlines() if line.partition("=")[0].strip() not in keys]
    cfg = _write_cfg(tmp_path, "\n".join(kept + [lines]) + "\n")
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
        ("K_trunc = 20\nn_grid = 40, 80, 160\nnewton_tol = 0\n",
         "Newton tol must be finite and > 0"),
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


def test_generate_holds_one_copy_of_the_sample(tmp_path):
    # the CSV is formatted from the sample's own columns, harness._BLOCK_ROWS
    # rows at a time: a stacked copy of the whole sample, or a block of rows as
    # large as one, would take the traced peak past twice the sample's bytes
    n, k = 4000, 100  # 32 blocks; the peak was 1.35x the sample, 4.0x with a stacked copy
    tracemalloc.start()
    try:
        assert main(["generate", "--family", "bernoulli", "--n", str(n), "--k-trunc", str(k),
                     "--out", str(tmp_path / "data.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sample_bytes = n * (k + 2) * 8  # y, lambda and x as float64
    assert peak < 2.0 * sample_bytes


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


def test_estimate_refuses_a_repeated_column_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit was started")

    monkeypatch.setattr(cli, "estimate_slope", no_fit)
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    rows = ["y,x1,x2,x3,x1"]  # the second x1 is constant
    for x in rng.standard_normal((40, 3)):
        rows.append(",".join(str(v) for v in (x.sum(), *x, 0.0)))
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["estimate", "--data", str(data), "--family", "gaussian", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {data}: duplicate column 'x1'\n"
    assert captured.out == ""
    assert not out.exists()


def test_study_config_is_built_once_with_seed_and_out_applied(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_ground_truth(*args, **kwargs)

    monkeypatch.setattr(harness, "make_ground_truth", counting)
    out = str(tmp_path / "out")
    args = cli._build_parser().parse_args(
        ["rate-study", "--config", _write_cfg(tmp_path), "--seed", "9", "--out", out]
    )
    cfg = cli._load_config(args)
    assert (cfg.seed, cfg.out_dir, cfg.reps) == (9, out, 2)
    assert len(calls) == 1


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


def _refused_estimate(tmp_path, warnings_flag, header, rows):
    """stderr of `estimate --family gaussian` on the CSV, run as a subprocess that must
    exit 1 and write nothing."""
    data = tmp_path / "huge.csv"
    data.write_text(header + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, *warnings_flag, "-m", "fglm", "estimate", "--data", str(data),
         "--family", "gaussian", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=_script_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert not out.exists()
    return proc.stderr


@pytest.mark.parametrize("warnings_flag", [[], ["-W", "error"]], ids=["default", "W-error"])
def test_estimate_refuses_predictors_whose_covariance_overflows(tmp_path, warnings_flag):
    # finite but huge: x.T @ x overflows to inf, which the eigensolver cannot take
    rows = [f"{0.1 * i:.1f},{0.2 * (i % 5):.1f},1e200,-1e200,{0.3 * (i % 3):.1f}" for i in range(30)]
    stderr = _refused_estimate(tmp_path, warnings_flag, "y,x1,x2,x3,x4", rows)
    assert stderr == "error: covariance is not finite\n"  # one line, no warning


@pytest.mark.parametrize("warnings_flag", [[], ["-W", "error"]], ids=["default", "W-error"])
def test_estimate_refuses_a_response_whose_log_likelihood_overflows(tmp_path, warnings_flag):
    # finite but huge: y @ eta and psi(eta) = eta**2 / 2 overflow at Newton's start
    rows = [f"{1e200 if i == 0 else 0.1 * i},{0.2 * (i % 5):.1f},{0.3 * (i % 3):.1f}"
            for i in range(30)]
    stderr = _refused_estimate(tmp_path, warnings_flag, "y,x1,x2", rows)
    assert stderr == (  # one line, no warning
        "error: log likelihood of the responses is not finite at the initial point\n"
    )


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


def test_estimate_converges_on_a_gaussian_sample_whose_coefficients_pass_a_thousand(
    tmp_path, capsys
):
    # the responses at the scale of thousands put the intercept near 4444; a
    # gaussian maximizer always exists, so that is no separation
    data, scaled = tmp_path / "data.csv", tmp_path / "scaled.csv"
    assert main(["generate", "--family", "gaussian", "--n", "2000", "--seed", "1",
                 "--k-trunc", "20", "--out", str(data)]) == 0
    header, *rows = data.read_text().splitlines()
    body = [f"{float(y) * 1e4!r},{rest}\n" for y, rest in (row.split(",", 1) for row in rows)]
    scaled.write_text(header + "\n" + "".join(body))
    capsys.readouterr()
    assert main(["estimate", "--data", str(scaled), "--family", "gaussian",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "n=2000 m=3 N=6 intercept=4444.18 converged in 1 iterations"
    )


def test_estimate_reports_a_separable_bernoulli_sample_as_not_converged(tmp_path, capsys):
    # y = 1 exactly where x1 > 0, and x1 carries nearly all the variance, so
    # the leading component separates the sample and the slope runs off
    x1 = np.tile([-1.0, -0.5, -0.01, 0.01, 0.5, 1.0], 8)
    x2 = 1e-3 * np.cos(np.arange(x1.size))
    data = tmp_path / "separable.csv"
    rows = (f"{float(a > 0)!r},{a!r},{b!r}\n" for a, b in zip(x1.tolist(), x2.tolist()))
    data.write_text("y,x1,x2\n" + "".join(rows))
    assert main(["estimate", "--data", str(data), "--family", "bernoulli",
                 "--out", str(tmp_path / "out")]) == 0
    assert " NOT converged in " in capsys.readouterr().out


# --- data-file reader ---


def _read_with_csv_reader(path):
    """The reader's former row-by-row parse: [y, lambda, x1..xK] per row."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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


def _reversed_columns(text):
    return "\n".join(",".join(reversed(line.split(","))) for line in text.split("\n"))


def _cr_only(text):
    return text.replace("\n", "\r")


def _no_final_line_end(text):
    return text.rstrip("\n")


def _blank_lines_between_rows(text):
    return text.replace("\n", "\n\n")


def _byte_order_mark(text):
    return "\ufeff" + text  # as Excel's "CSV UTF-8" writes it


@pytest.mark.parametrize(
    "variant",
    [_quote_fields, _crlf, _trailing_blank_lines, _reversed_columns, _cr_only,
     _no_final_line_end, _blank_lines_between_rows, _byte_order_mark],
    ids=["quoted-fields", "crlf", "trailing-blank-lines", "reversed-columns", "cr-only",
         "no-final-line-end", "blank-lines-between-rows", "byte-order-mark"],
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
    assert ds.x.flags.c_contiguous


def test_reader_without_a_lambda_column_keeps_every_bit(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", "bernoulli", "--n", "30", "--seed", "4",
                 "--k-trunc", "6", "--out", str(data)]) == 0
    plain = _read_dataset_csv(str(data))
    lines = data.read_text().split("\n")
    data.write_text("\n".join(",".join(line.split(",")[:1] + line.split(",")[2:])
                              for line in lines))
    ds = _read_dataset_csv(str(data))
    assert np.array_equal(ds.x.view(np.uint64), plain.x.view(np.uint64))
    assert np.array_equal(ds.y.view(np.uint64), plain.y.view(np.uint64))
    assert np.array_equal(ds.lambda_true, np.zeros(30))
    assert ds.x.flags.c_contiguous


def test_reader_holds_the_sample_once(tmp_path):
    # x is a view of loadtxt's own buffer, which loadtxt allocates once: a copy
    # of x, or a regrown buffer, would take the traced peak to about 2.1x the
    # sample's bytes; it reads 1.10x
    n, k = 2000, 200
    data = tmp_path / "data.csv"
    assert main(["generate", "--family", "bernoulli", "--n", str(n), "--k-trunc", str(k),
                 "--out", str(data)]) == 0
    tracemalloc.start()
    try:
        ds = _read_dataset_csv(str(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.x.shape == (n, k)
    assert peak <= 1.5 * n * (k + 2) * 8  # y, lambda and x as float64


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
    assert got == [float(v).hex() for v in fit.slope]


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


def test_rate_study_writes_and_prints_the_rows_run_rate_study_returns(tmp_path, capsys):
    cfg_path, out = _write_cfg(tmp_path), tmp_path / "out"
    assert main(["rate-study", "--config", cfg_path, "--out", str(out), "--per-replication"]) == 0
    stdout = capsys.readouterr().out.splitlines()
    cfg = harness.load_config(cfg_path, out_dir=str(out))
    with cli._one_blas_thread():  # as main runs it
        points, replications, slope, se = harness.run_rate_study(cfg)
    assert all(type(v) in (int, float, bool) for row in points + replications for v in row)
    theoretical = harness.theoretical_exponent(cfg.alpha, cfg.beta_s)

    def g(v):
        return "%.17g" % v

    def body(name):
        return (out / name).read_text().splitlines()[1:]

    assert body("rate_study.csv") == [
        f"{cfg.family},{g(cfg.alpha)},{g(cfg.beta_s)},{n},{reps},{m},{n_comp},{g(mise)},"
        f"{g(mise_se)},{nonconverged}" for n, reps, m, n_comp, mise, mise_se, nonconverged in points
    ]
    assert body("perreplication.csv") == [
        f"{n},{rep},{seed},{g(loss)},{iterations},{1 if converged else 0}"
        for n, rep, seed, loss, iterations, converged in replications
    ]
    assert body("slope.csv") == [f"{g(slope)},{g(se)},{g(theoretical)}"]
    assert stdout[:-1] == [
        f"n={n:6d} m={m} N={n_comp} mise={mise:.6g} se={mise_se:.2g} nonconverged={nonconverged}"
        for n, _, m, n_comp, mise, mise_se, nonconverged in points
    ] + [f"slope {slope:+.4f} (se {se:.4f}), theoretical {theoretical:+.4f}"]


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


@pytest.mark.parametrize("alpha", ["1e-14", "2e-15", "1e-16", "1e-300"])
def test_perturb_check_on_a_tied_spectrum_reports_nothing_checked(tmp_path, capsys, alpha):
    # k^-alpha rounds to ties; the tied indices fail the gap hypothesis, and
    # their 0/0 and inf - inf must not stop the run before its verdicts
    code = main(["perturb-check", "--alpha", alpha, "--reps", "30", "--dim", "12",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "FAIL: eigenvector: nothing checked\n"
        "FAIL: remainder: nothing checked\n"
        "FAIL: projection_identity: nothing checked\n"
    )


@pytest.mark.parametrize(
    "alpha, reps, projections",
    [("10", "500", 500), ("20", "100", 0), ("40", "100", 0)],
    ids=["10-500", "20-100", "40-100"],
)
def test_perturb_check_reports_no_rounding_violations_on_steep_spectra(tmp_path, capsys, alpha,
                                                                       reps, projections):
    # tail eigenvalues of k^-alpha sink below the eigensolver's accuracy;
    # their indices are skipped, not reported as violations; from alpha = 18
    # no projection is left to check, and a run that checks none fails
    code = main(["perturb-check", "--alpha", alpha, "--reps", reps, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "eigenvalue violations 0, eigenvector 0/" in captured.out
    assert f"projection: {projections} checked, 0 identity failures" in captured.out
    if projections:
        assert code == 0, captured.err
        assert "all bounds hold" in captured.out
    else:
        assert code == 2
        assert "all bounds hold" not in captured.out
        assert captured.err == "FAIL: projection_identity: nothing checked\n"


@given(alpha=st.floats(min_value=2.0, max_value=7.0), seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_perturb_check_checks_every_projection_on_the_resolved_alphas(alpha, seed):
    # below alpha = 8 the projection ratio is resolved above rounding, and
    # every instance leaves a projection to check
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["perturb-check", "--alpha", repr(alpha), "--reps", "12", "--dim", "12",
                         "--seed", str(seed), "--out", out])
    assert code == 0, stderr.getvalue()
    assert stderr.getvalue() == ""
    lines = stdout.getvalue().splitlines()
    assert lines[0].startswith("12 instances: eigenvalue violations 0, eigenvector 0/")
    assert ", remainder 0/" in lines[0]
    assert lines[1].startswith("projection: 12 checked, 0 identity failures")
    assert lines[-1] == "all bounds hold"


def _seeded_argv(command, out, seed):
    if command == "generate":
        return ["generate", "--family", "gaussian", "--n", "10", "--seed", seed,
                "--out", str(out / "data.csv")]
    return ["perturb-check", "--reps", "3", "--seed", seed, "--out", str(out)]


@pytest.mark.parametrize("command", ["generate", "perturb-check"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_outside_64_bits_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("work was started")

    monkeypatch.setattr(cli, "sample_dataset", no_work)
    monkeypatch.setattr(cli, "random_perturbation_suite", no_work)
    assert main(_seeded_argv(command, tmp_path / "out", seed)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must fit in 64 bits\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "perturb-check"])
def test_the_largest_seed_is_accepted(tmp_path, capsys, command):
    assert main(_seeded_argv(command, tmp_path, str(2**64 - 1))) == 0
    capsys.readouterr()


def test_perturb_check_perturbs_every_instance_at_the_largest_alpha_it_accepts(tmp_path, capsys):
    # 0.9 * 12^-285 is just above the smallest normal float; no projection is
    # left to check there, so the run fails
    assert main(["perturb-check", "--alpha", "285", "--reps", "3", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "eigenvalue violations 0, eigenvector 0/3 checked, remainder 0/3" in captured.out
    assert captured.err == "FAIL: projection_identity: nothing checked\n"
    with open(tmp_path / "perturb_check.csv", newline="") as fh:
        eps = [float(row["eps"]) for row in csv.DictReader(fh)]
    assert len(eps) == 3 and min(eps) >= np.finfo(float).tiny


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
    assert captured.err == (
        "FAIL: affinity n=50: 0.05 against bound 0.1\nFAIL: affinity n=500: 0.05 against bound 0.1\n"
    )
    assert (tmp_path / "affinity.csv").exists()


def test_lower_bound_fails_on_a_nan_affinity(tmp_path, capsys, monkeypatch):
    def nan_beside_the_worst(cfg, n_grid, **kwargs):
        rows = _affinity_below_floor(cfg, n_grid)
        for row in rows:
            row["affinity"] = 0.5 if row["j"] == 3 else math.nan
        return rows

    monkeypatch.setattr("fglm.cli.affinity_study", nan_beside_the_worst)
    argv = ["lower-bound", "--config", _write_cfg(tmp_path), "--out", str(tmp_path),
            "--n-grid", "50"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # the printed worst row is the one the verdict fails on, not the finite 0.5 at j=3
    assert "n=    50 eps=1 min affinity nan (j=4), bound value 0\n" in captured.out
    assert captured.err == "FAIL: affinity n=50: nan against bound 0.1\n"


def _verdict_commands(tmp_path):
    """argv, verdict count and pass line of each certification command at a small size."""
    cfg = _write_cfg(tmp_path, "family = gaussian\nseed = 0\n")
    return {
        "perturb-check": (["perturb-check", "--reps", "12"], 4, "all bounds hold"),
        "lower-bound": (["lower-bound", "--config", cfg, "--n-grid", "50,500", "--n-mc", "10"],
                        2, None),
        "diagnostics": (["diagnostics", "--config", cfg, "--fisher-reps", "40",
                         "--chisq-reps", "2000"], 13, "all diagnostics pass"),
    }


@pytest.mark.parametrize("broken", ["fails", "checks-nothing"])
@pytest.mark.parametrize("command", ["perturb-check", "lower-bound", "diagnostics"])
def test_every_failing_verdict_fails_its_command(tmp_path, capsys, monkeypatch, command, broken):
    argv, count, pass_line = _verdict_commands(tmp_path)[command]
    argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    passing = capsys.readouterr().out.splitlines()
    if pass_line is not None:
        assert passing.pop() == pass_line

    conclude = cli._conclude

    def break_every_verdict(verdicts, *args):
        change = {"passed": False} if broken == "fails" else {"checked": 0}
        return conclude([v._replace(**change) for v in verdicts], *args)

    monkeypatch.setattr(cli, "_conclude", break_every_verdict)
    assert main(argv) == 2
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL: ")]
    assert len(fails) == count
    ending = " against bound " if broken == "fails" else ": nothing checked"
    assert all(ending in line for line in fails)
    assert captured.out.splitlines() == passing


def test_conclude_prints_one_line_per_failing_verdict(capsys):
    verdicts = [
        cli.Verdict("envelope_gaussian", 0.5, 1.000000001, 273, True),
        cli.Verdict("maximal", 0.25, 0.125, 2000, False, 10, 4.0),
        cli.Verdict("information_z", 1.5, 4.0, 0, True, 500),
    ]
    assert cli._conclude(verdicts, "all pass") == 2
    assert capsys.readouterr() == (
        "", "FAIL: maximal n=10 x=4: 0.25 against bound 0.125\n"
        "FAIL: information_z n=500: nothing checked\n"
    )
    assert cli._conclude(verdicts[:1], "all pass") == 0
    assert capsys.readouterr() == ("all pass\n", "")
    assert cli._conclude(verdicts[:1]) == 0
    assert capsys.readouterr() == ("", "")


def test_diagnostics_fails_the_information_check_at_two_reps(tmp_path, capsys):
    # two Fisher draws give a standard error too rough for |z| <= 4
    argv = ["diagnostics", "--config", _write_cfg(tmp_path, "family = gaussian\nseed = 0\n"),
            "--fisher-reps", "2", "--chisq-reps", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL: ")]
    assert [line.split(":")[1] for line in fails] == [
        " information_z n=500", " information_z n=2000", " information_z n=8000"
    ]
    assert captured.out.count(" FAIL\n") == 3
    assert not captured.out.endswith("all diagnostics pass\n")


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
    start_threads = harness._start_threads

    def recording(target, count):
        workers.append(count)
        return start_threads(target, count)

    monkeypatch.setattr(harness, "_start_threads", recording)
    usable = harness.usable_cpus()
    runs = []
    for label in ("default", "one cpu"):
        if label == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out_dir = tmp_path / label
        code = main(_diagnostics_argv(tmp_path, out_dir, "--seed", seed))
        runs.append((code, capsys.readouterr().out, (out_dir / "diagnostics.csv").read_bytes()))
    # six checks, one worker per usable CPU, the caller being the first
    assert workers == [min(6, usable) - 1, 0]
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
        # the hypercube has one amplitude, the calibrated eps; there is no radius to set
        (["lower-bound", "--radius", "1"], "unrecognized arguments: --radius 1"),
        (["lower-bound", "--m", "0"], "m must be a positive integer"),
        (["lower-bound", "--n-grid", "0,100"], "sample sizes must be positive"),
        (["lower-bound", "--n-grid", "100,100"], "sample sizes must not repeat, got [100, 100]"),
        (["lower-bound", "--n-grid", "100,,200,"], "--n-grid must list integers, got '100,,200,'"),
        # above 1000 the per-cell seeds seed + 1000 * n_idx + j_idx collide
        (["lower-bound", "--m", "1001"], "m=1001 is above 1000: cell (n_idx, j_idx) is seeded "
         "seed + 1000 * n_idx + j_idx, so two cells would share a random stream"),
        # past these the PSD cap 0.9 * dim^-alpha underflows: every eps would be 0
        (["perturb-check", "--alpha", "400"], "alpha=400.0 is too large for dimensions up to 12: "
         "the perturbation size 0.9 * 12^-alpha falls below the smallest normal float, so no "
         "instance would be perturbed"),
        (["perturb-check", "--alpha", "286"], "alpha=286.0 is too large for dimensions up to 12: "
         "the perturbation size 0.9 * 12^-alpha falls below the smallest normal float, so no "
         "instance would be perturbed"),
        (["perturb-check", "--alpha", "160", "--dim", "100", "--reps", "3"], "alpha=160.0 is too "
         "large for dimensions up to 100: the perturbation size 0.9 * 100^-alpha falls below "
         "the smallest normal float, so no instance would be perturbed"),
        # one draw has no standard error
        (["lower-bound", "--n-grid", "100", "--n-mc", "1"],
         "affinity draws n_mc must be at least 2, got 1"),
    ],
)
def test_certification_refuses_counts_that_certify_nothing(
    tmp_path, capsys, monkeypatch, argv, message
):
    monte_carlo_calls = []
    for module, name in ((cli, "check_chisq_maximal"), (cli, "fisher_study"),
                         (lowerbound, "affinity_detail"), (np.random, "default_rng")):
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
    assert monte_carlo_calls == []  # refused before any Monte Carlo started or generator was made


@pytest.mark.parametrize("beta_s", ["326", "330", "336", "340", "400"])
def test_lower_bound_refuses_a_cube_out_of_float_range(tmp_path, capsys, monkeypatch, beta_s):
    # every other command accepts these configs; at the stock --n-grid the
    # calibrated eps^2 overflows (326 .. 336) or eps itself is 1/0 (340, 400)
    monte_carlo_calls = []
    monkeypatch.setattr(lowerbound, "affinity_detail", monte_carlo_calls.append)
    cfg = _write_cfg(tmp_path, f"family = gaussian\nseed = 0\nbeta_s = {beta_s}\n")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        assert main(["lower-bound", "--config", cfg, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: alpha=2, beta_s={beta_s}, m=2 and n=100 put the hypercube out of float "
        "range: the calibrated eps and its square must be finite and positive\n"
    )
    assert captured.out == ""
    assert not out_dir.exists()  # no CSV
    assert monte_carlo_calls == []


def _forbid_work(monkeypatch):
    """Make every command's first piece of work fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for target in ("fglm.harness.sample_dataset", "fglm.cli.sample_dataset",
                   "fglm.cli.affinity_study", "fglm.cli.check_chisq_maximal",
                   "fglm.cli.fisher_study", "fglm.cli.verify_envelope",
                   "fglm.cli.random_perturbation_suite", "fglm.cli._read_dataset_csv"):
        monkeypatch.setattr(target, no_work)


_OUT_DIR_COMMANDS = [
    ["rate-study", "--config", "CFG"],
    ["lower-bound", "--config", "CFG"],
    ["diagnostics", "--config", "CFG"],
    ["perturb-check"],
    ["estimate", "--data", "data.csv", "--family", "gaussian"],
]


@pytest.mark.parametrize("argv", _OUT_DIR_COMMANDS, ids=lambda argv: argv[0])
def test_an_out_that_names_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    _forbid_work(monkeypatch)
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


@pytest.mark.parametrize(
    "argv", _OUT_DIR_COMMANDS + [["generate", "--family", "gaussian", "--n", "20000"]],
    ids=lambda argv: argv[0],
)
def test_an_out_through_a_dangling_link_is_refused_before_any_work(tmp_path, capsys,
                                                                   monkeypatch, argv):
    # os.makedirs cannot make a directory through a dangling link, nor open() a
    # file whose target directory is missing, so neither may wait for the work
    _forbid_work(monkeypatch)
    kind = "file" if argv[0] == "generate" else "directory"
    cfg = _write_cfg(tmp_path)
    argv = [cfg if arg == "CFG" else arg for arg in argv]
    missing = tmp_path / "missing"
    link = tmp_path / "link"
    link.symlink_to(missing / "data.csv" if kind == "file" else missing)
    below = link / "sub"
    for out, message in [
        (link, f"output {kind} {link} is a dangling symbolic link to {os.path.realpath(link)}"),
        (below, f"output {kind} {below} lies below the dangling symbolic link {link}"),
    ]:
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "study.cfg"]


@pytest.mark.parametrize(
    "argv", _OUT_DIR_COMMANDS + [["generate", "--family", "gaussian", "--n", "20000"]],
    ids=lambda argv: argv[0],
)
def test_an_out_through_a_link_loop_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                               argv):
    # nothing can be made through a loop of links: resolving it fails with ELOOP
    _forbid_work(monkeypatch)
    kind = "file" if argv[0] == "generate" else "directory"
    cfg = _write_cfg(tmp_path)
    argv = [cfg if arg == "CFG" else arg for arg in argv]
    a, b = tmp_path / "a", tmp_path / "b"
    a.symlink_to(b)
    b.symlink_to(a)
    into = tmp_path / "into"
    into.symlink_to(a / "data")
    for out, message in [
        (a, f"output {kind} {a} is a symbolic-link loop"),
        (into, f"output {kind} {into} is a symbolic-link loop"),
        (a / "sub", f"output {kind} {a / 'sub'} lies below the symbolic-link loop {a}"),
    ]:
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "into", "study.cfg"]


def test_generate_writes_through_a_dangling_link_into_an_existing_directory(tmp_path, capsys):
    target, link = tmp_path / "data.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["generate", "--family", "gaussian", "--n", "20", "--out", str(link)]) == 0
    assert capsys.readouterr().out == f"wrote {link}: 20 rows, 200 coefficient columns\n"
    assert link.is_symlink() and target.read_text().startswith("y,lambda,x1,")


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


def test_generate_refuses_an_alpha_whose_radius_overflows_before_drawing(tmp_path, capsys,
                                                                         monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a dataset was drawn")

    monkeypatch.setattr("fglm.cli.sample_dataset", no_draws)
    out = tmp_path / "data.csv"
    assert main(["generate", "--family", "gaussian", "--alpha", "2000", "--beta", "3000",
                 "--n", "10", "--out", str(out)]) == 1  # 2^(alpha + 1) overflows a float
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class radius must be finite and positive, got inf\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("intercept", ["50", "800"])
def test_generate_refuses_a_poisson_intensity_numpy_cannot_draw(tmp_path, capsys, intercept):
    out = tmp_path / "data.csv"
    assert main(["generate", "--family", "poisson", "--n", "10", "--intercept", intercept,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot draw poisson responses at natural parameters")
    assert list(tmp_path.iterdir()) == []


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
    assert "FAIL: affinity n=100: 0.05 against bound 0.1\n" in captured.err


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


# --- freed heap kept between replications ---

PAGE_FAULTS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci" / "page_faults.py"


def test_page_faults_script_prints_its_help():
    proc = subprocess.run([sys.executable, str(PAGE_FAULTS_SCRIPT), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--jobs" in proc.stdout


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds are glibc's",
)
@pytest.mark.parametrize("jobs", ["1", "2"])  # 2: glibc gives the pool's thread an arena of its own
def test_a_replication_faults_in_no_fresh_pages(tmp_path, jobs):
    import resource

    grid = (500, 600, 700)  # each n x 200 sample is far above glibc's 128 KiB mmap default

    def minor_faults(reps):
        cfg = tmp_path / f"reps{reps}.cfg"
        cfg.write_text(harness.format_config(harness.ExperimentConfig(n_grid=grid, reps=reps)))
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "fglm", "rate-study", "--config", str(cfg),
                        "--jobs", jobs, "--out", str(tmp_path / f"out{reps}")],
                       check=True, stdout=subprocess.DEVNULL, env=_script_env(), timeout=120)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    # without the thresholds each extra replication faults in about 530 pages
    # here at --jobs 1 and 230 at --jobs 2
    per_replication = (minor_faults(8) - minor_faults(2)) / (6 * len(grid))
    assert per_replication <= 100
