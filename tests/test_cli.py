import subprocess
import sys

import numpy as np
import pytest

from fglm.cli import main

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


def test_bad_config_value(tmp_path, capsys):
    code = main(["rate-study", "--config", _write_cfg(tmp_path, "reps = never\n")])
    assert code == 1


def test_config_outside_the_model_class_is_usage_error(tmp_path, capsys):
    # refused when the ground truth is built, before any replication runs
    cfg = _write_cfg(tmp_path, SMALL_CFG + "beta_s = 2.0\n")
    assert main(["rate-study", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "beta_s must be" in capsys.readouterr().err


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


def test_diagnostics_small_run_passes(tmp_path, capsys):
    code = main(
        [
            "diagnostics",
            "--config",
            _write_cfg(tmp_path, "family = gaussian\nseed = 0\n"),
            "--fisher-reps",
            "40",
            "--chisq-reps",
            "20000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all diagnostics pass" in out
    assert "FAIL" not in out


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
