"""The per-layer tracer of `perfbench/tracer.py` against the commands it traces.

The tracer wraps fglm functions by module and name and its hooks read
some of their parameters by name (`sample_dataset(gt, n)`,
`sample_cov(ds)`, `compute_scores(n_components)`, `fit_mle(scores)`,
`check_chisq_maximal(n, tau, reps)`, `write_csv(path)`).  Renaming one
breaks the traced benchmark run; these tests make it break tier-1 too.
A traced command must also print and write exactly what it does untraced.
"""
import importlib.util
import pathlib
import sys

import pytest

import fglm
import fglm.cli  # loads every fglm module, so the tracer finds all bindings

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
PERTURB_REPS = 30


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _commands(tmp_path):
    study = tmp_path / "small.cfg"
    study.write_text(
        "family = poisson\nK_trunc = 30\nn_grid = 40, 80, 160\nreps = 2\nseed = 3\n"
    )
    gaussian = str(CONFIGS / "gaussian_beta3.cfg")
    return {
        "rate-study": ["rate-study", "--config", str(study), "--per-replication"],
        "perturb-check": ["perturb-check", "--reps", str(PERTURB_REPS)],
        "lower-bound": ["lower-bound", "--config", gaussian, "--n-grid", "100,1000",
                        "--n-mc", "20"],
        "diagnostics": ["diagnostics", "--config", gaussian, "--fisher-reps", "20",
                        "--chisq-reps", "200"],
    }


def _run(capsys, monkeypatch, workdir, argv):
    """Exit code, stdout, stderr and every output file of one command in `workdir`."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = fglm.cli.main(argv + ["--out", "out"])  # the attribute the tracer patches
    captured = capsys.readouterr()
    out = workdir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, captured.out, captured.err, files


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fglm" or name.startswith("fglm."))
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("command", ["rate-study", "perturb-check", "lower-bound", "diagnostics"])
def test_a_traced_command_prints_and_writes_what_it_does_untraced(
    tmp_path, capsys, monkeypatch, command
):
    argv = _commands(tmp_path)[command]
    plain = _run(capsys, monkeypatch, tmp_path / "plain", argv)
    assert plain[0] == 0 and plain[3]
    with tracer.Tracer() as t:
        traced = _run(capsys, monkeypatch, tmp_path / "traced", argv)
    assert traced == plain
    names = [span[0] for span in t.spans]
    assert names[0] == f"cli.main.{command}"
    if command == "rate-study":  # every hook but the maximal inequality's ran
        for count in ("datagen.normals_drawn", "fpca.cov_flops", "fpca.score_columns_computed",
                      "fpca.score_columns_used", "harness.write_csv.bytes"):
            assert t.counts[count] > 0, count
    if command == "diagnostics":
        assert t.counts["spectral_diag.chisq_draws"] > 0
    if command == "perturb-check":  # the eigenvector errors are made once per instance
        aligned = [span for span in t.spans if span[0] == "spectral_diag.aligned_eigen_data"]
        assert len(aligned) == PERTURB_REPS
        assert {t.spans[span[1]][0] for span in aligned} == {
            "spectral_diag.random_perturbation_suite"
        }


def test_restore_puts_back_every_fglm_attribute():
    before = _bindings()
    with tracer.Tracer() as t:
        during = _bindings()
        for module, name in tracer.TRACED:
            assert during["fglm." + module, name] is not before["fglm." + module, name]
        assert len(t._patches) == sum(during[key] is not before[key] for key in before)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
