"""The checks CI runs as scripts under scripts/ci, without running a workload."""
import importlib.util
import pathlib
import subprocess
import sys

import pytest

CI = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ci"


@pytest.mark.parametrize("script", sorted(CI.glob("*.py")), ids=lambda path: path.name)
def test_ci_script_prints_its_help(script):
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {script.name} ")


def _load_stock_bytes():
    spec = importlib.util.spec_from_file_location("ci_stock_bytes", CI / "stock_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


stock_bytes = _load_stock_bytes()
PERTURB = ("certify", "perturb-check", "perturb_check.csv")
SLOPE = ("study-gaussian", "rate-study", "slope.csv")
REF = {PERTURB: "aaaa", SLOPE: "bbbb"}


@pytest.mark.parametrize("differ, new_ref, holds", [
    (set(), REF, True),
    ({PERTURB}, REF, False),  # a file differs, its digest did not change
    ({PERTURB}, {**REF, PERTURB: "cccc"}, True),
    (set(), {**REF, PERTURB: "cccc"}, False),  # a digest changed, its file did not
    ({("certify", "-", "diagnostics.csv")}, REF, False),  # no plan lists it, so it has no digest
], ids=["nothing", "file-only", "file-and-digest", "digest-only", "unlisted-file"])
def test_stock_bytes_allows_exactly_the_files_whose_digests_changed(differ, new_ref, holds):
    why = stock_bytes.broken_rule(differ, REF, new_ref)
    assert (why == "") == holds, why
