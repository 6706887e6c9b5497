"""Acceptance suite: the headline claims of the library, end to end.

Each test prints one `criterion N: PASS` line on success; the studies
behind criteria 1 and 2 are shared module-scope fixtures because they
dominate the runtime.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""
import math

import numpy as np
import pytest

from fglm.estimator import fit_mle
from fglm.expfam import (
    family_names,
    get_family,
    hellinger_sq_bound,
    hellinger_sq_exact,
)
from fglm.harness import (
    ExperimentConfig,
    run_rate_study,
    write_perreplication_csv,
    write_rate_study_csv,
    write_slope_csv,
)
from fglm.lowerbound import affinity_study, standard_config
from fglm.spectral_diag import (
    check_chisq_maximal,
    check_mle_linearization,
    fisher_study,
    fisher_weight_moments,
    random_perturbation_suite,
)

GAUSS = get_family("gaussian")
POIS = get_family("poisson")


@pytest.fixture(scope="module")
def gauss_study():
    return run_rate_study(ExperimentConfig())


@pytest.fixture(scope="module")
def poisson_study():
    return run_rate_study(ExperimentConfig(family="poisson"))


@pytest.fixture(scope="module")
def gauss_beta4_study():
    return run_rate_study(ExperimentConfig(beta_s=4.0))


@pytest.fixture(scope="module")
def perturb_suite():
    return random_perturbation_suite(reps=500, max_dim=12, seed=0)


def test_criterion_01_rate_reproduction_gaussian(gauss_study):
    slope = gauss_study.fitted_slope
    assert gauss_study.theoretical == pytest.approx(-0.625)
    assert abs(slope - (-0.625)) <= 0.15, f"gaussian slope {slope:.4f}"
    assert all(p.nonconverged <= 2 for p in gauss_study.points)
    print(f"criterion 1 (gaussian): PASS — slope {slope:+.4f} within ±0.15 of −0.625")


def test_criterion_01_rate_reproduction_poisson(poisson_study):
    slope = poisson_study.fitted_slope
    assert abs(slope - (-0.625)) <= 0.15, f"poisson slope {slope:.4f}"
    assert all(p.nonconverged <= 2 for p in poisson_study.points)
    print(f"criterion 1 (poisson): PASS — slope {slope:+.4f} within ±0.15 of −0.625")


def test_criterion_02_rate_responds_to_smoothness(gauss_study, gauss_beta4_study):
    s3 = gauss_study.fitted_slope
    s4 = gauss_beta4_study.fitted_slope
    assert gauss_beta4_study.theoretical == pytest.approx(-0.7)
    assert s4 < s3, f"beta=4 slope {s4:.4f} not below beta=3 slope {s3:.4f}"
    assert s3 - s4 >= 0.03, f"separation {s3 - s4:.4f} below 0.03"
    print(
        f"criterion 2: PASS — slopes {s4:+.4f} (beta 4) < {s3:+.4f} (beta 3), "
        f"gap {s3 - s4:.3f} >= 0.03"
    )


def test_criterion_03_hellinger_certification():
    lam_grid = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    delta_grid = np.arange(-1.0, 1.0 + 1e-9, 0.1)
    violations = 0
    checked = 0
    for name in family_names():
        fam = get_family(name)
        for lam in lam_grid:
            exact = hellinger_sq_exact(fam, lam, delta_grid)
            bound = hellinger_sq_bound(fam, lam, delta_grid)
            violations += int(np.sum(exact > bound + 1e-12))
            checked += delta_grid.size
    assert violations == 0, f"{violations} envelope violations"
    gauss_val = hellinger_sq_exact(GAUSS, 0.0, 1.0)
    expected = 2.0 * (1.0 - math.exp(-0.125))
    assert abs(gauss_val - expected) <= 1e-9
    print(
        f"criterion 3: PASS — 0/{checked} violations; gaussian value "
        f"{gauss_val:.12f} matches 2(1-exp(-1/8))"
    )


def test_criterion_04_perturbation_suites(perturb_suite):
    s = perturb_suite
    assert s.instances == 500
    assert s.eigenvalue_violations == 0
    assert s.eigenvector_violations == 0
    assert s.remainder_violations == 0
    print(
        "criterion 4: PASS — 500 instances, 0 violations "
        f"(eigenvector checks {s.checked}, remainder {s.checked}, "
        f"skipped by gap hypothesis {s.skipped_pairs})"
    )


def test_criterion_05_projection_decomposition(perturb_suite):
    s = perturb_suite
    assert s.projection_checked > 0
    assert s.projection_identity_failures == 0
    assert math.isfinite(s.max_projection_ratio)
    assert s.max_projection_ratio <= 1e3
    print(
        f"criterion 5: PASS — identity exact to 1e-12 on {s.projection_checked} "
        f"admissible instances; max envelope ratio {s.max_projection_ratio:.4f} <= 1e3"
    )


def test_criterion_06_mle_linearization():
    gauss = check_mle_linearization(400, 3, GAUSS, [0.5, 0.3, -0.2, 0.1], reps=50)
    assert gauss.max_residual_all <= 1e-8, f"gaussian residual {gauss.max_residual_all}"
    k = np.arange(1.0, 4.0)
    gamma = np.concatenate([[0.3], np.where(np.arange(3) % 2 == 0, 1.0, -1.0) * k**-3.0])
    pois = check_mle_linearization(5000, 3, POIS, gamma, reps=300)
    assert pois.violation_rate <= pois.allowance
    note = (
        f"hypotheses satisfied on {pois.satisfied}/300 replications"
        if pois.satisfied
        else "hypothesis event empty at this scale (vacuous, see design_ok=0)"
    )
    print(
        f"criterion 6: PASS — gaussian residual {gauss.max_residual_all:.2e} <= 1e-8; "
        f"poisson violation rate {pois.violation_rate:.3f} <= allowance "
        f"{pois.allowance:.3f} ({note})"
    )


def test_criterion_07_maximal_inequality():
    tau = np.arange(1, 51, dtype=float) ** -2.0
    worst = 0.0
    for n in (10, 100):
        points = check_chisq_maximal(n, tau, (1.0, 2.0, 4.0), reps=100_000, seed=0)
        for p in points:
            assert p.passed, f"n={n} x={p.x}: {p.estimate} > {p.bound} + 4se"
            worst = max(worst, p.estimate / p.bound)
    print(
        f"criterion 7: PASS — 6/6 tail estimates within 2e^-x + 4 SE "
        f"(worst estimate/bound ratio {worst:.3f})"
    )


def test_criterion_08_information_matrix_expectation():
    reports = fisher_study(POIS, reps=200, seed=0)
    for rep in reports:
        assert rep.max_abs_z <= 4.0, f"n={rep.n}: max |z| {rep.max_abs_z:.2f}"
    assert reports[-1].mean_sq_dev < reports[0].mean_sq_dev
    r0, _, _ = fisher_weight_moments(POIS, 0.3, 0.5)
    assert abs(r0 - math.exp(0.425)) <= 1e-6
    print(
        "criterion 8: PASS — entrywise |z| <= 4 at n in {500, 2000, 8000}; "
        f"mean sq deviation {reports[0].mean_sq_dev:.2e} -> {reports[-1].mean_sq_dev:.2e}; "
        f"r0(0.3, 0.5) = exp(0.425) within 1e-6"
    )


def test_criterion_09_assouad_affinity():
    rows = affinity_study(standard_config(2, GAUSS), (100, 1000, 10000), n_mc=200, seed=0)
    mins = {}
    for row in rows:
        mins[row["n"]] = min(mins.get(row["n"], 1.0), row["affinity"])
    ordered = [mins[n] for n in (100, 1000, 10000)]
    assert all(v >= 0.1 for v in ordered), f"affinity floor broken: {ordered}"
    for prev, nxt in zip(ordered, ordered[1:]):
        assert prev - nxt <= 0.1, f"affinity dropped {prev:.3f} -> {nxt:.3f}"
    print(
        "criterion 9: PASS — calibrated min affinities "
        + ", ".join(f"{v:.3f}" for v in ordered)
        + " stay above 0.1 with no drop beyond 0.1"
    )


def test_criterion_10_gaussian_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(1, 11))
        scores = rng.standard_normal((n, p))
        y = rng.standard_normal(n) + scores @ rng.standard_normal(p)
        design = np.column_stack([np.ones(n), scores])
        ref, *_ = np.linalg.lstsq(design, y, rcond=None)
        fit = fit_mle(y, scores, GAUSS)
        worst = max(worst, float(np.max(np.abs(fit.coefs - ref))))
    assert worst <= 1e-8, f"max coordinate gap {worst:.2e}"
    print(f"criterion 10: PASS — 50/50 fits match least squares (max gap {worst:.2e})")


def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(K_trunc=30, n_grid=(40, 80, 160), reps=3, seed=0)
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        result = run_rate_study(cfg)
        write_rate_study_csv(cfg, result, str(out / "rate_study.csv"))
        write_slope_csv(result, str(out / "slope.csv"))
        write_perreplication_csv(result, str(out / "perreplication.csv"))
        digests.append(
            tuple((out / f).read_bytes() for f in ("rate_study.csv", "slope.csv", "perreplication.csv"))
        )
    assert digests[0] == digests[1]
    print("criterion 11: PASS — repeated study produced byte-identical CSV outputs")
