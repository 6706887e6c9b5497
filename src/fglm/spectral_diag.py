"""Numerical certification of the spectral and likelihood approximations.

Three groups of checks, each comparing an exact computation against the
closed-form bound it is supposed to satisfy:

* symmetric eigenvalue/eigenvector perturbation: for a base matrix T and
  a perturbed T~ = T + D with d = ||D||, eigenvalues move by at most d,
  sign-aligned eigenvector errors f_k = s_k e~_k - e_k stay within
  3 ||L_k|| of zero where L_k is the first-order error, the remainder
  r_k = f_k - L_k has an explicit diagonal value and off-diagonal decay,
  and the error of a spectral projection applied to a fixed vector
  decomposes into a first-order term plus a residual with a computable
  envelope;
* linearization of the GLM maximizer around the truth via the score
  vector, with explicit hypotheses on the standardized design;
* expectation and concentration of the observed information matrix, and
  a maximal inequality for weighted chi-square sums.

All quantities use the eigenbasis of the base matrix, eigenvalues sorted
descending.  Ties in the base spectrum make first-order terms undefined,
so checks gate on a minimum gap relative to the perturbation size
(`gap > 5 * delta`) and on a floor below which the eigensolver's own
rounding swamps the eigenvectors (`eigensolver_gap_floor`).  A
`PerturbationPair` computes f_k, L_k and r_k once, when it is built.  Each
check returns plain values: `(max_abs_err, passed)` for the eigenvalues, a
boolean array over k for the eigenvectors and the remainders (an index
that fails the gap hypothesis passes by convention and is counted as
skipped), and `(admissible, identity_err, identity_passed, ratio)` for a
projection.  The other checks return tuples of numbers too, named in
their docstrings; the maximal inequality's `(estimate, se, bound)` per x
is judged by its caller.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimator import fit_mle
from .expfam import ExpFamilySpec

__all__ = [
    "PerturbationPair",
    "eigensolver_gap_floor",
    "aligned_eigen_data",
    "check_eigenvalue_bound",
    "check_eigenvector_bound",
    "check_eigenvector_remainder",
    "check_projection_bound",
    "Verdict",
    "random_perturbation_suite",
    "check_mle_linearization",
    "fisher_weight_moments",
    "expected_fisher",
    "require_fisher_reps",
    "check_fisher_expectation",
    "fisher_study",
    "require_chisq_reps",
    "check_chisq_maximal",
]


_SLACK = 1e-10  # rounding allowance of each perturbation bound
_DIAG_TOL = 1e-10  # of the remainder's exact diagonal identity
_IDENTITY_TOL = 1e-12  # of the projection's exact decomposition


def _eigh_descending(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


class PerturbationPair(NamedTuple):
    """One perturbation instance: two eigensystems and the eigenvector errors.

    `theta`, `vecs` and `theta_tilde`, `vecs_tilde` are the base and the
    perturbed eigenpairs, `delta_op` and `delta_hs` the operator and
    Hilbert-Schmidt norms of the change.  The other fields, made once by
    `aligned_eigen_data`, are the eigenvector errors in the base
    eigencoordinates.  Column k of each matrix refers to the k-th
    eigenpair: `aligned[:, k]` holds the coordinates of s_k e~_k,
    `err[:, k]` those of s_k e~_k - e_k, `lead[:, k]` the first-order term
    with entries <e_j, T~ e_k> / (theta_k - theta_j) and zero on the
    diagonal, and `rem = err - lead`.  `gap_table[j, k]` is
    |theta_k - theta_j|, infinite on the diagonal; `gaps[k]`, its column
    minimum, is the distance from theta_k to the rest of the base
    spectrum, and `admissible[k]` is the gap hypothesis gap_k > 5 delta
    together with gap_k > `eigensolver_gap_floor(theta)`.
    """

    theta: np.ndarray
    vecs: np.ndarray
    theta_tilde: np.ndarray
    vecs_tilde: np.ndarray
    delta_op: float
    delta_hs: float
    aligned: np.ndarray
    err: np.ndarray
    lead: np.ndarray
    rem: np.ndarray
    gap_table: np.ndarray
    gaps: np.ndarray
    admissible: np.ndarray

    @classmethod
    def from_matrices(cls, base, perturbed) -> "PerturbationPair":
        base = np.asarray(base, dtype=float)
        perturbed = np.asarray(perturbed, dtype=float)
        for name, mat in (("base", base), ("perturbed", perturbed)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} matrix must be square")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} matrix is not finite")
            if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-10:
                raise ValueError(f"{name} matrix is not symmetric within 1e-10")
        if base.shape != perturbed.shape:
            raise ValueError("matrices must have identical shape")
        diff = perturbed - base
        theta, vecs = _eigh_descending(base)
        theta_tilde, vecs_tilde = _eigh_descending(perturbed)
        delta_op = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
        delta_hs = float(np.linalg.norm(diff))
        errors = aligned_eigen_data(perturbed, theta, vecs, vecs_tilde, delta_op)
        return cls(theta, vecs, theta_tilde, vecs_tilde, delta_op, delta_hs, **errors)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def eigensolver_gap_floor(theta: np.ndarray) -> float:
    """Smallest gap at which rounding in the eigenvectors fits in `_SLACK`.

    LAPACK's symmetric eigensolver is backward stable: the eigenpairs it
    returns for T are exact for some T + E with ||E|| of order
    dim * eps * ||T||, where ||T|| = theta_max, and that is also its
    absolute eigenvalue error.  Such an E turns the computed e_k by an
    angle of up to ||E|| / gap_k, so every coordinate of `err`, `lead` and
    `rem` in column k carries rounding of that size whatever the true
    perturbation.  The bounds are checked with an absolute slack of
    `_SLACK`, so column k says something about the perturbation only when
    dim * eps * theta_max / gap_k <= _SLACK, that is, when gap_k exceeds
    dim * eps * theta_max / _SLACK.  For dim <= 12 and theta_max = 1 the
    floor is under 3e-5, below every gap of the spectrum k^-2.
    """
    theta_max = float(np.max(np.abs(theta), initial=0.0))
    return theta.shape[0] * np.finfo(float).eps * theta_max / _SLACK


def aligned_eigen_data(perturbed, theta, vecs, vecs_tilde, delta_op: float) -> dict:
    """The eigenvector-error fields of a `PerturbationPair`, by field name."""
    d = theta.shape[0]
    overlap = np.einsum("ij,ij->j", vecs, vecs_tilde)
    signs = np.where(overlap >= 0.0, 1.0, -1.0)  # sign(0) := +1
    aligned = vecs.T @ (vecs_tilde * signs)
    err = aligned - np.eye(d)
    mid = vecs.T @ perturbed @ vecs
    denom = theta[None, :] - theta[:, None]  # theta_k - theta_j at (j, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = np.where(np.eye(d, dtype=bool), 0.0, mid / denom)
    gap_table = np.abs(denom)
    np.fill_diagonal(gap_table, np.inf)
    gaps = gap_table.min(axis=0)
    return dict(
        aligned=aligned,
        err=err,
        lead=lead,
        rem=err - lead,
        gap_table=gap_table,
        gaps=gaps,
        admissible=(gaps > 5.0 * delta_op) & (gaps > eigensolver_gap_floor(theta)),
    )


def check_eigenvalue_bound(pair: PerturbationPair) -> tuple[float, bool]:
    """Each eigenvalue moves by at most the change's norms: (largest move, passed)."""
    err = float(np.max(np.abs(pair.theta - pair.theta_tilde)))
    return err, err <= pair.delta_op + _SLACK and err <= pair.delta_hs + _SLACK


def check_eigenvector_bound(pair: PerturbationPair) -> np.ndarray:
    """Aligned eigenvector error within 3x its first-order size.

    Returns a boolean array over k: whether ||f_k|| <= 3 ||L_k||.  An
    index without the gap hypothesis (`admissible`) passes by convention.
    """
    err_norm = np.linalg.norm(pair.err, axis=0)
    lead_norm = np.linalg.norm(pair.lead, axis=0)
    return ~pair.admissible | (err_norm <= 3.0 * lead_norm + _SLACK)


def check_eigenvector_remainder(pair: PerturbationPair) -> np.ndarray:
    """Remainder after removing the first-order eigenvector error.

    Its coordinate along e_k equals -||f_k||^2 / 2 exactly (a sign-
    alignment identity), and the coordinate along e_j is bounded by
    5 delta ||L_k|| / |theta_k - theta_j|.  Returns a boolean array over
    k: whether the identity holds within `_DIAG_TOL` and no j != k
    overshoots its bound.  An index without the gap hypothesis passes by
    convention.
    """
    err_sq = np.einsum("jk,jk->k", pair.err, pair.err)
    diag_abs_err = np.abs(np.diagonal(pair.rem) + 0.5 * err_sq)
    lead_norm = np.linalg.norm(pair.lead, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a tie gives an inf or NaN budget
        budget = 5.0 * pair.delta_op * lead_norm / pair.gap_table
        excess = np.abs(pair.rem) - budget
    np.fill_diagonal(excess, -np.inf)
    return ~pair.admissible | ((diag_abs_err <= _DIAG_TOL) & (excess.max(axis=0) <= _SLACK))


# a tie makes `lead` inf or NaN, only at indices the gap hypothesis rejects
@np.errstate(divide="ignore", invalid="ignore")
def check_projection_bound(pair: PerturbationPair, j_set, b) -> tuple[bool, float, bool, float]:
    """Spectral-projection error applied to a fixed coefficient vector.

    With J the projected index set and B = sum_k b_k e_k, the exact
    difference D = (H~_J - H_J) B splits as D = M + rho where M collects
    the first-order cross terms between J and its complement and rho is
    built from the aligned remainder quantities.  Returns
    `(admissible, identity_err, identity_passed, ratio)`: whether every
    index in J has the gap hypothesis, the exact identity's error and
    whether it is within `_IDENTITY_TOL`, and the ratio of ||rho||^2 to
    its envelope R1 + delta^2 R2.  The envelope holds up to a universal
    constant, so the ratio is reported rather than asserted.
    """
    d = pair.dim
    j_idx = np.asarray(sorted(set(int(j) for j in j_set)), dtype=int)
    if j_idx.size == 0 or j_idx.min() < 0 or j_idx.max() >= d:
        raise ValueError("projection index set out of range")
    b = np.asarray(b, dtype=float)
    if b.shape != (d,):
        raise ValueError("coefficient vector must match the matrix dimension")
    mask = np.zeros(d, dtype=bool)
    mask[j_idx] = True
    admissible = bool(np.all(pair.admissible[mask]))

    # exact projection difference, expressed in base eigencoordinates
    b_orig = pair.vecs @ b
    proj_base = pair.vecs[:, mask] @ (pair.vecs[:, mask].T @ b_orig)
    proj_pert = pair.vecs_tilde[:, mask] @ (pair.vecs_tilde[:, mask].T @ b_orig)
    diff = pair.vecs.T @ (proj_pert - proj_base)

    # first-order cross terms; the J x J block cancels by antisymmetry
    lead = pair.lead  # lead[j, k] = <e_j, first-order error of evec k>
    main = np.zeros(d)
    main[mask] = lead.T[mask][:, ~mask] @ b[~mask]
    main[~mask] = lead[~mask][:, mask] @ b[mask]

    # residual assembled from the aligned decomposition:
    # sum over k in J of [ s_k e~_k <r_k, B> + f_k <L_k, B> + r_k b_k ]
    cross = lead[:, mask].T @ b  # <L_k, B> for k in J
    rho = (
        pair.aligned[:, mask] @ (pair.rem[:, mask].T @ b)
        + pair.err[:, mask] @ cross
        + pair.rem[:, mask] @ b[mask]
    )
    identity_err = float(np.linalg.norm(diff - main - rho))
    rho_sq = float(np.dot(rho, rho))

    lead_norms_sq = np.einsum("jk,jk->k", lead[:, mask], lead[:, mask])
    r1 = float(np.sum(lead_norms_sq)) * float(np.sum(cross**2))
    # C order: the product below sums in layout order, and perturb_check.csv pins its bits
    inv_gap = np.ascontiguousarray(1.0 / pair.gap_table[:, mask])
    term1 = float(np.sum(lead_norms_sq * (np.abs(b) @ inv_gap) ** 2))
    term2 = float(np.sum(np.sqrt(lead_norms_sq) * np.abs(b[mask]) * inv_gap.sum(axis=0)) ** 2)
    term3 = float(np.sum(lead_norms_sq * b[mask] ** 2 / pair.gaps[mask] ** 2))
    envelope = r1 + pair.delta_op**2 * (term1 + term2 + term3)

    if envelope > 0:
        ratio = rho_sq / envelope
    else:
        ratio = 0.0 if rho_sq == 0.0 else math.inf
    return admissible, identity_err, identity_err <= _IDENTITY_TOL, ratio


def _haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


class Verdict(NamedTuple):
    """`statistic` against `bound`, judged on `checked` items; `n` and `x` locate the check."""

    check: str
    statistic: float
    bound: float
    checked: int
    passed: bool
    n: int | str = ""
    x: float | str = ""


def random_perturbation_suite(
    reps: int = 500,
    max_dim: int = 12,
    seed: int = 0,
    alpha: float = 2.0,
) -> tuple[list[dict], list[Verdict]]:
    """Randomized certification suite over rotated decaying spectra.

    Each instance draws a dimension in [4, max_dim], a Haar-rotated base
    matrix with eigenvalues k^-alpha, and a normalized symmetric
    perturbation at a size cycling through {0.001, 0.01, 0.05 * min
    adjacent gap}, capped so the perturbed matrix stays PSD.  Indices
    failing the gap hypothesis are skipped and counted.  Returns one row
    per instance and four verdicts, each a violation count against bound 0.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if max_dim < 4:
        raise ValueError("max_dim must be at least 4")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    # the PSD cap 0.9 * dim^-alpha must be a normal float at every dim, or eps underflows
    if 0.9 * float(max_dim) ** -alpha < np.finfo(float).tiny:
        raise ValueError(
            f"alpha={alpha} is too large for dimensions up to {max_dim}: the perturbation size "
            f"0.9 * {max_dim}^-alpha falls below the smallest normal float, so no instance "
            "would be perturbed"
        )
    rng = np.random.default_rng(seed)
    rows = []
    proj_id_fail = 0
    for idx in range(reps):
        dim = int(rng.integers(4, max_dim + 1))
        spectrum = np.arange(1, dim + 1, dtype=float) ** -alpha
        rot = _haar_orthogonal(dim, rng)
        base = (rot * spectrum) @ rot.T
        base = 0.5 * (base + base.T)
        raw = rng.standard_normal((dim, dim))
        sym = 0.5 * (raw + raw.T)
        sym /= np.max(np.abs(np.linalg.eigvalsh(sym)))
        min_gap = float(np.min(spectrum[:-1] - spectrum[1:]))
        eps_sweep = (0.001, 0.01, 0.05 * min_gap)
        eps = eps_sweep[idx % 3]
        eps = min(eps, 0.9 * spectrum[-1])  # keep the perturbed matrix PSD
        pair = PerturbationPair.from_matrices(base, base + eps * sym)

        eval_err, eval_passed = check_eigenvalue_bound(pair)
        checked = int(np.count_nonzero(pair.admissible))
        vec_viol = int(np.count_nonzero(~check_eigenvector_bound(pair)))
        rem_viol = int(np.count_nonzero(~check_eigenvector_remainder(pair)))
        coeff = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0) * np.arange(
            1, dim + 1, dtype=float
        ) ** -3.0
        proj_admissible, proj_err, proj_passed, proj_ratio = check_projection_bound(
            pair, (0, 1), coeff
        )
        proj_id_fail += int(proj_admissible and not proj_passed)
        rows.append(
            {
                "instance": idx,
                "dim": dim,
                "eps": eps,
                "delta_op": pair.delta_op,
                "delta_hs": pair.delta_hs,
                "eval_max_err": eval_err,
                "eval_passed": int(eval_passed),
                "evec_checked": checked,
                "evec_violations": vec_viol,
                "rem_checked": checked,
                "rem_violations": rem_viol,
                "proj_admissible": int(proj_admissible),
                "proj_identity_err": proj_err,
                "proj_ratio": proj_ratio if proj_admissible else float("nan"),
            }
        )

    def total(key):
        return sum(row[key] for row in rows)

    def count(check, violations, checked):
        return Verdict(check, violations, 0, checked, violations == 0)

    checked = total("evec_checked")
    return rows, [
        count("eigenvalue", reps - total("eval_passed"), reps),
        count("eigenvector", total("evec_violations"), checked),
        count("remainder", total("rem_violations"), checked),
        count("projection_identity", proj_id_fail, total("proj_admissible")),
    ]


# Tolerances of the linearization check: the residual bound eps1 and the
# probability budget eps2.
_EPS1 = 0.5
_EPS2 = 0.1


def _intercept_and_slopes(gamma) -> np.ndarray:
    """`gamma` as a float vector, refused unless it holds an intercept and a slope."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or gamma.shape[0] < 2:
        raise ValueError("gamma must be a vector of an intercept and at least one slope")
    return gamma


def check_mle_linearization(
    n: int,
    family: ExpFamilySpec,
    gamma,
    seed: int = 0,
    reps: int = 300,
    score_scale: float = 1.0,
    score_dist: str = "gaussian",
) -> tuple[int, int, int, float, float]:
    """Monte Carlo check of the one-step likelihood linearization.

    The truth `gamma` holds the intercept and N >= 1 slopes.  Per
    replication, a fresh design xi_i = (1, z_i) is drawn, the exact
    information J = sum_i d2psi(lam_i) xi_i xi_i' is formed at the true
    lam_i = <xi_i, gamma>, and the standardized design w_i = J^{-1/2}
    xi_i is tested against the smallness hypothesis max_i |w_i| <=
    eps1 * eps2 / (2 G(1) (N+1)).  On replications where that and the
    score-norm event |W| <= sqrt((N+1)/eps2) both hold, the distance
    between J^{1/2}(g_hat - gamma) and the score W must not exceed eps1;
    the rate of violations is to stay within the probability allowance
    2 * eps2 plus binomial slack.  eps1 and eps2 are `_EPS1` and `_EPS2`.
    Returns `(design_ok, satisfied, violations, allowance, max_residual)`,
    the counts of replications with the design hypothesis, with both and
    with a violation among those, the allowance of violations / satisfied,
    and the largest residual of all.  With no replication satisfying the
    hypotheses (small samples) the result is informational.
    """
    gamma = _intercept_and_slopes(gamma)
    n_components = gamma.shape[0] - 1
    if score_dist not in ("gaussian", "rademacher"):
        raise ValueError("score_dist must be 'gaussian' or 'rademacher'")
    rng = np.random.default_rng(seed)
    g_one = float(family.envelope(1.0))
    w_budget = _EPS1 * _EPS2 / (2.0 * g_one * (n_components + 1))
    score_budget = math.sqrt((n_components + 1) / _EPS2)

    design_ok = satisfied = violations = 0
    max_residual = 0.0
    for _ in range(reps):
        if score_dist == "gaussian":
            z = rng.standard_normal((n, n_components)) * score_scale
        else:
            z = rng.choice([-1.0, 1.0], size=(n, n_components)) * score_scale
        design = np.column_stack([np.ones(n), z])
        lam = design @ gamma
        weights = family.d2psi(lam)
        info = (design * weights[:, None]).T @ design
        vals, vecs = np.linalg.eigh(info)
        if np.min(vals) <= 0:
            raise ValueError("information matrix is singular for this design")
        inv_half = (vecs / np.sqrt(vals)) @ vecs.T
        half = (vecs * np.sqrt(vals)) @ vecs.T
        hyp_design = float(np.max(np.linalg.norm(design @ inv_half, axis=1))) <= w_budget

        y = family.sample(lam, rng)
        score = inv_half @ (design.T @ (y - family.dpsi(lam)))
        hyp_score = float(np.linalg.norm(score)) <= score_budget

        fit = fit_mle(y, z, family)
        residual = float(np.linalg.norm(half @ (fit.coefs - gamma) - score))
        max_residual = max(max_residual, residual)
        design_ok += int(hyp_design)
        if hyp_design and hyp_score:
            satisfied += 1
            if residual > _EPS1:
                violations += 1

    allowance = 2.0 * _EPS2
    if satisfied:
        allowance += 4.0 * math.sqrt(2.0 * _EPS2 * (1.0 - 2.0 * _EPS2) / satisfied)
    return design_ok, satisfied, violations, allowance, max_residual


_HERMITE_NODES = 64


def fisher_weight_moments(
    family: ExpFamilySpec, abar: float, kappa: float
) -> tuple[float, float, float]:
    """Moments r_j = E[nu^j d2psi(abar + kappa nu)], nu standard normal.

    Gauss-Hermite quadrature; 64 nodes are far below 1e-10 error for
    the smooth integrands of all supported families.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    x = math.sqrt(2.0) * nodes
    w = weights / math.sqrt(math.pi)
    vals = family.d2psi(abar + kappa * x)
    return (
        float(np.sum(w * vals)),
        float(np.sum(w * x * vals)),
        float(np.sum(w * x * x * vals)),
    )


def expected_fisher(family: ExpFamilySpec, gamma, diag_scale) -> np.ndarray:
    """Exact expectation of the weighted design second-moment matrix.

    For eta = (1, nu_1, ..., nu_N) with iid standard normal entries and
    weight d2psi(<gamma, D eta>), the expectation has a closed form in
    the moments r_0, r_1, r_2 taken along the direction c = gamma * D.
    """
    gamma = np.asarray(gamma, dtype=float)
    diag_scale = np.asarray(diag_scale, dtype=float)
    if gamma.shape != diag_scale.shape or gamma.ndim != 1:
        raise ValueError("gamma and diag_scale must be vectors of equal length")
    p = gamma.shape[0]
    c = gamma * diag_scale
    abar = float(c[0])
    kappa = float(np.linalg.norm(c[1:]))
    r0, r1, r2 = fisher_weight_moments(family, abar, kappa)
    out = np.zeros((p, p))
    out[0, 0] = r0
    if p > 1:
        idx = np.arange(1, p)
        out[idx, idx] = r0
        if kappa > 0:
            unit = c[1:] / kappa
            out[0, 1:] = r1 * unit
            out[1:, 0] = r1 * unit
            out[1:, 1:] += (r2 - r0) * np.outer(unit, unit)
    return out


def require_fisher_reps(reps: int) -> None:
    """Refuse an information-matrix replication count below 2."""
    if reps < 2:
        raise ValueError(f"information-matrix reps must be at least 2, got {reps}")


def require_chisq_reps(reps: int) -> None:
    """Refuse a maximal-inequality replication count below 1."""
    if reps < 1:
        raise ValueError(f"maximal-inequality reps must be at least 1, got {reps}")


def check_fisher_expectation(
    n: int,
    family: ExpFamilySpec,
    gamma,
    diag_scale,
    reps: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo average of A_n against its analytic expectation.

    The design has N = len(gamma) - 1 >= 1 score columns.  Returns
    `(max_abs_z, mean_sq_dev)`: the largest entrywise |z| of the average
    against the expectation, and the mean squared operator norm of
    A_n - E A_n.  The z-scores need a sample standard error, so `reps`
    must be at least 2.
    """
    require_fisher_reps(reps)
    gamma = _intercept_and_slopes(gamma)
    diag_scale = np.asarray(diag_scale, dtype=float)
    expect = expected_fisher(family, gamma, diag_scale)
    c = gamma * diag_scale
    rng = np.random.default_rng(seed)
    p = gamma.shape[0]
    n_components = p - 1
    total = np.zeros((p, p))
    total_sq = np.zeros((p, p))
    dev_sq = 0.0
    for _ in range(reps):
        z = rng.standard_normal((n, n_components))
        lam = c[0] + z @ c[1:]
        weights = family.d2psi(lam)
        design = np.column_stack([np.ones(n), z])
        a_n = (design * weights[:, None]).T @ design / n
        total += a_n
        total_sq += a_n * a_n
        dev_sq += float(np.max(np.abs(np.linalg.eigvalsh(a_n - expect)))) ** 2
    mean = total / reps
    var = np.maximum(total_sq / reps - mean * mean, 0.0) * reps / (reps - 1)
    se = np.sqrt(var / reps)
    z_scores = np.abs(mean - expect) / np.where(se > 0, se, np.inf)
    return float(np.max(z_scores)), dev_sq / reps


_FISHER_INTERCEPT = 0.3  # gamma_0 of every fisher_study instance


def fisher_study(
    family: ExpFamilySpec,
    alpha: float = 2.0,
    beta_s: float = 3.0,
    n_grid=(500, 2000, 8000),
    reps: int = 200,
    seed: int = 0,
) -> list[tuple[int, int, float, float]]:
    """Concentration of A_n across sample sizes, N = floor(n^0.2).

    gamma follows the alternating slope decay and the diagonal scaling
    the eigenvalue square roots, matching how the matrices arise in the
    estimator analysis.  Returns one `(n, N, max_abs_z, mean_sq_dev)` per
    n of `n_grid`, the last two from `check_fisher_expectation`.
    """
    reports = []
    for offset, n in enumerate(n_grid):
        n_comp = int(math.floor(n**0.2))
        k = np.arange(1, n_comp + 1, dtype=float)
        gamma = np.concatenate(
            [[_FISHER_INTERCEPT], np.where(np.arange(n_comp) % 2 == 0, 1.0, -1.0) * k**-beta_s]
        )
        diag_scale = np.concatenate([[1.0], k ** (-alpha / 2.0)])
        z_dev = check_fisher_expectation(n, family, gamma, diag_scale, reps, seed + offset)
        reports.append((n, n_comp, *z_dev))
    return reports


# Replications per chunk.  The chunk size splits the random stream: each
# weight column's (chunk, n) block is drawn in turn, so changing it changes
# the estimates.  Memory is about one chunk x n float64 array.
_CHISQ_CHUNK_REPS = 20_000
# Bytes per slab: a column's block is drawn and accumulated a few rows at a
# time.  Consecutive C-order fills continue the same stream, so the slab
# size never changes a result; it only keeps the scratch buffers in cache.
_CHISQ_SLAB_BYTES = 128 * 1024


def check_chisq_maximal(
    n: int,
    tau,
    x_grid,
    reps: int = 100_000,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """Tail of max_i sum_k tau_ik chi^2 against 2 exp(-x).

    `tau` is either one weight vector shared by all i or an n x K
    matrix; T is the largest row sum.  The exceedance probability at
    threshold 4 T (log n + x) is estimated over `reps` replications.
    Returns one `(estimate, se, bound)` per x of `x_grid`: the estimate,
    its binomial standard error and the bound 2 exp(-x).

    Replications run in chunks of `_CHISQ_CHUNK_REPS`; within a chunk,
    each weight column's normals are drawn and accumulated one slab of
    rows at a time into two reused buffers, so the working memory is one
    chunk x n array of weighted sums plus two slabs.
    """
    require_chisq_reps(reps)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("weights must be nonnegative")
    if tau.ndim == 1:
        weights = np.broadcast_to(tau, (n, tau.shape[0]))
    elif tau.ndim == 2 and tau.shape[0] == n:
        weights = tau
    else:
        raise ValueError("tau must be a vector or an n x K matrix")
    big_t = float(np.max(weights.sum(axis=1)))
    if big_t <= 0:
        raise ValueError("T must be positive")
    x_arr = np.asarray(x_grid, dtype=float)
    thresholds = 4.0 * big_t * (math.log(n) + x_arr)
    rng = np.random.default_rng(seed)
    exceed = np.zeros(x_arr.shape[0], dtype=np.int64)
    slab = max(1, _CHISQ_SLAB_BYTES // (8 * n))
    all_sums = np.empty((min(_CHISQ_CHUNK_REPS, reps), n))
    draw_buf = np.empty(slab * n)
    prod_buf = np.empty(slab * n)
    done = 0
    while done < reps:
        size = min(_CHISQ_CHUNK_REPS, reps - done)
        w_sum = all_sums[:size]
        w_sum.fill(0.0)
        for w_k in weights.T:
            for lo in range(0, size, slab):
                rows = min(slab, size - lo)
                draws = draw_buf[: rows * n].reshape(rows, n)
                prod = prod_buf[: rows * n].reshape(rows, n)
                rng.standard_normal(out=draws)
                np.multiply(w_k, draws, out=prod)
                np.multiply(prod, draws, out=prod)
                w_sum[lo : lo + rows] += prod
        max_w = w_sum.max(axis=1)
        exceed += (max_w[:, None] > thresholds[None, :]).sum(axis=0)
        done += size
    points = []
    for xi, count in zip(x_arr, exceed):
        est = int(count) / reps
        points.append((est, math.sqrt(est * (1.0 - est) / reps), 2.0 * math.exp(-xi)))
    return points
