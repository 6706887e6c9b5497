"""The benchmark's workloads: the fglm commands each runs and how to check them.

Every workload is a list of `fglm` command lines, run in one process
through `fglm.cli.main` exactly as a user would type them.  The `--seed`
given to the benchmark is passed to every command; without it each
command keeps its stock seed, and only then do its outputs have to match
the reference hashes in `reference.json`.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass

CONFIGS = "scripts/configs"
GAUSSIAN = f"{CONFIGS}/gaussian_beta3.cfg"
POISSON = f"{CONFIGS}/poisson_beta3.cfg"
STOCK_CONFIG_SEED = 6  # `seed =` in every stock config
RATE_BAND = 0.15  # run_rate_studies.py's SLOPE_BAND for the beta_s = 3 studies

# Truncation levels (m, N) the tuning rule gives at alpha = 2, beta_s = 3.
STOCK_TRUNCATION = {500: (2, 5), 1000: (2, 6), 2000: (3, 6), 4000: (3, 7)}

# Why each workload exists; copied into BENCHMARK.json.  study-poisson-j2
# runs (--workload study-poisson-j2, or all) but is not in BENCHMARK.json:
# its wall time varies 2-3x between runs (README.md, "Findings").
WHY = {
    "study-gaussian": "gaussian rate study at --jobs 1: datagen draws and fpca dominate, one Newton step per fit, no process pool",
    "certify": "perturb-check, lower-bound and diagnostics: spectral_diag, lowerbound and expfam only, none of the study layers",
    "csv-roundtrip": "generate Bernoulli data to CSV and estimate it: the CSV writer and parser and one large multi-step Newton fit",
    "study-poisson-j2": "Poisson rate study at --jobs 2: the harness process pool with forked BLAS threads, 6 Newton steps per fit",
}
GATED = ("study-gaussian", "certify", "csv-roundtrip")
ALL = GATED + ("study-poisson-j2",)

# Sizes.  "stock" is what the stock configs and the CLI defaults give; the
# traced run measures it.  "bench" is the size untraced runs time: about a
# fifth of stock, so that one run times a dozen executions and reports
# their median (README.md, "Steadiness").  "tiny" is for the tests.
SIZES = {
    "stock": {"study": {}, "perturb_reps": 500, "lower": ("100,1000,10000", 200),
              "diag": (200, 100_000), "rows": 20000},
    "bench": {"study": {"reps": "20"}, "perturb_reps": 100, "lower": ("100,1000,10000", 50),
              "diag": (200, 10_000), "rows": 4000},
    "tiny": {"study": {"reps": "3", "n_grid": "60, 120, 240", "K_trunc": "30"}, "perturb_reps": 12,
             "lower": ("100,200", 10), "diag": (40, 5000), "rows": 300},
}


@dataclass(frozen=True)
class Command:
    label: str  # key into reference.json
    argv: tuple[str, ...]
    at_stock_seed: bool
    outputs: tuple[str, ...]  # files written into the out directory


@dataclass(frozen=True)
class Plan:
    """One workload at one seed and size: its commands and what to check."""

    workload: str
    seed: int | None
    size: str
    out: str  # output directory, relative to the checkout root
    commands: tuple[Command, ...]
    configs: tuple[str, ...]  # config files the process loads at set-up
    jobs: int

    def with_jobs(self, jobs: int) -> "Plan":
        """The same plan with every `--jobs` value replaced."""
        if jobs == self.jobs:
            return self
        commands = tuple(
            Command(c.label, _replace_flag(c.argv, "--jobs", str(jobs)), c.at_stock_seed, c.outputs)
            for c in self.commands
        )
        return Plan(self.workload, self.seed, self.size, self.out, commands, self.configs, jobs)


def _replace_flag(argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return tuple(argv)


def _seed_args(seed):
    return () if seed is None else ("--seed", str(seed))


def _at_stock(seed, stock):
    return seed is None or seed == stock


def sized_config(stock_path: str, overrides: dict, work: str) -> str:
    """The stock config, or a copy of it in `work` with `overrides` applied."""
    if not overrides:
        return stock_path
    with open(stock_path, encoding="utf-8") as fh:
        text = fh.read()
    for key, value in overrides.items():
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    dest = os.path.join(work, os.path.basename(stock_path))
    os.makedirs(work, exist_ok=True)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
    return dest


def plan(workload: str, seed: int | None, work: str, size: str = "bench") -> Plan:
    """Build the command lines of `workload`; `work` is a scratch directory."""
    out = os.path.join(work, "out")
    dims = SIZES[size]
    if workload in ("study-gaussian", "study-poisson-j2"):
        stock, jobs = (GAUSSIAN, 1) if workload == "study-gaussian" else (POISSON, 2)
        config = sized_config(stock, dims["study"], work)
        argv = ("rate-study", "--config", config, "--out", out, "--jobs", str(jobs),
                "--per-replication", *_seed_args(seed))
        files = ("rate_study.csv", "slope.csv", "perreplication.csv")
        commands = (Command("rate-study", argv, _at_stock(seed, STOCK_CONFIG_SEED), files),)
        return Plan(workload, seed, size, out, commands, (config,), jobs)
    if workload == "certify":
        n_grid, n_mc = dims["lower"]
        fisher, chisq = dims["diag"]
        commands = (
            Command("perturb-check",
                    ("perturb-check", "--reps", str(dims["perturb_reps"]), "--out", out,
                     *_seed_args(seed)),
                    _at_stock(seed, 0), ("perturb_check.csv",)),
            Command("lower-bound",
                    ("lower-bound", "--config", GAUSSIAN, "--n-grid", n_grid, "--n-mc", str(n_mc),
                     "--out", out, *_seed_args(seed)),
                    _at_stock(seed, STOCK_CONFIG_SEED), ("affinity.csv",)),
            Command("diagnostics",
                    ("diagnostics", "--config", GAUSSIAN, "--fisher-reps", str(fisher),
                     "--chisq-reps", str(chisq), "--out", out, *_seed_args(seed)),
                    _at_stock(seed, STOCK_CONFIG_SEED), ()),
        )
        return Plan(workload, seed, size, out, commands, (GAUSSIAN,), 1)
    if workload == "csv-roundtrip":
        data = os.path.join(out, "data.csv")
        stock = _at_stock(seed, 0)  # estimate's output follows the data's seed
        commands = (
            Command("generate", ("generate", "--family", "bernoulli", "--n", str(dims["rows"]),
                                 "--out", data, *_seed_args(seed)), stock, ("data.csv",)),
            Command("estimate", ("estimate", "--data", data, "--family", "bernoulli", "--out", out),
                    stock, ("estimate_coefs.csv", "estimate_grid.csv")),
        )
        return Plan(workload, seed, size, out, commands, (), 1)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(ALL)}")


# -- outputs -------------------------------------------------------------


def digests(p: Plan, stdouts) -> dict:
    """sha256 of every command's stdout and output files, by command label."""
    out = {}
    for cmd, text in zip(p.commands, stdouts):
        entry = {"stdout": hashlib.sha256(text.encode()).hexdigest()}
        for name in cmd.outputs:
            entry[name] = _sha256_file(os.path.join(p.out, name))
        out[cmd.label] = entry
    return out


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def compare_reference(p: Plan, got: dict, reference: dict) -> list[str]:
    """Mismatches against the stored reference, for commands at their stock seed."""
    if p.size == "tiny":
        return []
    problems = []
    for cmd in p.commands:
        if not cmd.at_stock_seed:
            continue
        want = reference.get(p.size, {}).get(p.workload, {}).get(cmd.label)
        if want is None:
            problems.append(f"{cmd.label}: no reference outputs stored")
            continue
        for name, digest in want.items():
            if got.get(cmd.label, {}).get(name) != digest:
                problems.append(f"{cmd.label}: {name} differs from the reference")
    return problems


# -- correctness checks that hold at any seed -------------------------------


def check(p: Plan, stdouts) -> list[str]:
    """Problems found in the outputs of one run of `p` (empty when correct)."""
    if p.workload.startswith("study-"):
        return _check_study(p)
    if p.workload == "certify":
        return _check_certify(p, stdouts)
    return _check_roundtrip(p, stdouts)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def read_config(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    return values


def _check_study(p: Plan) -> list[str]:
    cfg = read_config(p.commands[0].argv[2])
    grid = [int(v) for v in cfg["n_grid"].split(",")]
    reps = int(cfg["reps"])
    master = int(cfg["seed"]) if p.seed is None else p.seed
    problems = []

    header, rows = _read_csv(os.path.join(p.out, "perreplication.csv"))
    if header != ["n", "rep", "seed", "loss", "iterations", "converged"]:
        return [f"perreplication.csv header {header}"]
    expected = [(n, rep) for n in grid for rep in range(reps)]
    if [(int(r[0]), int(r[1])) for r in rows] != expected:
        return ["perreplication.csv rows are not the (n, rep) grid in order"]
    for r in rows:
        n_idx, rep = grid.index(int(r[0])), int(r[1])
        if int(r[2]) != (master ^ _splitmix64((n_idx << 32) | rep)) & _MASK64:
            problems.append(f"replication seed differs at n={r[0]} rep={r[1]}")
            break
        if not (math.isfinite(float(r[3])) and float(r[3]) > 0 and r[5] in ("0", "1")):
            problems.append(f"bad replication row {r}")
            break

    header, points = _read_csv(os.path.join(p.out, "rate_study.csv"))
    if [int(r[3]) for r in points] != grid:
        return problems + [f"rate_study.csv n column {[r[3] for r in points]} != {grid}"]
    for point in points:
        n = int(point[3])
        chunk = [r for r in rows if int(r[0]) == n]
        losses = [float(r[3]) for r in chunk]
        mean = math.fsum(losses) / len(losses)
        if int(point[4]) != reps or not math.isclose(float(point[7]), mean, rel_tol=1e-12):
            problems.append(f"rate_study.csv n={n}: reps or mise_mean disagrees with perreplication.csv")
        if int(point[9]) != sum(1 for r in chunk if r[5] == "0"):
            problems.append(f"rate_study.csv n={n}: nonconverged disagrees with perreplication.csv")
        want = STOCK_TRUNCATION.get(n)
        if want is not None and (int(point[5]), int(point[6])) != want:
            problems.append(f"rate_study.csv n={n}: (m, N) = ({point[5]}, {point[6]}), expected {want}")

    _, slope_rows = _read_csv(os.path.join(p.out, "slope.csv"))
    slope, _, theory = (float(v) for v in slope_rows[0])
    x = [math.log(int(r[3])) for r in points]
    y = [math.log(float(r[7])) for r in points]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    ols = sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x)
    alpha, beta = float(cfg["alpha"]), float(cfg["beta_s"])
    if not math.isclose(slope, ols, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"slope.csv slope {slope} is not the log-log OLS slope {ols}")
    if not math.isclose(theory, (1 - 2 * beta) / (alpha + 2 * beta), rel_tol=1e-15):
        problems.append(f"slope.csv theoretical {theory} is wrong")
    if p.commands[0].at_stock_seed and p.size == "stock" and abs(slope - theory) > RATE_BAND:
        problems.append(f"|fitted - theoretical| = {abs(slope - theory):.4f} > {RATE_BAND} at the stock seed")
    return problems


def solver_totals(p: Plan) -> dict:
    """Newton iterations and non-converged fits summed over perreplication.csv."""
    _, rows = _read_csv(os.path.join(p.out, "perreplication.csv"))
    return {
        "estimator.newton_iters": sum(int(r[4]) for r in rows),
        "estimator.nonconverged": sum(1 for r in rows if r[5] == "0"),
    }


def refit_job(p: Plan):
    """What child.py refits after a study: two replications chosen by the seed."""
    if not p.workload.startswith("study-"):
        return None
    config = p.commands[0].argv[2]
    cfg = read_config(config)
    grid_len, reps = len(cfg["n_grid"].split(",")), int(cfg["reps"])
    salt = 0 if p.seed is None else p.seed
    spots = [(grid_len - 1, salt % reps), (salt % grid_len, reps - 1)]
    return {"config": config, "seed": p.seed, "spots": spots}


def refit_losses(config, seed, spots):
    """Losses of the given (n index, rep) replications, fitted through fglm's
    public API rather than its harness.  Runs inside child.py, untimed."""
    import fglm

    cfg = fglm.load_config(config)
    master = cfg.seed if seed is None else seed
    family = fglm.get_family(cfg.family)
    gt = fglm.make_ground_truth(cfg.alpha, cfg.beta_s, family, k_trunc=cfg.K_trunc,
                                intercept=cfg.a, mu_mode=cfg.mu_mode)
    losses = []
    for n_idx, rep in spots:
        ds = fglm.sample_dataset(gt, cfg.n_grid[n_idx], fglm.replication_seed(master, n_idx, rep))
        fit = fglm.estimate_slope(
            ds, family, cfg.alpha, cfg.beta_s,
            rule=fglm.TuningRule(c_m=cfg.c_m, c_N=cfg.c_N, zeta=cfg.zeta_override),
            config=fglm.NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.newton_max_iter),
        )
        losses.append(format(fglm.loss(fit.slope, gt), ".17g"))
    return losses


def check_refits(p: Plan, losses) -> list[str]:
    """The refitted losses must equal perreplication.csv to all 17 digits.

    For study-poisson-j2 this compares pool-worker results with an
    in-process fit at every seed.
    """
    job = refit_job(p)
    if job is None:
        return []
    if losses is None:
        return ["no refitted losses"]
    _, rows = _read_csv(os.path.join(p.out, "perreplication.csv"))
    reps = int(read_config(job["config"])["reps"])
    problems = []
    for (n_idx, rep), want in zip(job["spots"], losses):
        got = rows[n_idx * reps + rep][3]
        if got != want:
            problems.append(f"loss at n index {n_idx} rep {rep} is {got}, a direct refit gives {want}")
    return problems


def _check_certify(p: Plan, stdouts) -> list[str]:
    problems = []
    reps = SIZES[p.size]["perturb_reps"]
    _, rows = _read_csv(os.path.join(p.out, "perturb_check.csv"))
    if len(rows) != reps:
        problems.append(f"perturb_check.csv has {len(rows)} rows, expected {reps}")
    n_grid = SIZES[p.size]["lower"][0]
    _, rows = _read_csv(os.path.join(p.out, "affinity.csv"))
    if len(rows) != 2 * len(n_grid.split(",")):  # default m = 2 flip coordinates per n
        problems.append(f"affinity.csv has {len(rows)} rows")
    if not stdouts[0].rstrip().endswith("all bounds hold"):
        problems.append("perturb-check did not report that all bounds hold")
    if not stdouts[2].rstrip().endswith("all diagnostics pass"):
        problems.append("diagnostics did not report that all checks pass")
    return problems


def _check_roundtrip(p: Plan, stdouts) -> list[str]:
    problems = []
    rows = SIZES[p.size]["rows"]
    with open(os.path.join(p.out, "data.csv"), "rb") as fh:
        header = fh.readline().decode().rstrip("\n").split(",")
        lines = 1 + sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    if header[:2] != ["y", "lambda"] or len(header) != 202 or lines != rows + 1:
        problems.append(f"data.csv: {len(header)} columns, {lines} lines")
    _, coefs = _read_csv(os.path.join(p.out, "estimate_coefs.csv"))
    _, grid = _read_csv(os.path.join(p.out, "estimate_grid.csv"))
    if len(coefs) != 200 or len(grid) != 201:
        problems.append(f"estimate wrote {len(coefs)} coefficients and {len(grid)} grid values")
    if not all(math.isfinite(float(v)) for _, v in coefs + grid):
        problems.append("estimate wrote a non-finite value")
    if " converged in " not in stdouts[1] or "NOT converged" in stdouts[1]:
        problems.append("estimate did not converge")
    return problems
