"""Spans around fglm's public functions, installed from outside the package.

`from .x import f` copies the binding of `f` into the importing module: a
replication looks up `fglm.harness.sample_dataset`, not
`fglm.datagen.sample_dataset`.  So a function is patched at every attribute
of every loaded `fglm` module that is bound to it.  Spans stay in memory; the caller
writes them out when the run ends.  An untraced run never constructs a
Tracer, so it patches nothing.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in a traced run.  Everything the
# per-layer table of README.md names; `cli.main` spans are split by
# subcommand and `harness._replication_task` is the replication root.
TRACED = (
    ("datagen", "make_ground_truth"),
    ("datagen", "sample_dataset"),
    ("expfam", "sample_response"),
    ("fpca", "sample_mean"),
    ("fpca", "sample_cov"),
    ("fpca", "eigendecompose"),
    ("fpca", "compute_scores"),
    ("fpca", "spectral_estimate"),
    ("estimator", "estimate_slope"),
    ("estimator", "fit_mle"),
    ("estimator", "loss"),
    ("harness", "run_rate_study"),
    ("harness", "write_csv"),
    ("spectral_diag", "random_perturbation_suite"),
    ("spectral_diag", "aligned_eigen_data"),
    ("spectral_diag", "check_eigenvalue_bound"),
    ("spectral_diag", "check_eigenvector_bound"),
    ("spectral_diag", "check_eigenvector_remainder"),
    ("spectral_diag", "check_projection_bound"),
    ("spectral_diag", "fisher_study"),
    ("spectral_diag", "check_fisher_expectation"),
    ("spectral_diag", "check_chisq_maximal"),
    ("lowerbound", "affinity_study"),
    ("lowerbound", "affinity_detail"),
    ("expfam", "hellinger_sq_exact"),
    ("expfam", "verify_envelope"),
    ("funcspace", "evaluate_on_grid"),
    ("cli", "main"),
)
REPLICATION = ("harness", "_replication_task")
REPLICATION_SPAN = "harness.replication"


class Tracer:
    """Records one span per call of every traced function.

    A span is the tuple (name, parent index, start, end, replication id,
    sample size n); the parent index is -1 for a root span.  The sample
    size is taken from a `Dataset` first argument and otherwise inherited
    from the parent span, which splits the fpca layer by n.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._replications = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each fglm attribute bound to it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fglm" or name.startswith("fglm."))
        }
        wrappers = {}
        for mod_name, fn_name in TRACED + (REPLICATION,):
            original = getattr(modules["fglm." + mod_name], fn_name)
            span = REPLICATION_SPAN if (mod_name, fn_name) == REPLICATION else f"{mod_name}.{fn_name}"
            wrappers[id(original)] = (original, self._wrap(span, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        is_cli = name == "cli.main"
        is_rep = name == REPLICATION_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            span_name = name
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.main.{argv[0] if argv else 'none'}"
            if is_rep:
                rep = self._replications
                self._replications += 1
            else:
                rep = self.spans[parent][4] if parent >= 0 else None
            size = getattr(args[0], "n", None) if args else None
            if not isinstance(size, int):
                size = self.spans[parent][5] if parent >= 0 else None
            index = len(self.spans)
            record = [span_name, parent, time.perf_counter(), None, rep, size]
            self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return traced


# -- computed counts ----------------------------------------------------
# Each hook derives a count from a traced call's arguments and result, so
# the counts repeat exactly for the same inputs.


def _count_normals(counts, args, result):
    counts["datagen.normals_drawn"] += args["n"] * args["gt"].k_trunc


def _count_cov(counts, args, result):
    ds = args["ds"]
    counts["fpca.cov_flops"] += ds.n * ds.k_trunc**2


def _count_scores(counts, args, result):
    counts["fpca.score_columns_computed"] += args["n_components"]


def _count_fit(counts, args, result):
    counts["fpca.score_columns_used"] += args["scores"].shape[1]
    counts["estimator.newton_iters"] += result.iterations
    counts["estimator.nonconverged"] += 0 if result.converged else 1


def _count_chisq(counts, args, result):
    tau = args["tau"]
    k = len(tau) if getattr(tau, "ndim", 1) == 1 else tau.shape[1]
    draws = args["reps"] * args["n"] * k
    counts["spectral_diag.chisq_draws"] += draws
    counts["spectral_diag.chisq_bytes_computed"] += 8 * draws


def _count_csv_bytes(counts, args, result):
    counts["harness.write_csv.bytes"] += os.path.getsize(args["path"])


_HOOKS = {
    "datagen.sample_dataset": _count_normals,
    "fpca.sample_cov": _count_cov,
    "fpca.compute_scores": _count_scores,
    "estimator.fit_mle": _count_fit,
    "spectral_diag.check_chisq_maximal": _count_chisq,
    "harness.write_csv": _count_csv_bytes,
}


# -- analysis -----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[2], span[3]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[2], span[3]
        out.append((end - start) - _covered(children.get(index, ()), start, end))
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

