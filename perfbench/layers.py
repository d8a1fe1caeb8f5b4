"""Per-layer metrics, computed from the spans of the traced rounds.

Names are ``<module>.<function>.<quantity>``.  "Per iteration" divides by the
iterations of every solve in the traced rounds; "share" divides by the traced
solve time (``trace.round_s``).  Layers that every workload runs report time
per iteration.  Layers that only some workloads run (LADMM, degree-3, masked
shrinkage, file I/O, the CLI) report their call count and share instead, so
that no time metric reads a constant zero on a workload that skips them.
"""

from __future__ import annotations

import statistics

from spans import summarise
from workloads import VARIANTS

MS_PER_ITER = (
    "tensor.reconstruct",
    "tensor.l1",
    "linalg.soft_shrink",
    "linalg.stein_factors",
    "admm.update_E",
    "admm.update_A",
    "admm.update_B",
    "admm.update_K",
    "admm.update_R",
    "admm.update_duals",
    "admm.residuals",
)
SELF_MS_PER_ITER = ("admm.solve", "variants.solve_variant")
CALLS_PER_ITER = (
    "tensor.reconstruct",
    "linalg.soft_shrink",
    "linalg.selective_shrink",
    "linalg.symmetric_eig",
    "linalg.top_singular_value",
)
SHARE = (
    "linalg.selective_shrink",
    "linalg.top_singular_value",
    "linalg.schatten_prox",
    "linalg.frobenius_prox",
    "variants.ladmm_update_A",
    "variants.ladmm_update_B",
    "variants.ladmm_update_R",
    "variants.lipschitz_core",
    "variants.lipschitz_a",
    "variants.lipschitz_b",
    "variants.degree3_update_U",
    "variants.degree3_update_V",
    "variants.degree3_update_A_sub",
    "variants.degree3_update_B_sub",
    "fileio.read_rkt",
    "fileio.write_rkt",
)
# Self time of every traced function of the module, as a share.
MODULE_SELF_SHARE = ("cli",)
# Mean time per call, over every call in the traced rounds.
MS_PER_CALL = ("admm.initialize", "model.RunReport.to_dict", "data.metrics")
# Mean time per call during set-up.
SETUP_MS_PER_CALL = ("data.synth_generate",)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in MS_PER_ITER:
        out[f"{name}.ms_per_iter"] = "ms"
    for name in SELF_MS_PER_ITER:
        out[f"{name}.self_ms_per_iter"] = "ms"
    for name in CALLS_PER_ITER:
        out[f"{name}.calls_per_iter"] = "count"
    out["tensor.reconstruct.mb_per_iter"] = "MB"
    for name in SHARE:
        out[f"{name}.share"] = "frac"
    for module in MODULE_SELF_SHARE:
        out[f"{module}.self_share"] = "frac"
    for name in MS_PER_CALL + SETUP_MS_PER_CALL:
        out[f"{name}.ms"] = "ms"
    out["fileio.read_rkt.mb"] = "MB"
    out["fileio.write_rkt.mb"] = "MB"
    out["admm.cond_warnings"] = "count"
    out["model.report_kb"] = "KB"
    for variant in VARIANTS:
        out[f"variants.iters.{variant}"] = "count"
    out["trace.round_s"] = "s"
    out["trace.overhead_frac"] = "frac"
    return out


def _in_solve(span):
    return span.solve_id is not None


def compute(setup_spans, traced_rounds, overhead_ratios):
    """Per-layer values from traced rounds: a list of (spans, results)."""
    in_solve, anywhere = {}, {}
    for spans, _ in traced_rounds:
        for target, keep in ((in_solve, _in_solve), (anywhere, None)):
            for name, row in summarise(spans, keep).items():
                acc = target.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    acc[key] += value
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "mb": 0.0}
    solves = [res for _, results in traced_rounds for res in results]
    iters = max(1, sum(res.iterations for res in solves))  # 0 only if every solve failed
    n_rounds = len(traced_rounds)
    solve_s = in_solve.get("bench.solve", empty)["s"]

    def row(name, table=in_solve):
        return table.get(name, empty)

    values = {}
    for name in MS_PER_ITER:
        values[f"{name}.ms_per_iter"] = 1e3 * row(name)["s"] / iters
    for name in SELF_MS_PER_ITER:
        values[f"{name}.self_ms_per_iter"] = 1e3 * row(name)["self_s"] / iters
    for name in CALLS_PER_ITER:
        values[f"{name}.calls_per_iter"] = row(name)["calls"] / iters
    values["tensor.reconstruct.mb_per_iter"] = row("tensor.reconstruct")["mb"] / iters
    for name in SHARE:
        values[f"{name}.share"] = row(name)["s"] / solve_s
    for module in MODULE_SELF_SHARE:
        self_s = sum(r["self_s"] for name, r in in_solve.items() if name.startswith(module + "."))
        values[f"{module}.self_share"] = self_s / solve_s
    for name in MS_PER_CALL:
        r = row(name, anywhere)
        values[f"{name}.ms"] = 1e3 * r["s"] / r["calls"] if r["calls"] else 0.0
    setup = summarise(setup_spans)
    for name in SETUP_MS_PER_CALL:
        r = setup.get(name, empty)
        values[f"{name}.ms"] = 1e3 * r["s"] / r["calls"] if r["calls"] else 0.0
    values["fileio.read_rkt.mb"] = row("fileio.read_rkt")["mb"] / n_rounds
    values["fileio.write_rkt.mb"] = row("fileio.write_rkt")["mb"] / n_rounds
    values["admm.cond_warnings"] = sum(res.cond_warnings for res in solves) / n_rounds
    values["model.report_kb"] = statistics.mean(res.report_kb for res in solves)
    first = {res.variant: res.iterations for res in traced_rounds[0][1]}
    for variant in VARIANTS:
        values[f"variants.iters.{variant}"] = first.get(variant, 0)
    values["trace.round_s"] = solve_s / n_rounds
    values["trace.overhead_frac"] = statistics.median(overhead_ratios) - 1.0
    units = metric_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
