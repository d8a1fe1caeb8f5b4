"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import rkca
from rkca import admm, linalg, tensor, variants
from rkca.data import SynthSpec, make_mask, metrics, psnr, synth_generate
from rkca.model import SolverConfig, default_lambda
from rkca.variants import solve_variant

import reference
from conftest import BENCH_SPEC
from reference import LadmmState, schatten_prox, selective_shrink, stein_dense

LAMBDA_SWEEP = (0.25, 0.5, 1.0, 2.0, 4.0)


def criterion(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def sweep_admm2(observed, rank, alpha, factors=LAMBDA_SWEEP, tol=1e-10):
    lam0 = default_lambda(observed.shape)
    runs = []
    for fac in factors:
        cfg = SolverConfig(rank=rank, alpha=alpha, lam=fac * lam0, tol=tol,
                           max_iters=2000)
        start = time.perf_counter()
        model, e_hat, report = solve_variant(observed, cfg)
        runs.append((model, e_hat, report, time.perf_counter() - start))
    return runs


def test_a1_synthetic_recovery_30pct(bench_instance):
    low_rank, sparse, observed = bench_instance
    true_density = np.count_nonzero(sparse) / sparse.size
    best = None
    for model, e_hat, report, elapsed in sweep_admm2(observed, rank=10, alpha=1e-2):
        result = metrics(model.reconstruct(), e_hat, low_rank, sparse)
        ok = (
            result.rel_error_L <= 1e-4
            and result.rel_error_E <= 1e-4
            and abs(result.density_E - true_density) <= 1e-3
            and result.support_f1 >= 0.999
            and elapsed <= 60.0
        )
        if best is None or result.rel_error_L < best[0].rel_error_L:
            best = (result, elapsed, ok)
        if ok:
            best = (result, elapsed, ok)
            break
    result, elapsed, ok = best
    criterion(
        "A1 synthetic recovery 30% corruption",
        ok,
        f"rel_L={result.rel_error_L:.2e} rel_E={result.rel_error_E:.2e} "
        f"density_gap={abs(result.density_E - true_density):.2e} "
        f"F1={result.support_f1:.4f} runtime={elapsed:.1f}s",
    )


def test_a2_synthetic_recovery_60pct():
    spec = SynthSpec(m=50, n=50, n_slices=20, rank_a=5, rank_b=5,
                     p_clean=0.4, seed=BENCH_SPEC.seed)
    low_rank, sparse, observed = synth_generate(spec)
    true_density = np.count_nonzero(sparse) / sparse.size
    best = None
    for model, e_hat, report, elapsed in sweep_admm2(observed, rank=10, alpha=1e-2):
        result = metrics(model.reconstruct(), e_hat, low_rank, sparse)
        ok = (
            result.rel_error_L <= 1e-2
            and abs(result.density_E - true_density) <= 1e-2
        )
        if best is None or result.rel_error_L < best[0].rel_error_L:
            best = (result, ok)
        if ok:
            best = (result, ok)
            break
    result, ok = best
    criterion(
        "A2 synthetic recovery 60% corruption",
        ok,
        f"rel_L={result.rel_error_L:.2e} "
        f"density_gap={abs(result.density_E - true_density):.2e}",
    )


def test_a3_rank_recovery():
    spec = SynthSpec(m=50, n=50, n_slices=20, rank_a=7, rank_b=3,
                     p_clean=0.7, seed=99)
    _, _, observed = synth_generate(spec)
    cfg = SolverConfig(rank=20, alpha=0.1, tol=1e-10, max_iters=2000)
    model, _, _ = solve_variant(observed, cfg)
    s_a = np.linalg.svd(model.a, compute_uv=False)
    s_b = np.linalg.svd(model.b, compute_uv=False)
    ratio_a = s_a[7] / s_a[0]
    ratio_b = s_b[3] / s_b[0]
    criterion(
        "A3 rank recovery",
        ratio_a <= 1e-4 and ratio_b <= 1e-4,
        f"sigma8(A)/sigma1(A)={ratio_a:.2e} sigma4(B)/sigma1(B)={ratio_b:.2e}",
    )


def test_a4_completion():
    spec = SynthSpec(m=50, n=50, n_slices=20, rank_a=5, rank_b=5,
                     p_clean=1.0, seed=4242)
    low_rank, _, observed_full = synth_generate(spec)
    mask = make_mask(observed_full.shape, 0.7, seed=11)
    observed = np.where(mask, observed_full, 0.0)
    cfg = SolverConfig(rank=10, alpha=1e-2, lam=1e4, tol=1e-10,
                       max_iters=2000, mask=mask)
    model, _, report = solve_variant(observed, cfg)
    completed = model.reconstruct()
    hidden = ~mask
    rel_hidden = np.linalg.norm((completed - low_rank)[hidden]) / np.linalg.norm(
        low_rank[hidden]
    )
    span = float(low_rank.max() - low_rank.min())
    gain = psnr(completed, low_rank, span) - psnr(observed, low_rank, span)
    # The penalties grow by rho*rho once E's support size holds, so the run
    # reaches tol within 55 iterations.
    criterion(
        "A4 completion 30% missing",
        rel_hidden <= 0.1 and gain >= 10.0 and report.termination == "tol"
        and report.n_iterations <= 55,
        f"rel_error_unobserved={rel_hidden:.2e} psnr_gain={gain:.1f}dB "
        f"{report.termination} after {report.n_iterations} iterations",
    )


def test_a5_stein_oracle_equivalence():
    rng = np.random.default_rng(55)
    worst_dev = 0.0
    worst_resid = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 17))
        a = rng.standard_normal((r + 2, r))
        b = rng.standard_normal((r + 3, r))
        c = float(rng.uniform(0.1, 10.0))
        gram_a = a.T @ a
        gram_b = b.T @ b
        F = -c * 0.5 * (gram_a + gram_a.T)
        G = 0.5 * (gram_b + gram_b.T)
        H = rng.standard_normal((r, r))
        fast = linalg.stein_apply(linalg.stein_factors(F, G), H)
        dense = stein_dense(F, G, H)
        dev = np.linalg.norm(fast - dense) / max(1.0, np.linalg.norm(dense))
        resid = np.linalg.norm(fast - F @ fast @ G - H) / max(1.0, np.linalg.norm(H))
        worst_dev = max(worst_dev, dev)
        worst_resid = max(worst_resid, resid)
    criterion(
        "A5 Stein oracle equivalence",
        worst_dev <= 1e-8 and worst_resid <= 1e-9,
        f"max_rel_deviation={worst_dev:.2e} max_residual={worst_resid:.2e}",
    )


def test_a6_identity_suite():
    rng = np.random.default_rng(66)
    roundtrip_ok = True
    worst = {"unfold_product": 0.0, "vec_kron": 0.0, "schatten": 0.0}
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        t = rng.standard_normal(dims)
        for mode in (1, 2, 3):
            back = reference.fold(reference.unfold(t, mode), mode, dims)
            roundtrip_ok &= bool(np.array_equal(back, t))

        u1 = rng.standard_normal((int(rng.integers(2, 7)), dims[0]))
        u2 = rng.standard_normal((int(rng.integers(2, 7)), dims[1]))
        prod = reference.mode_product(reference.mode_product(t, u1, 1), u2, 2)
        lhs = reference.unfold(prod, 1)
        rhs = u1 @ reference.unfold(t, 1) @ reference.kronecker(np.eye(dims[2]), u2).T
        worst["unfold_product"] = max(
            worst["unfold_product"], np.linalg.norm(lhs - rhs) / max(1e-30, np.linalg.norm(rhs))
        )

        vec_lhs = reference.vectorize(prod)
        big = reference.kronecker(np.eye(dims[2]), reference.kronecker(u2, u1))
        vec_rhs = big @ reference.vectorize(t)
        worst["vec_kron"] = max(
            worst["vec_kron"],
            np.linalg.norm(vec_lhs - vec_rhs) / max(1e-30, np.linalg.norm(vec_rhs)),
        )

        a = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        b = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        s_kron = np.linalg.svd(reference.kronecker(a, b), compute_uv=False)
        s_a = np.linalg.svd(a, compute_uv=False)
        s_b = np.linalg.svd(b, compute_uv=False)
        for p in (1, 2):
            lhs_p = np.sum(s_kron**p) ** (1 / p)
            rhs_p = np.sum(s_a**p) ** (1 / p) * np.sum(s_b**p) ** (1 / p)
            worst["schatten"] = max(worst["schatten"], abs(lhs_p - rhs_p) / rhs_p)

    ok = roundtrip_ok and all(v <= 1e-9 for v in worst.values())
    criterion(
        "A6 identity suite",
        ok,
        f"roundtrip_bitwise={roundtrip_ok} "
        f"unfold_product={worst['unfold_product']:.2e} "
        f"vec_kron={worst['vec_kron']:.2e} kron_schatten={worst['schatten']:.2e}",
    )


def batched_probe(prox_out, x, penalty_batch, penalty_point, rng, n=1000):
    """Best probe margin: min over random Y of probe objective - prox objective."""
    base = penalty_point(prox_out) + 0.5 * np.sum((prox_out - x) ** 2)
    margins = []
    for scale in (1e-3, 1e-1, 1.0):
        probes = prox_out[None] + scale * rng.standard_normal((n // 3,) + x.shape)
        vals = penalty_batch(probes) + 0.5 * np.sum(
            (probes - x[None]) ** 2, axis=tuple(range(1, x.ndim + 1))
        )
        margins.append(float(np.min(vals) - base))
    return min(margins)


def test_a7_prox_suite():
    rng = np.random.default_rng(77)
    worst_margin = np.inf
    worst_cross = 0.0
    for _ in range(50):
        x = rng.standard_normal((5, 4))
        tau = float(rng.uniform(0.1, 1.5))

        out = linalg.soft_shrink(x, tau)
        worst_margin = min(worst_margin, batched_probe(
            out, x,
            lambda ys: tau * np.sum(np.abs(ys), axis=(1, 2)),
            lambda y: tau * np.sum(np.abs(y)),
            rng,
        ))

        mask = rng.random(x.shape) < 0.6
        if mask.any():
            out = selective_shrink(x, tau, mask)
            worst_margin = min(worst_margin, batched_probe(
                out, x,
                lambda ys: tau * np.sum(np.abs(ys) * mask[None], axis=(1, 2)),
                lambda y: tau * np.sum(np.abs(y) * mask),
                rng,
            ))

        out = linalg.frobenius_prox(x, tau)
        worst_margin = min(worst_margin, batched_probe(
            out, x,
            lambda ys: tau * np.linalg.norm(ys.reshape(ys.shape[0], -1), axis=1),
            lambda y: tau * np.linalg.norm(y),
            rng,
        ))

        out = schatten_prox(x, tau, 1)
        worst_margin = min(worst_margin, batched_probe(
            out, x,
            lambda ys: tau * np.sum(np.linalg.svd(ys, compute_uv=False), axis=1),
            lambda y: tau * np.sum(np.linalg.svd(y, compute_uv=False)),
            rng,
        ))

        cross = np.max(np.abs(
            schatten_prox(x, tau, 2) - linalg.frobenius_prox(x, tau)
        ))
        worst_cross = max(worst_cross, float(cross))

    ok = worst_margin >= -1e-9 and worst_cross <= 1e-10
    criterion(
        "A7 prox suite",
        ok,
        f"worst_probe_margin={worst_margin:.2e} schatten2_vs_frobenius={worst_cross:.2e}",
    )


def test_a8_ladmm_majorization(bench_instance, monkeypatch):
    _, _, observed = bench_instance
    lam0 = default_lambda(observed.shape)
    cfg = SolverConfig(rank=10, alpha=1e-2, lam=2 * lam0, tol=1e-12,
                       max_iters=2000, variant="ladmm2")
    log = reference.log_blocks(monkeypatch)
    variants.solve_variant(observed, cfg)
    worst_increase = max(entry["after"] - entry["before"] for entry in log)

    # Finite-difference checks of the smooth coupling gradients at an early
    # iterate of the same run, from the Tucker-2 start that ladmm2 runs from.
    seed = admm._init_tucker(observed, cfg)
    state = LadmmState(model=seed.model, E=seed.E, Lam=seed.Lam,
                       mu=seed.mu, mu_cap=seed.mu_cap)
    lam = cfg.resolved_lambda(observed.shape)
    # state.Lam is the scaled dual Lambda/mu.
    for _ in range(2):
        state.E = linalg.soft_shrink(
            observed - state.model.reconstruct() + state.Lam,
            lam / state.mu,
        )
        delta = observed - state.E + state.Lam
        state.model.a = variants.ladmm_update_A(state, delta, cfg)
        a_delta = state.model.a.T @ admm._slices(delta)
        state.model.b = variants.ladmm_update_B(state, a_delta, cfg)
        state.model.core = variants.ladmm_update_R(state, a_delta, cfg)
        lam_new = state.mu * state.Lam + state.mu * (
            observed - state.model.reconstruct() - state.E
        )
        state.mu = min(state.mu_cap, cfg.rho * state.mu)
        state.Lam = lam_new / state.mu

    rng = np.random.default_rng(88)
    delta = observed - state.E + state.Lam
    a, b, core = state.model.a, state.model.b, state.model.core
    worst_fd = 0.0

    def check(point, grad, value):
        nonlocal worst_fd
        h = 1e-6 * (1.0 + np.linalg.norm(point) / np.sqrt(point.size))
        for _ in range(3):
            d = rng.standard_normal(point.shape)
            d /= np.linalg.norm(d)
            fd = (value(point + h * d) - value(point - h * d)) / (2 * h)
            exact = float(np.sum(grad * d))
            worst_fd = max(worst_fd, abs(fd - exact) / max(1e-30, abs(exact)))

    grad_r = reference.mode_product(
        reference.mode_product(tensor.reconstruct(a, core, b) - delta, a.T, 1), b.T, 2
    )
    check(core, grad_r,
          lambda r: 0.5 * np.sum((tensor.reconstruct(a, r, b) - delta) ** 2))

    c_list = [core[:, :, i] @ b.T for i in range(core.shape[2])]
    grad_a = sum((a @ ci - delta[:, :, i]) @ ci.T for i, ci in enumerate(c_list))
    check(a, grad_a, lambda mat: 0.5 * sum(
        np.sum((delta[:, :, i] - mat @ ci) ** 2) for i, ci in enumerate(c_list)
    ))

    g_list = [a @ core[:, :, i] for i in range(core.shape[2])]
    grad_b = sum(
        (b @ gi.T - delta[:, :, i].T) @ gi for i, gi in enumerate(g_list)
    )
    check(b, grad_b, lambda mat: 0.5 * sum(
        np.sum((delta[:, :, i] - gi @ mat.T) ** 2) for i, gi in enumerate(g_list)
    ))

    ok = worst_increase <= 1e-10 and worst_fd <= 1e-5
    criterion(
        "A8 LADMM majorization",
        ok,
        f"worst_block_increase={worst_increase:.2e} worst_fd_rel_err={worst_fd:.2e}",
    )


def test_a9_cross_solver_consistency(bench_instance):
    _, sparse, observed = bench_instance
    lam0 = default_lambda(observed.shape)
    cfg_admm = SolverConfig(rank=10, alpha=1e-2, lam=lam0, tol=1e-10,
                            max_iters=2000, variant="admm2")
    _, e_admm, _ = solve_variant(observed, cfg_admm)
    cfg_ladmm = SolverConfig(rank=10, alpha=1e-2, lam=2 * lam0, tol=1e-12,
                             max_iters=2000, variant="ladmm2")
    _, e_ladmm, _ = variants.solve_variant(observed, cfg_ladmm)

    def f1(e_hat):
        est = e_hat != 0
        tru = sparse != 0
        tp = np.sum(est & tru)
        return 2 * tp / (2 * tp + np.sum(est & ~tru) + np.sum(~est & tru))

    f1_admm, f1_ladmm = f1(e_admm), f1(e_ladmm)
    criterion(
        "A9 cross-solver consistency",
        f1_admm >= 0.99 and f1_ladmm >= 0.99,
        f"F1_admm2={f1_admm:.4f} F1_ladmm2={f1_ladmm:.4f}",
    )


# A10's timed solves, run in a fresh process whose BLAS reads its thread
# count from the environment at load time: prints {N: median ms/iter}.
A10_SOLVES = """
import json, sys
import numpy as np
from rkca.data import SynthSpec, synth_generate
from rkca.model import SolverConfig
from rkca.variants import solve_variant
per_iter = {}
for n_slices in json.loads(sys.argv[1]):
    spec = SynthSpec(m=100, n=100, n_slices=n_slices, rank_a=5, rank_b=5,
                     p_clean=0.7, seed=123)
    _, _, observed = synth_generate(spec)
    cfg = SolverConfig(rank=15, alpha=1e-2, tol=1e-30, max_iters=12)
    _, _, report = solve_variant(observed, cfg)
    per_iter[n_slices] = float(np.median([rec.elapsed_ms for rec in report.iterations[2:]]))
print(json.dumps(per_iter))
"""


def test_a10_scaling_sanity():
    # Wall-clock ratios, so BLAS is pinned to one thread as in perfbench: an
    # unpinned BLAS on a small shared machine makes them noisy.
    sizes = (25, 50, 100)
    src = str(Path(rkca.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    run = subprocess.run([sys.executable, "-c", A10_SOLVES, json.dumps(sizes)], env=env,
                         capture_output=True, text=True, check=True)
    per_iter = {int(n): ms for n, ms in json.loads(run.stdout).items()}
    ns = np.array(sizes, dtype=float)
    ts = np.array([per_iter[n] for n in sizes])
    slope = float(ts @ ns) / float(ns @ ns)
    ratios = ts / (slope * ns)
    criterion(
        "A10 scaling sanity",
        bool(np.all((ratios >= 0.5) & (ratios <= 2.0))),
        "ms/iter=" + ", ".join(f"N={n}:{per_iter[n]:.1f}" for n in sizes)
        + f" ratios={np.round(ratios, 3).tolist()}",
    )


def test_a11_ladmm_recovery():
    # The LADMM variants, from their Tucker-2 start, meet A1's floors at
    # tol 1e-10 on the acceptance instance and on a second seed of its spec.
    rows = []
    for seed in (BENCH_SPEC.seed, 2):
        spec = SynthSpec(**{**vars(BENCH_SPEC), "seed": seed})
        low_rank, sparse, observed = synth_generate(spec)
        for variant in variants.LADMM_VARIANTS:
            alpha = 1e-2 if variant == "ladmm2" else 1e-5
            cfg = SolverConfig(rank=10, alpha=alpha, tol=1e-10, variant=variant)
            model, e_hat, report = variants.solve_variant(observed, cfg)
            result = metrics(model.reconstruct(), e_hat, low_rank, sparse)
            rows.append((variant, seed, report.termination, result.rel_error_L,
                         result.support_f1))
    criterion(
        "A11 LADMM recovery",
        all(term == "tol" and rel_l <= 1e-4 and f1 >= 0.999
            for _, _, term, rel_l, f1 in rows),
        " ".join(f"{v}@{s}:{t},rel_L={r:.1e},F1={f:.4f}" for v, s, t, r, f in rows),
    )


def test_a11_ladmm_no_idle_iterations():
    # From the Tucker-2 start the LADMM penalty starts where the first E step
    # shrinks nothing but the largest residual, so E is 0 at most at iteration
    # 1 and every variant meets A1's floors at tol 1e-10 within 20 iterations,
    # at both of A11's seeds.
    rows = []
    for seed in (BENCH_SPEC.seed, 2):
        spec = SynthSpec(**{**vars(BENCH_SPEC), "seed": seed})
        low_rank, sparse, observed = synth_generate(spec)
        for variant in variants.LADMM_VARIANTS:
            alpha = 1e-2 if variant == "ladmm2" else 1e-5
            cfg = SolverConfig(rank=10, alpha=alpha, tol=1e-10, variant=variant)
            model, e_hat, report = variants.solve_variant(observed, cfg)
            result = metrics(model.reconstruct(), e_hat, low_rank, sparse)
            idle = [rec.iter for rec in report.iterations if rec.objective["l1_sparse"] == 0]
            rows.append((variant, seed, report.termination, report.n_iterations, idle,
                         result.rel_error_L, result.support_f1))
    criterion(
        "A11 LADMM iteration budget",
        all(term == "tol" and iters <= 20 and set(idle) <= {1} and rel_l <= 1e-4
            and f1 >= 0.999 for _, _, term, iters, idle, rel_l, f1 in rows),
        " ".join(f"{v}@{s}:{t},iters={n},idle={i},rel_L={r:.1e},F1={f:.4f}"
                 for v, s, t, n, i, r, f in rows),
    )


def test_a12_degree3_recovery_and_iteration_budget():
    # From the Tucker-2 start the admm3-* variants meet A1's floors at
    # tol 1e-10 within 20 iterations at both of A11's seeds, and at the
    # default tol none of them reports "tol" before E has any support.
    rows = []
    for seed in (BENCH_SPEC.seed, 2):
        spec = SynthSpec(**{**vars(BENCH_SPEC), "seed": seed})
        low_rank, sparse, observed = synth_generate(spec)
        for variant in variants.DEGREE3_SUB_VARIANTS:
            cfg = SolverConfig(rank=10, alpha=1e-5, tol=1e-10, variant=variant)
            model, e_hat, report = variants.solve_variant(observed, cfg)
            result = metrics(model.reconstruct(), e_hat, low_rank, sparse)
            default_tol = SolverConfig(rank=10, alpha=1e-5, variant=variant)
            _, e_default, default_report = variants.solve_variant(observed, default_tol)
            empty_tol = (default_report.termination == "tol"
                         and not np.count_nonzero(e_default))
            rows.append((variant, seed, report.termination, report.n_iterations,
                         result.rel_error_L, result.support_f1, empty_tol))
    criterion(
        "A12 degree-3 recovery and iteration budget",
        all(term == "tol" and iters <= 20 and rel_l <= 1e-4 and f1 >= 0.999
            and not empty for _, _, term, iters, rel_l, f1, empty in rows),
        " ".join(f"{v}@{s}:{t},iters={n},rel_L={r:.1e},F1={f:.4f},empty_tol={e}"
                 for v, s, t, n, r, f, e in rows),
    )


def test_a13_admm2_recovery_and_iteration_budget():
    # From the balanced Tucker-2 start admm2 meets A1's floors at tol 1e-10
    # within 60 iterations at both of A11's seeds, and at the default tol no
    # run reports "tol" before E has any support or below F1 0.99.
    rows = []
    for seed in (BENCH_SPEC.seed, 2):
        spec = SynthSpec(**{**vars(BENCH_SPEC), "seed": seed})
        low_rank, sparse, observed = synth_generate(spec)
        cfg = SolverConfig(rank=10, alpha=1e-2, tol=1e-10)
        model, e_hat, report = solve_variant(observed, cfg)
        result = metrics(model.reconstruct(), e_hat, low_rank, sparse)
        default_tol = SolverConfig(rank=10, alpha=1e-2)
        m_default, e_default, default_report = solve_variant(observed, default_tol)
        f1_default = metrics(m_default.reconstruct(), e_default, low_rank, sparse).support_f1
        bad_tol = default_report.termination == "tol" and (
            not np.count_nonzero(e_default) or f1_default < 0.99)
        rows.append((seed, report.termination, report.n_iterations, result.rel_error_L,
                     result.support_f1, f1_default, bad_tol))
    criterion(
        "A13 admm2 recovery and iteration budget",
        all(term == "tol" and iters <= 60 and rel_l <= 1e-4 and f1 >= 0.999
            and not bad for _, term, iters, rel_l, f1, _, bad in rows),
        " ".join(f"admm2@{s}:{t},iters={n},rel_L={r:.1e},F1={f:.4f},"
                 f"default_F1={d:.4f},bad_tol={b}" for s, t, n, r, f, d, b in rows),
    )
