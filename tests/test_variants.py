"""LADMM and degree-3 solver tests: Lipschitz bounds, linearised steps
against finite differences, substitution updates against plug-back oracles,
and end-to-end behaviour of every variant."""

import tracemalloc
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rkca import admm, linalg, tensor, variants
from rkca.data import SynthSpec, make_mask, synth_generate, support_f1
from rkca.model import VARIANTS, FactorModel, IterationRecord, SolverConfig

import reference
from conftest import BENCH_SPEC, rel_error
from reference import LadmmState, schatten_prox, shrink_E


def make_ladmm_state(rng, m=6, n=5, N=3, r=3, mu=0.8):
    # Lam is the scaled dual U = Lambda/mu: the oracles take Lambda = mu*Lam.
    model = FactorModel(
        a=rng.standard_normal((m, r)),
        b=rng.standard_normal((n, r)),
        core=rng.standard_normal((r, r, N)),
    )
    return LadmmState(
        model=model,
        E=rng.standard_normal((m, n, N)),
        Lam=rng.standard_normal((m, n, N)),
        mu=mu,
        mu_cap=mu * 1e7,
    )


def make_degree3_state(rng, m=6, n=5, N=3, r=3):
    model = FactorModel(
        a=rng.standard_normal((m, r)),
        b=rng.standard_normal((n, r)),
        core=rng.standard_normal((r, r, N)),
    )
    return admm.SolverState(
        model=model,
        E=rng.standard_normal((m, n, N)),
        K=rng.standard_normal((r, r, N)),
        Lam=rng.standard_normal((m, n, N)),
        Y=rng.standard_normal((r, r, N)),
        U=rng.standard_normal((m, r)),
        V=rng.standard_normal((n, r)),
        Y_U=rng.standard_normal((m, r)),
        Y_V=rng.standard_normal((n, r)),
        mu=0.9, mu_K=1.1, mu_U=0.7, mu_V=1.3,
        mu_cap=1e7, mu_K_cap=1e7, mu_U_cap=1e7, mu_V_cap=1e7,
    )


def block_bounds(model):
    # The three linearised steps' Lipschitz bounds (L_R, L_A, L_B) as the
    # steps take them: lipschitz_core, and the margin-scaled Frobenius norms
    # of sum_i C_i C_i^T, C_i = R_i B^T, and of sum_i G_i^T G_i, G_i = A R_i.
    a, b, core = model.a, model.b, model.core
    return (variants.lipschitz_core(a, b),
            variants._bound(np.linalg.norm(admm._cross_gram(core, b, False))),
            variants._bound(np.linalg.norm(admm._cross_gram(core, a, True))))


def a_delta(state, delta):
    # The sweep's A^T Delta_i for the B and R steps.
    return state.model.a.T @ admm._slices(delta)


def test_one_state_class_holds_every_split_and_solve_variant_is_the_entry_point():
    # Every split row names fields of the one state class and of the record,
    # which _open_splits and the loop set and read by name.
    state_fields = {f.name for f in fields(admm.SolverState)}
    record_fields = {f.name for f in fields(IterationRecord)}
    for row in (admm.CORE_SPLIT, *variants.DEGREE3_SPLITS):
        assert {row.copy, row.dual, row.penalty, row.penalty + "_cap"} <= state_fields, row
        assert row.err in record_fields, row
    assert not hasattr(admm, "solve")


def test_compute_lipschitz_identity_and_floor():
    model = FactorModel(a=np.eye(4), b=np.eye(4), core=np.zeros((4, 4, 2)))
    L_R, L_A, L_B = block_bounds(model)
    assert L_R == pytest.approx(1.01)
    assert L_A == variants.LIPSCHITZ_FLOOR
    assert L_B == variants.LIPSCHITZ_FLOOR


def test_compute_lipschitz_vs_svd_oracle():
    rng = np.random.default_rng(0)
    model = FactorModel(
        a=rng.standard_normal((7, 3)),
        b=rng.standard_normal((6, 3)),
        core=rng.standard_normal((3, 3, 4)),
    )
    L_R, L_A, L_B = block_bounds(model)
    sa = np.linalg.svd(model.a, compute_uv=False)[0]
    sb = np.linalg.svd(model.b, compute_uv=False)[0]
    assert L_R / 1.01 == pytest.approx((sa * sb) ** 2, rel=1e-12)
    c_sum = sum(
        model.core[:, :, i] @ model.b.T @ model.b @ model.core[:, :, i].T
        for i in range(4)
    )
    assert L_A / 1.01 == pytest.approx(np.linalg.norm(c_sum), rel=1e-12)
    g_sum = sum(
        model.core[:, :, i].T @ model.a.T @ model.a @ model.core[:, :, i]
        for i in range(4)
    )
    assert L_B / 1.01 == pytest.approx(np.linalg.norm(g_sum), rel=1e-12)


def test_ladmm_update_R_gradient_zero_case():
    # With A = B = I and Delta = R the coupling gradient vanishes, so the
    # step reduces to shrinking R itself.
    rng = np.random.default_rng(1)
    r, N = 3, 2
    core = rng.standard_normal((r, r, N))
    model = FactorModel(a=np.eye(r), b=np.eye(r), core=core)
    state = LadmmState(model=model, E=np.zeros((r, r, N)),
                       Lam=np.zeros((r, r, N)), mu=2.0, mu_cap=1e7)
    X = core.copy()  # Delta = X - E + Lam = R
    cfg = SolverConfig(rank=r, alpha=0.5, variant="ladmm2")
    out = variants.ladmm_update_R(state, a_delta(state, X - state.E + state.Lam), cfg)
    lip = 1.01
    expected = linalg.soft_shrink(core, 0.5 / (2.0 * lip))
    assert_allclose(out, expected, atol=1e-12)


def test_ladmm_update_R_pure_gradient_step():
    rng = np.random.default_rng(2)
    state = make_ladmm_state(rng)
    X = rng.standard_normal(state.E.shape)
    cfg = SolverConfig(rank=3, alpha=1e-300, variant="ladmm2")
    delta = X - state.E + state.Lam  # Lambda/mu
    out = variants.ladmm_update_R(state, a_delta(state, delta), cfg)
    a, b, core = state.model.a, state.model.b, state.model.core
    lip = variants.lipschitz_core(a, b)
    grad = reference.mode_product(
        reference.mode_product(state.model.reconstruct() - delta, a.T, 1), b.T, 2
    )
    assert_allclose(out, core - grad / lip, atol=1e-10)


def coupling_value(model, delta):
    return 0.5 * np.sum((model.reconstruct() - delta) ** 2)


def test_ladmm_update_R_finite_difference_gradient():
    rng = np.random.default_rng(3)
    state = make_ladmm_state(rng)
    X = rng.standard_normal(state.E.shape)
    delta = X - state.E + state.Lam  # Lambda/mu
    a, b, core = state.model.a, state.model.b, state.model.core
    grad = reference.mode_product(
        reference.mode_product(tensor.reconstruct(a, core, b) - delta, a.T, 1), b.T, 2
    )
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(core.shape)
        d /= np.linalg.norm(d)
        fplus = 0.5 * np.sum((tensor.reconstruct(a, core + h * d, b) - delta) ** 2)
        fminus = 0.5 * np.sum((tensor.reconstruct(a, core - h * d, b) - delta) ** 2)
        fd = (fplus - fminus) / (2 * h)
        assert fd == pytest.approx(float(np.sum(grad * d)), rel=1e-5)


def test_ladmm_update_A_trivial_cases():
    rng = np.random.default_rng(4)
    state = make_ladmm_state(rng)
    cfg = SolverConfig(rank=3, alpha=0.7, variant="ladmm3_fro")
    # Zero core: no coupling, no shrinkage weight, A unchanged.
    state.model.core = np.zeros_like(state.model.core)
    X = rng.standard_normal(state.E.shape)
    assert_allclose(variants.ladmm_update_A(state, X - state.E + state.Lam, cfg), state.model.a)

    # Gradient-zero case: Delta_i = A C_i exactly, so only the prox acts.
    state = make_ladmm_state(rng)
    a, b, core = state.model.a, state.model.b, state.model.core
    delta = np.stack(
        [a @ core[:, :, i] @ b.T for i in range(core.shape[2])], axis=2
    )
    out = variants.ladmm_update_A(state, delta, cfg)
    lip = block_bounds(state.model)[1]
    scale = 0.7 * np.linalg.norm(b) * tensor.l1(core) / (state.mu * lip)
    assert_allclose(out, linalg.frobenius_prox(a, scale), atol=1e-9)


def test_ladmm_update_A_finite_difference_gradient():
    rng = np.random.default_rng(5)
    state = make_ladmm_state(rng)
    X = rng.standard_normal(state.E.shape)
    delta = X - state.E + state.Lam  # Lambda/mu
    a, b, core = state.model.a, state.model.b, state.model.core
    c = [core[:, :, i] @ b.T for i in range(core.shape[2])]
    grad = sum((a @ c[i] - delta[:, :, i]) @ c[i].T for i in range(len(c)))
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(a.shape)
        d /= np.linalg.norm(d)
        def value(mat):
            return 0.5 * sum(
                np.sum((delta[:, :, i] - mat @ c[i]) ** 2) for i in range(len(c))
            )
        fd = (value(a + h * d) - value(a - h * d)) / (2 * h)
        assert fd == pytest.approx(float(np.sum(grad * d)), rel=1e-5)


def test_ladmm_update_B_finite_difference_gradient():
    rng = np.random.default_rng(6)
    state = make_ladmm_state(rng)
    X = rng.standard_normal(state.E.shape)
    delta = X - state.E + state.Lam  # Lambda/mu
    a, b, core = state.model.a, state.model.b, state.model.core
    g = [a @ core[:, :, i] for i in range(core.shape[2])]
    grad = sum(
        (b @ g[i].T - delta[:, :, i].T) @ g[i] for i in range(len(g))
    )
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(b.shape)
        d /= np.linalg.norm(d)
        def value(mat):
            return 0.5 * sum(
                np.sum((delta[:, :, i] - g[i] @ mat.T) ** 2) for i in range(len(g))
            )
        fd = (value(b + h * d) - value(b - h * d)) / (2 * h)
        assert fd == pytest.approx(float(np.sum(grad * d)), rel=1e-5)


def test_lipschitz_bounds_are_valid():
    # ||grad f(x1) - grad f(x2)|| <= L ||x1 - x2|| on random pairs, per block.
    rng = np.random.default_rng(7)
    state = make_ladmm_state(rng)
    a, b, core = state.model.a, state.model.b, state.model.core
    L_R, L_A, L_B = block_bounds(state.model)
    c = [core[:, :, i] @ b.T for i in range(core.shape[2])]
    g = [a @ core[:, :, i] for i in range(core.shape[2])]
    for _ in range(20):
        a1, a2 = rng.standard_normal((2,) + a.shape)
        ga1 = sum((a1 @ ci) @ ci.T for ci in c)
        ga2 = sum((a2 @ ci) @ ci.T for ci in c)
        assert np.linalg.norm(ga1 - ga2) <= L_A * np.linalg.norm(a1 - a2) + 1e-9

        b1, b2 = rng.standard_normal((2,) + b.shape)
        gb1 = sum((b1 @ gi.T) @ gi for gi in g)
        gb2 = sum((b2 @ gi.T) @ gi for gi in g)
        assert np.linalg.norm(gb1 - gb2) <= L_B * np.linalg.norm(b1 - b2) + 1e-9

        r1, r2 = rng.standard_normal((2,) + core.shape)
        gr1 = reference.mode_product(
            reference.mode_product(tensor.reconstruct(a, r1, b), a.T, 1), b.T, 2
        )
        gr2 = reference.mode_product(
            reference.mode_product(tensor.reconstruct(a, r2, b), a.T, 1), b.T, 2
        )
        assert (
            np.linalg.norm(gr1 - gr2)
            <= L_R * np.linalg.norm(r1 - r2) + 1e-9
        )


def test_degree3_update_A_sub_cases():
    rng = np.random.default_rng(8)
    state = make_degree3_state(rng)
    cfg = SolverConfig(rank=3, alpha=0.5, variant="admm3_fro")
    # Zero multiplier and zero core weight: A = U.
    state.Y_U = np.zeros_like(state.Y_U)
    state.model.core = np.zeros_like(state.model.core)
    assert_allclose(variants.degree3_update_A_sub(state, cfg), state.U)

    # Argument norm below the shrinkage scale: A = 0.
    state = make_degree3_state(rng)
    state.U = 1e-8 * state.U
    state.Y_U = np.zeros_like(state.Y_U)
    assert not variants.degree3_update_A_sub(state, cfg).any()

    # Otherwise it is the Frobenius prox of U - Y_U/mu_U.
    state = make_degree3_state(rng)
    out = variants.degree3_update_A_sub(state, cfg)
    scale = (
        0.5 * np.linalg.norm(state.model.b) * tensor.l1(state.model.core)
        / state.mu_U
    )
    assert_allclose(
        out, linalg.frobenius_prox(state.U - state.Y_U / state.mu_U, scale)
    )


def test_degree3_update_A_sub_nuclear_variant():
    rng = np.random.default_rng(9)
    state = make_degree3_state(rng)
    cfg = SolverConfig(rank=3, alpha=1e-3, variant="admm3_nuc")
    out = variants.degree3_update_A_sub(state, cfg)
    s_b = np.sum(np.linalg.svd(state.model.b, compute_uv=False))
    scale = 1e-3 * s_b * tensor.l1(state.model.core) / state.mu_U
    assert_allclose(
        out, schatten_prox(state.U - state.Y_U / state.mu_U, scale, 1)
    )


def test_degree3_update_U_trivial_cases():
    rng = np.random.default_rng(10)
    state = make_degree3_state(rng)
    x_tilde = rng.standard_normal(state.E.shape)
    state.K = np.zeros_like(state.K)
    out = variants.degree3_update_U(state, x_tilde + state.Lam)
    assert_allclose(out, state.model.a + state.Y_U / state.mu_U, atol=1e-12)

    # N=1, K=V=I, mu=mu_U=1: 2U = A + Y_U + Xt + Lam.
    r = 3
    state = make_degree3_state(rng, m=r, n=r, N=1, r=r)
    state.K = np.eye(r)[:, :, None]
    state.V = np.eye(r)
    state.mu = state.mu_U = 1.0
    x_tilde = rng.standard_normal((r, r, 1))
    out = variants.degree3_update_U(state, x_tilde + state.Lam)
    expected = 0.5 * (
        state.model.a + state.Y_U + x_tilde[:, :, 0] + state.Lam[:, :, 0]
    )
    assert_allclose(out, expected, atol=1e-12)


def test_degree3_update_U_plugback():
    rng = np.random.default_rng(11)
    state = make_degree3_state(rng)
    x_tilde = rng.standard_normal(state.E.shape)
    u = variants.degree3_update_U(state, x_tilde + state.Lam)
    # Stationarity of the U block of the augmented Lagrangian.
    g = state.mu_U * (u - state.model.a) - state.Y_U
    for i in range(x_tilde.shape[2]):
        k, v = state.K[:, :, i], state.V
        resid = x_tilde[:, :, i] - u @ k @ v.T
        g -= (state.mu * state.Lam[:, :, i] + state.mu * resid) @ v @ k.T
    assert np.linalg.norm(g) <= 1e-9 * (1.0 + np.linalg.norm(u))


def test_degree3_update_V_plugback():
    rng = np.random.default_rng(12)
    state = make_degree3_state(rng)
    x_tilde = rng.standard_normal(state.E.shape)
    v = variants.degree3_update_V(state, state.U.T @ admm._slices(x_tilde + state.Lam))
    g = state.mu_V * (v - state.model.b) - state.Y_V
    for i in range(x_tilde.shape[2]):
        k, u = state.K[:, :, i], state.U
        resid = x_tilde[:, :, i] - u @ k @ v.T
        g -= (state.mu * state.Lam[:, :, i] + state.mu * resid).T @ u @ k
    assert np.linalg.norm(g) <= 1e-9 * (1.0 + np.linalg.norm(v))


def test_degree3_plugback_holds_across_sweeps():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((10, 8, 3))
    cfg = SolverConfig(rank=3, alpha=1e-3, lam=0.2, variant="admm3_fro")
    state = variants._init_degree3(X, cfg)
    for it in range(1, 4):
        state.iters = it
        recon = tensor.reconstruct(state.U, state.K, state.V)
        state.E = shrink_E(X, recon, state.Lam, 0.2 / state.mu)
        x_tilde = X - state.E
        delta = x_tilde + state.Lam
        state.model.a = variants.degree3_update_A_sub(state, cfg)
        state.model.b = variants.degree3_update_B_sub(state, cfg)
        u = variants.degree3_update_U(state, delta)
        g = state.mu_U * (u - state.model.a) - state.Y_U
        for i in range(3):
            resid = x_tilde[:, :, i] - u @ state.K[:, :, i] @ state.V.T
            g -= ((state.mu * state.Lam[:, :, i] + state.mu * resid)
                  @ state.V @ state.K[:, :, i].T)
        assert np.linalg.norm(g) <= 1e-9 * (1.0 + np.linalg.norm(u))
        state.U = u
        g = state.U.T @ admm._slices(delta)
        state.V = variants.degree3_update_V(state, g)
        state.K = admm._stein_core(state, g, state.U, state.V)
        state.model.core = admm.update_R(
            state, variants._core_weight(state.model.a, state.model.b, cfg))
        # Lambda += mu*(Xt - L) at a fixed mu: U += Xt - L.
        state.Lam = state.Lam + (x_tilde - tensor.reconstruct(state.U, state.K, state.V))
        state.Y = state.Y + state.mu_K * (state.model.core - state.K)
        state.Y_U = state.Y_U + state.mu_U * (state.model.a - state.U)
        state.Y_V = state.Y_V + state.mu_V * (state.model.b - state.V)


@pytest.mark.parametrize("variant", ["ladmm2", "ladmm3_fro", "admm3_fro", "admm3_nuc"])
def test_solve_variant_zero_input(variant):
    cfg = SolverConfig(rank=2, variant=variant)
    model, E, report = variants.solve_variant(np.zeros((6, 5, 3)), cfg)
    assert report.n_iterations == 1 and report.termination == "tol"
    assert not model.reconstruct().any() and not E.any()
    assert report.variant == variant


def test_ladmm2_zero_noise_recovery():
    spec = SynthSpec(m=20, n=20, n_slices=6, rank_a=3, rank_b=3, p_clean=1.0, seed=21)
    low_rank, _, X = synth_generate(spec)
    cfg = SolverConfig(rank=5, lam=1e4, tol=1e-12, max_iters=2000, variant="ladmm2")
    model, E, report = variants.solve_variant(X, cfg)
    assert rel_error(model.reconstruct(), low_rank) <= 1e-4


def test_degree3_substitution_recovery():
    spec = SynthSpec(m=25, n=25, n_slices=8, rank_a=3, rank_b=3, p_clean=0.7, seed=22)
    low_rank, sparse, X = synth_generate(spec)
    for variant in ("admm3_fro", "admm3_nuc"):
        cfg = SolverConfig(
            rank=6, alpha=1e-5, tol=1e-12, max_iters=2000, variant=variant
        )
        model, e_hat, report = variants.solve_variant(X, cfg)
        assert rel_error(model.reconstruct(), low_rank) <= 1e-4, variant
        assert support_f1(e_hat, sparse) >= 0.99, variant


def test_ladmm3_runs_and_reduces_error():
    spec = SynthSpec(m=20, n=20, n_slices=6, rank_a=3, rank_b=3, p_clean=1.0, seed=23)
    low_rank, _, X = synth_generate(spec)
    for variant in ("ladmm3_fro", "ladmm3_nuc"):
        cfg = SolverConfig(
            rank=5, alpha=1e-6, lam=1e4, tol=1e-12, max_iters=2000, variant=variant
        )
        model, _, report = variants.solve_variant(X, cfg)
        assert rel_error(model.reconstruct(), low_rank) <= 1e-3, variant


def test_ladmm_block_objectives_never_increase(monkeypatch):
    spec = SynthSpec(m=15, n=12, n_slices=4, rank_a=2, rank_b=2, p_clean=0.8, seed=24)
    _, _, X = synth_generate(spec)
    for variant in ("ladmm2", "ladmm3_fro"):
        log = reference.log_blocks(monkeypatch)
        cfg = SolverConfig(
            rank=4, alpha=1e-4, tol=1e-10, max_iters=300, variant=variant
        )
        variants.solve_variant(X, cfg)
        assert log, "expected logged block steps"
        worst = max(entry["after"] - entry["before"] for entry in log)
        assert worst <= 1e-10, f"{variant} worst block increase {worst}"


def test_degree3_regularizer_homogeneity():
    rng = np.random.default_rng(25)
    model = FactorModel(
        a=rng.standard_normal((6, 3)),
        b=rng.standard_normal((5, 3)),
        core=rng.standard_normal((3, 3, 2)),
    )
    cfg = SolverConfig(rank=3, alpha=0.7, variant="ladmm3_fro")
    base = variants._low_rank_penalty(model, cfg)
    for c in (0.0, 0.5, 2.0):
        scaled = FactorModel(a=c * model.a, b=c * model.b, core=c * model.core)
        assert variants._low_rank_penalty(scaled, cfg) == c**3 * base


def test_cross_solver_support_consistency_small():
    spec = SynthSpec(m=30, n=30, n_slices=8, rank_a=3, rank_b=3, p_clean=0.7, seed=26)
    _, sparse, X = synth_generate(spec)
    lam0 = SolverConfig(rank=6).resolved_lambda(X.shape)
    cfg_a = SolverConfig(rank=6, lam=lam0, tol=1e-10, max_iters=2000, variant="admm2")
    _, e_admm, _ = variants.solve_variant(X, cfg_a)
    assert support_f1(e_admm, sparse) >= 0.99
    # Non-convexity: the two solvers need not agree elementwise, only on the
    # outlier support; the LADMM run picks its weight from a small sweep.
    best = 0.0
    for fac in (1.0, 1.5, 2.0):
        cfg_l = SolverConfig(
            rank=6, lam=fac * lam0, tol=1e-12, max_iters=4000, variant="ladmm2"
        )
        _, e_ladmm, _ = variants.solve_variant(X, cfg_l)
        best = max(best, support_f1(e_ladmm, sparse))
    assert best >= 0.99


def _layouts(t):
    """The same tensor as a C-ordered, an F-ordered and a slice-major array."""
    return {"C": np.ascontiguousarray(t), "F": np.asfortranarray(t),
            "slice-major": tensor.slice_major(t)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_is_layout_independent_and_leaves_inputs_alone(variant):
    spec = SynthSpec(m=12, n=10, n_slices=4, rank_a=2, rank_b=2, p_clean=0.8, seed=27)
    _, _, X = synth_generate(spec)
    mask = np.random.default_rng(28).random(X.shape) < 0.7
    alpha = 1e-2 if variant in ("admm2", "ladmm2") else 1e-4
    outputs = {}
    for (name, x), m in zip(_layouts(X).items(), _layouts(mask).values()):
        x_bytes, m_bytes, strides = x.tobytes(order="A"), m.tobytes(order="A"), x.strides
        cfg = SolverConfig(rank=3, alpha=alpha, tol=1e-30, max_iters=12, mask=m,
                           variant=variant)
        model, E, _ = variants.solve_variant(x, cfg)
        outputs[name] = (model.a, model.b, model.core, E)
        assert x.tobytes(order="A") == x_bytes and x.strides == strides, name
        assert cfg.mask is m and m.tobytes(order="A") == m_bytes, name
    for name, got in outputs.items():
        for label, ref, out in zip("ABRE", outputs["C"], got):
            assert np.array_equal(ref, out), f"{name} {label}"


EXPECTED_RECONSTRUCTS = {"admm2": 1, "ladmm2": 1, "ladmm3_fro": 1, "ladmm3_nuc": 1,
                         "admm3_fro": 2, "admm3_nuc": 2}


def _calls_per_iteration(monkeypatch, module, name, variant, counted=lambda kw: True):
    # Steady-state calls of module.name per iteration: the difference between
    # two runs that stop after 6 and after 9 iterations.
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        if counted(kwargs):
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    _, _, X = synth_generate(spec)
    counts = []
    for iters in (6, 9):
        calls.clear()
        cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=iters, variant=variant)
        _, _, report = variants.solve_variant(X, cfg)
        assert report.n_iterations == iters
        counts.append(len(calls))
    return (counts[1] - counts[0]) / 3


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_moveaxis_per_iteration(monkeypatch, variant):
    # Data tensors and cores are all slice-major, so an iteration changes
    # layouts only by transpose views.
    assert _calls_per_iteration(monkeypatch, np, "moveaxis", variant) == 0


EIGH_BUDGET = {"admm2": 3, "admm3_fro": 3, "admm3_nuc": 3,
               "ladmm2": 1, "ladmm3_fro": 1, "ladmm3_nuc": 1}


@pytest.mark.parametrize("variant", sorted(EIGH_BUDGET))
def test_eigensolver_calls_per_iteration(monkeypatch, variant):
    # One eigh per basis solve and one for the Stein pair; LADMM's two
    # Grams for the core bound share one.  Stacked pairs count once.
    per_iter = _calls_per_iteration(monkeypatch, np.linalg, "eigh", variant)
    assert per_iter <= EIGH_BUDGET[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_returned_core_is_slice_major(variant):
    # A view of a C-contiguous (N, r, r) batch, like the data tensors.
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=3, variant=variant)
    model, _, _ = variants.solve_variant(synth_generate(spec)[2], cfg)
    assert model.core.shape == (3, 3, 5)
    assert model.core.transpose(2, 0, 1).flags.c_contiguous


@pytest.mark.parametrize("variant", sorted(EXPECTED_RECONSTRUCTS))
def test_one_reconstruct_per_factor_set(monkeypatch, variant):
    # The tensor a dual update reconstructs is the one the next E step
    # subtracts (and, in admm2 and LADMM, the one err_rec uses), so it is built once.
    per_iter = _calls_per_iteration(monkeypatch, tensor, "reconstruct", variant)
    assert per_iter == EXPECTED_RECONSTRUCTS[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_x_slice_norms_computed_once_per_solve(monkeypatch, variant):
    # Each iteration takes the per-slice norms of one data-sized residual;
    # those of X are taken once per solve.
    real, data_sized = admm._sq_norms, []

    def counting(t):
        if t.shape[:2] == (14, 12):
            data_sized.append(1)
        return real(t)

    monkeypatch.setattr(admm, "_sq_norms", counting)
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    _, _, X = synth_generate(spec)
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=6, variant=variant)
    _, _, report = variants.solve_variant(X, cfg)
    assert report.n_iterations == 6
    assert len(data_sized) == 6 + 1


@pytest.mark.parametrize("variant", ["ladmm2", "ladmm3_fro"])
def test_ladmm_gram_form_steps_match_explicit_gradients(variant):
    # The Gram-form gradients equal the explicit residual forms
    # sum_i (A C_i - Delta_i) C_i^T, C_i = R_i B^T, and their B and R mirrors,
    # on the Delta and A^T Delta_i that the sweep passes.
    rng = np.random.default_rng(32)
    state = make_ladmm_state(rng, m=9, n=7, N=4)
    X = rng.standard_normal(state.E.shape)
    cfg = SolverConfig(rank=3, alpha=0.3, variant=variant)
    a, b, core, mu = state.model.a, state.model.b, state.model.core, state.mu
    delta = X - state.E + state.Lam  # Lambda/mu
    slices = range(core.shape[2])
    c = [core[:, :, i] @ b.T for i in slices]
    g = [a @ core[:, :, i] for i in slices]
    lip_a = 1.01 * np.linalg.norm(sum(ci @ ci.T for ci in c))
    lip_b = 1.01 * np.linalg.norm(sum(gi.T @ gi for gi in g))
    lip_r = variants.lipschitz_core(a, b)
    grad_a = sum((a @ c[i] - delta[:, :, i]) @ c[i].T for i in slices)
    grad_b = sum((b @ g[i].T - delta[:, :, i].T) @ g[i] for i in slices)
    grad_r = np.stack([a.T @ (a @ core[:, :, i] @ b.T - delta[:, :, i]) @ b
                       for i in slices], axis=2)
    weight = variants._core_weight(a, b, cfg)
    expected = {
        variants.ladmm_update_A:
            variants._basis_step(a - grad_a / lip_a, b, core, mu * lip_a, cfg),
        variants.ladmm_update_B:
            variants._basis_step(b - grad_b / lip_b, a, core, mu * lip_b, cfg),
        variants.ladmm_update_R:
            linalg.soft_shrink(core - grad_r / lip_r, weight / (mu * lip_r)),
    }
    passed = {variants.ladmm_update_A: delta, variants.ladmm_update_B: a_delta(state, delta),
              variants.ladmm_update_R: a_delta(state, delta)}
    for step, want in expected.items():
        assert rel_error(step(state, passed[step], cfg), want) <= 1e-12, step.__name__


@pytest.mark.parametrize("variant", ["ladmm3_nuc", "admm3_nuc"])
def test_basis_norms_computed_once_per_factor(monkeypatch, variant):
    # The nuclear prox that builds the fresh A and the fresh B records their
    # norms, so no iteration takes a singular-value-only SVD: only the
    # start's B is measured that way.
    per_iter = _calls_per_iteration(monkeypatch, np.linalg, "svd", variant,
                                    counted=lambda kw: kw.get("compute_uv") is False)
    assert per_iter == 0


@pytest.mark.parametrize("variant", ["ladmm3_nuc", "admm3_nuc"])
def test_nuclear_prox_records_the_norm_of_its_output(monkeypatch, variant):
    # The norm a nuclear basis step records for the basis cache, the sum of
    # the shrunk singular values, is the nuclear norm of the basis it returns.
    real, seen = linalg.nuclear_prox, []

    def recording(x, tau):
        seen.append(real(x, tau))
        return seen[-1]

    monkeypatch.setattr(linalg, "nuclear_prox", recording)
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    _, _, X = synth_generate(spec)
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=6, variant=variant)
    variants.solve_variant(X, cfg)
    assert len(seen) == 2 * 6
    for mat, norm in seen:
        want = np.sum(np.linalg.svd(mat, compute_uv=False))
        assert 0 < want and abs(norm - want) <= 1e-12 * want


def _tucker_start(X, rank):
    cfg = SolverConfig(rank=rank, variant="ladmm2")
    X, cfg = admm._prepare(X, cfg)
    return X, cfg, variants._init_tucker(X, cfg)


def test_tucker_start_is_the_truncated_hosvd():
    # span(A), span(B): the top-r left singular vectors of the mode-1 and
    # mode-2 unfoldings (sine of the largest principal angle); R_i = A^T X_i B.
    rng = np.random.default_rng(41)
    X = 3.0 * rng.standard_normal((9, 7, 5))
    X, cfg, state = _tucker_start(X, rank=3)
    for basis, mode in ((state.model.a, 1), (state.model.b, 2)):
        u = np.linalg.svd(reference.unfold(X, mode), full_matrices=False)[0][:, :3]
        assert np.linalg.norm(basis - u @ (u.T @ basis), 2) <= 1e-10
        assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    a, b = state.model.a, state.model.b
    for i in range(X.shape[2]):
        assert_allclose(state.model.core[:, :, i], a.T @ X[:, :, i] @ b, rtol=1e-12)
    assert not state.E.any() and not state.Lam.any()
    seed = admm.initialize(X, cfg)
    assert state.mu == seed.mu and state.mu_cap == seed.mu_cap


def test_tucker_start_zero_and_overflowing_input():
    _, _, state = _tucker_start(np.zeros((6, 5, 3)), rank=2)
    assert not state.model.a.any() and not state.model.b.any()
    assert state.mu == admm.ETA_INIT
    # Slice norms overflow here, but the Grams of X / max|X| do not.
    rng = np.random.default_rng(42)
    for X in (np.full((4, 4, 2), 1e160), 1e160 * rng.standard_normal((6, 5, 3))):
        with np.errstate(over="ignore"):
            _, _, state = _tucker_start(X, rank=2)
        for basis in (state.model.a, state.model.b):
            assert np.isfinite(basis).all()
            assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)


def _low_rank_instance():
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    return synth_generate(spec)[2]


def test_tucker_start_penalty_meets_the_largest_residual():
    # Unmasked, mu0 = max(eta*N / sum ||X_i||, lambda / max|X - A R B^T|),
    # which here raises mu, and the cap scales with it: the first E step's
    # threshold lambda/mu0 is the largest residual of the start.
    X, cfg, state = _tucker_start(_low_rank_instance(), rank=3)
    resid = X - tensor.reconstruct(state.model.a, state.model.core, state.model.b)
    raised = cfg.resolved_lambda(X.shape) / np.max(np.abs(resid))
    data_scaled = admm.initialize(X, cfg).mu
    assert raised > 10 * data_scaled
    assert_allclose(state.mu, max(data_scaled, raised), rtol=1e-12)
    assert state.mu_cap == cfg.mu_cap_factor * state.mu


def test_tucker_start_keeps_the_data_scaled_penalty():
    # A masked start fits zero-filled data, so its residual is no outlier
    # scale; zero input has no residual, and 1e160 input overflows the slice
    # norms (mu0 = 0, which the first E step turns into an abort).  Each keeps
    # admm.initialize's penalty and cap, though lambda = 1e4 would raise mu
    # on the zero-filled data without its mask.
    X = _low_rank_instance()
    mask = np.random.default_rng(47).random(X.shape) < 0.7
    filled = np.where(mask, X, 0.0)
    cases = {"masked": (filled, mask), "unmasked": (filled, None),
             "zero": (np.zeros_like(X), None), "overflowing": (np.full((4, 4, 2), 1e160), None)}
    for name, (x, m) in cases.items():
        cfg = SolverConfig(rank=2, lam=1e4, variant="ladmm2", mask=m)
        with np.errstate(over="ignore"):
            x, cfg = admm._prepare(x, cfg)
            state, seed = variants._init_tucker(x, cfg), admm.initialize(x, cfg)
        kept = (state.mu, state.mu_cap) == (seed.mu, seed.mu_cap)
        assert kept == (name != "unmasked"), name


@pytest.mark.parametrize("variant", ("admm2", *variants.LADMM_VARIANTS,
                                     *variants.DEGREE3_SUB_VARIANTS))
def test_ladmm_start_takes_no_svd(monkeypatch, variant):
    # Counted around the start that the loop is given, which it runs first.
    real_svd, real_iterate, calls, in_start = np.linalg.svd, admm._iterate, [], []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    def iterate(X, cfg, start, *args, **kwargs):
        def counted_start(X, cfg):
            before = len(calls)
            state = start(X, cfg)
            in_start.append(len(calls) - before)
            return state
        return real_iterate(X, cfg, counted_start, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(admm, "_iterate", iterate)
    _, _, X = synth_generate(SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2,
                                       p_clean=0.8, seed=29))
    cfg = SolverConfig(rank=3, alpha=1e-4, max_iters=2, variant=variant)
    variants.solve_variant(X, cfg)
    assert in_start == [0]


def test_tucker_start_penalty_is_bounded_by_the_cap_factor():
    # Noiseless data: the start fits X to round-off, so lambda / max|X - A R B^T|
    # is near 1e16 times the data-scaled penalty; mu0 stops at mu_cap_factor
    # times it, and each variant still ends "tol" at once at tol 1e-12.
    for seed in (5, 6, 7):
        spec = SynthSpec(m=20, n=20, n_slices=6, rank_a=3, rank_b=3, p_clean=1.0,
                         seed=seed)
        low_rank, _, X = synth_generate(spec)
        for variant in ("ladmm2", *variants.DEGREE3_SUB_VARIANTS):
            alpha = 1e-2 if variant == "ladmm2" else 1e-5
            cfg = SolverConfig(rank=5, alpha=alpha, lam=1e4, tol=1e-12, max_iters=50,
                               variant=variant)
            x, prepared = admm._prepare(X, cfg)
            state = variants._init_tucker(x, prepared)
            assert state.mu == cfg.mu_cap_factor * admm._data_penalty(x)
            model, _, report = variants.solve_variant(X, cfg)
            assert report.termination == "tol" and report.n_iterations <= 2, variant
            assert rel_error(model.reconstruct(), low_rank) <= 1e-8, variant


@pytest.mark.parametrize("lam", [None, 1e4])
def test_degree3_start_is_the_tucker_start_with_copies(lam):
    # The start raises mu by f ~ 30 here at the default lambda, ~ 3e6 at 1e4.
    X = _low_rank_instance()
    cfg = SolverConfig(rank=3, alpha=1e-5, lam=lam, variant="admm3_fro")
    X, cfg = admm._prepare(X, cfg)
    tucker, state = variants._init_tucker(X, cfg), variants._init_degree3(X, cfg)
    for name in ("a", "b", "core"):
        assert np.array_equal(getattr(state.model, name), getattr(tucker.model, name))
    assert (state.mu, state.mu_cap) == (tucker.mu, tucker.mu_cap)
    f = state.mu / admm._data_penalty(X)
    assert f > 10
    for copy, primal in ((state.U, state.model.a), (state.V, state.model.b),
                         (state.K, state.model.core)):
        assert np.array_equal(copy, primal) and not np.shares_memory(copy, primal)
    for zero in (state.E, state.Lam, state.Y, state.Y_U, state.Y_V):
        assert not zero.any()
    N = X.shape[2]
    rules = {"mu_K": admm.ETA_INIT * N / sum(np.linalg.norm(state.model.core[:, :, i])
                                             for i in range(N)),
             "mu_U": admm.ETA_INIT * N / np.linalg.norm(state.model.a),
             "mu_V": admm.ETA_INIT * N / np.linalg.norm(state.model.b)}
    for name, rule in rules.items():
        assert_allclose(getattr(state, name), np.sqrt(f) * rule, rtol=1e-14, err_msg=name)
        assert getattr(state, name + "_cap") == cfg.mu_cap_factor * getattr(state, name)


def test_degree3_start_keeps_data_scaled_splits_when_mu_is_kept():
    # A masked start keeps the data-scaled mu (f = 1), and so do its splits.
    X = _low_rank_instance()
    mask = np.random.default_rng(48).random(X.shape) < 0.7
    cfg = SolverConfig(rank=3, alpha=1e-5, variant="admm3_nuc", mask=mask)
    X, cfg = admm._prepare(np.where(mask, X, 0.0), cfg)
    state = variants._init_degree3(X, cfg)
    assert state.mu == admm._data_penalty(X)
    assert state.mu_U == admm.ETA_INIT * X.shape[2] / np.linalg.norm(state.model.a)


def test_tucker_start_takes_no_svd(monkeypatch):
    # The start runs inside the loop now, so this is checked on the start alone.
    def no_svd(*args, **kwargs):
        raise AssertionError("the Tucker-2 start took an SVD")

    X = np.random.default_rng(44).standard_normal((9, 7, 5))
    cfg = SolverConfig(rank=3, variant="ladmm2")
    X, cfg = admm._prepare(X, cfg)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    variants._init_tucker(X, cfg)


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_holds_x_and_four_buffers(variant):
    # Besides the slice-major copy of X, a solve holds E, Lam and two work
    # buffers; everything else it allocates is r-sized, so no iteration
    # allocates a data-sized array.
    spec = SynthSpec(m=40, n=30, n_slices=24, rank_a=3, rank_b=3, p_clean=0.8, seed=45)
    X = np.ascontiguousarray(synth_generate(spec)[2])
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=8, variant=variant)
    tracemalloc.start()
    try:
        _, _, report = variants.solve_variant(X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_iterations == 8
    assert peak <= 5.5 * X.nbytes, peak / X.nbytes


def _stein_oracle(state, p, left, right):
    # Each slice's Stein equation as one dense r^2 x r^2 solve:
    # mu_K*K_i + mu*L^T L K_i R^T R = L^T P_i R + mu_K*R_i + Y_i.
    r = left.shape[1]
    system = (state.mu_K * np.eye(r * r)
              + state.mu * np.kron(right.T @ right, left.T @ left))
    out = np.empty_like(state.K)
    for i in range(out.shape[2]):
        h = (left.T @ p[:, :, i] @ right + state.mu_K * state.model.core[:, :, i]
             + state.Y[:, :, i])
        vec = np.linalg.solve(system, h.reshape(-1, order="F"))
        out[:, :, i] = vec.reshape((r, r), order="F")
    return out


def _row_basis_oracle(state, p, other, weight):
    # sum_i P_i^T (W K_i) against I + weight * sum_i K_i^T W^T W K_i.
    slices = range(state.K.shape[2])
    rhs = sum(p[:, :, i].T @ (other @ state.K[:, :, i]) for i in slices)
    gram = sum(state.K[:, :, i].T @ other.T @ other @ state.K[:, :, i] for i in slices)
    return rhs, np.eye(other.shape[1]) + weight * gram


def test_passed_g_matches_explicit_forms():
    # The sweeps form G_i = W^T Delta_i once, after the W step, and pass it
    # to the next basis step and the core step; each step matches the
    # explicit forms, which take P = mu*Delta = mu*Xt + Lambda, Lambda = mu*Lam.
    rng = np.random.default_rng(46)
    state = make_degree3_state(rng, m=9, n=7, N=4)
    x_tilde = rng.standard_normal(state.E.shape)
    delta = x_tilde + state.Lam
    p = state.mu * delta
    a, u = state.model.a, state.U
    rhs_b, sys_b = _row_basis_oracle(state, p, a, state.mu)
    rhs_v, sys_v = _row_basis_oracle(state, p, u, state.mu / state.mu_V)
    anchor_v = state.model.b + state.Y_V / state.mu_V
    steps = {
        "B": (a, lambda g: admm.update_B(state, g), np.linalg.solve(sys_b.T, rhs_b.T).T),
        "K": (a, lambda g: admm.update_K(state, g), _stein_oracle(state, p, a, state.model.b)),
        "V": (u, lambda g: variants.degree3_update_V(state, g),
              np.linalg.solve(sys_v.T, (anchor_v + rhs_v / state.mu_V).T).T),
        "K (degree 3)": (u, lambda g: admm._stein_core(state, g, u, state.V),
                         _stein_oracle(state, p, u, state.V)),
    }
    for name, (basis, step, explicit) in steps.items():
        g = basis.T @ admm._slices(delta)
        assert rel_error(step(g), explicit) <= 1e-12, name


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("variant", ["admm2", *variants.LADMM_VARIANTS])
def test_reported_err_rec_and_l1_match_direct_forms(variant, masked):
    # Every variant takes err_rec from the dual update's D = Delta - L' - U,
    # admm2 (L' = A K B^T) with r x r products on top, and ||E||_1 from the E
    # step's clip.  At every iteration they match the direct forms on the
    # returned factors.
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    _, _, X = synth_generate(spec)
    mask = np.random.default_rng(48).random(X.shape) < 0.7 if masked else None
    for k in range(1, 9):
        cfg = SolverConfig(rank=3, alpha=1e-2, tol=1e-30, max_iters=k, mask=mask,
                           variant=variant)
        model, E, report = variants.solve_variant(X, cfg)
        last = report.iterations[-1]
        assert last.iter == k
        resid = X - model.reconstruct() - E
        direct = max(np.sum(resid[:, :, i] ** 2) / np.sum(X[:, :, i] ** 2) for i in range(5))
        assert abs(last.err_rec - direct) <= 1e-9 * direct, k
        l1 = cfg.resolved_lambda(X.shape) * tensor.l1(E, mask)
        assert abs(last.objective["l1_sparse"] - l1) <= 1e-12 * l1, k


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_data_sized_l1_per_iteration(monkeypatch, variant):
    # ||E||_1 comes from the E step's own clip; only the core's l1 is taken.
    # _calls_per_iteration counts calls of an attribute, so the data-sized
    # calls of tensor.l1 are forwarded to a probe's.
    probe = type("Probe", (), {"data_sized": staticmethod(lambda: None)})
    real = tensor.l1

    def l1(x, *args, **kwargs):
        if np.shape(x)[:2] == (14, 12):
            probe.data_sized()
        return real(x, *args, **kwargs)

    monkeypatch.setattr(tensor, "l1", l1)
    assert _calls_per_iteration(monkeypatch, probe, "data_sized", variant) == 0
    assert _calls_per_iteration(monkeypatch, tensor, "l1", variant) > 0


@pytest.mark.parametrize("scale", [1.0, 1e-150], ids=["unit", "tiny-threshold"])
@pytest.mark.parametrize("variant, module, name", [
    ("admm2", admm, "_admm2_sweep"), ("ladmm2", variants, "_ladmm_sweep"),
    ("admm3_fro", variants, "_degree3_sweep")])
def test_sweep_target_is_xt_plus_lam_over_mu(monkeypatch, variant, module, name, scale):
    # The loop hands every sweep L + C, C the E step's clip, for Xt + Lam,
    # Lam = Lambda/mu (E = T - C).  At a threshold lambda/mu below admm._TAU_MIN, ||E||_1 is
    # taken by tensor.l1, which must leave C as it is.
    real, errors = getattr(module, name), []

    def sweep(state, X, target, cfg, report):
        want = X - state.E + state.Lam
        errors.append(rel_error(target, want))
        yield from real(state, X, target, cfg, report)

    monkeypatch.setattr(module, name, sweep)
    X = scale * _low_rank_instance()
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=6, variant=variant)
    with np.errstate(under="ignore"):
        _, _, report = variants.solve_variant(X, cfg)
    assert report.n_iterations == 6
    assert (cfg.resolved_lambda(X.shape) / report.iterations[0].mu < admm._TAU_MIN) == (
        scale < 1)
    assert max(errors) <= 1e-13, errors


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_slice_blocks_keep_the_bits(monkeypatch, variant, masked):
    # The E step and the tail run slice-block by slice-block.  Their passes
    # are elementwise or per slice, so blocks of 3, 3 and 1 slices, of 2, 2,
    # 2 and 1, or of one slice each give the one-block solve's bits, the
    # scaled dual and the next shrinkage argument that the tail builds
    # included.
    spec = SynthSpec(m=14, n=12, n_slices=7, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    _, _, X = synth_generate(spec)
    mask = np.random.default_rng(49).random(X.shape) < 0.7 if masked else None
    alpha = 1e-2 if variant in ("admm2", "ladmm2") else 1e-4
    cfg = SolverConfig(rank=3, alpha=alpha, tol=1e-9, max_iters=150, mask=mask,
                       variant=variant)
    runs = []
    for slices, n_blocks in ((None, 1), (3, 3), (2, 4), (1, 7)):
        budget = admm._BLOCK_BYTES if slices is None else slices * X[:, :, 0].nbytes
        monkeypatch.setattr(admm, "_BLOCK_BYTES", budget)
        assert len(admm._blocks(X)) == n_blocks
        runs.append(variants.solve_variant(X, cfg))
    one, e_one, rep_one = runs[0]
    for many, e_many, rep_many in runs[1:]:
        for label, ref, got in zip("ABRE", (one.a, one.b, one.core, e_one),
                                   (many.a, many.b, many.core, e_many)):
            assert np.array_equal(ref, got), label
        assert rep_one.n_iterations == rep_many.n_iterations
        assert np.array_equal([rec.err_rec for rec in rep_one.iterations],
                              [rec.err_rec for rec in rep_many.iterations])


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("variant", ["admm2", "admm3_fro", "admm3_nuc"])
def test_dual_ascent_is_derived_from_the_sweep_target(monkeypatch, variant, masked):
    # The loop forms U_{k+1} = (mu_k/mu_{k+1})*(Delta - L_{k+1}) over the
    # sweep's target Delta = Xt + U_k: with Lambda = mu*Lam, the ascent
    # Lambda_k + mu_k*(X - L_{k+1} - E_k) without X - L - E.
    if variant == "admm2":
        module, name, carriers = admm, "_admm2_sweep", ("model.a", "K", "model.b")
    else:
        module, name, carriers = variants, "_degree3_sweep", ("U", "K", "V")
    real, expected, errors = getattr(module, name), [], []

    def sweep(state, X, target, cfg, report):
        if expected:
            errors.append(rel_error(state.mu * state.Lam, expected.pop()))
        lam, E, mu = state.mu * state.Lam, state.E.copy(), state.mu
        yield from real(state, X, target, cfg, report)
        left, core, right = attrgetter(*carriers)(state)
        expected.append(lam + mu * (X - tensor.reconstruct(left, core, right) - E))

    monkeypatch.setattr(module, name, sweep)
    X = _low_rank_instance()
    mask = np.random.default_rng(50).random(X.shape) < 0.7 if masked else None
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=8, mask=mask,
                       variant=variant)
    _, _, report = variants.solve_variant(X, cfg)
    assert report.n_iterations == 8 and len(errors) == 7
    assert max(errors) <= 1e-12, errors


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_dual_aborts_naming_lam(monkeypatch, variant):
    # No whole-tensor scan of Lam is left in the loop: the tail proves it
    # finite, by the norms of D in admm2 and LADMM and block by block in
    # degree 3.  An inf planted after the sweep, in the target the dual
    # ascends from, still aborts the run and names Lam.
    module, name = ((admm, "_admm2_sweep") if variant == "admm2" else
                    (variants, "_ladmm_sweep") if variant in variants.LADMM_VARIANTS
                    else (variants, "_degree3_sweep"))
    real = getattr(module, name)

    def sweep(state, X, target, cfg, report):
        yield from real(state, X, target, cfg, report)
        target[2, 1, 3] = np.inf

    monkeypatch.setattr(module, name, sweep)
    cfg = SolverConfig(rank=3, alpha=1e-4, tol=1e-30, max_iters=4, variant=variant)
    with np.errstate(all="ignore"), pytest.raises(admm.SolverAbort) as excinfo:
        variants.solve_variant(_low_rank_instance(), cfg)
    assert str(excinfo.value) == "non-finite values in Lam at iteration 1"
    assert excinfo.value.report.termination == "abort"


@pytest.mark.parametrize("variant, masked", [("admm2", True), ("ladmm2", False),
                                             ("admm3_fro", False)])
def test_penalties_grow_by_rho_squared_once_the_support_size_holds(monkeypatch, variant,
                                                                   masked):
    # mu and every split penalty grow by rho in an iteration whose nnz(E)
    # differs from the last iteration's, the first included, and by rho*rho
    # where it repeats.  mu, mu_K and nnz(E) are read from the records, and
    # mu_U and mu_V after each ascent.  Each run takes both factors after its
    # first iteration, but for the completion: at lambda = 1e4 its E holds
    # the hidden entries alone, so nnz(E) repeats in every later iteration.
    if masked:  # A4's completion instance
        spec = SynthSpec(m=50, n=50, n_slices=20, rank_a=5, rank_b=5, p_clean=1.0, seed=4242)
        _, _, X = synth_generate(spec)
        mask = make_mask(X.shape, 0.7, seed=11)
        X = np.where(mask, X, 0.0)
        cfg = SolverConfig(rank=10, lam=1e4, tol=1e-10, mask=mask)
    else:
        X = synth_generate(BENCH_SPEC)[2]
        alpha = 1e-2 if variant == "ladmm2" else 1e-5
        cfg = SolverConfig(rank=10, alpha=alpha, tol=1e-10, variant=variant)
    real, penalties = admm._ascend, []

    def ascend(state, splits, *args):
        errs = real(state, splits, *args)
        penalties.append({row.penalty: getattr(state, row.penalty) for row in splits})
        return errs

    monkeypatch.setattr(admm, "_ascend", ascend)
    _, _, report = variants.solve_variant(X, cfg)
    records = report.iterations
    assert report.termination == "tol" and all(rec.nnz_E is not None for rec in records)
    start = {"admm2": admm.initialize, "ladmm2": admm._init_tucker,
             "admm3_fro": variants._init_degree3}[variant](*admm._prepare(X, cfg))
    assert records[0].mu == cfg.rho * start.mu
    rho = cfg.rho
    repeats = [cur.nnz_E == prev.nnz_E for prev, cur in zip(records, records[1:])]
    assert any(repeats) and all(repeats) == masked
    for k, repeat in enumerate(repeats, start=1):
        factor = rho * rho if repeat else rho
        assert records[k].mu == factor * records[k - 1].mu, k
        for name, value in penalties[k].items():
            assert value == factor * penalties[k - 1][name], (k, name)
    assert sorted(penalties[0]) == {"admm2": ["mu_K"], "ladmm2": [],
                                    "admm3_fro": ["mu_K", "mu_U", "mu_V"]}[variant]
    if variant != "ladmm2":
        assert [rec.mu_K for rec in records] == [p["mu_K"] for p in penalties]
