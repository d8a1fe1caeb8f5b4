"""Degree-2 ADMM solver tests: block updates against closed forms and
plug-back oracles, initialisation, the loop's E step, dual ascent and
residuals, and the full loop."""

import warnings
from operator import attrgetter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rkca import admm, tensor
from rkca.data import SynthSpec, synth_generate
from rkca.model import FactorModel, SolverConfig
from rkca.variants import solve_variant

from conftest import rel_error
from reference import dual_ascent, shrink_E


def make_state(rng, m=6, n=5, N=3, r=3, mu=0.7, mu_K=1.3):
    # Lam is the scaled dual U = Lambda/mu: the oracles take Lambda = mu*Lam.
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
        mu=mu,
        mu_K=mu_K,
        mu_cap=mu * 1e7,
        mu_K_cap=mu_K * 1e7,
    )


def test_initialize_zero_input():
    X = np.zeros((6, 5, 3))
    cfg = SolverConfig(rank=2)
    state = admm.initialize(X, cfg)
    assert not state.model.a.any() and not state.model.b.any()
    assert not state.model.core.any() and not state.K.any()
    assert state.mu == admm.ETA_INIT and state.mu_K == admm.ETA_INIT


def test_initialize_diagonal_slice():
    X = np.zeros((4, 4, 1))
    X[:, :, 0] = np.diag([4.0, 3.0, 2.0, 1.0])
    cfg = SolverConfig(rank=2)
    state = admm.initialize(X, cfg)
    assert_allclose(state.model.core[:, :, 0], np.diag([4.0, 3.0]), atol=1e-12)
    assert_allclose(np.abs(state.model.a), np.eye(4)[:, :2], atol=1e-12)
    assert_allclose(np.abs(state.model.b), np.eye(4)[:, :2], atol=1e-12)


def canonical_signs(u):
    """+-1 per column of u (or of each matrix of a stack) that makes the
    column's largest-|.| entry, the first on ties, positive."""
    top = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(top < 0, -1.0, 1.0)


def test_initialize_matches_per_slice_svd():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 6, 4))
    cfg = SolverConfig(rank=3)
    state = admm.initialize(X, cfg)
    a_sum = np.zeros((8, 3))
    norm_sum = 0.0
    for i in range(4):
        u, s, vt = np.linalg.svd(X[:, :, i], full_matrices=False)
        a_sum += u[:, :3] * canonical_signs(u[:, :3])
        norm_sum += np.linalg.norm(X[:, :, i])
        assert_allclose(state.model.core[:, :, i], np.diag(s[:3]), atol=1e-12)
    assert_allclose(state.model.a, a_sum / 4, atol=1e-12)
    assert state.mu == pytest.approx(admm.ETA_INIT * 4 / norm_sum)
    assert np.array_equal(state.K, state.model.core)
    assert not state.E.any() and not state.Lam.any() and not state.Y.any()


def low_rank_slices(seed=5, m=40, n=30, N=6, r=3, zero=2):
    """(m, n, N) tensor of exact rank-r slices, slice ``zero`` all zeros, and
    orthonormal bases of each slice's column and row spaces."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((N, m, r)))[0]
    right = np.linalg.qr(rng.standard_normal((N, n, r)))[0]
    xs = left @ (rng.uniform(1.0, 9.0, (N, r, 1)) * right.transpose(0, 2, 1))
    xs[zero] = 0.0
    return np.ascontiguousarray(xs.transpose(1, 2, 0)), left, right


def test_initialize_finds_each_slice_subspace_past_the_sketch_width():
    # w = r + 10 = 13 < min(m, n) = 30: the finder sees only a sketch of each
    # slice, which spans its exact rank-3 column space.
    X, left, right = low_rank_slices()
    state = admm.initialize(X, SolverConfig(rank=3))
    live = [0, 1, 3, 4, 5]
    u, s, v = admm._top_triplets(admm._slices(X)[live], 3)
    for k, i in enumerate(live):
        # sin of the largest principal angle between found and true spaces.
        for found, true in ((u[k], left[i]), (v[k], right[i])):
            assert np.linalg.norm(found - true @ (true.T @ found), 2) <= 1e-10
        exact = np.linalg.svd(X[:, :, i], compute_uv=False)[:3]
        assert_allclose(np.diag(state.model.core[:, :, i]), exact, rtol=0, atol=1e-10)
        assert_allclose(u[k] * s[k] @ v[k].T, X[:, :, i], rtol=0, atol=1e-10)
    assert not state.model.core[:, :, 2].any()
    assert_allclose(state.model.a, u.sum(axis=0) / 6, rtol=0, atol=1e-15)
    assert_allclose(state.model.b, v.sum(axis=0) / 6, rtol=0, atol=1e-15)


def test_initialize_repeats_bitwise():
    X = low_rank_slices()[0] + np.random.default_rng(8).standard_normal((40, 30, 6))
    cfg = SolverConfig(rank=3)
    first, second = admm.initialize(X, cfg), admm.initialize(X, cfg)
    for name in ("model.a", "model.b", "model.core", "K", "mu", "mu_K"):
        get = attrgetter(name)
        assert np.array_equal(get(first), get(second)), name


def test_initialize_takes_one_svd_call(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    X = np.random.default_rng(9).standard_normal((20, 15, 12))
    admm.initialize(X, SolverConfig(rank=4))
    assert calls == [(12, 14, 15)]


def test_start_triplets_have_canonical_signs():
    X = low_rank_slices()[0] + np.random.default_rng(10).standard_normal((40, 30, 6))
    for xs, r in ((admm._slices(X), 3), (admm._slices(X)[:, :8, :6], 6)):
        u, s, v = admm._top_triplets(xs, r)
        assert (canonical_signs(u) == 1.0).all()
        # v is flipped with u: u_i^T X_i v_i is still diag(s_i), s_i >= 0.
        assert_allclose(u.transpose(0, 2, 1) @ xs @ v, s[:, :, None] * np.eye(r),
                        rtol=0, atol=1e-12)
        assert (s >= 0).all()


@pytest.mark.parametrize("big", [1e160, 1e300, 1e307])
def test_masked_start_on_huge_input_has_finite_bases(big):
    # The slice norms overflow; the finder runs on X / max|X|, so the only
    # warnings are the data penalties' overflowing norms, and at 1e307 the
    # sketch X_i Omega does not overflow.
    X = np.random.default_rng(3).standard_normal((12, 10, 4)) * big
    X[:, :, 1] = 0.0
    mask = np.ones(X.shape, dtype=bool)
    mask[::3, ::2] = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = admm.initialize(X, SolverConfig(rank=3, mask=mask))
    assert np.isfinite(state.model.a).all() and np.isfinite(state.model.b).all()
    assert np.isfinite(state.model.core).all()
    assert {str(w.message) for w in caught} <= {"overflow encountered in dot"}


def _penalty(a, b, core, alpha):
    return 0.5 * (np.vdot(a, a) + np.vdot(b, b)) + alpha * tensor.l1(core)


@pytest.mark.parametrize("lam", [None, 1e4])
def test_balanced_start_is_the_tucker_fit_at_the_penalty_minimiser(lam):
    # A -> cA, B -> cB, R -> R/c^2 keeps the Tucker-2 fit; the start takes the
    # c that minimises the degree-2 penalty along that orbit.
    spec = SynthSpec(m=14, n=12, n_slices=5, rank_a=2, rank_b=2, p_clean=0.8, seed=29)
    alpha = 1e-2
    cfg = SolverConfig(rank=3, alpha=alpha, lam=lam)
    X, cfg = admm._prepare(synth_generate(spec)[2], cfg)
    tucker, state = admm._init_tucker(X, cfg), admm._init_balanced(X, cfg)
    a0, b0, core0 = tucker.model.a, tucker.model.b, tucker.model.core
    a, b, core = state.model.a, state.model.b, state.model.core
    assert rel_error(state.model.reconstruct(), tucker.model.reconstruct()) <= 1e-12
    assert_allclose(np.linalg.norm(a), np.linalg.norm(b), rtol=1e-12)
    c = np.linalg.norm(a) / np.linalg.norm(a0)
    basis_sq = np.linalg.norm(a0) ** 2 + np.linalg.norm(b0) ** 2
    assert_allclose(c ** 4, 2 * alpha * tensor.l1(core0) / basis_sq, rtol=1e-12)
    assert abs(c - 1.0) > 0.1
    at_start = _penalty(a, b, core, alpha)
    for s in (1 - 1e-3, 1 + 1e-3):
        assert at_start <= _penalty(s * a, s * b, core / s ** 2, alpha)
    assert (state.mu, state.mu_cap) == (tucker.mu, tucker.mu_cap)
    assert np.array_equal(state.K, core) and not np.shares_memory(state.K, core)
    assert state.Y.shape == core.shape and not state.Y.any()
    assert not state.E.any() and not state.Lam.any()
    assert state.mu_K == admm._data_penalty(core)
    assert state.mu_K_cap == cfg.mu_cap_factor * state.mu_K


def test_balanced_start_keeps_c_one_without_a_minimiser():
    # Zero input (no basis norm) and alpha = 0 (no core penalty) give c = 1.
    for X, alpha in ((np.zeros((6, 5, 3)), 1e-2),
                     (np.random.default_rng(3).standard_normal((6, 5, 3)), 0.0)):
        X, cfg = admm._prepare(X, SolverConfig(rank=2, alpha=alpha))
        tucker, state = admm._init_tucker(X, cfg), admm._init_balanced(X, cfg)
        for part in ("a", "b", "core"):
            assert np.array_equal(getattr(state.model, part), getattr(tucker.model, part))
    zero = admm._init_balanced(np.zeros((6, 5, 3)), SolverConfig(rank=2))
    assert zero.mu == zero.mu_K == admm.ETA_INIT


def loop_e_step(state, X, cfg, lam=None):
    # The loop's E step (admm._e_step) on L = A K B^T and T = (X - L) + Lam,
    # built as the start builds it: returns E and ||E||_1 as the loop takes
    # it, from E and its clip.  Its block-wise nnz(E) is E's support size.
    recon, arg = np.empty_like(X), np.empty_like(X)
    views = admm._block_views(X, (X, cfg.mask, state.E, state.Lam, recon, arg))
    tensor.reconstruct(state.model.a, state.K, state.model.b, out=recon)
    admm._shrink_arg(X, recon, state.Lam, arg)
    lam = cfg.resolved_lambda(X.shape) if lam is None else lam
    support = np.empty(admm._slices(views[1][id(X)][0]).shape, dtype=bool)
    l1, nnz, _ = admm._e_step(state, views, cfg, lam, recon, arg, support)
    assert nnz == np.count_nonzero(state.E)
    return state.E, l1


def loop_tail(state, X, cfg, carriers, derived):
    # The loop's tail (admm._tail) on the target Delta = Xt + Lam that the E
    # step hands the sweep, then the core split's ascent (admm._ascend):
    # returns err_rec and err_R as the loop reports them.
    target, spare = X - state.E + state.Lam, np.empty_like(X)
    views = admm._block_views(X, (X, state.E, state.Lam, target, spare))
    diffs = [admm._split_diff(state, admm.CORE_SPLIT)]
    _, _, err_rec, finite = admm._tail(state, X, admm._sq_norms(X), views, carriers, target,
                                       spare, diffs if derived else [], cfg.rho)
    assert finite
    return err_rec, admm._ascend(state, (admm.CORE_SPLIT,), diffs, cfg.rho)["err_R"]


def loop_residuals(state, X):
    # err_rec from the residual (X - A R B^T) - E, which the tail builds for
    # carriers (A, R, B), and err_R = worst ||R_i - K_i||^2 / ||R_i||^2.
    carriers = (state.model.a, state.model.core, state.model.b)
    return loop_tail(state, X, SolverConfig(rank=3), carriers, False)


def test_update_E_zero_residual_and_scalar():
    rng = np.random.default_rng(1)
    state = make_state(rng)
    cfg = SolverConfig(rank=3, lam=0.5)
    X = tensor.reconstruct(state.model.a, state.K, state.model.b)
    state.Lam = np.zeros_like(X)
    assert_allclose(loop_e_step(state, X, cfg)[0], np.zeros_like(X))

    scalar = admm.SolverState(
        model=FactorModel(a=np.ones((1, 1)), b=np.ones((1, 1)),
                          core=np.zeros((1, 1, 1))),
        E=np.zeros((1, 1, 1)),
        K=np.zeros((1, 1, 1)),
        Lam=np.zeros((1, 1, 1)),
        Y=np.zeros((1, 1, 1)),
        mu=1.0, mu_K=1.0, mu_cap=1e7, mu_K_cap=1e7,
    )
    X1 = np.full((1, 1, 1), 1.0)
    out, _ = loop_e_step(scalar, X1, SolverConfig(rank=1, lam=0.3))
    assert out[0, 0, 0] == pytest.approx(0.7)


def test_update_E_masked_passthrough():
    rng = np.random.default_rng(2)
    state = make_state(rng)
    X = rng.standard_normal(state.E.shape)
    mask = rng.random(X.shape) < 0.5
    cfg = SolverConfig(rank=3, lam=0.4, mask=mask)
    raw = (
        X
        - tensor.reconstruct(state.model.a, state.K, state.model.b)
        + state.Lam  # Lambda/mu
    )
    out, _ = loop_e_step(state, X, cfg)
    assert np.array_equal(out[~mask], raw[~mask])


def test_update_A_zero_and_closed_form():
    rng = np.random.default_rng(3)
    state = make_state(rng)
    state.K = np.zeros_like(state.K)
    state.Lam = np.zeros_like(state.Lam)
    x_tilde = np.zeros_like(state.E)
    assert_allclose(admm.update_A(state, x_tilde + state.Lam), np.zeros_like(state.model.a))

    # N=1, B=I, K=I, Lam=0, square: A = mu/(1+mu) * Xt.
    r = 3
    model = FactorModel(a=np.zeros((r, r)), b=np.eye(r), core=np.zeros((r, r, 1)))
    state = admm.SolverState(
        model=model,
        E=np.zeros((r, r, 1)),
        K=np.eye(r)[:, :, None],
        Lam=np.zeros((r, r, 1)),
        Y=np.zeros((r, r, 1)),
        mu=2.0, mu_K=1.0, mu_cap=1e7, mu_K_cap=1e7,
    )
    x_tilde = rng.standard_normal((r, r, 1))
    out = admm.update_A(state, x_tilde + state.Lam)
    assert_allclose(out, (2.0 / 3.0) * x_tilde[:, :, 0], atol=1e-12)


def sweep_g(state, x_tilde):
    # The sweep's G_i = A^T Delta_i, Delta = Xt + Lam, for the B and K steps.
    return state.model.a.T @ admm._slices(x_tilde + state.Lam)


def lagrangian_a_terms(a, state, x_tilde):
    total = 0.5 * np.sum(a**2)
    for i in range(x_tilde.shape[2]):
        resid = x_tilde[:, :, i] - a @ state.K[:, :, i] @ state.model.b.T
        total += np.sum(state.mu * state.Lam[:, :, i] * resid)
        total += 0.5 * state.mu * np.sum(resid**2)
    return total


def grad_a(a, state, x_tilde):
    g = a.copy()
    for i in range(x_tilde.shape[2]):
        resid = x_tilde[:, :, i] - a @ state.K[:, :, i] @ state.model.b.T
        g -= (state.mu * state.Lam[:, :, i] + state.mu * resid) @ state.model.b @ state.K[:, :, i].T
    return g


def test_update_A_stationarity_oracle():
    rng = np.random.default_rng(4)
    state = make_state(rng)
    x_tilde = rng.standard_normal(state.E.shape)

    # Validate the gradient formula by finite differences at a random point.
    a0 = rng.standard_normal(state.model.a.shape)
    g = grad_a(a0, state, x_tilde)
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(a0.shape)
        d /= np.linalg.norm(d)
        fd = (
            lagrangian_a_terms(a0 + h * d, state, x_tilde)
            - lagrangian_a_terms(a0 - h * d, state, x_tilde)
        ) / (2 * h)
        assert fd == pytest.approx(np.sum(g * d), rel=1e-5)

    # The update must zero that gradient.
    a_new = admm.update_A(state, x_tilde + state.Lam)
    assert np.linalg.norm(grad_a(a_new, state, x_tilde)) <= 1e-8 * (
        1.0 + np.linalg.norm(a_new)
    )


def test_update_B_stationarity():
    rng = np.random.default_rng(5)
    state = make_state(rng)
    x_tilde = rng.standard_normal(state.E.shape)
    b_new = admm.update_B(state, sweep_g(state, x_tilde))
    g = b_new.copy()
    for i in range(x_tilde.shape[2]):
        resid = x_tilde[:, :, i] - state.model.a @ state.K[:, :, i] @ b_new.T
        g -= (state.mu * state.Lam[:, :, i] + state.mu * resid).T @ state.model.a @ state.K[:, :, i]
    assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(b_new))


def test_update_K_trivial_cases():
    rng = np.random.default_rng(6)
    state = make_state(rng)
    x_tilde = rng.standard_normal(state.E.shape)
    state.model.a = np.zeros_like(state.model.a)
    out = admm.update_K(state, sweep_g(state, x_tilde))
    assert_allclose(out, state.model.core + state.Y / state.mu_K, atol=1e-10)

    r = 3
    model = FactorModel(
        a=np.eye(r), b=np.eye(r), core=rng.standard_normal((r, r, 2))
    )
    state = admm.SolverState(
        model=model,
        E=np.zeros((r, r, 2)),
        K=np.zeros((r, r, 2)),
        Lam=rng.standard_normal((r, r, 2)),
        Y=rng.standard_normal((r, r, 2)),
        mu=1.0, mu_K=1.0, mu_cap=1e7, mu_K_cap=1e7,
    )
    x_tilde = rng.standard_normal((r, r, 2))
    out = admm.update_K(state, sweep_g(state, x_tilde))
    expected = (state.mu * state.Lam + x_tilde + model.core + state.Y) / 2.0
    assert_allclose(out, expected, atol=1e-10)


def k_plugback_residual(state, x_tilde, K):
    """Worst relative residual of the per-slice core stationarity equation."""
    a, b = state.model.a, state.model.b
    worst = 0.0
    for i in range(x_tilde.shape[2]):
        rhs = (
            a.T @ (state.mu * state.Lam[:, :, i] + state.mu * x_tilde[:, :, i]) @ b
            + state.mu_K * state.model.core[:, :, i]
            + state.Y[:, :, i]
        )
        lhs = state.mu_K * K[:, :, i] + state.mu * a.T @ a @ K[:, :, i] @ (b.T @ b)
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)))
    return worst


def test_update_K_plugback():
    rng = np.random.default_rng(7)
    state = make_state(rng, r=4)
    x_tilde = rng.standard_normal(state.E.shape)
    K = admm.update_K(state, sweep_g(state, x_tilde))
    assert k_plugback_residual(state, x_tilde, K) <= 1e-8


def test_update_R_cases():
    rng = np.random.default_rng(8)
    state = make_state(rng)
    state.Y = np.zeros_like(state.Y)
    cfg = SolverConfig(rank=3, alpha=1e-12)
    out = admm.update_R(state, cfg.alpha)
    assert_allclose(out, state.K, atol=1e-10)

    state.K = 1e-3 * rng.standard_normal(state.K.shape)
    state.Y = np.zeros_like(state.Y)
    cfg = SolverConfig(rank=3, alpha=1.0)
    assert not admm.update_R(state, cfg.alpha).any()

    state = make_state(rng)
    cfg = SolverConfig(rank=3, alpha=0.3)
    out = admm.update_R(state, cfg.alpha)
    arg = state.K - state.Y / state.mu_K
    thr = 0.3 / state.mu_K
    expected = np.sign(arg) * np.maximum(np.abs(arg) - thr, 0.0)
    assert np.array_equal(out, expected)


def test_update_duals_reevaluation():
    rng = np.random.default_rng(9)
    state = make_state(rng)
    cfg = SolverConfig(rank=3, rho=1.4)
    X = rng.standard_normal(state.E.shape)
    x_tilde = X - state.E
    lam_old, y_old = state.mu * state.Lam, state.Y.copy()
    mu_old, mu_k_old = state.mu, state.mu_K
    recon = tensor.reconstruct(state.model.a, state.K, state.model.b)
    loop_tail(state, X, cfg, (state.model.a, state.K, state.model.b), True)
    assert_allclose(state.mu * state.Lam, lam_old + mu_old * (x_tilde - recon), atol=1e-12)
    assert_allclose(state.Y, y_old + mu_k_old * (state.model.core - state.K), atol=1e-12)
    assert state.mu == pytest.approx(1.4 * mu_old)
    assert state.mu_K == pytest.approx(1.4 * mu_k_old)


def test_update_duals_feasible_and_capped():
    rng = np.random.default_rng(10)
    state = make_state(rng)
    cfg = SolverConfig(rank=3)
    state.model.core = state.K.copy()
    X = tensor.reconstruct(state.model.a, state.K, state.model.b) + state.E
    lam_old, y_old = state.mu * state.Lam, state.Y.copy()
    state.mu_cap = state.mu  # already at cap
    loop_tail(state, X, cfg, (state.model.a, state.K, state.model.b), True)
    assert_allclose(state.mu * state.Lam, lam_old, atol=1e-12)
    assert_allclose(state.Y, y_old, atol=1e-12)
    assert state.mu == state.mu_cap


def test_residuals_formula():
    rng = np.random.default_rng(11)
    state = make_state(rng)
    X = state.model.reconstruct() + state.E
    err_rec, err_core = loop_residuals(state, X)
    assert err_rec <= 1e-24

    X = rng.standard_normal(state.E.shape)
    recon = state.model.reconstruct()
    err_rec, err_core = loop_residuals(state, X)
    expect_rec = max(
        np.sum((X[:, :, i] - recon[:, :, i] - state.E[:, :, i]) ** 2)
        / np.sum(X[:, :, i] ** 2)
        for i in range(X.shape[2])
    )
    expect_core = max(
        np.sum((state.model.core[:, :, i] - state.K[:, :, i]) ** 2)
        / np.sum(state.model.core[:, :, i] ** 2)
        for i in range(X.shape[2])
    )
    assert err_rec == pytest.approx(expect_rec)
    assert err_core == pytest.approx(expect_core)


def test_residuals_sparse_absorbs_everything():
    # A zero model with E = X is perfectly feasible for the data constraint.
    rng = np.random.default_rng(14)
    X = rng.standard_normal((6, 5, 3))
    state = admm.SolverState(
        model=FactorModel(a=np.zeros((6, 2)), b=np.zeros((5, 2)),
                          core=np.zeros((2, 2, 3))),
        E=X.copy(),
        K=np.zeros((2, 2, 3)),
        Lam=np.zeros_like(X),
        Y=np.zeros((2, 2, 3)),
        mu=1.0, mu_K=1.0, mu_cap=1e7, mu_K_cap=1e7,
    )
    err_rec, err_core = loop_residuals(state, X)
    assert err_rec == 0.0 and err_core == 0.0


def test_residuals_zero_denominator():
    rng = np.random.default_rng(12)
    state = make_state(rng)
    X = np.zeros(state.E.shape)
    recon = state.model.reconstruct()
    err_rec, _ = loop_residuals(state, X)
    assert np.isfinite(err_rec)
    expect = max(
        np.sum((recon[:, :, i] + state.E[:, :, i]) ** 2) for i in range(X.shape[2])
    )
    assert err_rec == pytest.approx(expect)


def test_solve_zero_input():
    cfg = SolverConfig(rank=2)
    model, E, report = solve_variant(np.zeros((6, 5, 3)), cfg)
    assert report.n_iterations == 1 and report.termination == "tol"
    assert not model.reconstruct().any() and not E.any()


def test_solve_exact_low_rank_no_noise():
    spec = SynthSpec(m=20, n=20, n_slices=6, rank_a=3, rank_b=3, p_clean=1.0, seed=5)
    low_rank, _, X = synth_generate(spec)
    cfg = SolverConfig(rank=5, lam=1e4, tol=1e-12, max_iters=500)
    model, E, report = solve_variant(X, cfg)
    assert rel_error(model.reconstruct(), low_rank) <= 1e-5
    assert np.abs(E).max() <= 1e-6 * np.abs(low_rank).max()


def test_solve_penalty_monotone_and_capped():
    spec = SynthSpec(m=15, n=12, n_slices=4, rank_a=2, rank_b=2, p_clean=0.8, seed=6)
    _, _, X = synth_generate(spec)
    cfg = SolverConfig(rank=4, tol=1e-12, max_iters=250, mu_cap_factor=100.0)
    _, _, report = solve_variant(X, cfg)
    mus = [rec.mu for rec in report.iterations]
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    assert max(mus) <= 100.0 * mus[0] + 1e-12
    mu_ks = [rec.mu_K for rec in report.iterations]
    assert all(b >= a for a, b in zip(mu_ks, mu_ks[1:]))


def test_solve_deterministic():
    spec = SynthSpec(m=15, n=12, n_slices=4, rank_a=2, rank_b=2, p_clean=0.8, seed=7)
    _, _, X = synth_generate(spec)
    cfg = SolverConfig(rank=4, tol=1e-8, max_iters=200)
    model1, e1, rep1 = solve_variant(X, cfg)
    model2, e2, rep2 = solve_variant(X, cfg)
    assert np.array_equal(model1.a, model2.a)
    assert np.array_equal(model1.core, model2.core)
    assert np.array_equal(e1, e2)
    for r1, r2 in zip(rep1.iterations, rep2.iterations):
        assert (r1.err_rec, r1.err_R, r1.mu, r1.mu_K) == (
            r2.err_rec, r2.err_R, r2.mu, r2.mu_K,
        )


def test_plugback_holds_across_sweeps():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 8, 3))
    cfg = SolverConfig(rank=3, lam=0.2)
    state = admm.initialize(X, cfg)
    for it in range(1, 6):
        state.iters = it
        recon = tensor.reconstruct(state.model.a, state.K, state.model.b)
        state.E = shrink_E(X, recon, state.Lam, 0.2 / state.mu)
        x_tilde = X - state.E
        state.model.a = admm.update_A(state, x_tilde + state.Lam)
        g = sweep_g(state, x_tilde)
        state.model.b = admm.update_B(state, g)
        K = admm.update_K(state, g)
        assert k_plugback_residual(state, x_tilde, K) <= 1e-8
        state.K = K
        state.model.core = admm.update_R(state, cfg.alpha)
        dual_ascent(state, x_tilde, cfg, (state.model.a, state.K, state.model.b),
                    (admm.CORE_SPLIT,))


def test_solve_abort_on_nonfinite():
    # Entries are finite but slice norms overflow, driving mu to zero and the
    # first shrinkage to NaN; the solver must abort with a diagnostic report.
    X = np.full((4, 4, 2), 1e160)
    cfg = SolverConfig(rank=2, max_iters=5)
    with np.errstate(all="ignore"), pytest.raises(admm.SolverAbort) as excinfo:
        solve_variant(X, cfg)
    assert excinfo.value.report is not None
    assert excinfo.value.report.termination == "abort"


def test_solve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_variant(np.zeros((4, 4, 2)), SolverConfig(rank=5))
    bad = np.zeros((3, 3, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_variant(bad, SolverConfig(rank=2))


def _e_step_l1(X, lam, mask=None, scale=1.0):
    # The loop's E step on a crafted X, the state's A and Lam times ``scale``,
    # all slice-major as in a solve: E and ||E||_1 from E and its clip.
    state = make_state(np.random.default_rng(60))
    state.model.a, state.Lam = scale * state.model.a, scale * state.Lam
    X = tensor.slice_major(X)
    state.E, state.Lam = tensor.slice_major(state.E), tensor.slice_major(state.Lam)
    cfg = SolverConfig(rank=3, mask=None if mask is None else tensor.slice_major(mask))
    with np.errstate(all="ignore"):
        E, l1 = loop_e_step(state, X, cfg, lam)
    return E, l1, cfg.mask


@pytest.mark.parametrize("masked", [False, True])
def test_e_step_l1_is_the_l1_of_e(masked):
    # <E, C>/tau equals tensor.l1 of the E step's output, to round-off, and E
    # is bitwise the whole-tensor shrinkage of the residual.
    rng = np.random.default_rng(61)
    X = 3.0 * rng.standard_normal((6, 5, 3))
    mask = rng.random(X.shape) < 0.6 if masked else None
    E, value, mask = _e_step_l1(X, 0.9, mask)
    want = tensor.l1(E, mask)
    assert 0 < want and abs(value - want) <= 1e-12 * want
    state = make_state(np.random.default_rng(60))
    recon = tensor.reconstruct(state.model.a, state.K, state.model.b)
    assert np.array_equal(E, shrink_E(X, recon, state.Lam, 0.9 / state.mu, mask))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_e_step_l1_is_not_finite_for_an_unflagged_non_finite_entry(bad):
    # Unflagged entries pass through the shrinkage with C = 0, so inf * 0 or
    # nan makes the dot nan, and a flagged one (no mask) makes it inf or nan:
    # a finite ||E||_1 still proves E finite.
    X = np.random.default_rng(62).standard_normal((6, 5, 3))
    mask = np.ones(X.shape, dtype=bool)
    X[2, 1, 0], mask[2, 1, 0] = bad, False
    for m in (mask, None):
        E, value, _ = _e_step_l1(X, 0.5, m)
        assert not np.isfinite(value)
        assert not np.isfinite(E[2, 1, 0])


@pytest.mark.parametrize("lam, scale", [(0.0, 1.0), (np.inf, 1.0), (1e-160, 1e-150),
                                        (1e200, 1e250)],
                         ids=["tau-zero", "tau-inf", "tau-tiny", "dot-overflows"])
def test_e_step_l1_falls_back_to_tensor_l1(lam, scale):
    # tau = 0 gives 0/0 and tau = inf inf/inf; a tiny tau could underflow
    # tau*|E| and a huge one overflow the dot.  Each falls back to tensor.l1,
    # exactly, so a report never carries a NaN l1_sparse.
    rng = np.random.default_rng(63)
    X = scale * rng.standard_normal((6, 5, 3))
    mask = rng.random(X.shape) < 0.6
    for m in (None, mask):
        E, value, m = _e_step_l1(X, lam, m, scale)
        assert np.isfinite(value) and value == tensor.l1(E, m)
