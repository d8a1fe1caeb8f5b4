"""Whole-tensor and dense references for the solvers' kernels, plain forms
of their r x r kernels, the test-only algebra, and the 3-way tensor algebra
the tests check them with.

The solvers run the E step and the dual ascent slice-block by slice-block
inside their loop, and solve Stein equations by diagonalising both
coefficients; these are the plain forms the tests compare them with.  The
r x r kernels (``solve_basis``, ``cross_gram``, ``stein_factors`` and
``stein_apply``, ``rec_ratio``, ``ascend`` and the Tucker start's Grams and
residual) are kept here in their direct form, one numpy expression per
formula; the solvers' in-place forms must give the same bits.  So are the
split set-ups each start once wrote by hand (``initialize_splits``,
``balanced_splits``, ``degree3_splits``), which ``admm._open_splits``
replaces, and ``svd``, a thin SVD that only the tests use.  The LADMM
block steps' augmented Lagrangian (``lagrangian``) is here too, with
``log_blocks``, which logs it around every block step of a solve.  The
unfoldings, vectorisation, mode products and Kronecker products follow the
column-major order of ``rkca.tensor``: entry (i, j, k) sits at flat position
i + m*j + m*n*k, and unfoldings are explicit copies, never views.
"""

from itertools import chain
from operator import attrgetter

import numpy as np

from rkca import admm, linalg, tensor, variants

# A linearised-ADMM run has no split: its K, Y and mu_K stay None.
LadmmState = admm.SolverState


def selective_shrink(x, tau, mask, out=None):
    """Soft-shrink the entries flagged by ``mask``; pass the rest through.

    Computed branch-free as x - clip(x, -tau, tau) * mask in one new array of
    x's layout, or in ``out``, a float array of x's shape other than x.  Equal to
    ``np.where(mask, soft_shrink(x, tau), x)`` except for the sign of zeros.
    """
    x = np.asarray(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ValueError(f"mask shape {mask.shape} does not match {x.shape}")
    return linalg._shrink(x, tau, mask, out)


def schatten_prox(x, tau, p):
    """Proximal operator of tau * (Schatten-p norm), p in {1, 2}: p = 1 is
    ``linalg.nuclear_prox``, p = 2 ``linalg.frobenius_prox``."""
    if p == 2:
        return linalg.frobenius_prox(x, tau)
    if p != 1:
        raise ValueError(f"only p in {{1, 2}} is supported, got {p}")
    return linalg.nuclear_prox(x, tau)[0]


def sym(mat):
    return 0.5 * (mat + mat.T)


def cross_gram(core, other, row):
    """sum_i K_i W^T W K_i^T, or with ``row`` sum_i K_i^T W^T W K_i."""
    k_t = admm._slices(core)
    gram = sym(other.T @ other)
    if row:
        return np.sum(k_t.transpose(0, 2, 1) @ gram @ k_t, axis=0)
    return np.sum(k_t @ gram @ k_t.transpose(0, 2, 1), axis=0)


def solve_basis(state, target, other, row, weight, anchor=None, mu_anchor=None):
    """The basis normal-equation solve of ``admm._solve_basis``."""
    k_t = admm._slices(state.K)
    if row:
        rhs = np.sum(target.transpose(0, 2, 1) @ k_t, axis=0)
    else:
        rhs = np.sum((admm._slices(target) @ other) @ k_t.transpose(0, 2, 1), axis=0)
    rhs *= state.mu
    system = weight * sym(cross_gram(state.K, other, row))
    system.flat[::system.shape[0] + 1] += 1.0
    if anchor is not None:
        rhs = anchor + rhs / mu_anchor
    evals, q = linalg.symmetric_eig(system)
    evals = np.maximum(evals, 1.0)
    return ((rhs @ q) / evals) @ q.T


def stein_factors(F, G):
    """``linalg.stein_factors``; None for a singular pencil."""
    if F.shape == G.shape:
        (f, g), (qf, qg) = linalg.symmetric_eig(np.stack((F, G)))
    else:
        (f, qf), (g, qg) = linalg.symmetric_eig(F), linalg.symmetric_eig(G)
    prod = np.outer(f, g)
    denom = 1.0 - prod
    if np.any(np.abs(denom) < linalg.PENCIL_RTOL * (1.0 + np.abs(prod))):
        return None
    return f, qf, g, qg, denom


def stein_apply(factors, H):
    _, qf, _, qg, denom = factors
    h_rot = qf.T @ np.asarray(H) @ qg
    return qf @ (h_rot / denom) @ qg.T


def stein_core(state, g, left, right):
    """The split core update of ``admm._stein_core``."""
    mu, mu_K = state.mu, state.mu_K
    factors = stein_factors(-(mu / mu_K) * sym(left.T @ left), sym(right.T @ right))
    h_t = (mu * (g @ right) + admm._slices(state.Y)) / mu_K + admm._slices(state.model.core)
    return admm._stack(stein_apply(factors, h_t))


def worst_ratio(num, den):
    out = np.divide(num, den, out=np.array(num, dtype=float), where=den > 0)
    return float(out.max()) if out.size else 0.0


def rec_ratio(state, x_norms, num, cross, core):
    """err_rec of ``admm._rec_ratio`` from the norms of X, ``x_norms``."""
    if cross is not None:
        a, b = state.model.a, state.model.b
        delta = admm._slices(state.model.core - core)
        quad = sym(a.T @ a) @ delta @ sym(b.T @ b)
        num = np.maximum(num - np.einsum("kij,kij->k", 2.0 * cross - quad, delta), 0.0)
    return worst_ratio(num, x_norms)


def ascend(state, splits, cfg):
    """The split ascents of ``admm._ascend``."""
    errs = {}
    for row in splits:
        primal = attrgetter(row.primal)(state)
        diff = primal - getattr(state, row.copy)
        mu = getattr(state, row.penalty)
        setattr(state, row.dual, getattr(state, row.dual) + mu * diff)
        setattr(state, row.penalty, min(getattr(state, row.penalty + "_cap"), cfg.rho * float(mu)))
        if diff.ndim == 3:
            errs[row.err] = worst_ratio(admm._sq_norms(diff), admm._sq_norms(primal))
        else:
            num, den = float(np.vdot(diff, diff)), float(np.vdot(primal, primal))
            errs[row.err] = num / den if den > 0 else num
    return errs


def tucker_start(X, cfg):
    """A, B, the core slices and mu of ``admm._init_tucker``, its Grams and
    its residual max taken slice by slice."""
    (m, n, N), r = X.shape, cfg.rank
    a, b = np.zeros((m, r)), np.zeros((n, r))
    scale = max(float(X.max()), -float(X.min()))
    if scale > 0:
        gram_a, gram_b = np.zeros((m, m)), np.zeros((n, n))
        for x_i in admm._slices(X):
            x_i = x_i / scale
            gram_a += x_i @ x_i.T
            gram_b += x_i.T @ x_i
        a, b = (linalg.symmetric_eig(gram)[1][:, ::-1][:, :r].copy()
                for gram in (gram_a, gram_b))
    mu = admm._data_penalty(X)
    core_t = a.T @ admm._slices(X) @ b
    if cfg.mask is None and 0 < mu < np.inf:
        worst = max(float(np.max(np.abs(x_i - (a @ r_i) @ b.T)))
                    for x_i, r_i in zip(admm._slices(X), core_t))
        raised = cfg.resolved_lambda(X.shape) / worst if worst > 0 else np.inf
        if raised < np.inf:
            mu = max(mu, min(raised, cfg.mu_cap_factor * mu))
    return a, b, core_t, mu


def initialize_splits(state, data_mu):
    """The core split as ``admm.initialize`` opened it by hand: K = R, Y = 0
    and mu_K = eta*N over the sum of the norms of each slice's top-r
    singular values, the diagonals of the core slices.  A start from zero
    has no raise: ``data_mu`` is unused, as in :func:`balanced_splits`."""
    core = state.model.core
    N = core.shape[2]
    norm_sum = 0.0
    for i in range(N):
        norm_sum += float(np.linalg.norm(np.diagonal(core[:, :, i]).copy()))
    mu_K = admm.ETA_INIT * N / norm_sum if norm_sum > 0 else admm.ETA_INIT
    return {"K": core.copy(order="K"), "Y": np.zeros_like(core), "mu_K": mu_K}


def balanced_splits(state, data_mu):
    """The core split as ``admm._init_balanced`` opened it by hand: K = R,
    Y = 0 and mu_K = eta*N / sum_i ||R_i|| of the balanced core, without
    the raise mu / ``data_mu``."""
    core = state.model.core
    norm_sum = sum(np.linalg.norm(r_i) for r_i in admm._slices(core))
    mu_K = admm.ETA_INIT * core.shape[2] / norm_sum if norm_sum > 0 else admm.ETA_INIT
    return {"K": core.copy(order="K"), "Y": np.zeros_like(core), "mu_K": mu_K}


def degree3_splits(state, data_mu):
    """The three splits as ``variants._init_degree3`` opened them by hand:
    copies K = R, U = A, V = B, zero duals, and eta*N over sum_i ||R_i||,
    ||A|| and ||B||, each times sqrt(f), f = mu / ``data_mu``."""
    a, b, core = state.model.a, state.model.b, state.model.core
    root_f = 1.0 if state.mu == data_mu else float(np.sqrt(state.mu / data_mu))
    N = core.shape[2]
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    eta = admm.ETA_INIT
    return {"K": core.copy(order="K"), "Y": np.zeros_like(core),
            "U": a.copy(), "V": b.copy(), "Y_U": np.zeros_like(a), "Y_V": np.zeros_like(b),
            "mu_K": root_f * balanced_splits(state, data_mu)["mu_K"],
            "mu_U": root_f * (eta * N / norm_a if norm_a > 0 else eta),
            "mu_V": root_f * (eta * N / norm_b if norm_b > 0 else eta)}


def svd(x):
    """Thin SVD returning (U, s, V) with X = U diag(s) V^T, s descending."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    u, s, vt = linalg._svd_raw(x)
    return u, s, vt.T


def stein_dense(F, G, H):
    """Solve K - F K G = H as (I - G (x) F) vec(K) = vec(H) over r^2 unknowns."""
    rf, rg = F.shape[0], G.shape[0]
    system = np.eye(rf * rg) - np.kron(G, F)
    vec_k = np.linalg.solve(system, H.reshape(-1, order="F"))
    return vec_k.reshape((rf, rg), order="F")


def shrink_E(X, recon, u, tau, mask=None):
    """E step on whole tensors: T = (X - recon) + U shrunk at level tau, on
    the entries ``mask`` flags only, in the loop's arithmetic."""
    t = (X - recon) + u
    if mask is None:
        return linalg.soft_shrink(t, tau)
    return selective_shrink(t, tau, mask)


def dual_ascent(state, x_tilde, cfg, carriers, splits=()):
    """Dual ascent on whole tensors: Lambda += mu*(Xt - L), L the
    reconstruction from ``carriers``, in scaled form U = Lambda/mu with the
    grown mu; then each of the ``splits`` ascends as in the loop."""
    recon = tensor.reconstruct(*carriers)
    c = admm._grow_mu(state, cfg.rho)
    state.Lam = (state.Lam + (x_tilde - recon)) * c
    ascend(state, splits, cfg)


def lagrangian(state, X, cfg, E=None):
    """Augmented Lagrangian of a LADMM run at ``E`` (default: the state's),
    up to the term -mu*||U||^2/2 that no block step changes; no block step
    may increase it.  The coupling term is taken on whole tensors, from
    Delta = X - E + U."""
    E = state.E if E is None else E
    recon = state.model.reconstruct()
    couple = 0.5 * state.mu * float(np.sum(np.square(recon - (X - E + state.Lam))))
    penalty = variants._low_rank_penalty(state.model, cfg, state.basis_norms, state.grams)
    return cfg.resolved_lambda(X.shape) * tensor.l1(E, cfg.mask) + penalty + couple


def log_blocks(monkeypatch):
    """A list to which every later LADMM solve appends one entry per block
    step, {"iter", "stage", "before", "after"}, with the :func:`lagrangian`
    before and after the step.

    ``monkeypatch`` wraps ``admm._e_step``, which then keeps a copy of the E
    it overwrites, and ``variants._ladmm_sweep``, whose yielded stage names
    mark the block boundaries.  Of what the Lagrangian reads, the E step
    changes only E, so the E entry opens at the copy and closes at the
    sweep's first yield."""
    log, old_e = [], [None]
    e_step, sweep = admm._e_step, variants._ladmm_sweep

    def logged_e_step(state, *args):
        old_e[0] = state.E.copy(order="K")
        return e_step(state, *args)

    def logged_sweep(state, X, delta, cfg, report):
        stage, before = "E", lagrangian(state, X, cfg, old_e[0])
        for name in chain(sweep(state, X, delta, cfg, report), [None]):
            after = lagrangian(state, X, cfg)
            log.append({"iter": state.iters, "stage": stage, "before": before, "after": after})
            if name is not None:
                stage, before = name, after
                yield name

    monkeypatch.setattr(admm, "_e_step", logged_e_step)
    monkeypatch.setattr(variants, "_ladmm_sweep", logged_sweep)
    return log


def hidden_norms(completed, truth, hidden):
    """``cli._hidden_norms`` written through ``where=`` into a zeroed array."""
    scratch = np.subtract(completed, truth, out=np.zeros(truth.shape), where=hidden)
    diff = float(np.linalg.norm(scratch))
    np.copyto(scratch, truth, where=hidden)
    return diff, float(np.linalg.norm(scratch))


def unfold(t, mode):
    """Mode-n unfolding of a 3-way tensor.

    Returns the matrix of shape ``(I_mode, prod of other dims)`` whose columns
    are the mode-``mode`` fibers, ordered with the earlier remaining index
    varying fastest (column-major fiber ordering).
    """
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected 3-way tensor, got shape {t.shape}")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    ax = mode - 1
    return np.reshape(
        np.moveaxis(t, ax, 0), (t.shape[ax], -1), order="F"
    ).copy(order="F")


def fold(mat, mode, dims):
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    mat = np.asarray(mat)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    m, n, N = dims
    ax = mode - 1
    rest = [d for i, d in enumerate(dims) if i != ax]
    if mat.ndim != 2 or mat.shape[0] != dims[ax] or mat.shape[1] != rest[0] * rest[1]:
        raise ValueError(
            f"matrix shape {mat.shape} inconsistent with dims {dims} and mode {mode}"
        )
    stacked = np.reshape(mat, (dims[ax], rest[0], rest[1]), order="F")
    return np.ascontiguousarray(np.moveaxis(stacked, 0, ax))


def vectorize(t):
    """Column-major flattening: index (i, j, k) maps to i + m*j + m*n*k."""
    return np.asarray(t).reshape(-1, order="F")


def mode_product(t, u, mode):
    """Mode-n product: every mode-``mode`` fiber of ``t`` is multiplied by ``u``.

    ``u`` must have as many columns as ``t`` has entries along ``mode``; the
    result replaces that dimension by ``u.shape[0]``.
    """
    t = np.asarray(t)
    u = np.asarray(u)
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if u.ndim != 2 or u.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix shape {u.shape} does not match tensor dim {t.shape[mode - 1]} "
            f"along mode {mode}"
        )
    new_dims = list(t.shape)
    new_dims[mode - 1] = u.shape[0]
    return fold(u @ unfold(t, mode), mode, tuple(new_dims))


def kronecker(a, b):
    """Kronecker product a (x) b, block layout a[i,j] * b."""
    return np.kron(np.asarray(a), np.asarray(b))


def frobenius(x):
    """Frobenius norm of a matrix or tensor."""
    return float(np.linalg.norm(np.asarray(x).ravel()))


def inner(a, b):
    """Euclidean inner product of two same-shaped arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))
