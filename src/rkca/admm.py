"""The one iteration loop, the kernels all six variants share, and ``admm2``.

Every variant is one scheme: block updates of the separable factors
``A R_i B^T``, shrinkage of the outliers E, then dual ascent under capped,
geometrically growing penalties.  :func:`_iterate` is the loop all of them
run, on one copy of each shared kernel: residual shrinkage (selective under
an observation mask, for robust completion), per-slice ratios, the batched
Stein core update and the basis normal-equation solve, both resting on
:func:`linalg.symmetric_eig`.  Here too are the block steps of ``admm2``,
which solves

    min  alpha*||R||_1 + lambda*||E||_1 + (||A||_F^2 + ||B||_F^2)/2
    s.t. X = K x_1 A x_2 B + E,   R = K,

by exact block updates: shrinkage for E and R, normal-equation solves for
the bases and one Stein equation per slice for the split core K.  The other
five variants' block steps live in :mod:`rkca.variants`.

X and the mask are copied once to slice-major storage
(:func:`tensor.slice_major`), which every data-sized tensor derived from them
keeps; cores stay (r, r, N) C-ordered.  A run's start allocates E, Lam and
two work buffers, and every data-sized array an iteration builds goes into
one of these four (:func:`_spare`).  The reconstruction a dual update builds
is cached for the next E step, which subtracts the same tensor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, tensor
from .model import FactorModel, IterationRecord, RunReport

__all__ = [
    "ETA_INIT", "SolverAbort", "SolverState", "initialize", "update_E", "update_A",
    "update_B", "update_K", "update_R", "update_duals", "residuals", "solve",
]

# Scaling coefficient for the initial penalty parameters.
ETA_INIT = 1.25

COND_WARN_THRESHOLD = 1e12


class SolverAbort(linalg.NumericalError):
    """Non-finite values or a failed kernel stopped a run; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class SolverState:
    """All primal/dual variables of one ADMM run.

    ``recon`` caches ``(a, core, b, core x_1 a x_2 b)`` from a dual update for
    the next E step; it is used only while the state still holds those very
    arrays (factors are replaced, never written in place).  ``x_norms`` caches
    ``(X, per-slice squared norms of X)`` the same way, for the residuals.
    ``buffers`` lists the run's own data-sized arrays (see :func:`_spare`).
    """

    model: FactorModel
    E: np.ndarray
    K: np.ndarray
    Lam: np.ndarray
    Y: np.ndarray
    mu: float
    mu_K: float
    mu_cap: float
    mu_K_cap: float
    iters: int = 0
    recon: tuple | None = None
    x_norms: tuple | None = None
    buffers: list = field(default_factory=list)


def _sym(mat):
    # Bitwise-symmetric version of a numerically symmetric product.
    return 0.5 * (mat + mat.T)


def _slices(t):
    # View of a (m, n, N) tensor as a (N, m, n) batch.
    return np.moveaxis(t, 2, 0)


def _stack(batch):
    # A (N, r, r) batch of core slices as a C-ordered (r, r, N) core.
    return np.ascontiguousarray(np.moveaxis(batch, 0, 2))


def _sq_norms(t):
    """Per-slice squared Frobenius norms of a (m, n, N) tensor."""
    return np.einsum("kij,kij->k", _slices(t), _slices(t))


def _slice_ratio(diff, den):
    """Worst per-slice ratio ||diff_i||^2 / den_i, with ``den`` the reference's
    :func:`_sq_norms`; a zero den_i counts as 1."""
    num = _sq_norms(diff)
    out = np.where(den > 0, num / np.where(den > 0, den, 1.0), num)
    return float(np.max(out)) if out.size else 0.0


def _spare(state, *busy):
    """A data-sized scratch array: one of ``state.buffers`` bound to none of
    E, Lam, the cached reconstruction and ``busy``, else a new slice-major one.

    A step overwrites only these buffers, and arrays it allocated itself;
    never X, the mask or an array its caller passed.
    """
    taken = (state.E, state.Lam, state.recon and state.recon[3], *busy)
    for buf in state.buffers:
        if not any(buf is t for t in taken):
            return buf
    m, n, N = state.E.shape
    return np.moveaxis(np.empty((N, m, n)), 0, 2)


def _x_norms(state, X):
    """:func:`_sq_norms` of X, computed once per X (matched by identity)."""
    if state.x_norms is None or state.x_norms[0] is not X:
        state.x_norms = (X, _sq_norms(X))
    return state.x_norms[1]


def initialize(X, cfg):
    """Spectral initialisation from per-slice SVDs.

    Each slice contributes its top-r singular triplet: the core slice is the
    truncated singular-value block, the bases average the per-slice singular
    vectors.  Zero slices contribute nothing.  Initial penalties are
    eta*N / sum of slice norms, falling back to eta for all-zero input.
    """
    m, n, N = X.shape
    r = cfg.rank
    a = np.zeros((m, r))
    b = np.zeros((n, r))
    core = np.zeros((r, r, N))
    core_norm_sum = 0.0
    x_norm_sum = 0.0
    for i in range(N):
        slice_i = X[:, :, i]
        nrm = np.linalg.norm(slice_i)
        x_norm_sum += nrm
        if nrm == 0.0:
            continue
        try:
            u, s, vt = np.linalg.svd(slice_i, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise linalg.NumericalError(
                f"initialisation SVD failed on slice {i}: {exc}"
            ) from exc
        core[:, :, i] = np.diag(s[:r])
        core_norm_sum += float(np.linalg.norm(s[:r]))
        a += u[:, :r]
        b += vt[:r, :].T
    a /= N
    b /= N
    mu = ETA_INIT * N / x_norm_sum if x_norm_sum > 0 else ETA_INIT
    mu_K = ETA_INIT * N / core_norm_sum if core_norm_sum > 0 else ETA_INIT
    return SolverState(
        model=FactorModel(a, b, core), E=np.zeros_like(X), K=core.copy(),
        Lam=np.zeros_like(X), Y=np.zeros_like(core), mu=mu, mu_K=mu_K,
        mu_cap=cfg.mu_cap_factor * mu, mu_K_cap=cfg.mu_cap_factor * mu_K,
    )


def _prepare(X, cfg):
    """Check X and cfg; return X and a copy of cfg, both slice-major.

    Neither argument is modified: X is copied unless already slice-major and
    the mask is converted in a new config.
    """
    X = tensor.slice_major(tensor.as_tensor3(X, "X"))
    cfg.validate_for(X.shape)
    if cfg.mask is not None:
        mask = tensor.slice_major(np.asarray(cfg.mask, dtype=bool))
        cfg = replace(cfg, mask=mask)
    return X, cfg


def _keep_recon(state, a, core, b, *busy):
    """Reconstruct from (a, core, b) into a spare, and cache it on the state
    for the E step."""
    recon = tensor.reconstruct(a, core, b, out=_spare(state, *busy))
    state.recon = (a, core, b, recon)
    return recon


def _take_recon(state, a, core, b):
    """``core x_1 a x_2 b`` for the caller to overwrite: the cached one if
    built from these very arrays, else a new reconstruct into a spare.  The
    cache is dropped either way."""
    cached, state.recon = state.recon, None
    if cached is not None and all(x is y for x, y in zip(cached, (a, core, b))):
        return cached[3]
    return tensor.reconstruct(a, core, b, out=_spare(state))


def _residual(X, recon, E=None, out=None):
    """X - recon (- E), written to ``out`` (a new array if None; may be recon)."""
    out = np.subtract(X, recon, out=out)
    if E is not None:
        out -= E
    return out


def _ascend_lam(state, resid):
    """Dual ascent Lam <- Lam + mu * resid, built in place in ``resid``, an
    array of the step's own; the old Lam's buffer returns to the spares."""
    resid *= state.mu
    resid += state.Lam
    state.Lam = resid


def _add_lam_over_mu(state, t):
    """t += Lam/mu, with Lam/mu formed in a spare; returns that spare."""
    lam_mu = np.divide(state.Lam, state.mu, out=_spare(state, t))
    t += lam_mu
    return lam_mu


def _shrink_E(state, X, cfg, lam, left, core, right):
    """E step: shrink X - core x_1 left x_2 right + Lam/mu at level lam/mu
    (selectively under a mask).  The residual is built in the reconstruction's
    array, the shrinkage in a spare."""
    resid = _take_recon(state, left, core, right)
    out = _add_lam_over_mu(state, _residual(X, resid, out=resid))
    if cfg.mask is not None:
        return linalg.selective_shrink(resid, lam / state.mu, cfg.mask, out=out)
    return linalg.soft_shrink(resid, lam / state.mu, out=out)


def update_E(state, X, cfg):
    """Shrink the residual X - K x_1 A x_2 B + Lam/mu at level lambda/mu."""
    lam = cfg.resolved_lambda(X.shape)
    return _shrink_E(state, X, cfg, lam, state.model.a, state.K, state.model.b)


def _solve_spd_right(system, rhs, report, label, iteration):
    """Solve Z @ system = rhs for Z by one eigendecomposition of the system.

    The system is I + w * (PSD) with w > 0, so flooring its eigenvalues at 1
    is exact and keeps round-off from making them nonpositive.
    """
    evals, q = linalg.symmetric_eig(system)
    evals = np.maximum(evals, 1.0)
    if report is not None:
        cond = evals[-1] / evals[0]
        if not np.isfinite(cond) or cond > COND_WARN_THRESHOLD:
            message = (f"{label}-update system ill-conditioned (cond={cond:.3e})"
                       f" at iteration {iteration}")
            if not any(w.startswith(f"{label}-update") for w in report.warnings):
                report.warn(message)
    return ((rhs @ q) / evals) @ q.T


def _target(state, x_tilde, p=None):
    """P = mu*Xt + Lam for the basis and core solves, unless ``p`` passes the
    one its sweep built (mu and Lam are fixed until the dual update)."""
    if p is None:
        p = np.multiply(state.mu, x_tilde, out=_spare(state, x_tilde))
        p += state.Lam
    return p


def _basis_target(state, x_tilde, basis, p=None, g=None):
    """G_i = W^T P_i for every slice, W = ``basis``, as an (N, r, n) batch,
    unless ``g`` passes the one its sweep formed after updating W."""
    if g is None:
        g = basis.T @ _slices(_target(state, x_tilde, p))
    return g


def _cross_gram(core, other, row):
    """sum_i K_i W^T W K_i^T over the slices K_i of ``core``, W = ``other``;
    ``row=True`` transposes every slice: sum_i K_i^T W^T W K_i."""
    k_t = _slices(core)
    gram = _sym(other.T @ other)
    if row:
        return np.sum(k_t.transpose(0, 2, 1) @ gram @ k_t, axis=0)
    return np.sum(k_t @ gram @ k_t.transpose(0, 2, 1), axis=0)


def _solve_basis(state, x_tilde, other, row, weight, report, label,
                 anchor=None, mu_anchor=None, p=None, g=None):
    """Normal-equation solve for one basis, with the core K and ``other`` (W) fixed.

    Solves Z (I + weight * sum_i K_i W^T W K_i^T) = C, C = sum_i P_i W K_i^T,
    for the column basis (P as in :func:`_target`); ``row=True`` transposes
    every slice, C = sum_i G_i^T K_i with G as in :func:`_basis_target`.  A
    substitution copy passes an ``anchor``: C -> anchor + C/mu_anchor.
    """
    k_t = _slices(state.K)
    if row:
        g = _basis_target(state, x_tilde, other, p, g)
        rhs = np.sum(g.transpose(0, 2, 1) @ k_t, axis=0)
    else:
        p_t = _slices(_target(state, x_tilde, p))
        rhs = np.sum((p_t @ other) @ k_t.transpose(0, 2, 1), axis=0)
    system = np.eye(other.shape[1]) + weight * _sym(_cross_gram(state.K, other, row))
    if anchor is not None:
        rhs = anchor + rhs / mu_anchor
    return _solve_spd_right(system, rhs, report, label, state.iters)


def update_A(state, x_tilde, cfg, report=None, p=None):
    """Exact minimiser of the A block: a normal-equation solve over r x r.
    ``p`` passes the sweep's mu*Xt + Lam."""
    return _solve_basis(state, x_tilde, state.model.b, False, state.mu, report, "A", p=p)


def update_B(state, x_tilde, cfg, report=None, p=None, g=None):
    """Exact minimiser of the B block, using the freshly updated A; ``g``
    passes the sweep's A^T P_i."""
    return _solve_basis(state, x_tilde, state.model.a, True, state.mu, report, "B",
                        p=p, g=g)


def _stein_core(state, x_tilde, left, right, p=None, g=None):
    """Solve one Stein equation per slice for the split core K, all slices in
    one :func:`linalg.stein_apply`: mu_K*K_i + mu*L^T L K_i R^T R =
    G_i R + mu_K*R_i + Y_i, L = ``left``, R = ``right``, G_i = L^T P_i.
    """
    mu, mu_K = state.mu, state.mu_K
    gram_l, gram_r = _sym(left.T @ left), _sym(right.T @ right)
    factors = linalg.stein_factors(-(mu / mu_K) * gram_l, gram_r)
    g = _basis_target(state, x_tilde, left, p, g)
    h_t = (g @ right + _slices(state.Y)) / mu_K + _slices(state.model.core)
    return _stack(linalg.stein_apply(factors, h_t))


def update_K(state, x_tilde, cfg, p=None, g=None):
    """Solve one Stein equation per slice for the split core K; ``g`` passes
    the sweep's A^T P_i."""
    return _stein_core(state, x_tilde, state.model.a, state.model.b, p, g)


def update_R(state, cfg):
    """Shrink K - Y/mu_K at level alpha/mu_K."""
    return linalg.soft_shrink(state.K - state.Y / state.mu_K, cfg.alpha / state.mu_K)


def _split_duals(state, x_tilde, left, right):
    """Dual ascent on Xt = K x_1 left x_2 right and on R = K.  The
    reconstruction stays cached for the next E step; Lam is built in
    x_tilde's array if that is a state buffer, else in a spare."""
    recon = _keep_recon(state, left, state.K, right, x_tilde)
    out = x_tilde if any(x_tilde is buf for buf in state.buffers) else _spare(state)
    _ascend_lam(state, np.subtract(x_tilde, recon, out=out))
    state.Y = state.Y + state.mu_K * (state.model.core - state.K)


def update_duals(state, x_tilde, cfg):
    """Dual ascent on both constraints, then grow the capped penalties.

    The reconstruction K x_1 A x_2 B stays cached for the next E step.
    """
    _split_duals(state, x_tilde, state.model.a, state.model.b)
    state.mu = min(state.mu_cap, cfg.rho * state.mu)
    state.mu_K = min(state.mu_K_cap, cfg.rho * state.mu_K)
    return state


def residuals(state, X):
    """Primal-feasibility errors (err_rec, err_R), worst slice of each."""
    a, b, core = state.model.a, state.model.b, state.model.core
    recon = tensor.reconstruct(a, core, b, out=_spare(state))
    err_rec = _slice_ratio(_residual(X, recon, state.E, out=recon), _x_norms(state, X))
    err_core = _slice_ratio(core - state.K, _sq_norms(core))
    return err_rec, err_core


def _check_finite(state, report, named=None):
    """Abort unless every named value is finite.  The default is every state
    array but E, which the loop checks right after the E step."""
    if named is None:
        named = {"A": state.model.a, "B": state.model.b, "R": state.model.core}
        named.update((k, v) for k, v in vars(state).items()
                     if isinstance(v, np.ndarray) and k != "E")
    for name, value in named.items():  # only a non-finite sum is scanned
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(value)
        if not np.isfinite(total) and not np.isfinite(value).all():
            report.termination = "abort"
            msg = f"non-finite values in {name} at iteration {state.iters}"
            raise SolverAbort(msg, report)


def _iterate(X, cfg, start, e_step, sweep, penalty):
    """Run the iteration loop shared by every variant; returns (model, E, report).

    The variant's steps: ``start(X, cfg)`` returns the initial state;
    ``e_step(state, X, cfg)`` returns the new E; ``sweep(state, X, cfg,
    report)`` runs the other block steps and the dual and penalty updates and
    names the residuals held to ``cfg.tol``; ``penalty(state, cfg)`` names the
    low-rank objective terms.  A kernel failure in any of them, the start
    included, aborts the run like non-finite values do.
    """
    lam = cfg.resolved_lambda(X.shape)
    report = RunReport(variant=cfg.variant, config=cfg.resolved(X.shape))
    state = None
    try:
        state = start(X, cfg)
        state.buffers = [state.E, state.Lam, np.empty_like(X), np.empty_like(X)]
        for it in range(1, cfg.max_iters + 1):
            t0 = time.perf_counter()
            state.iters = it
            state.E = e_step(state, X, cfg)
            # A finite l1 sum proves E finite; only a non-finite one is scanned.
            l1_sparse = tensor.l1(state.E, cfg.mask, out=_spare(state))
            if not np.isfinite(l1_sparse):
                _check_finite(state, report, {"E": state.E})
            errs = sweep(state, X, cfg, report)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            objective = {"l1_sparse": lam * l1_sparse, **penalty(state, cfg)}
            report.append(IterationRecord(
                iter=it, mu=state.mu, mu_K=getattr(state, "mu_K", None),
                elapsed_ms=elapsed_ms, objective=objective, **errs,
            ))
            _check_finite(state, report)
            _check_finite(state, report, errs)
            if max(errs.values()) <= cfg.tol:
                report.termination = "tol"
                break
        else:
            report.termination = "max_iters"
    except SolverAbort:
        raise
    except (linalg.NumericalError, np.linalg.LinAlgError) as exc:
        report.termination = "abort"
        where = "the start" if state is None else f"iteration {state.iters}"
        raise SolverAbort(f"{exc} at {where}", report) from exc
    return state.model, state.E, report


def _admm2_sweep(state, X, cfg, report):
    # Xt and P fill the two work buffers; the B and K steps share A^T P_i,
    # and P's buffer then receives the dual update's reconstruction.
    x_tilde = np.subtract(X, state.E, out=_spare(state))
    p = _target(state, x_tilde)
    state.model.a = update_A(state, x_tilde, cfg, report, p)
    g = _basis_target(state, x_tilde, state.model.a, p)
    state.model.b = update_B(state, x_tilde, cfg, report, p, g)
    state.K = update_K(state, x_tilde, cfg, p, g)
    state.model.core = update_R(state, cfg)
    update_duals(state, x_tilde, cfg)
    return dict(zip(("err_rec", "err_R"), residuals(state, X)))


def _admm2_penalty(state, cfg):
    a, b = state.model.a, state.model.b
    basis = 0.5 * (tensor.frobenius(a) ** 2 + tensor.frobenius(b) ** 2)
    return {"l1_core": cfg.alpha * tensor.l1(state.model.core), "basis": basis}


def solve(X, cfg):
    """Run the degree-2 ADMM solver; returns (model, E, report).

    Iterates the Algorithm-order updates (E, A, B, K, R, duals) until the
    worst primal-feasibility error drops below ``cfg.tol`` or ``max_iters``
    is reached.  Deterministic for fixed inputs.
    """
    X, cfg = _prepare(X, cfg)
    if cfg.variant != "admm2":
        raise ValueError(f"admm.solve handles the admm2 variant, got {cfg.variant!r}")
    return _iterate(X, cfg, initialize, update_E, _admm2_sweep, _admm2_penalty)
