"""The one iteration loop, the kernels all six variants share, and ``admm2``.

Every variant is one augmented-Lagrangian scheme: shrinkage of the
outliers E, a sweep of block steps on the separable factors ``A R_i B^T``,
then dual ascent under capped penalties that grow geometrically, faster
once E's support size holds (:func:`_growth`).
:func:`_iterate` is the loop all of them run, from the table that the one
entry point, ``variants.solve_variant``, hands it: the start, the sweep, and
one :class:`Split` row per split constraint, whose copy, dual and penalty
every start opens (:func:`_open_splits`).  The reconstruction L that carries
X = L + E is built from A, R and B, each split's copy in place of its
primal.  It runs on one copy of each shared kernel: residual shrinkage
(selective under an observation mask, for robust completion), per-slice
ratios, the batched Stein core update and the basis normal-equation solve,
both resting on :func:`linalg.symmetric_eig`.  Here too are the block steps
of ``admm2``, which solves

    min  alpha*||R||_1 + lambda*||E||_1 + (||A||_F^2 + ||B||_F^2)/2
    s.t. X = K x_1 A x_2 B + E,   R = K,

by exact block updates: shrinkage for E and R, normal-equation solves for
the bases and one Stein equation per slice for the split core K.  The other
five variants' block steps live in :mod:`rkca.variants`.

X and the mask are copied once to slice-major storage
(:func:`tensor.slice_major`), which every data-sized tensor derived from them
keeps, and cores are slice-major too, so :func:`_slices` and :func:`_stack`
are views.  A run's start allocates E, Lam and two work buffers, and every
data-sized array an iteration builds goes into one of these four: the E step
frees the old E's, the tail fills it.  The E step and tail run slice-block by
slice-block on views taken once per run (:func:`_block_views`).

The dual of X = L + E is kept in scaled form (Boyd et al. 2011,
*Distributed Optimization and Statistical Learning via ADMM*, 3.1.1):
``SolverState.Lam`` holds U = Lambda/mu, so the E step's argument
T = X - L + U needs no divide and the tail builds it while that block of X
and L is in cache.  The split duals (Y, Y_U, Y_V) are unscaled.

Every iteration proves every state array finite by a value that an inf or
nan in it would make non-finite, one the loop computes anyway where it can:
E by ||E||_1 (:func:`_shrunk_l1`), U by the tail's sums (:func:`_tail`), a
split's primal and copy (R and K; degree 3's A, U, B, V) by its residual
(:func:`_split_ratio`), A, B and R by the objective's terms (alpha*||R||_1,
||A||_F^2 + ||B||_F^2 from the Grams' traces, or |A| and |B|: a nuclear norm
bounds every entry), and only the split duals by a sum of their own
(:func:`_proven`).  A failed proof scans the arrays in a fixed order; the
first non-finite one names the abort (:func:`_check_finite`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter, methodcaller
from typing import NamedTuple

import numpy as np

from . import linalg, tensor
from .model import FactorModel, IterationRecord, RunReport

__all__ = [
    "ETA_INIT", "SolverAbort", "SolverState", "initialize", "update_A", "update_B",
    "update_K", "update_R",
]

# Scaling coefficient for the initial penalty parameters.
ETA_INIT = 1.25

COND_WARN_THRESHOLD = 1e12


class SolverAbort(linalg.NumericalError):
    """Non-finite values or a failed kernel stopped a run; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(kw_only=True)
class SolverState:
    """All primal/dual variables of one run; each split's copy, dual, penalty
    and cap (:class:`Split`) stay None until a start opens them.  ``Lam`` is
    the scaled dual U = Lambda/mu of X = L + E.  ``x_norms`` caches X's norms
    (:func:`_x_norms`), ``basis_norms`` the norms of ``variants._basis_norm``
    and ``grams`` the Grams of :func:`_gram`, matched by identity."""

    model: FactorModel
    E: np.ndarray
    Lam: np.ndarray
    mu: float
    mu_cap: float
    K: np.ndarray | None = None
    Y: np.ndarray | None = None
    mu_K: float | None = None
    mu_K_cap: float | None = None
    U: np.ndarray | None = None
    V: np.ndarray | None = None
    Y_U: np.ndarray | None = None
    Y_V: np.ndarray | None = None
    mu_U: float | None = None
    mu_V: float | None = None
    mu_U_cap: float | None = None
    mu_V_cap: float | None = None
    iters: int = 0
    x_norms: tuple | None = None
    basis_norms: list = field(default_factory=list)
    grams: list = field(default_factory=list)


class Split(NamedTuple):
    """A split constraint ``primal = copy`` as attribute paths on the state:
    the report name of its residual, its dual, and its penalty, which grows
    up to ``<penalty>_cap``."""

    err: str
    primal: str
    copy: str
    dual: str
    penalty: str


CORE_SPLIT = Split("err_R", "model.core", "K", "Y", "mu_K")


def _sym(mat):
    # Bitwise-symmetric version of a numerically symmetric product.
    return 0.5 * (mat + mat.T)


def _remember(cache, arr, value):
    """Put (arr, value) first in ``cache``, the last two such pairs, matched
    by identity (arrays are replaced, never written); None keeps nothing."""
    if cache is not None:
        cache[:] = [(arr, value), *cache[:1]]
    return value


def _gram(basis, cache=None):
    """W^T W for W = ``basis``, made bitwise symmetric (:func:`_sym`).

    ``cache``, a state's ``grams`` (:func:`_remember`), lets each basis array
    be multiplied out once; no caller writes a Gram.
    """
    for arr, gram in cache or ():
        if arr is basis:
            return gram
    return _remember(cache, basis, _sym(basis.T @ basis))


def _frobenius_penalty(model, cache=None):
    """(||A||_F^2 + ||B||_F^2)/2 from the traces of the Grams (:func:`_gram`)."""
    return 0.5 * (_gram(model.a, cache).trace() + _gram(model.b, cache).trace())


# View of a (m, n, N) tensor as a (N, m, n) batch, and of a (N, r, r) batch
# of core slices as a (r, r, N) core; C-level callables, no Python frame.
_slices = methodcaller("transpose", 2, 0, 1)
_stack = methodcaller("transpose", 1, 2, 0)


def _sq_norms(t):
    """Per-slice squared Frobenius norms of a (m, n, N) tensor; a matrix is
    one slice.  Contiguous slices, as of every slice-major tensor, take one
    dot product each, whose bits do not depend on the other slices."""
    s = _slices(t) if t.ndim == 3 else t
    if s.ndim == 3 and s.flags.c_contiguous:
        flat = s.reshape(len(s), 1, -1)
        return (flat @ flat.transpose(0, 2, 1)).reshape(len(s))
    return np.einsum("...ij,...ij->...", s, s)


def _worst_ratio(num, den):
    """max_i num_i / den_i, a zero den_i counting as 1, taken in ``num``, the
    caller's own array; 0 for no slices."""
    num /= np.where(den > 0, den, 1.0)
    return float(np.maximum.reduce(num)) if num.size else 0.0


def _x_norms(state, X):
    """:func:`_sq_norms` of X, once per X (by identity)."""
    if state.x_norms is None or state.x_norms[0] is not X:
        state.x_norms = (X, _sq_norms(X))
    return state.x_norms[1]


def _data_penalty(X, N=None):
    """eta*N / sum_i ||X_i|| over the N slices of X, the inexact-ALM penalty
    for a start from zero (Lin, Chen & Ma 2010), or over one matrix X with the
    data's ``N``; eta for all-zero input, and 0 once the norms overflow."""
    norm_sum = sum(np.linalg.norm(x_i) for x_i in (_slices(X) if X.ndim == 3 else (X,)))
    return ETA_INIT * (N or X.shape[2]) / norm_sum if norm_sum > 0 else ETA_INIT


def _open_splits(state, cfg, splits, data_mu=None, p=0):
    """Open a start's ``splits``: each copy a copy of its primal, each dual
    zero, each penalty f**p * :func:`_data_penalty` of its primal and its cap
    mu_cap_factor times that.  f = mu/``data_mu`` is the raise the Tucker
    start gave mu (:func:`_init_tucker`), 1 where mu was kept (also both 0:
    overflowed norms) or without ``data_mu``; p is the variant's (README).
    f**(1/2) is sqrt(f), which pow does not always round correctly."""
    f = 1.0 if data_mu is None or state.mu == data_mu else state.mu / data_mu
    scale = math.sqrt(f) if p == 0.5 else f ** p
    for row in splits:
        primal = attrgetter(row.primal)(state)
        setattr(state, row.copy, primal.copy(order="K"))
        setattr(state, row.dual, np.zeros_like(primal))
        setattr(state, row.penalty, scale * _data_penalty(primal, state.E.shape[2]))
        setattr(state, row.penalty + "_cap", cfg.mu_cap_factor * getattr(state, row.penalty))
    return state


def _init_tucker(X, cfg, data_mu=None):
    """Tucker-2 start (truncated HOSVD): the LADMM and ``admm3_*`` start, and
    the fit that admm2's unmasked start balances (:func:`_init_balanced`).

    A and B are the top-r eigenvectors of sum_i X_i X_i^T and sum_i X_i^T X_i,
    formed slice by slice from X / max|X|, which leaves the eigenvectors as
    they are and keeps the Grams finite; R_i = A^T X_i B and E = Lam = 0.

    mu starts at ``data_mu`` or :func:`_data_penalty`, the zero-start scale.
    This start already fits the data, so without a mask mu is raised to
    lambda / max|X - A R B^T| where that is larger, up to mu_cap_factor times
    the data-scaled value: the first E step's threshold lambda/mu then equals
    the largest residual, and E turns on at the second iteration instead of
    idling at 0 while mu grows.  The bound keeps a near-exact fit, whose
    residual is round-off, from starting mu at the scale of 1/eps.  Under a
    mask the start fits X, hidden entries included, its residual is start
    error rather than outliers, and mu is kept; so it is for a zero,
    non-finite or overflowed scale.  mu_cap follows mu.  Zero input gives
    zero bases and mu = eta.
    """
    (m, n, N), r = X.shape, cfg.rank
    a, b = np.zeros((m, r)), np.zeros((n, r))
    scale = max(float(X.max()), -float(X.min()))
    if scale > 0:
        gram_a, gram_b = np.zeros((m, m)), np.zeros((n, n))
        for x_i in _slices(X):
            x_i = x_i / scale
            gram_a += x_i @ x_i.T
            gram_b += x_i.T @ x_i
        # Eigenvalues ascend: the last r eigenvectors, largest first.
        a, b = (linalg.symmetric_eig(gram)[1][:, ::-1][:, :r].copy()
                for gram in (gram_a, gram_b))
    mu = _data_penalty(X) if data_mu is None else data_mu
    core_t = a.T @ _slices(X) @ b
    if cfg.mask is None and 0 < mu < np.inf:
        # Block by block (:func:`_blocks`): the residual takes no data-sized buffer.
        worst = max(float(np.maximum.reduce(
            np.abs(_slices(X[:, :, blk]) - (a @ core_t[blk]) @ b.T), axis=None))
            for blk in _blocks(X))
        raised = cfg.resolved_lambda(X.shape) / worst if worst > 0 else np.inf
        if raised < np.inf:
            mu = max(mu, min(raised, cfg.mu_cap_factor * mu))
    return SolverState(model=FactorModel(a, b, _stack(core_t)),
                       E=np.zeros_like(X), Lam=np.zeros_like(X),
                       mu=mu, mu_cap=cfg.mu_cap_factor * mu)


def _init_balanced(X, cfg):
    """admm2's unmasked start: the Tucker-2 fit (:func:`_init_tucker`) moved
    along A -> cA, B -> cB, R -> R/c^2, which keeps every A R_i B^T, to the c
    that minimises the degree-2 penalty (||A||_F^2 + ||B||_F^2)/2 +
    alpha*||R||_1 on that orbit: c^4 = 2*alpha*||R||_1 / (||A||_F^2 + ||B||_F^2),
    and c = 1 where that is no positive finite number (zero input, alpha = 0).

    mu and mu_cap are the Tucker start's; the core split R = K opens
    (:func:`_open_splits`) at p = 0: mu_K is :func:`_data_penalty` of the
    balanced core, without the raise the start gave mu.
    """
    data_mu = _data_penalty(X)
    state = _init_tucker(X, cfg, data_mu)
    a, b, core = state.model.a, state.model.b, state.model.core
    basis_sq = float(np.vdot(a, a) + np.vdot(b, b))
    c = (2.0 * cfg.alpha * tensor.l1(core) / basis_sq) ** 0.25 if basis_sq > 0 else 1.0
    if not 0.0 < c < np.inf:
        c = 1.0
    a *= c
    b *= c
    core /= c * c
    return _open_splits(state, cfg, (CORE_SPLIT,), data_mu, p=0)


# The randomized range finder of :func:`_top_triplets`: generator seed,
# oversampling and power iterations.
FINDER_SEED = 20110101
FINDER_OVERSAMPLING = 10
FINDER_POWER_ITERS = 1


def _top_triplets(xs, r):
    """Top-r singular triplets (u, s, v) of each slice of a (L, m, n) stack of
    nonzero slices, from one randomized range finder (Halko, Martinsson &
    Tropp 2011, Algs. 4.3/4.4) on xs / max|xs|: Q spans X_i Omega, with Omega
    an n x w Gaussian, w = min(r + FINDER_OVERSAMPLING, m, n), after
    FINDER_POWER_ITERS power iterations; then one batched SVD of Q^T X_i.
    Each triplet is flipped so that the largest-|.| entry of its u, the first
    on ties, is positive."""
    _, m, n = xs.shape
    scale = max(float(xs.max()), -float(xs.min()))
    x = xs / scale
    omega = np.random.default_rng(FINDER_SEED).standard_normal(
        (n, min(r + FINDER_OVERSAMPLING, m, n)))
    q = np.linalg.qr(x @ omega)[0]
    for _ in range(FINDER_POWER_ITERS):
        z = np.linalg.qr(x.transpose(0, 2, 1) @ q)[0]
        q = np.linalg.qr(x @ z)[0]
    u, s, vt = linalg._svd_raw(q.transpose(0, 2, 1) @ x)
    u, v = q @ u[:, :, :r], vt[:, :r].transpose(0, 2, 1)
    top = np.take_along_axis(u, np.abs(u).argmax(axis=1)[:, None], axis=1)
    flip = np.where(top < 0, -1.0, 1.0)
    return u * flip, s[:, :r] * scale, v * flip


def initialize(X, cfg):
    """Spectral initialisation from per-slice top-r SVDs: admm2's masked start.

    Each slice contributes its top-r singular triplets (:func:`_top_triplets`):
    the core slice is the diagonal of the singular values, the bases average
    the singular vectors.  Zero slices contribute nothing.  The data penalty
    is :func:`_data_penalty`, and the core split R = K opens from zero
    (:func:`_open_splits`): mu_K is :func:`_data_penalty` of the core, eta
    for all-zero input.
    """
    (m, n, N), r = X.shape, cfg.rank
    a, b, core_t = np.zeros((m, r)), np.zeros((n, r)), np.zeros((N, r, r))
    xs = _slices(X)
    live = xs.any(axis=(1, 2))
    if live.any():
        u, s, v = _top_triplets(xs if live.all() else xs[live], r)
        a, b = (np.add.reduce(t, axis=0) / N for t in (u, v))
        core_t[live] = s[:, :, None] * np.eye(r)
    mu = _data_penalty(X)
    state = SolverState(model=FactorModel(a, b, _stack(core_t)), E=np.zeros_like(X),
                        Lam=np.zeros_like(X), mu=mu, mu_cap=cfg.mu_cap_factor * mu)
    return _open_splits(state, cfg, (CORE_SPLIT,))


def _prepare(X, cfg):
    """Check X and cfg; return X and a copy of cfg, both slice-major.

    Neither argument is modified: X is copied unless already slice-major and
    the mask is converted in a new config, or dropped if it hides no entry.
    """
    X = tensor.slice_major(tensor.as_tensor3(X, "X"))
    cfg.validate_for(X.shape)
    if cfg.mask is not None:
        mask = tensor.slice_major(np.asarray(cfg.mask, dtype=bool))
        cfg = replace(cfg, mask=None if mask.all() else mask)
    return X, cfg


# The loop's E step and tail run over blocks of slices with at most this many
# bytes per array, so that a block of every array a chain passes over stays in
# a 2 MB L2 from one pass to the next.
_BLOCK_BYTES = 1 << 19


def _blocks(X):
    """Slice ranges that cover the slices of the (m, n, N) tensor X in order,
    each at most _BLOCK_BYTES of X (one slice at least)."""
    m, n, N = X.shape
    step = max(1, _BLOCK_BYTES // (m * n * X.itemsize))
    return [slice(s, s + step) for s in range(0, N, step)]


def _block_views(X, arrays):
    """The slice blocks of X (:func:`_blocks`) and, by identity, each of
    ``arrays``' views of them, taken once per run; None has Nones."""
    blocks = _blocks(X)
    return blocks, {id(t): [t if t is None else t[:, :, blk] for blk in blocks]
                    for t in arrays}


def _shrink_arg(X, recon, u, out):
    """T = (X - recon) + U, the E step's shrinkage argument, in ``out``: the
    one arithmetic for T, in the start and the loop's tail.  Elementwise: a
    block of slices gives the bits of the whole."""
    t = np.subtract(X, recon, out=out)
    t += u
    return t


# Below this threshold tau * |E| can fall below the smallest normal float for
# the smallest nonzero |E| (one ulp of tau), so <E, C>/tau could lose digits.
_TAU_MIN = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))


def _shrunk_l1(E, clip, tau, mask):
    """||E||_1, over the entries ``mask`` flags, of an E step's output
    E = T - C with its clip C (``clip``) at level ``tau``.

    Where E != 0 and is flagged, C = tau*sign(E); elsewhere E = 0 or C = 0.
    So ||E||_1 = <E, C>/tau: one dot, no data-sized write.  An unflagged inf
    or nan makes it nan (inf*0), so a finite value proves E finite, as for
    :func:`tensor.l1`, which is the fallback for a tau outside
    [_TAU_MIN, inf) or a dot that overflows.
    """
    if _TAU_MIN <= tau < np.inf:
        value = float(np.vdot(_slices(E), _slices(clip))) / tau
        if math.isfinite(value):
            return value
    return tensor.l1(E, mask)


def _e_step(state, views, cfg, lam, recon, shrink_arg, support):
    """The loop's E step on L = ``recon`` and T = (X - L) + U in
    ``shrink_arg``, which the start or the last tail built (:func:`_shrink_arg`),
    block by block on :func:`_block_views`: E = T - C over T, C = clip(T,
    -tau, tau) [* mask] at tau = lambda/mu, ||E||_1 from C (:func:`_shrunk_l1`)
    and nnz(E), then the sweep's target L + C over L.  E = T - C, so
    L + C = Xt + U.  T's array becomes state.E.  Returns ||E||_1, nnz(E) and
    the old E's array, the spare.

    C is needed only within its block, so every block's C goes to the first
    block of the spare, which stays in cache; nnz(E) is counted on the
    block's contiguous (s, m, n) view through ``support``, a one-block bool
    scratch: counting its bools is several times faster than counting the
    floats."""
    spare, state.E = state.E, shrink_arg
    views = views[1]
    tau, l1, nnz, first = lam / state.mu, 0.0, 0, views[id(spare)][0]
    for e, l, mask in zip(views[id(shrink_arg)], views[id(recon)], views[id(cfg.mask)]):
        clip = first[:, :, :e.shape[2]]
        linalg._shrink(e, tau, mask, out=e, clip=clip)
        l1 += _shrunk_l1(e, clip, tau, mask)
        nnz += np.count_nonzero(np.not_equal(_slices(e), 0.0, out=support[:e.shape[2]]))
        np.add(l, clip, out=l)
    return l1, int(nnz), spare


def _solve_spd_right(system, rhs, report, label, iteration):
    """Solve Z @ system = rhs for Z by one eigendecomposition of the system.

    The system is I + w * (PSD) with w > 0, so flooring its eigenvalues at 1
    is exact and keeps round-off from making them nonpositive.
    """
    evals, q = linalg.symmetric_eig(system)
    np.maximum(evals, 1.0, out=evals)
    if report is not None:
        cond = float(evals[-1]) / float(evals[0])
        if not math.isfinite(cond) or cond > COND_WARN_THRESHOLD:
            message = (f"{label}-update system ill-conditioned (cond={cond:.3e})"
                       f" at iteration {iteration}")
            if not any(w.startswith(f"{label}-update") for w in report.warnings):
                report.warn(message)
    return ((rhs @ q) / evals) @ q.T


def _cross_gram(core, other, row, cache=None):
    """sum_i K_i W^T W K_i^T over the slices K_i of ``core``, W = ``other``;
    ``row=True`` transposes every slice: sum_i K_i^T W^T W K_i.  ``cache``
    as for :func:`_gram`."""
    k_t = _slices(core)
    gram = _gram(other, cache)
    if row:
        return np.add.reduce(k_t.transpose(0, 2, 1) @ gram @ k_t, axis=0)
    return np.add.reduce(k_t @ gram @ k_t.transpose(0, 2, 1), axis=0)


def _solve_basis(state, target, other, row, weight, report, label,
                 anchor=None, mu_anchor=None):
    """Normal-equation solve for one basis, with the core K and ``other`` (W) fixed.

    Solves Z (I + weight * sum_i K_i W^T W K_i^T) = C, C = mu * sum_i Delta_i
    W K_i^T, for the column basis, ``target`` the loop's Delta = Xt + Lam
    (Lam = U = Lambda/mu; mu and Lam are fixed until the dual update), so
    mu*Delta = mu*Xt + Lambda.  ``row=True`` transposes every slice,
    C = mu * sum_i G_i^T K_i, ``target`` the sweep's G_i = W^T Delta_i as an
    (N, r, n) batch.  A substitution copy passes an ``anchor``:
    C -> anchor + C/mu_anchor.
    """
    k_t = _slices(state.K)
    if row:
        rhs = np.add.reduce(target.transpose(0, 2, 1) @ k_t, axis=0)
    else:
        rhs = np.add.reduce((_slices(target) @ other) @ k_t.transpose(0, 2, 1), axis=0)
    rhs *= state.mu
    system = weight * _sym(_cross_gram(state.K, other, row, state.grams))
    system.reshape(-1)[::system.shape[0] + 1] += 1.0
    if anchor is not None:
        rhs = anchor + rhs / mu_anchor
    return _solve_spd_right(system, rhs, report, label, state.iters)


def update_A(state, delta, report=None):
    """Exact minimiser of the A block: a normal-equation solve over r x r on
    the loop's Delta = Xt + Lam."""
    return _solve_basis(state, delta, state.model.b, False, state.mu, report, "A")


def update_B(state, g, report=None):
    """Exact minimiser of the B block, using the freshly updated A, on the
    sweep's G_i = A^T Delta_i."""
    return _solve_basis(state, g, state.model.a, True, state.mu, report, "B")


def _stein_core(state, g, left, right):
    """Solve one Stein equation per slice for the split core K, all slices in
    one :func:`linalg.stein_apply`: mu_K*K_i + mu*L^T L K_i R^T R =
    mu*G_i R + mu_K*R_i + Y_i, L = ``left``, R = ``right``, ``g`` the sweep's
    G_i = L^T Delta_i.
    """
    mu, mu_K = state.mu, state.mu_K
    gram_l, gram_r = _gram(left, state.grams), _gram(right, state.grams)
    factors = linalg.stein_factors(-(mu / mu_K) * gram_l, gram_r)
    h_t = (mu * (g @ right) + _slices(state.Y)) / mu_K + _slices(state.model.core)
    return _stack(linalg.stein_apply(factors, h_t))


def update_K(state, g):
    """Solve one Stein equation per slice for the split core K on the sweep's
    G_i = A^T Delta_i."""
    return _stein_core(state, g, state.model.a, state.model.b)


def update_R(state, weight):
    """Shrink K - Y/mu_K at level weight/mu_K, ``weight`` that of ||R||_1:
    alpha in admm2, the degree-3 variants' alpha*|A|*|B|.  In Python floats
    the level overflows to inf (R = 0) without a warning; mu_K = 0 gives inf."""
    mu_K = state.mu_K
    tau = float(weight) / float(mu_K) if mu_K else np.inf
    return _stack(linalg.soft_shrink(_slices(state.K) - _slices(state.Y) / mu_K, tau))


def _growth(cfg, nnz, last_nnz):
    """The factor every penalty grows by in an iteration: rho while nnz(E),
    E's support size, still changes, and rho*rho where it repeats the last
    iteration's ``last_nnz`` (None before the first).  Growing faster only
    once the support holds keeps it from freezing before it settles, in the
    spirit of LADMAP (Lin, Liu & Su 2011), which grows mu once the iterates
    stop moving.  rho*rho, not rho**2: a Python float product overflows to
    inf, a power raises."""
    return cfg.rho * cfg.rho if nnz == last_nnz else cfg.rho


def _grow_mu(state, rho):
    """Grow mu to min(mu_cap, rho*mu), ``rho`` from :func:`_growth`; returns
    c = mu/mu', the factor that rescales U = Lambda/mu to the new mu.  In
    Python floats rho*mu overflows to inf, so to the cap, without a warning."""
    mu = state.mu
    state.mu = min(state.mu_cap, rho * float(mu))
    return mu / state.mu


def _split_ratio(diff, primal):
    """A split's residual, :func:`_worst_ratio` of the slice norms of diff and
    primal over the core's slices or, for a basis, one slice, two dots.
    Finite only if diff and primal are: an inf in primal makes it inf/inf."""
    if diff.ndim == 3:
        return _worst_ratio(_sq_norms(diff), _sq_norms(primal))
    num, den = float(np.vdot(diff, diff)), float(np.vdot(primal, primal))
    return num / den if den > 0 else num


def _split_diff(state, row):
    """A split's residual primal - copy; a core's is formed on the slices'
    contiguous (N, r, r) views and returned as a (r, r, N) view."""
    primal, copy = attrgetter(row.primal)(state), getattr(state, row.copy)
    if primal.ndim == 3:
        return _stack(np.subtract(_slices(primal), _slices(copy)))
    return primal - copy


def _ascend(state, splits, diffs, rho):
    """Ascend each of the ``splits`` by its own penalty on its residual in
    ``diffs`` (:func:`_split_diff`); the penalty then grows by ``rho`` up to
    its cap, as mu does (:func:`_grow_mu`).  Returns each split's residual
    (:func:`_split_ratio`) by its report name."""
    errs = {}
    for row, diff in zip(splits, diffs):
        mu = getattr(state, row.penalty)
        setattr(state, row.dual, getattr(state, row.dual) + mu * diff)
        setattr(state, row.penalty, min(getattr(state, row.penalty + "_cap"), rho * float(mu)))
        errs[row.err] = _split_ratio(diff, attrgetter(row.primal)(state))
    return errs


def _rec_ratio(state, X, num, cross, delta):
    """err_rec, max_i ||X_i - E_i - A R_i B^T||^2 / ||X_i||^2, from the
    per-slice ||D_i||^2 (``num``) and A^T D_i B (``cross``, an (N, r, r)
    batch) of the residual D = X - A K B^T - E of a reconstruction that shares
    the model's bases, with ``delta`` the (N, r, r) batch Delta = R - K.

    The numerator is ||D_i||^2 - 2<A^T D_i B, Delta_i> +
    <A^T A Delta_i B^T B, Delta_i>, clamped at 0; ``cross`` is None where D
    is the model's own residual (K = R, or A R B^T built for err_rec).
    """
    if cross is not None:
        cross *= 2.0
        cross -= _gram(state.model.a, state.grams) @ delta @ _gram(state.model.b, state.grams)
        num -= np.einsum("kij,kij->k", cross, delta)
        np.maximum(num, 0.0, out=num)
    return _worst_ratio(num, _x_norms(state, X))


def _tail(state, X, views, carriers, target, spare, diffs, rho):
    """The loop's tail up to the split ascents, block by block on the
    ``views`` of :func:`_block_views`.

    It grows mu by ``rho`` first (:func:`_grow_mu`), c = mu/mu', then builds
    L' = left K right^T from ``carriers`` in ``spare``, P = Delta - L' over
    the sweep's target Delta = Xt + U, the new scaled dual U' = c*P (the
    scaled-form ascent (U + X - L' - E) * c; once mu is capped, c = 1 and P
    is not multiplied) and the next E step's T' = (X - L') + U'
    (:func:`_shrink_arg`) over the old U.  err_rec takes the residual
    D = X - E - A R B^T's slice norms.  Where L' shares the model's A and B
    (admm2, LADMM), D = P - U over the old U, and a finite c * sum of D's
    norms proves U' finite; admm2's L' uses K for R, so its err_rec also
    takes A^T D_i B and the first split's R - K in ``diffs``
    (:func:`_split_diff`, :func:`_rec_ratio`).  Degree 3 builds A R B^T over
    the old U once U' is formed, D = (X - A R B^T) - E there, and the
    squared norm of each block of U', one dot taken while in cache, proves
    U' finite.  Returns (L', T', err_rec, finite), ``finite`` False if U'
    may hold a non-finite value.
    """
    left, core, right = carriers
    model, u, N = state.model, state.Lam, X.shape[2]
    a, b = model.a, model.b
    c = _grow_mu(state, rho)
    shares = left is a and right is b
    num = np.empty(N)
    cross = np.empty((N, a.shape[1], b.shape[1])) if shares and diffs else None
    a_t, proof, (blocks, views) = a.T, 0.0, views
    arrays = (views[id(t)] for t in (X, state.E, target, u, spare))
    for blk, x, e, new, old, out in zip(blocks, *arrays):
        l = tensor.reconstruct(left, core[:, :, blk], right, out=out)
        new -= l
        if shares:
            d = np.subtract(new, old, out=old)
            num[blk] = _sq_norms(d)
            if cross is not None:
                cross[blk] = (a_t @ _slices(d)) @ b
        if c != 1.0:
            new *= c
        if not shares:
            d = tensor.reconstruct(a, model.core[:, :, blk], b, out=old)
            np.subtract(x, d, out=d)
            d -= e
            num[blk] = _sq_norms(d)
            flat = _slices(new)
            proof += float(np.vdot(flat, flat))
        _shrink_arg(x, l, new, old)
    state.Lam = target
    finite = math.isfinite(c * float(num.sum()) if shares else proof)
    delta = None if cross is None else _slices(diffs[0])
    return spare, u, _rec_ratio(state, X, num, cross, delta), finite


def _state_arrays(state):
    """(name, attribute path) of every state array but E and Lam, in scan order."""
    own = [(k, k) for k, v in vars(state).items()
           if isinstance(v, np.ndarray) and k not in ("E", "Lam")]
    return [("A", "model.a"), ("B", "model.b"), ("R", "model.core"), *own]


def _proven(state, splits, values):
    """Whether one Python-float sum of the scalars ``values`` and the squared
    norms of the ``splits``' duals, which nothing else proves, is finite: if
    so, they all are.  An overflow, which warns nowhere, is a false alarm."""
    arrays = (getattr(state, row.dual).ravel("K") for row in splits)
    return math.isfinite(sum(values) + sum(float(np.vdot(a, a)) for a in arrays))


def _check_finite(state, report, named):
    """Abort at the first non-finite named value, scanned in order."""
    for name, value in named.items():
        if not tensor._all_finite(value):
            report.termination = "abort"
            msg = f"non-finite values in {name} at iteration {state.iters}"
            raise SolverAbort(msg, report)


# Overflow and invalid values warn nowhere in a run: the loop proves every
# array finite and aborts, naming the first that is not (_check_finite).
@np.errstate(all="ignore")
def _iterate(X, cfg, start, sweep, penalty, splits=()):
    """Run the iteration loop shared by every variant; returns (model, E, report).

    ``start(X, cfg)`` returns the first state.  L is built from the model's
    A, R and B, each replaced by its copy where one of the ``splits`` holds
    it.  An iteration runs the E step (:func:`_e_step`) on the last L and on
    T = X - L + U, which the last tail built; it also counts nnz(E).  Then
    ``sweep(state, X, target, cfg, report)`` runs the block steps on
    Xt = X - E, each yielding its name first, so that a wrapper of the sweep
    sees every block boundary.  Xt is never formed:
    ``target`` is Delta = Xt + U = L + C, C the E step's clip, which the
    sweep must leave as it is.  Each split's residual is formed once after
    the sweep (:func:`_split_diff`).  The tail (:func:`_tail`) grows mu,
    builds L once, ascends U over Delta and builds the next T, and takes
    err_rec as it goes; then each of the ``splits`` ascends
    (:func:`_ascend`).  mu and every split penalty grow by one factor,
    :func:`_growth` of this and the last iteration's nnz(E).  The run stops
    once every residual is within ``cfg.tol``.  ``penalty(state, cfg)``
    names the low-rank objective terms, finite only if A, B and R are.  A
    kernel failure anywhere, the start included, aborts the run like
    non-finite values do.
    """
    lam = cfg.resolved_lambda(X.shape)
    report = RunReport(variant=cfg.variant, config=cfg.resolved(X.shape))
    copies = {row.primal: row.copy for row in splits}
    carriers = attrgetter(*(copies.get(p, p) for p in ("model.a", "model.core", "model.b")))
    state = None
    try:
        state = start(X, cfg)
        recon, shrink_arg = np.empty_like(X), np.empty_like(X)
        views = _block_views(X, (X, cfg.mask, state.E, state.Lam, recon, shrink_arg))
        tensor.reconstruct(*carriers(state), out=recon)
        _shrink_arg(X, recon, state.Lam, shrink_arg)
        support = np.empty(_slices(views[1][id(X)][0]).shape, dtype=bool)
        last_nnz = None
        for it in range(1, cfg.max_iters + 1):
            t0 = time.perf_counter()
            state.iters = it
            l1_sparse, nnz_E, spare = _e_step(state, views, cfg, lam, recon, shrink_arg,
                                              support)
            rho, last_nnz = _growth(cfg, nnz_E, last_nnz), nnz_E
            target = recon
            # A finite l1 sum proves E finite; only a non-finite one is scanned.
            if not math.isfinite(l1_sparse):
                _check_finite(state, report, {"E": state.E})
            for _ in sweep(state, X, target, cfg, report):
                pass
            diffs = [_split_diff(state, row) for row in splits]
            recon, shrink_arg, err_rec, lam_finite = _tail(
                state, X, views, carriers(state), target, spare, diffs, rho)
            errs = {"err_rec": err_rec, **_ascend(state, splits, diffs, rho)}
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            objective = {"l1_sparse": lam * l1_sparse, **penalty(state, cfg)}
            report.append(IterationRecord(iter=it, mu=state.mu, mu_K=state.mu_K, nnz_E=nnz_E,
                                          elapsed_ms=elapsed_ms, objective=objective, **errs))
            if not (lam_finite and _proven(state, splits, (*errs.values(),
                                                            *objective.values()))):
                named = {name: attrgetter(path)(state) for name, path in _state_arrays(state)}
                if not lam_finite:
                    named["Lam"] = state.Lam
                _check_finite(state, report, {**named, **errs})
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


def _admm2_sweep(state, X, delta, cfg, report):
    # Every step reads the loop's target Delta = Xt + Lam, never Xt, and
    # leaves it for the tail; the B and K steps share A^T Delta_i.
    yield "A"
    state.model.a = update_A(state, delta, report)
    yield "B"
    g = state.model.a.T @ _slices(delta)
    state.model.b = update_B(state, g, report)
    yield "K"
    state.K = update_K(state, g)
    yield "R"
    state.model.core = update_R(state, cfg.alpha)


def _admm2_penalty(state, cfg):
    return {"l1_core": cfg.alpha * tensor.l1(_slices(state.model.core)),
            "basis": _frobenius_penalty(state.model, state.grams)}

