"""Block steps of the linearised and degree-3 variants, and the dispatcher.

All six variants run the one loop, ``admm._iterate``, on the kernels in
:mod:`rkca.admm`, beside ``admm2``'s steps.  Here are the other five's steps
and tables:

* ``ladmm2``   -- alpha*||R||_1 + (||A||_F^2 + ||B||_F^2)/2, linearised steps;
* ``ladmm3_fro``/``ladmm3_nuc`` -- alpha*||R||_1 * |A| * |B| with |.| the
  Frobenius or nuclear norm, linearised proximal-gradient steps;
* ``admm3_fro``/``admm3_nuc``   -- same degree-3 objectives solved by
  substitution: auxiliary copies U, V of the bases carry the data constraint
  so the basis updates become plain proximal maps.  Their three splits are
  the rows :data:`DEGREE3_SPLITS`, which the start opens at p = 1/2.

Linearised block steps use directly computed Lipschitz bounds with a small
safety margin, so each is a majorise-minimise step that never increases the
augmented Lagrangian.  :func:`solve_variant` runs a variant in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import admm, linalg, tensor
from .admm import _init_tucker, _slices, _stack

__all__ = [
    "Degree3State", "ladmm_update_R", "ladmm_update_A", "ladmm_update_B",
    "degree3_update_A_sub", "degree3_update_B_sub", "degree3_update_U", "degree3_update_V",
    "solve_variant",
]

LIPSCHITZ_MARGIN = 1.01
LIPSCHITZ_FLOOR = 1e-12

LADMM_VARIANTS = ("ladmm2", "ladmm3_fro", "ladmm3_nuc")
DEGREE3_SUB_VARIANTS = ("admm3_fro", "admm3_nuc")
# Their splits: R = K, and the substitution copies A = U and B = V.
DEGREE3_SPLITS = (admm.CORE_SPLIT, admm.Split("err_A", "model.a", "U", "Y_U", "mu_U"),
                  admm.Split("err_B", "model.b", "V", "Y_V", "mu_V"))


@dataclass(kw_only=True)
class Degree3State(admm.SolverState):
    """Substitution-method state: basis copies U, V carry the data constraint;
    None until ``admm._open_splits`` opens the :data:`DEGREE3_SPLITS`."""

    U: np.ndarray | None = None
    V: np.ndarray | None = None
    Y_U: np.ndarray | None = None
    Y_V: np.ndarray | None = None
    mu_U: float | None = None
    mu_V: float | None = None
    mu_U_cap: float | None = None
    mu_V_cap: float | None = None


def _bound(value):
    return max(LIPSCHITZ_MARGIN * float(value), LIPSCHITZ_FLOOR)


def lipschitz_core(a, b, cache=None):
    """Bound for the core gradient: lambda_max(A^T A) * lambda_max(B^T B),
    both from one eigendecomposition of the stacked Grams; ``cache`` as for
    ``admm._gram``."""
    evals = linalg.symmetric_eig(np.array((admm._gram(a, cache), admm._gram(b, cache))))[0]
    top_a, top_b = (max(float(top), 0.0) for top in evals[:, -1])
    return _bound(top_a * top_b)


def _basis_norm(mat, variant, cache=None):
    """|mat|: the nuclear norm for ``*_nuc`` variants, else the Frobenius norm.

    ``cache``, a state's ``basis_norms`` (``admm._remember``), lets each basis
    array be measured once; a nuclear basis step records its output's norm.
    """
    for arr, value in cache or ():
        if arr is mat:
            return value
    if variant.endswith("_nuc"):
        value = float(np.add.reduce(np.linalg.svd(mat, compute_uv=False)))
    else:
        value = math.sqrt(np.vdot(mat, mat))  # np.linalg.norm's bits, without its wrapper
    return admm._remember(cache, mat, value)


def _core_weight(a, b, cfg, cache=None):
    """Weight of ||R||_1 in the objective: alpha, times |A| |B| at degree 3."""
    if cfg.variant == "ladmm2":
        return cfg.alpha
    return (cfg.alpha * _basis_norm(a, cfg.variant, cache)
            * _basis_norm(b, cfg.variant, cache))


def _basis_step(point, other, core, weight, cfg, cache=None):
    """Prox of the variant's basis penalty at ``point``, scaled by 1/weight;
    a nuclear prox puts its output's norm in ``cache`` (:func:`_basis_norm`)."""
    if cfg.variant == "ladmm2":
        # Smooth ||A||_F^2/2 penalty: closed-form shrink toward the origin.
        return point * (weight / (weight + 1.0))
    scale = cfg.alpha * _basis_norm(other, cfg.variant, cache) * tensor.l1(_slices(core)) / weight
    if cfg.variant.endswith("_nuc"):
        mat, norm = linalg.nuclear_prox(point, scale)
        admm._remember(cache, mat, norm)
        return mat
    return linalg.frobenius_prox(point, scale)


def ladmm_update_R(state, a_delta, cfg):
    """One proximal-gradient step on the core.

    Gradient of the coupling term is (R x_1 A x_2 B - Delta) x_1 A^T x_2 B^T,
    formed per slice as A^T A R_i B^T B - A^T Delta_i B, with ``a_delta`` the
    sweep's A^T Delta_i; the step is 1/L_R (:func:`lipschitz_core`) and the
    shrinkage level the variant's core weight divided by mu * L_R.
    """
    a, b, core = state.model.a, state.model.b, state.model.core
    lip = lipschitz_core(a, b, state.grams)
    core_t = _slices(core)
    grad_t = admm._gram(a, state.grams) @ core_t @ admm._gram(b, state.grams)
    grad_t -= a_delta @ b
    weight = _core_weight(a, b, cfg, state.basis_norms)
    return _stack(linalg.soft_shrink(core_t - grad_t / lip, weight / (state.mu * lip)))


def ladmm_update_A(state, delta, cfg):
    """One majorise-minimise step on the column basis, on the loop's
    Delta = Xt + Lam.  The gradient sum_i (A C_i - Delta_i) C_i^T,
    C_i = R_i B^T, is formed as A sum_i C_i C_i^T - sum_i Delta_i B R_i^T; its
    Lipschitz bound is ||sum_i C_i C_i^T||_F."""
    a, b, core = state.model.a, state.model.b, state.model.core
    gram = admm._cross_gram(core, b, False, state.grams)
    lip = _bound(math.sqrt(np.vdot(gram, gram)))
    grad = a @ gram - np.add.reduce((_slices(delta) @ b) @ _slices(core).transpose(0, 2, 1), 0)
    return _basis_step(a - grad / lip, b, core, state.mu * lip, cfg, state.basis_norms)


def ladmm_update_B(state, a_delta, cfg):
    """Mirror of :func:`ladmm_update_A` for the row basis, using fresh A and
    the sweep's A^T Delta_i (``a_delta``): the gradient is
    B sum_i G_i^T G_i - sum_i Delta_i^T A R_i, G_i = A R_i, with the bound
    ||sum_i G_i^T G_i||_F."""
    a, b, core = state.model.a, state.model.b, state.model.core
    gram = admm._cross_gram(core, a, True, state.grams)
    lip = _bound(math.sqrt(np.vdot(gram, gram)))
    grad = b @ gram - np.add.reduce(_slices(core).transpose(0, 2, 1) @ a_delta, 0).T
    return _basis_step(b - grad / lip, a, core, state.mu * lip, cfg, state.basis_norms)


def _low_rank_penalty(model, cfg, norms=None, grams=None):
    penalty = _core_weight(model.a, model.b, cfg, norms) * tensor.l1(_slices(model.core))
    if cfg.variant == "ladmm2":
        penalty += admm._frobenius_penalty(model, grams)
    return penalty


def _penalty(state, cfg):
    return {"low_rank_penalty": _low_rank_penalty(state.model, cfg, state.basis_norms,
                                                  state.grams)}


def _ladmm_sweep(state, X, delta, cfg, report):
    # The loop's target is Delta = Xt + Lam, which serves all three steps:
    # E, Lam and mu are fixed until the dual update.  The B step keeps A, so
    # B and R share one A^T Delta_i.
    yield "A"
    state.model.a = ladmm_update_A(state, delta, cfg)
    yield "B"
    a_delta = state.model.a.T @ _slices(delta)
    state.model.b = ladmm_update_B(state, a_delta, cfg)
    yield "R"
    state.model.core = ladmm_update_R(state, a_delta, cfg)


def degree3_update_A_sub(state, cfg):
    """Proximal map of the basis norm applied to U - Y_U/mu_U."""
    point = state.U - state.Y_U / state.mu_U
    return _basis_step(point, state.model.b, state.model.core, state.mu_U, cfg,
                       state.basis_norms)


def degree3_update_B_sub(state, cfg):
    """Proximal map for the row basis, using the freshly updated A."""
    point = state.V - state.Y_V / state.mu_V
    return _basis_step(point, state.model.a, state.model.core, state.mu_V, cfg,
                       state.basis_norms)


def degree3_update_U(state, delta, report=None):
    """Stationarity solve for the U copy of the column basis on the loop's
    Delta = Xt + Lam: one symmetric positive definite r x r system
    U (I + (mu/mu_U) sum_i K_i V^T V K_i^T) = RHS.
    """
    return admm._solve_basis(
        state, delta, state.V, False, state.mu / state.mu_U, report, "U",
        anchor=state.model.a + state.Y_U / state.mu_U, mu_anchor=state.mu_U,
    )


def degree3_update_V(state, g, report=None):
    """Mirror of :func:`degree3_update_U` for the row-basis copy, on the
    sweep's G_i = U^T Delta_i."""
    return admm._solve_basis(
        state, g, state.U, True, state.mu / state.mu_V, report, "V",
        anchor=state.model.b + state.Y_V / state.mu_V, mu_anchor=state.mu_V,
    )


def _init_degree3(X, cfg):
    """The Tucker-2 start (:func:`_init_tucker`) with the :data:`DEGREE3_SPLITS`
    opened at p = 1/2 (``admm._open_splits``): K = R, U = A, V = B, zero duals
    and each penalty sqrt(f) times the data-scaled one, f the raise the start
    gave mu.  Scaled by f itself, the splits took more iterations."""
    data_mu = admm._data_penalty(X)
    seed = _init_tucker(X, cfg, data_mu)
    return admm._open_splits(Degree3State(**vars(seed)), cfg, DEGREE3_SPLITS, data_mu, p=0.5)


def _degree3_sweep(state, X, delta, cfg, report):
    # As admm2's sweep; the V and K steps share U^T Delta_i.
    yield "A"
    state.model.a = degree3_update_A_sub(state, cfg)
    yield "B"
    state.model.b = degree3_update_B_sub(state, cfg)
    yield "U"
    state.U = degree3_update_U(state, delta, report)
    yield "V"
    g = state.U.T @ _slices(delta)
    state.V = degree3_update_V(state, g, report)
    yield "K"
    state.K = admm._stein_core(state, g, state.U, state.V)
    yield "R"
    weight = _core_weight(state.model.a, state.model.b, cfg, state.basis_norms)
    state.model.core = admm.update_R(state, weight)


def solve_variant(X, cfg):
    """Dispatch on ``cfg.variant``; returns (model, E, report)."""
    if cfg.variant == "admm2":
        return admm.solve(X, cfg)
    X, cfg = admm._prepare(X, cfg)
    if cfg.variant in LADMM_VARIANTS:
        return admm._iterate(X, cfg, _init_tucker, _ladmm_sweep, _penalty)
    if cfg.variant in DEGREE3_SUB_VARIANTS:
        return admm._iterate(X, cfg, _init_degree3, _degree3_sweep, _penalty, DEGREE3_SPLITS)
    raise ValueError(f"unknown variant {cfg.variant!r}")
