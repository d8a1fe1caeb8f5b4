"""Proximal operators and structured linear solvers shared by the solvers.

The Stein solver exploits that both coefficient matrices are symmetric in
every call the solvers make: :func:`stein_factors` diagonalises both once,
and :func:`stein_apply` divides elementwise and rotates back, for any number
of right-hand sides.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NumericalError",
    "SteinSingularError",
    "soft_shrink",
    "frobenius_prox",
    "nuclear_prox",
    "stein_factors",
    "stein_apply",
    "symmetric_eig",
]

SYMMETRY_ATOL = 1e-12
# Relative gap below which the pencil 1 - f_i*g_j counts as singular.
PENCIL_RTOL = 1e-13


class NumericalError(RuntimeError):
    """A numeric kernel failed to produce a usable result."""


class SteinSingularError(NumericalError):
    """The Stein pencil is (numerically) singular: some 1 - f_i*g_j ~ 0."""


def _shrink(x, tau, mask=None, out=None, clip=None):
    """The one shrinkage kernel: x - C with C = clip(x, -tau, tau) [* mask].

    C is formed in ``clip`` and x - C in ``out``, which may be x itself; each
    defaults to the other, and both to one new array of x's layout.  Returns
    x - C; C stays in ``clip`` when that is not ``out``.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    x = np.asarray(x)
    if clip is None:
        clip = out if out is not None else np.empty_like(x, dtype=np.result_type(x, 0.0))
    x.clip(-tau, tau, out=clip)
    if mask is not None:
        clip *= mask
    return np.subtract(x, clip, out=clip if out is None else out)


def soft_shrink(x, tau):
    """Elementwise soft thresholding sign(x) * max(|x| - tau, 0), computed as
    x - clip(x, -tau, tau) in one new array of x's layout."""
    return _shrink(x, tau)


def frobenius_prox(x, tau):
    """Block soft threshold: max(1 - tau/||x||_F, 0) * x."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    x = np.asarray(x)
    nrm = math.sqrt(np.vdot(x, x))
    if nrm <= tau:
        return np.zeros_like(x)
    return (1.0 - tau / nrm) * x


def nuclear_prox(x, tau):
    """Singular value thresholding U max(S - tau, 0) V^T, the prox of
    tau*||.||_*, and its nuclear norm: the sum of the shrunk values."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    u, s, vt = _svd_raw(np.asarray(x))
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt, float(np.add.reduce(s))


def stein_factors(F, G):
    """Eigendecompose the symmetric coefficient matrices of the Stein
    equation K - F K G = H once.

    Returns ``(f, Qf, g, Qg, denom)`` with ``denom[i, j] = 1 - f[i]*g[j]``,
    ready to solve any number of right-hand sides via :func:`stein_apply`.
    F and G of one shape take one stacked :func:`symmetric_eig` call.
    Raises :class:`SteinSingularError` if the pencil is numerically singular.
    """
    F, G = np.asarray(F, dtype=np.float64), np.asarray(G, dtype=np.float64)
    if F.shape == G.shape:
        (f, g), (qf, qg) = symmetric_eig(np.array((F, G)))
    else:
        (f, qf), (g, qg) = symmetric_eig(F), symmetric_eig(G)
    prod = f[:, None] * g
    denom = 1.0 - prod
    if np.logical_or.reduce(np.abs(denom) < PENCIL_RTOL * (1.0 + np.abs(prod)), axis=None):
        raise SteinSingularError(
            "singular Stein pencil: an eigenvalue pair satisfies f*g ~ 1"
        )
    return f, qf, g, qg, denom


def stein_apply(factors, H):
    """Solve K - F K G = H, or each equation of a stack of H, given
    precomputed :func:`stein_factors`: O(r^3), exact up to round-off."""
    _, qf, _, qg, denom = factors
    h_rot = qf.T @ np.asarray(H) @ qg
    h_rot /= denom
    return qf @ h_rot @ qg.T


def symmetric_eig(x):
    """Eigendecomposition of a symmetric matrix, X = Q diag(w) Q^T, or of
    each matrix of a stack (..., n, n) in one call.

    Eigenvalues ascend; Q has orthonormal columns.  Each matrix must be
    symmetric up to tiny round-off and is symmetrised before factorisation,
    unless the input is exactly symmetric, as every solver input is: then
    the scan and the symmetrisation, which would return it unchanged, are
    skipped.  A stack gives each matrix the bits of its own call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    x_t = x.swapaxes(-1, -2)
    if not (x == x_t).all():
        scale = np.maximum(1.0, np.max(np.abs(x), axis=(-2, -1), initial=0.0))
        if np.any(np.max(np.abs(x - x_t), axis=(-2, -1), initial=0.0) > SYMMETRY_ATOL * scale):
            raise ValueError("matrix is not symmetric")
        x = 0.5 * (x + x_t)
    try:
        w, q = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigendecomposition failed: {exc}") from exc
    return w, q


def _svd_raw(x):
    try:
        return np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc

