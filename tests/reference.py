"""Whole-tensor and dense references for the solvers' kernels, and the
3-way tensor algebra the tests check them with.

The solvers run the E step and the dual ascent slice-block by slice-block
inside their loop, and solve Stein equations by diagonalising both
coefficients; these are the plain forms the tests compare them with.  The
unfoldings, vectorisation, mode products and Kronecker products follow the
column-major order of ``rkca.tensor``: entry (i, j, k) sits at flat position
i + m*j + m*n*k, and unfoldings are explicit copies, never views.
"""

import numpy as np

from rkca import admm, linalg, tensor


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
    return linalg.selective_shrink(t, tau, mask)


def dual_ascent(state, x_tilde, cfg, carriers, splits=()):
    """Dual ascent on whole tensors: Lambda += mu*(Xt - L), L the
    reconstruction from ``carriers``, in scaled form U = Lambda/mu with the
    grown mu; then each of the ``splits`` ascends as in the loop."""
    recon = tensor.reconstruct(*carriers)
    c = admm._grow_mu(state, cfg)
    state.Lam = (state.Lam + (x_tilde - recon)) * c
    admm._ascend(state, splits, cfg)


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
