"""Whole-tensor and dense references for the solvers' kernels.

The solvers run the E step and the dual ascent slice-block by slice-block
inside their loop, and solve Stein equations by diagonalising both
coefficients; these are the plain forms the tests compare them with.
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
