"""Dense 3-way tensor primitives.

A 3-way tensor is represented as a ``numpy.ndarray`` of shape ``(m, n, N)``
and dtype float64.  The canonical linear order is column-major: entry
``(i, j, k)`` sits at flat position ``i + m*j + m*n*k``.  All unfoldings,
vectorisations and the binary file format follow that ordering, so modes are
numbered 1..3 and the first index always varies fastest.

That order says how entries are numbered, not how memory is laid out.  The
solvers hold every data-sized tensor and every core slice-major
(:func:`slice_major`): a C-contiguous ``(N, m, n)`` buffer seen through a view
as ``(m, n, N)``, so each frontal slice is one contiguous block for the
batched per-slice products.  :func:`reconstruct` returns that layout too.
Shapes and values do not depend on layout, and every function here accepts
any strides.

Unfoldings are explicit copies, never views.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "vectorize",
    "mode_product",
    "kronecker",
    "reconstruct",
    "frobenius",
    "l1",
    "inner",
    "as_tensor3",
    "slice_major",
]


def as_tensor3(data, name="tensor"):
    """Coerce external input to a float64 3-way tensor, checking finiteness.

    Raises ValueError if the array is not 3-dimensional or contains NaN/Inf.
    """
    t = np.asarray(data, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"{name} must be 3-way, got shape {t.shape}")
    if not _all_finite(t):
        raise ValueError(f"{name} contains non-finite entries")
    return t


def _all_finite(t):
    """Whether every entry of ``t`` is finite, without a data-sized temporary
    unless the sum is not finite: only then are the entries scanned."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(t)
    return bool(np.isfinite(total) or np.isfinite(t).all())


def slice_major(t):
    """``t`` backed by a C-contiguous ``(N, m, n)`` buffer, viewed as ``(m, n, N)``.

    Copies unless ``t`` already has that layout; values and shape are unchanged.
    """
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 2, 0)), 0, 2)


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


def reconstruct(a, core, b, out=None):
    """Assemble the low-rank tensor with frontal slices ``a @ core_k @ b.T``.

    ``a`` is (m, r), ``b`` is (n, r) and ``core`` is (r, r, N); the result
    equals ``core x_1 a x_2 b``, has shape (m, n, N) and is slice-major: a view
    of the C-contiguous (N, m, n) batch of slice products.  ``out``, a
    slice-major (m, n, N) array, receives it and is returned itself.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    core = np.asarray(core)
    if core.ndim != 3 or a.ndim != 2 or b.ndim != 2:
        raise ValueError("reconstruct expects two matrices and a 3-way core")
    if a.shape[1] != core.shape[0] or b.shape[1] != core.shape[1]:
        raise ValueError(
            f"incompatible shapes: a {a.shape}, b {b.shape}, core {core.shape}"
        )
    slices = core.transpose(2, 0, 1)  # (N, r, r)
    if out is None:
        return (a @ slices @ b.T).transpose(1, 2, 0)
    np.matmul(a @ slices, b.T, out=out.transpose(2, 0, 1))
    return out


def frobenius(x):
    """Frobenius norm of a matrix or tensor."""
    return float(np.linalg.norm(np.asarray(x).ravel()))


def l1(x, mask=None, out=None):
    """Entrywise l1 norm of a matrix or tensor; with a boolean or 0/1 ``mask``
    of x's shape, of the flagged entries only.

    The masked sum is sum(|x| * mask), without a per-entry select, so an
    unflagged inf or nan still makes it non-finite (inf * 0 is nan): a finite
    result proves every entry of x finite.  ``out``, an array of x's shape
    and layout, is scratch for |x| in place of a new array.
    """
    out = np.abs(x, out=out)
    if mask is not None:
        with np.errstate(invalid="ignore"):  # the nan from inf * 0 is wanted
            out *= mask
    return float(np.sum(out))


def inner(a, b):
    """Euclidean inner product of two same-shaped arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))
