"""Dense 3-way tensor primitives.

A 3-way tensor is represented as a ``numpy.ndarray`` of shape ``(m, n, N)``
and dtype float64.  The canonical linear order is column-major: entry
``(i, j, k)`` sits at flat position ``i + m*j + m*n*k``; the binary file
format follows that ordering, so modes are numbered 1..3 and the first index
always varies fastest.

That order says how entries are numbered, not how memory is laid out.  The
solvers hold every data-sized tensor and every core slice-major
(:func:`slice_major`): a C-contiguous ``(N, m, n)`` buffer seen through a view
as ``(m, n, N)``, so each frontal slice is one contiguous block for the
batched per-slice products.  :func:`reconstruct` returns that layout too.
Shapes and values do not depend on layout, and every function here accepts
any strides.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reconstruct",
    "l1",
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


def l1(x, mask=None):
    """Entrywise l1 norm of a matrix or tensor; with a boolean or 0/1 ``mask``
    of x's shape, of the flagged entries only.

    The masked sum is sum(|x| * mask), without a per-entry select, so an
    unflagged inf or nan still makes it non-finite (inf * 0 is nan): a finite
    result proves every entry of x finite.
    """
    out = np.abs(x)
    if mask is not None:
        with np.errstate(invalid="ignore"):  # the nan from inf * 0 is wanted
            out *= mask
    return float(out.sum())
