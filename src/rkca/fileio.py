"""Binary file formats: RKT1 tensors and binary PGM/PPM images.

RKT1 layout: 8-byte magic ``RKTENS1\\0``, three little-endian uint64 dims
(m, n, N), then m*n*N little-endian float64 values in column-major order
(index (i, j, k) at position i + m*j + m*n*k).

Images use the binary netpbm formats P5 (grayscale) and P6 (RGB) with
maxval up to 65535; samples wider than one byte are big-endian per the
format.  Pixel values are scaled to [0, 1] on read, and writing at maxval
255 inverts an 8-bit read exactly.
"""

from __future__ import annotations

import math
import os
import re
import struct

import numpy as np

__all__ = [
    "RKT_MAGIC",
    "read_rkt",
    "read_rkt_dims",
    "scan_rkt",
    "write_rkt",
    "read_pgm",
    "read_ppm",
    "write_pgm",
    "write_ppm",
]

RKT_MAGIC = b"RKTENS1\x00"
_HEADER_BYTES = len(RKT_MAGIC) + 24

# write_rkt writes, and scan_rkt and read_rkt read, the payload in blocks of
# about this many bytes.
_SCAN_BYTES = 1 << 18


def _rkt_blocks(m, n, N):
    """The RKT1 block plan of an (m, n, N) tensor: each block's (slices,
    columns) index pair, in file order.  A block is a run of whole slices
    (one at least) while one slice fits in _SCAN_BYTES, else a run of whole
    columns (one at least) of one slice, so no block holds more than
    max(_SCAN_BYTES // 8, m) values."""
    cols = max(1, _SCAN_BYTES // (8 * m))
    if cols < n:
        return ((slice(k, k + 1), slice(j, j + cols))
                for k in range(N) for j in range(0, n, cols))
    step = max(1, _SCAN_BYTES // (8 * m * n))
    return ((slice(k, k + step), slice(None)) for k in range(0, N, step))


def write_rkt(path, t):
    """Serialise a 3-way tensor to the RKT1 format a block of the block plan
    at a time: each block takes one column-major float64 copy, none where it
    is one already."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got shape {t.shape}")
    with open(path, "wb") as fh:
        fh.write(RKT_MAGIC)
        fh.write(struct.pack("<3Q", *t.shape))
        if t.size:  # an empty tensor is its header alone
            for ks, cols in _rkt_blocks(*t.shape):
                fh.write(np.asarray(t[:, cols, ks], dtype="<f8", order="F").ravel(order="F"))


def read_rkt_dims(path):
    """The dims of an RKT1 tensor, from its header and the file's size alone,
    rejecting bad magic, a zero dim, truncation or trailing bytes."""
    with open(path, "rb") as fh:
        header, size = fh.read(_HEADER_BYTES), os.fstat(fh.fileno()).st_size
    if len(header) < _HEADER_BYTES:
        raise ValueError(f"{path}: truncated RKT1 header")
    if header[: len(RKT_MAGIC)] != RKT_MAGIC:
        raise ValueError(f"{path}: bad RKT1 magic")
    m, n, N = struct.unpack_from("<3Q", header, len(RKT_MAGIC))
    if min(m, n, N) == 0:
        raise ValueError(f"{path}: zero dimension in header ({m}, {n}, {N})")
    expected = _HEADER_BYTES + 8 * m * n * N
    if size < expected:
        raise ValueError(f"{path}: truncated RKT1 payload")
    if size > expected:
        raise ValueError(f"{path}: trailing bytes after RKT1 payload")
    return m, n, N


def scan_rkt(path):
    """The dims of an RKT1 tensor, checked as :func:`read_rkt` checks it, its
    values read for finiteness in chunks of _SCAN_BYTES: no data-sized array
    is held."""
    dims = read_rkt_dims(path)
    chunk = np.empty(_SCAN_BYTES // 8, dtype="<f8")
    with open(path, "rb") as fh:
        fh.seek(_HEADER_BYTES)
        while got := fh.readinto(chunk):
            if not np.isfinite(chunk[:got // 8]).all():
                raise ValueError(f"{path}: non-finite values in tensor")
    return dims


def read_rkt(path):
    """Load an RKT1 tensor slice-major (:func:`tensor.slice_major`'s layout),
    checked as :func:`read_rkt_dims` checks it and for non-finite values.

    The payload is read a block of the block plan at a time into one scratch
    block, checked, and transposed into place, so the read holds the result
    and that block.
    """
    m, n, N = read_rkt_dims(path)
    out = np.empty((N, m, n))
    scratch = np.empty(min(m * n * N, max(_SCAN_BYTES // 8, m)), dtype="<f8")
    with open(path, "rb") as fh:
        fh.seek(_HEADER_BYTES)
        for ks, cs in _rkt_blocks(m, n, N):
            dst = out[ks, :, cs]
            part = scratch[:dst.size].reshape(len(dst), -1, m)  # (k, j, i): file order
            if fh.readinto(part) != part.nbytes:
                raise ValueError(f"{path}: truncated RKT1 payload")
            if not np.isfinite(part).all():
                raise ValueError(f"{path}: non-finite values in tensor")
            dst[...] = part.transpose(0, 2, 1)
    return out.transpose(1, 2, 0)


# The netpbm header after its magic: width, height and maxval, each after any
# whitespace and '#' comments (a comment runs to its newline), then one
# whitespace byte.  A digit run never splits, so the match cannot backtrack
# more than linearly.
_PNM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*(\d+)(?!\d)" * 3 + rb"\s")
# magic -> (trailing axes of the array, what the array must be)
_PNM = {b"P5": ((), "a matrix"), b"P6": ((3,), "an (m, n, 3) tensor")}


def _samples(maxval, where=""):
    """The sample type at ``maxval`` (1 to 65535): ``>u2`` above 255, else ``u1``."""
    if not 0 < maxval <= 65535:
        raise ValueError(f"{where}unsupported maxval {maxval}")
    return np.dtype(">u2" if maxval > 255 else "u1")


def _read_pnm(path, magic):
    with open(path, "rb") as fh:
        payload = fh.read()
    if payload[:2] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} file")
    header = _PNM_HEADER.match(payload, 2)
    if header is None:
        raise ValueError(f"{path}: malformed or truncated header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad image dimensions {width}x{height}")
    dtype = _samples(maxval, f"{path}: ")
    shape = (height, width, *_PNM[magic][0])
    count = math.prod(shape)
    if len(payload) - header.end() < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated raster data")
    raw = np.frombuffer(payload, dtype, count, header.end())
    if raw.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample above maxval {maxval}")
    return (raw.astype(np.float64) / maxval).reshape(shape)


def _write_pnm(path, img, maxval, magic):
    img = np.asarray(img, dtype=np.float64)
    channels, noun = _PNM[magic]
    if img.ndim != 2 + len(channels) or img.shape[2:] != channels:
        raise ValueError(f"expected {noun}, got shape {img.shape}")
    dtype = _samples(maxval)
    levels = np.clip(np.rint(img * maxval), 0, maxval).astype(dtype)
    with open(path, "wb") as fh:
        fh.write(f"{magic.decode()}\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(levels.tobytes())


def read_pgm(path):
    """Read a binary (P5) grayscale image as an (m, n) matrix in [0, 1]."""
    return _read_pnm(path, b"P5")


def read_ppm(path):
    """Read a binary (P6) color image as an (m, n, 3) tensor in [0, 1]."""
    return _read_pnm(path, b"P6")


def write_pgm(path, img, maxval=255):
    """Write an (m, n) matrix with values in [0, 1] as binary PGM."""
    _write_pnm(path, img, maxval, b"P5")


def write_ppm(path, img, maxval=255):
    """Write an (m, n, 3) tensor with values in [0, 1] as binary PPM."""
    _write_pnm(path, img, maxval, b"P6")
