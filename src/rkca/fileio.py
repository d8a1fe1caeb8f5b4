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

import os
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

# write_rkt writes, and scan_rkt and read_rkt read, the payload in blocks of
# about this many bytes.
_SCAN_BYTES = 1 << 18


def write_rkt(path, t):
    """Serialise a 3-way tensor to the RKT1 format, a block of whole slices
    (about _SCAN_BYTES, one slice at least) at a time: each block takes one
    column-major float64 copy, none where it is one already."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got shape {t.shape}")
    m, n, N = t.shape
    step = max(1, _SCAN_BYTES // max(1, 8 * m * n))
    with open(path, "wb") as fh:
        fh.write(RKT_MAGIC)
        fh.write(struct.pack("<3Q", m, n, N))
        for k in range(0, N, step):
            fh.write(np.asarray(t[:, :, k:k + step], dtype="<f8", order="F").ravel(order="F"))


_HEADER_BYTES = len(RKT_MAGIC) + 24


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

    The payload is read a block of whole slices (about _SCAN_BYTES, one slice
    at least) at a time into one scratch block, checked, and transposed into
    place, so the read holds the result and that block.
    """
    m, n, N = read_rkt_dims(path)
    out = np.empty((N, m, n))
    step = max(1, _SCAN_BYTES // (8 * m * n))
    block = np.empty((min(step, N), n, m), dtype="<f8")  # (k, j, i): file order
    with open(path, "rb") as fh:
        fh.seek(_HEADER_BYTES)
        for k in range(0, N, step):
            part = block[:N - k]
            if fh.readinto(part) != part.nbytes:
                raise ValueError(f"{path}: truncated RKT1 payload")
            if not np.isfinite(part).all():
                raise ValueError(f"{path}: non-finite values in tensor")
            out[k:k + len(part)] = part.transpose(0, 2, 1)
    return out.transpose(1, 2, 0)


def _read_pnm_header(payload, path, magic):
    if payload[:2] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} file")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(payload):
            raise ValueError(f"{path}: truncated header")
        ch = payload[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(payload) and payload[pos : pos + 1] not in (b"\n", b""):
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(payload) and payload[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(payload[start:pos]))
        else:
            raise ValueError(f"{path}: malformed header byte {ch!r}")
    if pos >= len(payload) or not payload[pos : pos + 1].isspace():
        raise ValueError(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad image dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    return width, height, maxval, pos


def _read_raster(payload, pos, count, maxval, path):
    if maxval > 255:
        dtype = np.dtype(">u2")
    else:
        dtype = np.dtype("u1")
    need = count * dtype.itemsize
    if len(payload) - pos < need:
        raise ValueError(f"{path}: truncated raster data")
    raw = np.frombuffer(payload, dtype=dtype, count=count, offset=pos)
    if raw.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample above maxval {maxval}")
    return raw.astype(np.float64) / maxval


def read_pgm(path):
    """Read a binary (P5) grayscale image as an (m, n) matrix in [0, 1]."""
    with open(path, "rb") as fh:
        payload = fh.read()
    width, height, maxval, pos = _read_pnm_header(payload, path, b"P5")
    values = _read_raster(payload, pos, width * height, maxval, path)
    return values.reshape((height, width))


def read_ppm(path):
    """Read a binary (P6) color image as an (m, n, 3) tensor in [0, 1]."""
    with open(path, "rb") as fh:
        payload = fh.read()
    width, height, maxval, pos = _read_pnm_header(payload, path, b"P6")
    values = _read_raster(payload, pos, width * height * 3, maxval, path)
    return values.reshape((height, width, 3))


def _quantise(img, maxval):
    levels = np.clip(np.rint(np.asarray(img, dtype=np.float64) * maxval), 0, maxval)
    if maxval > 255:
        return levels.astype(">u2").tobytes()
    return levels.astype("u1").tobytes()


def write_pgm(path, img, maxval=255):
    """Write an (m, n) matrix with values in [0, 1] as binary PGM."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {img.shape}")
    if not 0 < maxval <= 65535:
        raise ValueError(f"unsupported maxval {maxval}")
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(_quantise(img, maxval))


def write_ppm(path, img, maxval=255):
    """Write an (m, n, 3) tensor with values in [0, 1] as binary PPM."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an (m, n, 3) tensor, got shape {img.shape}")
    if not 0 < maxval <= 65535:
        raise ValueError(f"unsupported maxval {maxval}")
    height, width = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(_quantise(img, maxval))
