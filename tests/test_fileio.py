"""File format tests: RKT1 golden bytes and netpbm image round trips."""

import struct
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rkca import fileio, tensor


def test_rkt_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    path = tmp_path / "t.rkt"
    fileio.write_rkt(path, t)
    back = fileio.read_rkt(path)
    assert np.array_equal(back, t)
    assert back.dtype == np.float64


def test_rkt_golden_bytes(tmp_path):
    # 1x2x1 tensor [1.0, 2.0]: magic, dims, then column-major payload.
    golden = (
        b"RKTENS1\x00"
        + struct.pack("<3Q", 1, 2, 1)
        + struct.pack("<2d", 1.0, 2.0)
    )
    path = tmp_path / "golden.rkt"
    path.write_bytes(golden)
    t = fileio.read_rkt(path)
    assert t.shape == (1, 2, 1)
    assert t[0, 0, 0] == 1.0 and t[0, 1, 0] == 2.0

    out = tmp_path / "rewritten.rkt"
    fileio.write_rkt(out, t)
    assert out.read_bytes() == golden


def test_rkt_column_major_order(tmp_path):
    t = np.arange(8.0).reshape((2, 2, 2), order="F")
    path = tmp_path / "order.rkt"
    fileio.write_rkt(path, t)
    payload = path.read_bytes()[8 + 24 :]
    values = struct.unpack("<8d", payload)
    assert values == tuple(range(8))


RKT_INPUTS = {
    "C-order": lambda rng: rng.standard_normal((100, 100, 50)),
    "F-order": lambda rng: np.asfortranarray(rng.standard_normal((100, 100, 50))),
    "slice-major": lambda rng: tensor.slice_major(rng.standard_normal((100, 100, 50))),
    "strided": lambda rng: rng.standard_normal((100, 200, 50))[:, ::2, :],
    "1x1x1": lambda rng: rng.standard_normal((1, 1, 1)),
    "1x1x200000": lambda rng: rng.standard_normal((1, 1, 200000)),
    "2000x600x1": lambda rng: rng.standard_normal((2000, 600, 1)),
    "40000x1x2": lambda rng: rng.standard_normal((40000, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(RKT_INPUTS))
def test_write_rkt_streams_blocks_of_slices_with_the_same_bytes(tmp_path, name):
    # The bytes of one whole-tensor column-major flatten, written with at most
    # one block held beside the input: whole slices, or whole columns of a
    # slice larger than the block (one column, if larger).
    t = RKT_INPUTS[name](np.random.default_rng(2))
    path = tmp_path / "t.rkt"
    tracemalloc.start()
    try:
        fileio.write_rkt(path, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, n, N = t.shape
    assert path.read_bytes() == (fileio.RKT_MAGIC + struct.pack("<3Q", m, n, N)
                                 + t.reshape(-1, order="F").astype("<f8").tobytes())
    assert peak <= max(fileio._SCAN_BYTES, 8 * m) + (64 << 10), name


@pytest.mark.parametrize("name", sorted(RKT_INPUTS))
def test_read_rkt_streams_blocks_of_slices_into_a_slice_major_result(tmp_path, name):
    # The values written, in a slice-major result, read with at most one block
    # (whole slices, or whole columns of a larger slice; one column at least)
    # and its finiteness mask held beside it.
    t = RKT_INPUTS[name](np.random.default_rng(4))
    path = tmp_path / "t.rkt"
    fileio.write_rkt(path, t)
    tracemalloc.start()
    try:
        back = fileio.read_rkt(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, n, N = t.shape
    assert np.array_equal(back, t) and back.dtype == np.float64
    assert back.transpose(2, 0, 1).flags.c_contiguous
    assert peak <= t.nbytes + 1.125 * max(fileio._SCAN_BYTES, 8 * m) + (64 << 10), name


def test_read_rkt_reads_the_payload_into_its_result(tmp_path):
    # The payload goes straight into the float64 result: the read holds the
    # tensor and its finiteness check, not a bytes copy beside it.
    t = np.random.default_rng(3).standard_normal((100, 100, 50))
    path = tmp_path / "t.rkt"
    fileio.write_rkt(path, t)
    tracemalloc.start()
    try:
        back = fileio.read_rkt(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, t) and back.dtype == np.float64
    assert peak <= 1.2 * t.nbytes


def test_rkt_rejections(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 2, 2))
    path = tmp_path / "t.rkt"
    fileio.write_rkt(path, t)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.rkt"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ValueError, match="magic"):
        fileio.read_rkt(bad_magic)

    truncated = tmp_path / "trunc.rkt"
    truncated.write_bytes(raw[:-9])
    with pytest.raises(ValueError, match="truncated"):
        fileio.read_rkt(truncated)

    zero_dim = tmp_path / "zdim.rkt"
    zero_dim.write_bytes(b"RKTENS1\x00" + struct.pack("<3Q", 2, 0, 2))
    with pytest.raises(ValueError, match="zero dimension"):
        fileio.read_rkt(zero_dim)

    trailing = tmp_path / "trail.rkt"
    trailing.write_bytes(raw + b"x")
    with pytest.raises(ValueError, match="trailing"):
        fileio.read_rkt(trailing)

    for bad, match in ((bad_magic, "magic"), (truncated, "truncated"), (zero_dim, "zero"),
                       (trailing, "trailing")):
        with pytest.raises(ValueError, match=match):
            fileio.read_rkt_dims(bad)
    assert fileio.read_rkt_dims(path) == (2, 2, 2)

    nonfinite = tmp_path / "nan.rkt"
    nonfinite.write_bytes(
        b"RKTENS1\x00" + struct.pack("<3Q", 1, 1, 1) + struct.pack("<d", np.nan)
    )
    with pytest.raises(ValueError, match="non-finite"):
        fileio.read_rkt(nonfinite)


@pytest.mark.parametrize("where", [0, 15, 16, 17, 59])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scan_rkt_finds_a_non_finite_value_in_any_chunk(tmp_path, monkeypatch, where, value):
    # Chunks of 16 values over 60: the first, a chunk's last and first, and
    # the short last chunk.  A finite file gives its dims, as read_rkt_dims.
    monkeypatch.setattr(fileio, "_SCAN_BYTES", 16 * 8)
    t = np.random.default_rng(where).standard_normal((3, 4, 5))
    path = tmp_path / "t.rkt"
    fileio.write_rkt(path, t)
    assert fileio.scan_rkt(path) == fileio.read_rkt_dims(path) == (3, 4, 5)
    t[np.unravel_index(where, t.shape, order="F")] = value
    fileio.write_rkt(path, t)
    with pytest.raises(ValueError, match="non-finite"):
        fileio.scan_rkt(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        fileio.scan_rkt(path)


def test_pgm_handcrafted_bytes(tmp_path):
    raw = b"P5\n# demo comment\n2 2\n255\n" + bytes([0, 255, 128, 64])
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    img = fileio.read_pgm(path)
    assert img.shape == (2, 2)
    assert_allclose(img, np.array([[0, 255], [128, 64]]) / 255.0)


def test_pgm_8bit_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    levels = rng.integers(0, 256, size=(5, 7))
    img = levels / 255.0
    path = tmp_path / "img.pgm"
    fileio.write_pgm(path, img)
    back = fileio.read_pgm(path)
    assert np.array_equal(np.rint(back * 255), levels)
    assert_allclose(back, img)


def test_pgm_16bit_sample(tmp_path):
    # Big-endian two-byte samples per the format.
    raw = b"P5\n2 1\n65535\n" + struct.pack(">2H", 0, 65535)
    path = tmp_path / "img16.pgm"
    path.write_bytes(raw)
    img = fileio.read_pgm(path)
    assert_allclose(img, [[0.0, 1.0]])

    out = tmp_path / "out16.pgm"
    fileio.write_pgm(out, np.array([[0.0, 1.0]]), maxval=65535)
    assert fileio.read_pgm(out)[0, 1] == 1.0


def test_ppm_roundtrip(tmp_path):
    raw = b"P6\n1 2\n255\n" + bytes([255, 0, 0, 0, 0, 255])
    path = tmp_path / "img.ppm"
    path.write_bytes(raw)
    img = fileio.read_ppm(path)
    assert img.shape == (2, 1, 3)
    assert_allclose(img[0, 0], [1.0, 0.0, 0.0])
    assert_allclose(img[1, 0], [0.0, 0.0, 1.0])

    out = tmp_path / "out.ppm"
    fileio.write_ppm(out, img)
    assert np.array_equal(fileio.read_ppm(out), img)


def test_pnm_malformed_headers(tmp_path):
    cases = {
        "wrong_magic.pgm": b"P4\n2 2\n255\n" + bytes(4),
        "no_maxval.pgm": b"P5\n2 2\n",
        "huge_maxval.pgm": b"P5\n2 2\n70000\n" + bytes(8),
        "short_raster.pgm": b"P5\n2 2\n255\n" + bytes(3),
        "junk_header.pgm": b"P5\nx 2\n255\n" + bytes(4),
    }
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            fileio.read_pgm(path)


def test_pnm_header_of_many_comment_starts_is_read_in_linear_time(tmp_path):
    # Thousands of "# " pairs: one comment running to the end of the file
    # (rejected), or one comment per line before the fields (accepted).  The
    # header pattern may not backtrack over the ways to split either.
    cases = {"open.pgm": b"P5 " + b"# " * 5000,
             "closed.pgm": b"P5\n" + b"# \n" * 5000 + b"1 1\n255\n\x80"}
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        start = time.perf_counter()
        if name == "open.pgm":
            with pytest.raises(ValueError, match="malformed or truncated header"):
                fileio.read_pgm(path)
        else:
            assert fileio.read_pgm(path).tolist() == [[128 / 255]]
        assert time.perf_counter() - start < 1.0, name


def test_pnm_digit_run_never_splits(tmp_path):
    # "1 12" is two fields, not the three of "1 1 2": the header has no maxval.
    path = tmp_path / "two_fields.pgm"
    path.write_bytes(b"P5 1 12\n\x01")
    with pytest.raises(ValueError, match="malformed or truncated header"):
        fileio.read_pgm(path)


def test_pnm_sample_above_maxval_rejected(tmp_path):
    # Samples may not exceed maxval, or a read would leave [0, 1].
    cases = {
        "over8.pgm": (fileio.read_pgm, b"P5\n2 1\n10\n" + bytes([5, 200])),
        "over16.ppm": (fileio.read_ppm,
                       b"P6\n1 1\n300\n" + struct.pack(">3H", 0, 300, 301)),
    }
    for name, (read, raw) in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="above maxval"):
            read(path)


def test_write_pgm_validation(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        fileio.write_ppm(tmp_path / "bad.ppm", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fileio.write_pgm(tmp_path / "bad2.pgm", np.zeros((2, 2)), maxval=100000)
