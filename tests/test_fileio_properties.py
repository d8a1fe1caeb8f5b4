"""Property-based tests of the file readers: write -> read round trips, and
truncated or mutated inputs that must raise ValueError and nothing else.

Inputs stay small (every dimension at most 8) so the whole module runs in a
few seconds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rkca import fileio

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

side = st.integers(1, 8)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
rkt_tensors = hnp.arrays(np.float64, st.tuples(side, side, side), elements=finite)
PNM = {"pgm": (fileio.write_pgm, fileio.read_pgm, ()),
       "ppm": (fileio.write_ppm, fileio.read_ppm, (3,))}


def _read_or_value_error(read, path):
    """Read ``path``; a ValueError is an accepted outcome, any other exception fails."""
    try:
        return read(path)
    except ValueError:
        return None


def _written(tmp_path, write, *args):
    path = tmp_path / "file.bin"
    write(path, *args)
    return path, path.read_bytes()


@st.composite
def pnm_images(draw, channels):
    """(levels / maxval, maxval): an image whose quantisation is exact."""
    maxval = draw(st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535))
    shape = (draw(side), draw(side), *channels)
    levels = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, maxval)))
    return levels / maxval, maxval


@SETTINGS
@given(t=rkt_tensors)
def test_rkt_write_read_roundtrip(tmp_path, t):
    path, _ = _written(tmp_path, fileio.write_rkt, t)
    back = fileio.read_rkt(path)
    assert back.shape == t.shape
    assert back.tobytes(order="F") == t.tobytes(order="F")


@SETTINGS
@given(t=rkt_tensors, data=st.data())
def test_rkt_truncated_raises_value_error(tmp_path, t, data):
    path, raw = _written(tmp_path, fileio.write_rkt, t)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError):
        fileio.read_rkt(path)


@SETTINGS
@given(t=rkt_tensors, data=st.data())
def test_rkt_mutated_header_raises_only_value_error(tmp_path, t, data):
    path, raw = _written(tmp_path, fileio.write_rkt, t)
    mutated = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        mutated[data.draw(st.integers(0, 31))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(mutated))
    back = _read_or_value_error(fileio.read_rkt, path)
    if back is not None:
        assert back.shape == tuple(int.from_bytes(mutated[i:i + 8], "little")
                                   for i in (8, 16, 24))


@pytest.mark.parametrize("kind", sorted(PNM))
@SETTINGS
@given(data=st.data())
def test_pnm_write_read_roundtrip(tmp_path, kind, data):
    write, read, channels = PNM[kind]
    img, maxval = data.draw(pnm_images(channels))
    path, _ = _written(tmp_path, write, img, maxval)
    back = read(path)
    assert back.shape == img.shape
    assert np.array_equal(back, img)


@pytest.mark.parametrize("kind", sorted(PNM))
@SETTINGS
@given(data=st.data())
def test_pnm_truncated_raises_value_error(tmp_path, kind, data):
    write, read, channels = PNM[kind]
    img, maxval = data.draw(pnm_images(channels))
    path, raw = _written(tmp_path, write, img, maxval)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError):
        read(path)


@pytest.mark.parametrize("kind", sorted(PNM))
@SETTINGS
@given(data=st.data())
def test_pnm_mutated_header_raises_only_value_error(tmp_path, kind, data):
    write, read, channels = PNM[kind]
    img, maxval = data.draw(pnm_images(channels))
    path, raw = _written(tmp_path, write, img, maxval)
    header_len = raw.index(b"\n", raw.index(b"\n", 3) + 1) + 1
    fields = raw[:header_len].split()
    # Either rewrite one header field (maxval, dims or magic) as arbitrary
    # bytes, or overwrite single header bytes.
    if data.draw(st.booleans()):
        idx = data.draw(st.integers(0, 3))
        fields[idx] = data.draw(st.binary(max_size=8) | st.integers(-9, 99999).map(
            lambda v: str(v).encode()))
        header = b"\n".join(fields) + b"\n"
    else:
        header = bytearray(raw[:header_len])
        for _ in range(data.draw(st.integers(1, 3))):
            header[data.draw(st.integers(0, header_len - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(header) + raw[header_len:])
    back = _read_or_value_error(read, path)
    if back is not None:
        assert back.ndim == len(img.shape)
        assert np.all((back >= 0) & (back <= 1))
