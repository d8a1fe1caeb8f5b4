"""Tensor primitive tests: unfoldings against the index bijection, identities."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rkca import tensor

import reference


def index_map_unfold(t, mode):
    """Brute-force mode-n unfolding straight from the index bijection."""
    dims = t.shape
    ax = mode - 1
    other = [k for k in range(3) if k != ax]
    out = np.zeros((dims[ax], dims[other[0]] * dims[other[1]]))
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                idx = (i, j, k)
                strides = []
                acc = 1
                for o in other:
                    strides.append(acc)
                    acc *= dims[o]
                col = sum(idx[o] * s for o, s in zip(other, strides))
                out[idx[ax], col] = t[i, j, k]
    return out


def test_unfold_single_slice_modes():
    t = np.zeros((2, 2, 1))
    t[:, :, 0] = [[1, 3], [2, 4]]
    assert_allclose(reference.unfold(t, 1), [[1, 3], [2, 4]])
    assert_allclose(reference.unfold(t, 2), [[1, 2], [3, 4]])


def test_unfold_matches_index_bijection():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    for mode in (1, 2, 3):
        assert np.array_equal(reference.unfold(t, mode), index_map_unfold(t, mode))


def test_unfold_rejects_bad_mode():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        reference.unfold(t, 4)


def test_fold_unfold_roundtrip_bitwise():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    for mode in (1, 2, 3):
        back = reference.fold(reference.unfold(t, mode), mode, t.shape)
        assert np.array_equal(back, t)


def test_fold_rejects_dim_mismatch():
    mat = np.zeros((3, 10))
    with pytest.raises(ValueError):
        reference.fold(mat, 1, (3, 4, 5))


def test_vectorize_column_stacking():
    t = np.zeros((2, 2, 1))
    t[:, :, 0] = [[1, 3], [2, 4]]
    assert_allclose(reference.vectorize(t), [1, 2, 3, 4])


def test_vectorize_is_stacked_mode1_columns():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 4, 2))
    stacked = reference.unfold(t, 1).reshape(-1, order="F")
    assert np.array_equal(reference.vectorize(t), stacked)


def test_vectorize_matches_index_bijection():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2, 3, 2))
    vec = reference.vectorize(t)
    m, n, _ = t.shape
    for i in range(2):
        for j in range(3):
            for k in range(2):
                assert vec[i + m * j + m * n * k] == t[i, j, k]


def test_mode_product_identity_and_zero():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    assert_allclose(reference.mode_product(t, np.eye(3), 1), t)
    assert_allclose(reference.mode_product(t, np.zeros((5, 4)), 2), np.zeros((3, 5, 2)))


def test_mode_product_slicewise_oracle():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 4, 2))
    u = rng.standard_normal((5, 3))
    result = reference.mode_product(t, u, 1)
    for k in range(2):
        assert_allclose(result[:, :, k], u @ t[:, :, k], rtol=1e-13, atol=1e-13)


def test_mode_product_rejects_mismatch():
    t = np.zeros((3, 4, 2))
    with pytest.raises(ValueError):
        reference.mode_product(t, np.zeros((5, 7)), 1)


def test_kronecker_identity_and_scalar():
    assert_allclose(reference.kronecker(np.eye(2), np.eye(2)), np.eye(4))
    b = np.arange(6.0).reshape(2, 3)
    assert_allclose(reference.kronecker([[2.0]], b), 2 * b)


def test_kronecker_vec_identity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 5))
    x = rng.standard_normal((4, 5))
    lhs = (a @ x @ b.T).reshape(-1, order="F")
    rhs = reference.kronecker(b, a) @ x.reshape(-1, order="F")
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_reconstruct_identity_and_zero():
    rng = np.random.default_rng(7)
    core = rng.standard_normal((3, 3, 4))
    assert_allclose(tensor.reconstruct(np.eye(3), core, np.eye(3)), core)
    assert_allclose(
        tensor.reconstruct(rng.standard_normal((5, 3)), np.zeros((3, 3, 2)),
                           rng.standard_normal((4, 3))),
        np.zeros((5, 4, 2)),
    )


def test_reconstruct_two_code_paths_agree():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((4, 3))
    core = rng.standard_normal((3, 3, 2))
    direct = tensor.reconstruct(a, core, b)
    via_products = reference.mode_product(reference.mode_product(core, a, 1), b, 2)
    assert_allclose(direct, via_products, rtol=1e-12, atol=1e-12)


def test_reconstruct_rejects_mismatch():
    with pytest.raises(ValueError):
        tensor.reconstruct(np.zeros((5, 3)), np.zeros((2, 2, 2)), np.zeros((4, 2)))


def test_norms_basic():
    assert reference.frobenius(np.eye(3)) == pytest.approx(np.sqrt(3))
    assert tensor.l1(np.array([[1.0, -2.0], [0.0, 3.0]])) == 6.0
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 3))
    assert reference.inner(a, a) == pytest.approx(reference.frobenius(a) ** 2)
    with pytest.raises(ValueError):
        reference.inner(a, np.zeros((3, 4)))


def test_masked_l1_sums_flagged_entries_and_sees_every_nonfinite():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 5, 4))
    mask = rng.random(x.shape) < 0.5
    expected = float(np.sum(np.abs(np.where(mask, x, 0.0))))
    assert tensor.l1(x, mask) == expected
    assert tensor.l1(x, mask.astype(np.float64)) == expected
    # A non-finite entry the mask leaves out still makes the sum non-finite.
    for bad in (np.inf, -np.inf, np.nan):
        y = x.copy()
        y.flat[np.flatnonzero(~mask)[0]] = bad
        assert not np.isfinite(tensor.l1(y, mask))


def test_kronecker_schatten_identity():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4))
    s_kron = np.linalg.svd(reference.kronecker(a, b), compute_uv=False)
    s_a = np.linalg.svd(a, compute_uv=False)
    s_b = np.linalg.svd(b, compute_uv=False)
    for p in (1, 2):
        lhs = np.sum(s_kron**p) ** (1 / p)
        rhs = np.sum(s_a**p) ** (1 / p) * np.sum(s_b**p) ** (1 / p)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_multi_mode_unfolding_identity():
    # Unfolding of t x_1 U1 x_2 U2 along mode 1 equals U1 X_[1] (I_N kron U2)^T.
    rng = np.random.default_rng(11)
    t = rng.standard_normal((3, 4, 2))
    u1 = rng.standard_normal((5, 3))
    u2 = rng.standard_normal((6, 4))
    prod = reference.mode_product(reference.mode_product(t, u1, 1), u2, 2)
    lhs = reference.unfold(prod, 1)
    rhs = u1 @ reference.unfold(t, 1) @ reference.kronecker(np.eye(2), u2).T
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_vec_of_mode_products_identity():
    rng = np.random.default_rng(12)
    t = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((6, 4))
    prod = reference.mode_product(reference.mode_product(t, a, 1), b, 2)
    lhs = reference.vectorize(prod)
    big = reference.kronecker(np.eye(2), reference.kronecker(b, a))
    rhs = big @ reference.vectorize(t)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_mode_product_commutes_across_modes():
    rng = np.random.default_rng(13)
    t = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((6, 4))
    one = reference.mode_product(reference.mode_product(t, a, 1), b, 2)
    two = reference.mode_product(reference.mode_product(t, b, 2), a, 1)
    assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(one)


def test_as_tensor3_rejects_nonfinite():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        tensor.as_tensor3(bad)
    with pytest.raises(ValueError):
        tensor.as_tensor3(np.zeros((2, 2)))


def test_as_tensor3_finiteness_check_takes_no_data_sized_temporary():
    X = np.random.default_rng(15).standard_normal((100, 100, 50))
    tracemalloc.start()
    try:
        assert tensor.as_tensor3(X) is X
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes / 16, peak / X.nbytes


def test_as_tensor3_accepts_an_overflowing_sum_and_rejects_nonfinite():
    big = np.full((4, 3, 2), 1e308)  # every entry finite, the sum is inf
    assert tensor.as_tensor3(big) is big
    for value in (np.nan, np.inf, -np.inf):
        for base in (np.zeros((4, 3, 2)), big.copy()):
            base[1, 2, 1] = value
            with pytest.raises(ValueError, match="X contains non-finite entries"):
                tensor.as_tensor3(base, "X")


def test_reconstruct_is_slice_major():
    # The result is a view of a C-contiguous (N, m, n) batch of slice products.
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
    core = rng.standard_normal((3, 3, 4))
    for core in (core, tensor.slice_major(core)):
        out = tensor.reconstruct(a, core, b)
        assert out.shape == (6, 5, 4)
        assert np.moveaxis(out, 2, 0).flags.c_contiguous
        assert_allclose(out, np.einsum("ir,rsk,js->ijk", a, core, b), rtol=1e-13, atol=1e-13)


def test_slice_major_copies_only_when_needed():
    t = np.random.default_rng(15).standard_normal((4, 3, 5))
    for layout in (t, np.asfortranarray(t), t[:, ::-1, :]):
        out = tensor.slice_major(layout)
        assert np.array_equal(out, layout)
        assert np.moveaxis(out, 2, 0).flags.c_contiguous
    once = tensor.slice_major(t)
    assert tensor.slice_major(once).base is once.base


def test_out_arguments_give_the_same_bits_in_the_given_array():
    # reconstruct's result goes into a caller's slice-major array; the
    # arithmetic is unchanged, so the results are bitwise equal.
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
    core = rng.standard_normal((3, 3, 4))
    buf = tensor.slice_major(np.full((6, 5, 4), np.nan))
    out = tensor.reconstruct(a, core, b, out=buf)
    assert out is buf and np.array_equal(out, tensor.reconstruct(a, core, b))
