"""Prox operator and structured-solver tests.

Each prox operator is checked both against its closed form and with a
local-optimality probe: the prox objective at the output must beat a cloud
of random perturbations.  The Stein solver is cross-checked against the
dense vectorised solve.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rkca import linalg

from reference import schatten_prox, selective_shrink, stein_dense, svd


def prox_probe(prox_out, x, penalty, rng, n_probes=1000):
    """Return True if no random perturbation beats the prox objective."""
    best = penalty(prox_out) + 0.5 * np.sum((prox_out - x) ** 2)
    for scale in (1e-3, 1e-1, 1.0):
        for _ in range(n_probes // 3):
            y = prox_out + scale * rng.standard_normal(x.shape)
            if penalty(y) + 0.5 * np.sum((y - x) ** 2) < best - 1e-12:
                return False
    return True


def test_soft_shrink_scalars():
    assert linalg.soft_shrink(np.array(1.2), 0.5) == pytest.approx(0.7)
    assert linalg.soft_shrink(np.array(-0.3), 0.5) == 0.0
    x = np.random.default_rng(0).standard_normal((3, 3))
    assert_allclose(linalg.soft_shrink(x, 0.0), x)
    with pytest.raises(ValueError):
        linalg.soft_shrink(x, -1.0)


def test_soft_shrink_matches_sign_max_formula():
    # x - clip(x, -tau, tau) equals sign(x) * max(|x| - tau, 0) bit for bit,
    # up to the sign of zeros, which np.array_equal does not distinguish.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((40, 30, 5)) * 10.0 ** rng.integers(-3, 4, (40, 30, 5))
    for tau in (0.0, 1e-3, 0.3, 2.0):
        edges = np.array([tau, -tau, 0.0, -0.0, np.nextafter(tau, 0), np.nextafter(tau, 9),
                          -np.nextafter(tau, 9), np.inf, -np.inf])
        for arr in (x, edges, np.moveaxis(x, 2, 0)):
            old = np.sign(arr) * np.maximum(np.abs(arr) - tau, 0.0)
            assert np.array_equal(linalg.soft_shrink(arr, tau), old)


def test_soft_shrink_local_optimality():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3))
    tau = 0.7
    out = linalg.soft_shrink(x, tau)
    assert prox_probe(out, x, lambda y: tau * np.sum(np.abs(y)), rng)


def test_selective_shrink_full_and_empty_mask():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 2))
    full = np.ones(x.shape, dtype=bool)
    empty = np.zeros(x.shape, dtype=bool)
    assert_allclose(selective_shrink(x, 0.4, full), linalg.soft_shrink(x, 0.4))
    assert_allclose(selective_shrink(x, 0.4, empty), x)


def test_selective_shrink_casewise_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4, 2))
    mask = rng.random(x.shape) < 0.5
    out = selective_shrink(x, 0.3, mask)
    shrunk = linalg.soft_shrink(x, 0.3)
    for idx in np.ndindex(*x.shape):
        expected = shrunk[idx] if mask[idx] else x[idx]
        assert out[idx] == expected
    # Idempotent on the unobserved complement.
    again = selective_shrink(out, 0.3, mask)
    assert np.array_equal(again[~mask], out[~mask])
    with pytest.raises(ValueError):
        selective_shrink(x, 0.3, mask[:, :, :1])


def test_selective_shrink_matches_select_oracle():
    # x - clip(x, -tau, tau) * mask equals np.where(mask, soft_shrink(x, tau), x)
    # up to the sign of zeros, which np.array_equal does not distinguish; inf
    # and nan pass through where the mask is off.
    rng = np.random.default_rng(18)
    x = rng.standard_normal((30, 20, 4)) * 10.0 ** rng.integers(-3, 4, (30, 20, 4))
    mask = rng.random(x.shape) < 0.5
    x.flat[np.flatnonzero(~mask)[:3]] = [np.inf, -np.inf, np.nan]
    x.flat[np.flatnonzero(mask)[:2]] = [np.inf, -np.inf]
    for tau in (0.0, 1e-3, 0.3, 2.0):
        want = np.where(mask, linalg.soft_shrink(x, tau), x)
        cases = ((x, mask, want), (x, mask.astype(np.float64), want),
                 tuple(np.moveaxis(t, 2, 0) for t in (x, mask, want)))
        for arr, m, expected in cases:
            out = selective_shrink(arr, tau, m)
            assert np.array_equal(out, expected, equal_nan=True)
    with pytest.raises(ValueError):
        selective_shrink(x, -0.1, mask)
    with pytest.raises(ValueError):
        selective_shrink(x, 0.3, mask[:, :, :1])


def test_frobenius_prox_closed_form():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    x *= 5.0 / np.linalg.norm(x)
    assert_allclose(linalg.frobenius_prox(x, 2.0), 0.6 * x)
    assert_allclose(linalg.frobenius_prox(x, 5.0), np.zeros_like(x))
    assert_allclose(linalg.frobenius_prox(x, 7.0), np.zeros_like(x))
    with pytest.raises(ValueError):
        linalg.frobenius_prox(x, -0.1)


def test_frobenius_prox_local_optimality():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3))
    tau = 0.9
    out = linalg.frobenius_prox(x, tau)
    assert prox_probe(out, x, lambda y: tau * np.linalg.norm(y), rng)


def test_schatten_prox_diagonal_and_identity():
    assert_allclose(
        schatten_prox(np.diag([3.0, 1.0]), 2.0, 1), np.diag([1.0, 0.0]),
        atol=1e-12,
    )
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4))
    assert_allclose(schatten_prox(x, 0.0, 1), x, atol=1e-12)
    with pytest.raises(ValueError):
        schatten_prox(x, 0.5, 3)


def test_schatten_prox_p2_equals_frobenius():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 4))
    a = schatten_prox(x, 0.8, 2)
    b = linalg.frobenius_prox(x, 0.8)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_schatten_prox_spectrum_contraction():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 4))
    tau = 0.5
    s_in = np.linalg.svd(x, compute_uv=False)
    s_out = np.linalg.svd(schatten_prox(x, tau, 1), compute_uv=False)
    assert np.all(s_out <= s_in + 1e-12)
    assert np.all(s_out[s_in <= tau] <= 1e-12)


def test_schatten_prox_local_optimality():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3))
    tau = 0.6
    out = schatten_prox(x, tau, 1)
    penalty = lambda y: tau * np.sum(np.linalg.svd(y, compute_uv=False))
    assert prox_probe(out, x, penalty, rng)


def random_stein_problem(rng, r):
    """SPD-derived coefficients (F, G, H) mirroring the solver's usage."""
    a = rng.standard_normal((r + 2, r))
    b = rng.standard_normal((r + 3, r))
    c = float(rng.uniform(0.1, 10.0))
    F = -c * 0.5 * (a.T @ a + (a.T @ a).T)
    G = 0.5 * (b.T @ b + (b.T @ b).T)
    H = rng.standard_normal((r, r))
    return F, G, H


def stein_solve(F, G, H):
    return linalg.stein_apply(linalg.stein_factors(F, G), H)


def test_stein_trivial_cases():
    rng = np.random.default_rng(10)
    H = rng.standard_normal((4, 4))
    K = stein_solve(np.zeros((4, 4)), np.eye(4), H)
    assert_allclose(K, H, atol=1e-12)
    K = stein_solve(-np.eye(4), np.eye(4), H)
    assert_allclose(K, H / 2, atol=1e-12)


def test_stein_matches_dense_oracle():
    rng = np.random.default_rng(11)
    prob = random_stein_problem(rng, 6)
    fast = stein_solve(*prob)
    dense = stein_dense(*prob)
    assert np.linalg.norm(fast - dense) <= 1e-8 * max(1.0, np.linalg.norm(dense))


def test_stein_residual_bound_many_sizes():
    rng = np.random.default_rng(12)
    for _ in range(30):
        r = int(rng.integers(2, 17))
        F, G, H = random_stein_problem(rng, r)
        K = stein_solve(F, G, H)
        resid = np.linalg.norm(K - F @ K @ G - H)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(H))


def test_stein_singular_pencil_raises():
    H = np.ones((2, 2))
    with pytest.raises(linalg.SteinSingularError):
        stein_solve(np.eye(2), np.eye(2), H)


def test_stein_problem_validation():
    # A non-symmetric coefficient, and an H whose shape does not match F and
    # G, are refused.
    with pytest.raises(ValueError):
        stein_solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        stein_solve(0.5 * np.eye(2), 0.5 * np.eye(3), np.zeros((3, 3)))


def test_symmetric_eig_basic():
    w, q = linalg.symmetric_eig(np.diag([2.0, 5.0]))
    assert_allclose(sorted(w), [2.0, 5.0])
    assert_allclose(np.abs(q), np.eye(2), atol=1e-12)
    w, _ = linalg.symmetric_eig(np.eye(3))
    assert_allclose(w, np.ones(3))
    with pytest.raises(ValueError):
        linalg.symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eig_reconstruction():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((10, 10))
    x = 0.5 * (x + x.T)
    w, q = linalg.symmetric_eig(x)
    recon = q @ np.diag(w) @ q.T
    assert np.linalg.norm(recon - x) <= 1e-9 * np.linalg.norm(x)
    assert np.linalg.norm(q.T @ q - np.eye(10)) <= 1e-10


def test_symmetric_eig_stack_and_exact_symmetry_keep_the_bits():
    # A stack takes one eigh call and gives each matrix its single-call bits;
    # an exactly symmetric input skips the symmetrisation, which would return
    # it unchanged, and an asymmetric one still raises.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 6, 6))
    near = x + x.transpose(0, 2, 1)
    near[:, 0, 1] += 1e-14  # symmetric only to round-off
    exact = 0.5 * (near + near.transpose(0, 2, 1))
    for stack in (near, exact):
        w, q = linalg.symmetric_eig(stack)
        for i, mat in enumerate(stack):
            w_i, q_i = linalg.symmetric_eig(mat)
            assert np.array_equal(w[i], w_i) and np.array_equal(q[i], q_i)
    for mat in exact:
        want = np.linalg.eigh(0.5 * (mat + mat.T))
        got = linalg.symmetric_eig(mat)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    asym = exact.copy()
    asym[1, 2, 4] += 1e-3
    for bad in (asym, asym[1]):
        with pytest.raises(ValueError):
            linalg.symmetric_eig(bad)
    with pytest.raises(ValueError):
        linalg.symmetric_eig(np.zeros((2, 3, 4)))


def test_svd_contract():
    u, s, v = svd(np.diag([2.0, 1.0]))
    assert_allclose(s, [2.0, 1.0])
    _, s0, _ = svd(np.zeros((3, 2)))
    assert_allclose(s0, np.zeros(2))
    rng = np.random.default_rng(16)
    x = rng.standard_normal((7, 4))
    u, s, v = svd(x)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    assert np.linalg.norm((u * s) @ v.T - x) <= 1e-9 * np.linalg.norm(x)
    assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-10
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-10


def test_import_loads_no_scipy():
    # Every solve rests on numpy's symmetric eigensolver; scipy is not a dependency.
    code = ("import rkca, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(linalg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_shrinkage_out_gives_the_same_bits_in_the_given_array():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((7, 5, 3))
    mask = rng.random(x.shape) < 0.5
    for tau in (0.0, 0.4):
        buf = np.full_like(x, np.nan)
        assert selective_shrink(x, tau, mask, out=buf) is buf
        assert np.array_equal(buf, selective_shrink(x, tau, mask))
