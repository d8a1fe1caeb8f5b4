"""Generator, corruption, mask and metric tests."""

import numpy as np
import pytest

from rkca import data, tensor


def binomial_3sigma(count, n, p):
    return abs(count - n * p) <= 3 * np.sqrt(n * p * (1 - p)) + 1e-9


def test_synth_generate_clean_and_saturated():
    spec = data.SynthSpec(m=10, n=8, n_slices=3, rank_a=2, rank_b=2,
                          p_clean=1.0, seed=1)
    low_rank, sparse, observed = data.synth_generate(spec)
    assert not sparse.any()
    assert np.array_equal(observed, low_rank)

    spec0 = data.SynthSpec(m=10, n=8, n_slices=3, rank_a=2, rank_b=2,
                           p_clean=0.0, seed=1)
    _, sparse0, _ = data.synth_generate(spec0)
    assert np.all(np.abs(sparse0) == 1.0)


def test_synth_generate_density_and_rank():
    spec = data.SynthSpec(m=50, n=50, n_slices=20, rank_a=5, rank_b=5,
                          p_clean=0.7, seed=77)
    low_rank, sparse, observed = data.synth_generate(spec)
    count = int(np.count_nonzero(sparse))
    assert binomial_3sigma(count, sparse.size, 0.3)
    assert set(np.unique(sparse)) <= {-1.0, 0.0, 1.0}
    # Mode-1 and mode-2 ranks of the clean component match the bases' ranks.
    s1 = np.linalg.svd(low_rank.reshape(50, -1, order="F"), compute_uv=False)
    assert s1[5] <= 1e-9 * s1[0]
    assert np.array_equal(observed, low_rank + sparse)


def test_synth_generate_deterministic():
    spec = data.SynthSpec(m=12, n=9, n_slices=4, rank_a=3, rank_b=2,
                          p_clean=0.6, seed=5)
    first = data.synth_generate(spec)
    second = data.synth_generate(spec)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        data.SynthSpec(m=4, n=4, n_slices=2, rank_a=5, rank_b=2, p_clean=0.5, seed=0)
    with pytest.raises(ValueError):
        data.SynthSpec(m=4, n=4, n_slices=2, rank_a=2, rank_b=2, p_clean=1.5, seed=0)


def test_add_salt_pepper_levels():
    rng = np.random.default_rng(2)
    t = rng.random((20, 20, 3)) * 0.8 + 0.1
    same, hit0 = data.add_salt_pepper(t, 0.0, 0.0, 1.0, seed=3)
    assert np.array_equal(same, t) and not hit0.any()

    full, hit1 = data.add_salt_pepper(t, 1.0, 0.0, 1.0, seed=3)
    assert hit1.all()
    assert set(np.unique(full)) <= {0.0, 1.0}

    corrupted, hit = data.add_salt_pepper(t, 0.3, 0.0, 1.0, seed=3)
    assert binomial_3sigma(int(hit.sum()), hit.size, 0.3)
    assert np.array_equal(corrupted[~hit], t[~hit])
    with pytest.raises(ValueError):
        data.add_salt_pepper(t, 1.5, 0.0, 1.0, seed=3)


def test_make_mask_fractions():
    assert data.make_mask((4, 5, 2), 1.0, seed=1).all()
    assert not data.make_mask((4, 5, 2), 0.0, seed=1).any()
    mask = data.make_mask((50, 50, 10), 0.7, seed=1)
    assert binomial_3sigma(int(mask.sum()), mask.size, 0.7)


def test_metrics_exact_match():
    rng = np.random.default_rng(4)
    low_rank = rng.standard_normal((6, 5, 2))
    sparse = np.where(rng.random((6, 5, 2)) < 0.3, 1.0, 0.0)
    result = data.metrics(low_rank, sparse, low_rank, sparse)
    assert result.rel_error_L == 0.0 and result.rel_error_E == 0.0
    assert result.support_f1 == 1.0
    assert result.psnr == data.PSNR_EXACT
    assert result.density_E == np.count_nonzero(sparse) / sparse.size


def test_psnr_zero_db_case():
    truth = np.zeros((4, 4, 1))
    estimate = np.ones((4, 4, 1))  # MSE = 1 = range^2
    assert data.psnr(estimate, truth, data_range=1.0) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(5))
def test_psnr_bits_do_not_depend_on_memory_layout(seed):
    # C-order, F-order and slice-major copies of one pair, in every pairing,
    # give the same PSNR bit for bit, and agree with the formula to round-off.
    rng = np.random.default_rng(seed)
    x, t = rng.random((30, 20, 8)), rng.random((30, 20, 8))
    copies = [(np.ascontiguousarray(a), np.asfortranarray(a), tensor.slice_major(a))
              for a in (x, t)]
    values = {data.psnr(e, g) for e in copies[0] for g in copies[1]}
    assert len(values) == 1
    assert values.pop() == pytest.approx(-10 * np.log10(np.mean((x - t) ** 2)), rel=1e-14)


def test_metrics_formula_oracle():
    rng = np.random.default_rng(5)
    l_true = rng.standard_normal((5, 4, 3))
    e_true = np.where(rng.random((5, 4, 3)) < 0.4, rng.standard_normal((5, 4, 3)), 0.0)
    l_hat = l_true + 0.1 * rng.standard_normal((5, 4, 3))
    e_hat = np.where(rng.random((5, 4, 3)) < 0.4, rng.standard_normal((5, 4, 3)), 0.0)
    result = data.metrics(l_hat, e_hat, l_true, e_true, data_range=2.0)
    assert result.rel_error_L == pytest.approx(
        np.linalg.norm((l_hat - l_true).ravel()) / np.linalg.norm(l_true.ravel())
    )
    assert result.rel_error_E == pytest.approx(
        np.linalg.norm((e_hat - e_true).ravel()) / np.linalg.norm(e_true.ravel())
    )
    tp = np.sum((e_hat != 0) & (e_true != 0))
    fp = np.sum((e_hat != 0) & (e_true == 0))
    fn = np.sum((e_hat == 0) & (e_true != 0))
    assert result.support_f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
    mse = np.mean((l_hat - l_true) ** 2)
    assert result.psnr == pytest.approx(10 * np.log10(4.0 / mse))
    with pytest.raises(ValueError):
        data.metrics(l_hat, e_hat, l_true[:, :, :2], e_true, 1.0)


def test_psnr_monotone_under_nested_corruption():
    # Same seed means nested corruption sets across levels, so PSNR against
    # the clean reference can only decrease as the level grows.
    rng = np.random.default_rng(6)
    clean = rng.random((30, 30, 2)) * 0.8 + 0.1
    values = [data.psnr(data.add_salt_pepper(clean, lvl, 0.0, 1.0, seed=9)[0], clean)
              for lvl in (0.0, 0.1, 0.3, 0.6)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_roc_auc_separated_and_ties():
    scores = np.array([[0.9, 0.8], [0.2, 0.1]])[:, :, None]
    labels = np.array([[True, True], [False, False]])[:, :, None]
    assert data.roc_auc(scores, labels) == 1.0
    assert data.roc_auc(-scores, labels) == 0.0
    assert data.roc_auc(np.zeros_like(scores), labels) == 0.5
    with pytest.raises(ValueError):
        data.roc_auc(scores, np.ones_like(labels, dtype=bool))


def test_roc_auc_hand_case_vs_pair_counting():
    scores = np.array([0.1, 0.4, 0.35, 0.8, 0.65, 0.35])
    labels = np.array([False, True, False, True, True, False])
    pos = scores[labels]
    neg = scores[~labels]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    oracle = wins / (len(pos) * len(neg))
    assert data.roc_auc(scores, labels) == pytest.approx(oracle)


def test_roc_auc_monotone_invariance():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(200)
    labels = rng.random(200) < 0.4
    base = data.roc_auc(scores, labels)
    assert data.roc_auc(np.exp(scores), labels) == pytest.approx(base)
    assert data.roc_auc(3 * scores + 11, labels) == pytest.approx(base)
