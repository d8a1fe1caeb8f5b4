"""Synthetic data generation, corruption injection and quality metrics.

All randomness flows through ``numpy.random.default_rng`` (the PCG64
generator), so every artefact is reproducible from its integer seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor

__all__ = [
    "SynthSpec",
    "Metrics",
    "synth_generate",
    "add_salt_pepper",
    "make_mask",
    "metrics",
    "psnr",
    "roc_auc",
]

PSNR_EXACT = float("inf")


@dataclass(frozen=True)
class SynthSpec:
    """Ground-truth generator parameters.

    The two bases are square rank-factored Gaussian products (m x m of rank
    ``rank_a``, n x n of rank ``rank_b``); core slices are standard normal,
    and the sparse component is 0 with probability ``p_clean``, otherwise
    +-1 with equal probability.
    """

    m: int
    n: int
    n_slices: int
    rank_a: int
    rank_b: int
    p_clean: float
    seed: int

    def __post_init__(self):
        if min(self.m, self.n, self.n_slices) < 1:
            raise ValueError("dimensions must be positive")
        if not (1 <= self.rank_a <= min(self.m, self.n)):
            raise ValueError(f"rank_a={self.rank_a} out of range")
        if not (1 <= self.rank_b <= min(self.m, self.n)):
            raise ValueError(f"rank_b={self.rank_b} out of range")
        if not 0.0 <= self.p_clean <= 1.0:
            raise ValueError(f"p_clean={self.p_clean} not in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} is negative")


@dataclass(frozen=True)
class Metrics:
    rel_error_L: float
    rel_error_E: float
    density_E: float
    support_f1: float
    psnr: float
    roc_auc: float | None

    def to_dict(self):
        return asdict(self)


def synth_generate(spec):
    """Draw (L_true, E_true, X) deterministically from ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    base_a = rng.standard_normal((spec.m, spec.rank_a)) @ rng.standard_normal(
        (spec.m, spec.rank_a)
    ).T
    base_b = rng.standard_normal((spec.n, spec.rank_b)) @ rng.standard_normal(
        (spec.n, spec.rank_b)
    ).T
    core = rng.standard_normal((spec.m, spec.n, spec.n_slices))
    low_rank = tensor.reconstruct(base_a, core, base_b)
    corrupted = rng.random((spec.m, spec.n, spec.n_slices)) >= spec.p_clean
    signs = np.where(rng.random((spec.m, spec.n, spec.n_slices)) < 0.5, -1.0, 1.0)
    sparse = np.where(corrupted, signs, 0.0)
    return low_rank, sparse, low_rank + sparse


def add_salt_pepper(t, level, lo, hi, seed):
    """Replace each entry by lo or hi (equiprobable) with probability ``level``.

    Returns the corrupted tensor and the boolean corruption mask.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"noise level {level} not in [0, 1]")
    t = np.asarray(t, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hit = rng.random(t.shape) < level
    values = np.where(rng.random(t.shape) < 0.5, lo, hi)
    return np.where(hit, values, t), hit


def make_mask(dims, observed_fraction, seed):
    """Bernoulli observation mask: True marks an observed entry."""
    if not 0.0 <= observed_fraction <= 1.0:
        raise ValueError(f"fraction {observed_fraction} not in [0, 1]")
    rng = np.random.default_rng(seed)
    return rng.random(tuple(dims)) < observed_fraction


def _rel_error(estimate, truth):
    diff = float(np.linalg.norm((estimate - truth).ravel()))
    ref = float(np.linalg.norm(np.asarray(truth).ravel()))
    return diff / ref if ref > 0 else diff


def _sum_sq_diff(estimate, truth):
    """sum((estimate - truth)**2), reduced slice by slice (last axis, 3-D and
    up) in a fixed order over C-order copies of one slice's difference, so
    equal arrays give the same bits whatever their memory layout."""
    pairs = (zip(np.moveaxis(estimate, -1, 0), np.moveaxis(truth, -1, 0))
             if estimate.ndim >= 3 else ((np.atleast_1d(estimate), np.atleast_1d(truth)),))
    total = 0.0
    for est_i, tru_i in pairs:
        diff = np.subtract(est_i, tru_i, order="C")
        total += float(np.square(diff, out=diff).sum())
    return total


def psnr(estimate, truth, data_range=1.0):
    """Peak signal-to-noise ratio 10*log10(range^2 / MSE), +inf when exact;
    the same bits for any memory layout of equal inputs."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    mse = _sum_sq_diff(estimate, truth) / estimate.size if estimate.size else np.nan
    if mse == 0.0:
        return PSNR_EXACT
    return float(10.0 * np.log10(data_range**2 / mse))


def support_f1(estimate, truth):
    """F1 score between the exact nonzero patterns of two arrays."""
    est = np.asarray(estimate) != 0
    tru = np.asarray(truth) != 0
    tp = int(np.sum(est & tru))
    fp = int(np.sum(est & ~tru))
    fn = int(np.sum(~est & tru))
    if 2 * tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2 * tp + fp + fn)


def metrics(l_hat, e_hat, l_true, e_true, data_range=1.0):
    """Recovery metrics for a decomposition against ground truth.

    ``roc_auc`` ranks |e_hat| against the support of e_true; it is None when
    that support is empty or full.
    """
    l_hat = np.asarray(l_hat, dtype=np.float64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    l_true = np.asarray(l_true, dtype=np.float64)
    e_true = np.asarray(e_true, dtype=np.float64)
    if l_hat.shape != l_true.shape or e_hat.shape != e_true.shape:
        raise ValueError("estimate/truth shape mismatch")
    support = e_true != 0
    auc = None
    if 0 < np.count_nonzero(support) < support.size:
        auc = roc_auc(np.abs(e_hat), support)
    return Metrics(
        rel_error_L=_rel_error(l_hat, l_true),
        rel_error_E=_rel_error(e_hat, e_true),
        density_E=float(np.count_nonzero(e_hat)) / e_hat.size,
        support_f1=support_f1(e_hat, e_true),
        psnr=psnr(l_hat, l_true, data_range),
        roc_auc=auc,
    )


def roc_auc(scores, labels):
    """Probability that a positive outranks a negative, ties counted half.

    Binary search of every positive score in the sorted negatives counts the
    negatives below it and tied with it, in O(n log n) and without the rank
    arrays of a full sort; raises ValueError when the labels contain a single
    class.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have identical shapes")
    pos, neg = scores[labels], scores[~labels]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("labels must contain both classes")
    neg.sort()
    below = int(np.searchsorted(neg, pos, "left").sum())
    ties = int(np.searchsorted(neg, pos, "right").sum()) - below
    return (below + 0.5 * ties) / (pos.size * neg.size)
