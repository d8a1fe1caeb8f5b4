"""Synthetic data generation, corruption injection and quality metrics.

All randomness flows through ``numpy.random.default_rng`` (the PCG64
generator), so every artefact is reproducible from its integer seed.
"""

from __future__ import annotations

import math
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


def _diff_norm(estimate, truth, where=None):
    """||(estimate - truth) * where||, ``where`` all True when None: one dot
    over a C-order scratch, so equal inputs give the same bits whatever their
    memory layouts.  A non-finite entry outside ``where`` still reads nan."""
    scratch = np.subtract(estimate, truth, out=np.empty(np.shape(estimate)))
    if where is not None:
        scratch *= where
    return float(np.linalg.norm(scratch))


def _rel_error(estimate, truth, where=None):
    """||(estimate - truth) * where|| / ||truth * where||, or the numerator
    when the denominator is 0."""
    diff, ref = _diff_norm(estimate, truth, where), _diff_norm(truth, 0.0, where)
    return diff / ref if ref > 0 else diff


def _psnr(diff, size, data_range):
    """20*log10(range / RMSE) for ``diff`` = ||estimate - truth|| over ``size``
    entries, +inf when exact; a sum of logs, so no range overflows it."""
    if diff == 0.0:
        return PSNR_EXACT
    return 20.0 * math.log10(data_range) - 20.0 * math.log10(diff) + 10.0 * math.log10(size)


def psnr(estimate, truth, data_range=1.0):
    """Peak signal-to-noise ratio 20*log10(range / RMSE), +inf when exact;
    the same bits for any memory layout of equal inputs."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    return _psnr(_diff_norm(estimate, truth), truth.size, data_range)


def _error_and_psnr(estimate, truth, data_range):
    """The relative error and PSNR of ``estimate``, from one difference norm."""
    diff, ref = _diff_norm(estimate, truth), _diff_norm(truth, 0.0)
    return (diff / ref if ref > 0 else diff), _psnr(diff, truth.size, data_range)


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
    rel_error_l, psnr_l = _error_and_psnr(l_hat, l_true, data_range)
    return Metrics(
        rel_error_L=rel_error_l,
        rel_error_E=_rel_error(e_hat, e_true),
        density_E=float(np.count_nonzero(e_hat)) / e_hat.size,
        support_f1=support_f1(e_hat, e_true),
        psnr=psnr_l,
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
