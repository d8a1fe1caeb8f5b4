"""Robust Kronecker-separable low-rank tensor decomposition.

Decomposes a 3-way tensor of stacked matrix observations into a shared pair
of low-rank bases, per-slice sparse codes and a sparse outlier tensor, with
ADMM and linearised-ADMM solvers, three regularizer families and
missing-value completion.
"""

from .admm import SolverAbort
from .data import Metrics, SynthSpec, add_salt_pepper, make_mask, metrics, roc_auc, synth_generate
from .fileio import read_pgm, read_ppm, read_rkt, write_pgm, write_ppm, write_rkt
from .linalg import (
    NumericalError,
    SteinSingularError,
    frobenius_prox,
    soft_shrink,
    symmetric_eig,
)
from .model import FactorModel, RunReport, SolverConfig, default_lambda
from .tensor import l1, reconstruct
from .variants import solve_variant

__version__ = "0.1.0"

__all__ = [
    "FactorModel",
    "Metrics",
    "NumericalError",
    "RunReport",
    "SolverAbort",
    "SolverConfig",
    "SteinSingularError",
    "SynthSpec",
    "add_salt_pepper",
    "default_lambda",
    "frobenius_prox",
    "l1",
    "make_mask",
    "metrics",
    "read_pgm",
    "read_ppm",
    "read_rkt",
    "reconstruct",
    "roc_auc",
    "soft_shrink",
    "solve_variant",
    "symmetric_eig",
    "synth_generate",
    "write_pgm",
    "write_ppm",
    "write_rkt",
]
