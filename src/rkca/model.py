"""Shared solver types: factor model, configuration and run reports."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import tensor

__all__ = [
    "VARIANTS",
    "FactorModel",
    "SolverConfig",
    "IterationRecord",
    "RunReport",
    "default_lambda",
]

VARIANTS = ("admm2", "ladmm2", "ladmm3_fro", "ladmm3_nuc", "admm3_fro", "admm3_nuc")


def default_lambda(dims):
    """Sparsity weight heuristic 1 / sqrt(N * max(m, n))."""
    m, n, N = dims
    return 1.0 / np.sqrt(N * max(m, n))


def _check_number(name, value, kind):
    """Reject booleans, values not of ``kind`` and, for reals, values that are
    not finite as a float (an integer too large for one overflows it)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if kind is numbers.Real:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class FactorModel:
    """Low-rank factorisation: frontal slices ``a @ core_k @ b.T``.

    ``a`` is (m, r), ``b`` is (n, r), ``core`` is (r, r, N) with the shared
    column count r bounded by min(m, n).
    """

    a: np.ndarray
    b: np.ndarray
    core: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.core = np.asarray(self.core, dtype=np.float64)
        if self.a.ndim != 2 or self.b.ndim != 2 or self.core.ndim != 3:
            raise ValueError("expected a (m,r), b (n,r) and core (r,r,N)")
        r = self.a.shape[1]
        if self.b.shape[1] != r or self.core.shape[:2] != (r, r):
            raise ValueError(
                f"inconsistent ranks: a {self.a.shape}, b {self.b.shape}, "
                f"core {self.core.shape}"
            )
        if r > min(self.a.shape[0], self.b.shape[0]):
            raise ValueError(
                f"rank {r} exceeds min(m, n) = "
                f"{min(self.a.shape[0], self.b.shape[0])}"
            )

    @property
    def rank(self):
        return self.a.shape[1]

    @property
    def dims(self):
        return (self.a.shape[0], self.b.shape[0], self.core.shape[2])

    def reconstruct(self):
        """Dense low-rank tensor ``core x_1 a x_2 b``."""
        return tensor.reconstruct(self.a, self.core, self.b)


@dataclass
class SolverConfig:
    """Configuration shared by every solver variant.

    ``lam=None`` resolves to the 1/sqrt(N*max(m,n)) heuristic at solve time.
    ``rho`` and ``mu_cap_factor`` control the penalty schedule
    mu <- min(mu_cap, rho*mu), rho*rho*mu in an iteration whose nnz(E)
    repeats the last one's, with mu_cap = mu_cap_factor * initial mu.
    ``rank`` and ``max_iters`` must be integers and the other numbers finite
    reals, kept as int and float; booleans are refused.
    """

    rank: int
    alpha: float = 1e-2
    lam: float | None = None
    rho: float = 1.1
    mu_cap_factor: float = 1e7
    tol: float = 1e-5
    max_iters: int = 1000
    mask: np.ndarray | None = None
    variant: str = "admm2"

    def __post_init__(self):
        for name in ("rank", "max_iters"):
            _check_number(name, getattr(self, name), numbers.Integral)
        for name in ("alpha", "rho", "mu_cap_factor", "tol"):
            _check_number(name, getattr(self, name), numbers.Real)
        if self.lam is not None:
            _check_number("lambda", self.lam, numbers.Real)
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.lam is not None and self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if self.mu_cap_factor <= 0:
            raise ValueError("mu_cap_factor must be positive")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        self.rank, self.max_iters = int(self.rank), int(self.max_iters)
        for name in ("alpha", "rho", "mu_cap_factor", "tol", "lam"):
            if getattr(self, name) is not None:
                setattr(self, name, float(getattr(self, name)))

    def validate_for(self, dims):
        """Check rank and mask against concrete data dims: the mask must have
        the data's shape and flag at least one entry.  It is not copied."""
        m, n, _ = dims
        if self.rank > min(m, n):
            raise ValueError(f"rank {self.rank} exceeds min(m, n) = {min(m, n)}")
        if self.mask is not None:
            if np.shape(self.mask) != tuple(dims):
                raise ValueError(
                    f"mask shape {np.shape(self.mask)} does not match data dims {dims}")
            if not np.any(self.mask):
                raise ValueError("empty observation mask: no entry is observed")

    def resolved_lambda(self, dims):
        return self.lam if self.lam is not None else float(default_lambda(dims))

    def resolved(self, dims):
        """Fully-materialised config as a JSON-friendly dict."""
        return {
            "variant": self.variant,
            "rank": self.rank,
            "alpha": self.alpha,
            "lambda": self.resolved_lambda(dims),
            "rho": self.rho,
            "mu_cap_factor": self.mu_cap_factor,
            "tol": self.tol,
            "max_iters": self.max_iters,
            "masked": self.mask is not None,
        }


@dataclass
class IterationRecord:
    iter: int
    err_rec: float
    mu: float
    elapsed_ms: float
    err_R: float | None = None
    err_A: float | None = None
    err_B: float | None = None
    mu_K: float | None = None
    nnz_E: int | None = None
    objective: dict | None = None

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass
class RunReport:
    """Per-iteration trace of one solver run plus the termination reason."""

    variant: str
    config: dict
    iterations: list[IterationRecord] = field(default_factory=list)
    termination: str = "max_iters"
    warnings: list[str] = field(default_factory=list)

    def append(self, record):
        self.iterations.append(record)

    def warn(self, message):
        self.warnings.append(message)

    @property
    def n_iterations(self):
        return len(self.iterations)

    def to_dict(self):
        return {
            "variant": self.variant,
            "config": self.config,
            "iterations": [rec.to_dict() for rec in self.iterations],
            "termination": self.termination,
            "warnings": list(self.warnings),
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)
