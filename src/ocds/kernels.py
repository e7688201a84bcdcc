"""Kernel functions and Gram-matrix utilities.

Gram matrices are assembled row by row through the same elementwise code
path as single evaluations, so gram(spec, X, Y)[i, j] and
kernel_eval(spec, X[i], Y[j]) agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DimensionError, DomainError

__all__ = ["KernelSpec", "kernel_eval", "gram", "ensure_pd", "FAMILIES"]

FAMILIES = ("linear", "rbf", "polynomial", "chi2", "histogram")

# chi2 and histogram are additive kernels over nonnegative features
# (histogram-style inputs); they reject negative entries.
_NONNEGATIVE_FAMILIES = ("chi2", "histogram")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters. Unused parameters are ignored."""

    family: str = "rbf"
    sigma: float = 0.1       # rbf bandwidth
    degree: int = 3          # polynomial degree
    offset: float = 1.0      # polynomial additive offset

    def __post_init__(self):
        fam = self.family.lower() if isinstance(self.family, str) else self.family
        if fam not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        object.__setattr__(self, "family", fam)
        if fam == "rbf" and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"rbf kernel needs a finite sigma > 0, got {self.sigma}")
        if fam == "polynomial":
            deg = self.degree
            if not (math.isfinite(deg) and deg >= 1 and int(deg) == deg):
                raise DomainError(f"polynomial degree must be an integer >= 1, got {self.degree}")
            if not (math.isfinite(self.offset) and self.offset >= 0.0):
                raise DomainError(f"polynomial offset must be finite and >= 0, got {self.offset}")


def _rows(spec: KernelSpec, x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """k(x, row) for every row of block; reductions stay elementwise so the
    result is identical whether block holds one row or many."""
    if spec.family == "linear":
        return (block * x).sum(axis=1)
    if spec.family == "rbf":
        diff = block - x
        return np.exp((diff * diff).sum(axis=1) / (-2.0 * spec.sigma * spec.sigma))
    if spec.family == "polynomial":
        return ((block * x).sum(axis=1) + spec.offset) ** spec.degree
    if spec.family == "chi2":
        num = 2.0 * x * block
        den = x + block
        # 0/0 slots contribute 0 by convention.
        terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
        return terms.sum(axis=1)
    # histogram intersection
    return np.minimum(block, x).sum(axis=1)


def _check_domain(spec: KernelSpec, arr: np.ndarray, what: str) -> None:
    if spec.family in _NONNEGATIVE_FAMILIES and np.any(arr < 0.0):
        raise DomainError(
            f"{spec.family} kernel requires nonnegative features; {what} has negatives"
        )


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Scalar kernel value k(x, y) for two feature vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DimensionError(
            f"kernel_eval expects equal-length 1-D vectors, got {x.shape} and {y.shape}"
        )
    _check_domain(spec, x, "x")
    _check_domain(spec, y, "y")
    return float(_rows(spec, x, y[None, :])[0])


def gram(spec: KernelSpec, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix K[i, j] = k(x_i, y_j); y defaults to x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"gram expects a 2-D feature matrix, got shape {x.shape}")
    y = x if y is None else np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != x.shape[1]:
        raise DimensionError(
            f"gram operands must share the feature dimension, got {x.shape} and {y.shape}"
        )
    _check_domain(spec, x, "x")
    if y is not x:
        _check_domain(spec, y, "y")
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    for i in range(x.shape[0]):
        out[i] = _rows(spec, x[i], y)
    return out


def ensure_pd(k: np.ndarray, jitter: float | None = None):
    """Return (k_pd, eps): the matrix with the smallest diagonal jitter eps
    from {0, jitter, 10*jitter, ...} that admits a Cholesky factorization.

    jitter defaults to 1e-10 * trace(k) / n. Escalation stops once eps
    would exceed 1e-2 * trace(k) / n; at that point the matrix is declared
    irreparably ill-conditioned.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionError(f"ensure_pd expects a square matrix, got shape {k.shape}")
    n = k.shape[0]
    scale = max(1.0, float(np.abs(k).max(initial=0.0)))
    if float(np.abs(k - k.T).max(initial=0.0)) > 1e-10 * scale:
        raise DomainError("ensure_pd expects a symmetric matrix")
    ksym = (k + k.T) / 2.0  # bitwise no-op when k is already exactly symmetric

    mean_diag = float(np.trace(ksym)) / n
    if jitter is None:
        jitter = 1e-10 * mean_diag
    if jitter <= 0.0:
        jitter = 1e-10 * max(mean_diag, 1.0)
    ceiling = 1e-2 * max(mean_diag, 0.0)

    eps = 0.0
    while True:
        try:
            np.linalg.cholesky(ksym + eps * np.eye(n) if eps else ksym)
        except np.linalg.LinAlgError:
            eps = jitter if eps == 0.0 else eps * 10.0
            if eps > ceiling:
                raise ConditioningError(
                    f"jitter escalation exhausted at eps={eps:.3e} "
                    f"(ceiling {ceiling:.3e}) without reaching positive definiteness"
                ) from None
            continue
        break
    if eps:
        return ksym + eps * np.eye(n), eps
    return ksym, 0.0
