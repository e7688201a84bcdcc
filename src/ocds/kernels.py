"""Kernel functions and Gram-matrix utilities.

Gram matrices are filled in row blocks of about 2**15 entries (256 KB),
so every pass runs over a cache-resident block. A block loops over the
features of a feature-major copy of the other operand. An rbf cross-Gram
is the exception: one scipy cdist pass over the other operand's C-ordered
rows fills the whole Gram with the same squared distances, bit for bit
(a caller that wants it in cache, as the KODS scorer does, asks for a
cache-sized Gram). Every rbf entry is then exp(d2 * -gamma), one multiply
by gamma = 0.5 / sigma**2, the scale scikit-learn's rbf_kernel uses.
Single evaluations run the feature loop on a 1 x 1 block, and all three
paths share the one rbf helper, so gram(spec, X, Y)[i, j] and
kernel_eval(spec, X[i], Y[j]) agree bit for bit.
"""
from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DimensionError, DomainError

__all__ = ["KernelSpec", "kernel_eval", "gram", "ensure_pd", "FAMILIES"]

FAMILIES = ("linear", "rbf", "polynomial", "chi2", "histogram")

# chi2 and histogram are additive kernels over nonnegative features
# (histogram-style inputs); they reject negative entries.
_NONNEGATIVE_FAMILIES = ("chi2", "histogram")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters. Every parameter must be a number;
    the family's own are range-checked, the others ignored."""

    family: str = "rbf"
    sigma: float = 0.1       # rbf bandwidth
    degree: int = 3          # polynomial degree
    offset: float = 1.0      # polynomial additive offset

    def __post_init__(self):
        fam = self.family.lower() if isinstance(self.family, str) else self.family
        if fam not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        object.__setattr__(self, "family", fam)
        for name in ("sigma", "degree", "offset"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"kernel {name} must be a number, got {value!r}")
        if fam == "rbf" and not (self.sigma > 0.0 and 0.0 < _rbf_gamma(self.sigma) < math.inf):
            raise DomainError(
                f"rbf kernel needs a sigma > 0 whose 0.5 / sigma**2 is a finite "
                f"float > 0, got {self.sigma}"
            )
        if fam == "polynomial":
            deg = self.degree
            try:
                whole = math.isfinite(deg) and deg >= 1 and int(deg) == deg
            except OverflowError:  # an integer too large for a float
                whole = False
            if not whole:
                raise DomainError(f"polynomial degree must be an integer >= 1, got {self.degree}")
            if not (math.isfinite(self.offset) and self.offset >= 0.0):
                raise DomainError(f"polynomial offset must be finite and >= 0, got {self.offset}")


# Entries of the Gram that gram() fills per block: 2**15 float64 values
# (256 KB) per block and per scratch block stay in cache; measured fastest
# on 600 x 20000 and 2000 x 2000 rbf Grams.
_BLOCK_ELEMENTS = 1 << 15


def _rows(spec: KernelSpec, xb: np.ndarray, yt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = k(xb[i], yt[:, j]) for a block of rows xb (b, d) and a
    feature-major operand yt (d, m); returns out (b, m).

    The per-feature terms are added to zero one feature at a time, in index
    order. That is the order numpy's sum(axis=1) takes below 8 terms, and a
    value never depends on how many rows or columns the block holds.
    """
    fam = spec.family
    out.fill(0.0)
    term = np.empty_like(out)
    # An rbf squared distance that overflows is inf, a kernel value of 0,
    # which cdist (_cdist_rbf) gives without a warning.
    with np.errstate(over="ignore") if fam == "rbf" else contextlib.nullcontext():
        for f in range(yt.shape[0]):
            a, b = xb[:, f:f + 1], yt[f]
            if fam == "rbf":
                np.subtract(b, a, out=term)
                term *= term
            elif fam == "chi2":
                num = 2.0 * a * b
                den = a + b
                # 0/0 slots contribute 0 by convention.
                term.fill(0.0)
                np.divide(num, den, out=term, where=den > 0.0)
            elif fam == "histogram":  # histogram intersection
                np.minimum(b, a, out=term)
            else:  # linear and polynomial
                np.multiply(b, a, out=term)
            out += term
    if fam == "rbf":
        _rbf_of_squared_distances(spec, out)
    elif fam == "polynomial":
        out[...] = (out + spec.offset) ** spec.degree
    return out


def _cdist_rbf(spec: KernelSpec, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_rows for the rbf kernel against C-ordered rows y (m, d). cdist adds
    the terms (x_f - y_f)^2 to zero in feature order, as _rows does, in one
    pass instead of three per feature."""
    # Imported on first use: scipy.spatial costs about 0.14 s and 9 MB of
    # resident memory to import, which a process that only fits never needs.
    from scipy.spatial.distance import cdist

    cdist(x, y, "sqeuclidean", out=out)
    return _rbf_of_squared_distances(spec, out)


def _rbf_gamma(sigma) -> float:
    """The rbf scale 0.5 / sigma**2 as one float: inf where sigma**2
    underflows to 0, 0 where sigma is an int too large for a float."""
    try:
        sigma = float(sigma)
    except OverflowError:
        return 0.0
    square = sigma * sigma
    return 0.5 / square if square else math.inf


def _rbf_of_squared_distances(spec: KernelSpec, out: np.ndarray) -> np.ndarray:
    """Map squared distances to rbf values in place: exp(d2 * -gamma), one
    multiply and one exp per entry. A d2 of inf, or a product that
    overflows, is -inf, a kernel value of 0, without a warning."""
    with np.errstate(over="ignore"):
        out *= -_rbf_gamma(spec.sigma)
    return np.exp(out, out=out)


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
    if x.shape[0] == 0:
        raise DimensionError("kernel_eval needs at least one feature")
    _check_domain(spec, x, "x")
    _check_domain(spec, y, "y")
    return float(_rows(spec, x[None, :], y[:, None], np.empty((1, 1)))[0, 0])


def gram(spec: KernelSpec, x: np.ndarray, y: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix K[i, j] = k(x_i, y_j); y defaults to x. Given out, a
    C-ordered float64 array of the Gram's shape, the Gram is written into
    it and out is returned, so a caller that builds Grams over and over
    can reuse one buffer."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"gram expects a 2-D feature matrix, got shape {x.shape}")
    y = x if y is None else np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != x.shape[1]:
        raise DimensionError(
            f"gram operands must share the feature dimension, got {x.shape} and {y.shape}"
        )
    if x.shape[1] == 0:
        raise DimensionError("gram needs at least one feature")
    _check_domain(spec, x, "x")
    if y is not x:
        _check_domain(spec, y, "y")
    n, m = x.shape[0], y.shape[0]
    if out is None:
        out = np.empty((n, m), dtype=np.float64)
    elif out.shape != (n, m) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(
            f"gram out must be a C-ordered float64 array of shape {(n, m)}, "
            f"got {out.dtype} {out.shape}"
        )
    # Scoring builds rbf cross-Grams over and over, and cdist fills them in
    # about two thirds of the time, in one call over the whole of out: the
    # KODS scorer asks for 1 MB Grams, which stay in cache, so blocks would
    # only add calls. A fit builds one square Gram, where cdist would save
    # ~2 ms (n = 600) against the 0.14 s import of scipy.spatial, so square
    # Grams keep the feature loop.
    if spec.family == "rbf" and y is not x:
        return _cdist_rbf(spec, x, np.ascontiguousarray(y), out)
    yt = np.ascontiguousarray(y.T)
    step = max(1, _BLOCK_ELEMENTS // max(m, 1))
    for i in range(0, n, step):
        _rows(spec, x[i:i + step], yt, out[i:i + step])
    return out


def _check_symmetric(k: np.ndarray, what: str) -> bool:
    """Raise ConditioningError if the square matrix k has a non-finite
    entry (a Cholesky factorization does not reject inf/NaN, so no jitter
    is tried) and DomainError if it is not symmetric to 1e-10 of its
    largest entry. Returns whether k is exactly symmetric; only a matrix
    that is not pays for the tolerance test's n x n temporaries."""
    if not np.isfinite(k).all():
        raise ConditioningError(f"{what} has non-finite entries")
    if np.array_equal(k, k.T):
        return True
    scale = max(1.0, float(np.abs(k).max(initial=0.0)))
    if float(np.abs(k - k.T).max(initial=0.0)) > 1e-10 * scale:
        raise DomainError(f"{what} is not symmetric")
    return False


def ensure_pd(k: np.ndarray):
    """Return (k_pd, eps): the matrix with the smallest diagonal jitter eps
    from {0, j, 10*j, ...} that admits a Cholesky factorization, where
    j = 1e-10 * trace(k) / n (1e-10 when the trace is not positive).

    A matrix that is exactly symmetric and needs no jitter comes back
    unchanged, as the same array; one within the symmetry tolerance is
    replaced by (k + k.T) / 2 first. Escalation stops once eps would
    exceed 1e-2 * trace(k) / n; at that point the matrix is declared
    irreparably ill-conditioned. A matrix with a non-finite entry raises
    ConditioningError at once.
    """
    return _factor_pd(k)[:2]


def _factor_pd(k: np.ndarray):
    """ensure_pd's (k_pd, eps) plus the lower Cholesky factor of k_pd in
    scipy's cho_factor form, so that a caller need not factor k_pd again."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] == 0:
        raise DimensionError(f"ensure_pd expects a non-empty square matrix, got shape {k.shape}")
    n = k.shape[0]
    ksym = k if _check_symmetric(k, "ensure_pd: matrix") else (k + k.T) / 2.0

    eps, k_pd = 0.0, ksym
    while True:
        try:
            factor = scipy.linalg.cho_factor(k_pd, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            if eps == 0.0:
                # The ladder is needed only once the first factorization fails.
                mean_diag = float(np.trace(ksym)) / n
                jitter = 1e-10 * mean_diag
                if jitter <= 0.0:
                    jitter = 1e-10
                ceiling = 1e-2 * max(mean_diag, 0.0)
            eps = jitter if eps == 0.0 else eps * 10.0
            if eps > ceiling:
                raise ConditioningError(
                    f"jitter escalation exhausted at eps={eps:.3e} "
                    f"(ceiling {ceiling:.3e}) without reaching positive definiteness"
                ) from None
            k_pd = ksym + eps * np.eye(n)
        else:
            return k_pd, eps, factor
