"""Kernelized one-class model trained on dual variables.

Instead of frames in input space, the model learns two K x n dual matrices
Y and Z over the training set, constrained so that the rows of each are
orthonormal in the geometry of the jittered Gram matrix G (Y G Y^T = I and
Z G Z^T = I, the residuals kods_feasibility measures). The model weights
the kernel by the squared entries, so each recovered component is a
nonnegative kernel mixture: rows of Z^2 build the lower classifier, rows
of Y^2 (negated) build the upper one.

The Gram matrix enters twice, in different roles: a jittered copy defines
the feasible set (it must be positive definite for the geometry to make
sense), while the raw Gram is used to recover the intercepts so that
stored intercepts are exactly consistent with inference-time kernel
evaluations against the support set.

Training runs on _GeneralizedStiefelPair over one GeneralizedStiefel of
the jittered Gram: Y and Z are stacked into one 2K x n block, so each retraction,
projection and gradient conversion reads the Gram (or its Cholesky factor)
once for both matrices, and transports at an accepted iterate reuse the
U @ G the retraction already formed (see GeneralizedStiefel). The
objective closures keep a memo of the same kind: the [Z^2; Y^2] @ G block
of the last point costed, with a copy of that point, looked up by value.
The gradient at an accepted iterate, the last trial costed, then does no
n x n work, while fd_gradient_check's in-place edits of its work point
miss the memo, as they must.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (_check_hyper, _check_model, _query_rows, _score_one,
                   _training_rows, l2_normalize)
from .errors import DataError, DimensionError, DomainError
from .kernels import KernelSpec, _factor_pd, gram
from .manifolds import GeneralizedStiefel, _GeneralizedStiefelPair, _gram_residual
from .solver import Objective, SolveReport, SolverConfig, minimize

__all__ = [
    "KodsHyper",
    "DualVars",
    "KodsModel",
    "kods_objective",
    "kods_egrad",
    "recover_primal",
    "build_kods_problem",
    "kods_train",
    "kods_scores",
    "kods_scores_batch",
    "kods_feasibility",
]

# Cross-Gram entries per chunk in kods_scores_batch: 2**17 float64 values
# (1 MB), so a chunk's Gram stays in cache between the kernel pass and
# the product that reads it; a 600-row support set scores 218 query rows
# per chunk. On 600 x 20000 rbf scoring, 2**15 to 2**18 timed within 3%
# of each other, 2**14 and 2**19 about 12% slower.
_SCORE_CHUNK = 1 << 17


@dataclass
class KodsHyper:
    k: int = 3
    eta: float = 0.3
    lam: float = 1.0
    normalize: bool = True

    def __post_init__(self):
        _check_hyper(self.k, self.eta, self.lam)


@dataclass
class DualVars:
    y: np.ndarray  # (K, n)
    z: np.ndarray  # (K, n)


@dataclass
class KodsModel:
    duals: DualVars
    kernel: KernelSpec
    support: np.ndarray          # training features, post-normalization
    b1: np.ndarray               # (K,)
    b2: np.ndarray               # (K,)
    eta_effective: float
    jitter: float                # diagonal jitter applied to the Gram geometry
    normalization: bool
    hyper: KodsHyper

    def __post_init__(self):
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise DomainError(f"jitter must be finite and >= 0, got {self.jitter}")
        shape = np.shape(self.support)
        if len(shape) != 2:
            raise DimensionError(f"support must be a 2-D array, got shape {shape}")
        k, n = self.hyper.k, shape[0]
        _check_model(self.eta_effective, [
            ("support", self.support, shape),
            ("duals.y", self.duals.y, (k, n)), ("duals.z", self.duals.z, (k, n)),
            ("b1", self.b1, (k,)), ("b2", self.b2, (k,)),
        ])


def _check_duals(duals: DualVars, gram_mat: np.ndarray):
    y = np.asarray(duals.y, dtype=np.float64)
    z = np.asarray(duals.z, dtype=np.float64)
    g = np.asarray(gram_mat, dtype=np.float64)
    if y.ndim != 2 or y.shape != z.shape:
        raise DimensionError(
            f"dual matrices must share a (K, n) shape, got {y.shape} and {z.shape}"
        )
    if g.shape != (y.shape[1], y.shape[1]):
        raise DimensionError(
            f"gram matrix shape {g.shape} does not match n={y.shape[1]}"
        )
    return y, z, g


def kods_objective(duals: DualVars, gram_mat: np.ndarray, hyper: KodsHyper) -> float:
    """Dual objective: self-coherence of the lower weights, cross-coherence
    between the two weight sets through the Gram matrix, a margin reward on
    the total weight mass, and a balance penalty on the row masses."""
    y, z, g = _check_duals(duals, gram_mat)
    y2 = y * y
    z2 = z * z
    return _objective(y2, z2, z2 @ g, hyper)


def kods_egrad(duals: DualVars, gram_mat: np.ndarray, hyper: KodsHyper) -> DualVars:
    """Exact ambient gradient of kods_objective in both dual matrices."""
    y, z, g = _check_duals(duals, gram_mat)
    y2 = y * y
    z2 = z * z
    # One pass over the Gram for both weight sets.
    dy, dz = _egrad(y, z, y2, z2, np.vstack((z2, y2)) @ g, hyper)
    return DualVars(y=dy, z=dz)


def _objective(y2, z2, z2g, hyper: KodsHyper) -> float:
    """kods_objective from the squared duals and Z^2 @ G."""
    row_y = y2.sum(axis=1)
    row_z = z2.sum(axis=1)
    self_term = 0.5 * float(row_y @ row_y)
    cross_term = float(np.sum(y2 * z2g))
    margin_term = -hyper.eta * (float(y2.sum()) + float(z2.sum()))
    diff = row_y - row_z
    balance_term = 0.5 * hyper.lam * float(diff @ diff)
    return self_term + cross_term + margin_term + balance_term


def _egrad(y, z, y2, z2, block, hyper: KodsHyper):
    """kods_egrad's (dY, dZ) from the duals, their squares and the stacked
    [Z^2; Y^2] @ G block."""
    row_y = y2.sum(axis=1)[:, None]
    row_z = z2.sum(axis=1)[:, None]
    lam = hyper.lam
    z2g, y2g = np.split(block, 2)
    dy = y * (2.0 * row_y + 2.0 * z2g - 2.0 * hyper.eta
              + 2.0 * lam * (row_y - row_z))
    dz = z * (2.0 * y2g - 2.0 * hyper.eta - 2.0 * lam * (row_y - row_z))
    return dy, dz


def recover_primal(duals: DualVars, gram_mat: np.ndarray, eta: float):
    """Intercepts (b1, b2) that place every training point on the feasible
    side of both margins, with at least one point exactly on each."""
    y, z, g = _check_duals(duals, gram_mat)
    lower = (z * z) @ g   # (K, n) responses of the lower classifier
    upper = (y * y) @ g
    b1 = (eta - lower).max(axis=1)
    b2 = (-eta + upper).min(axis=1)
    return b1, b2


def build_kods_problem(gram_pd: np.ndarray, hyper: KodsHyper, *, _factor=None):
    """Manifold over (Y, Z) plus objective closures bound to a positive
    definite Gram matrix. The manifold is a _GeneralizedStiefelPair: a
    Product whose two factors are the same GeneralizedStiefel, so
    factors[0].polar maps a K x n matrix onto either factor. _factor, the
    Cholesky factor kernels._factor_pd returned with gram_pd, spares the
    manifold its own check and factorization."""
    n = gram_pd.shape[0]
    manifold = _GeneralizedStiefelPair(GeneralizedStiefel(n, hyper.k, gram_pd, _factor=_factor))
    memo = None  # (Y, Z, [Z^2; Y^2] @ G) at the last point seen

    def squares_and_block(pt):
        nonlocal memo
        y, z = pt[0], pt[1]
        y2 = y * y
        z2 = z * z
        if memo is None or not (np.array_equal(memo[0], y) and np.array_equal(memo[1], z)):
            memo = (y.copy(), z.copy(), np.vstack((z2, y2)) @ gram_pd)
        return y, z, y2, z2, memo[2]

    def cost(pt) -> float:
        _, _, y2, z2, block = squares_and_block(pt)
        return _objective(y2, z2, block[:hyper.k], hyper)

    def egrad(pt):
        return _egrad(*squares_and_block(pt), hyper)

    return manifold, Objective(cost=cost, egrad=egrad)


def kods_train(
    x: np.ndarray,
    kernel: KernelSpec,
    hyper: KodsHyper,
    cfg: SolverConfig | None = None,
    seed: int = 0,
) -> tuple[KodsModel, SolveReport]:
    """Fit the kernelized model on one-class training data."""
    x = _training_rows(x)
    n = x.shape[0]
    if n < hyper.k:
        raise DimensionError(f"k={hyper.k} exceeds the number of training rows {n}")
    xn = l2_normalize(x) if hyper.normalize else x
    # Equal rows give equal Gram rows, so with fewer than k distinct rows
    # only the jitter tells the k components apart and the fit ends in a
    # degenerate polar step.
    distinct = np.unique(xn, axis=0).shape[0]
    if distinct < hyper.k:
        raise DataError(
            f"k={hyper.k} exceeds the number of distinct training rows "
            f"{distinct}{' after normalization' if hyper.normalize else ''}"
        )

    raw = gram(kernel, xn)
    gram_pd, eps, cho = _factor_pd(raw)
    manifold, objective = build_kods_problem(gram_pd, hyper, _factor=cho)
    factor: GeneralizedStiefel = manifold.factors[0]

    # Uniform start: the flat matrix is rank one, so the polar map cannot
    # normalize it directly for K > 1. A tiny seeded relative perturbation
    # restores full rank while keeping the start effectively uniform.
    rng = np.random.default_rng(seed)
    base = np.full((hyper.k, n), 1.0 / (n * hyper.k))
    y0 = factor.polar(base * (1.0 + 1e-3 * rng.standard_normal(base.shape)))
    z0 = factor.polar(base * (1.0 + 1e-3 * rng.standard_normal(base.shape)))

    point, report = minimize(objective, manifold, (y0, z0), cfg)
    duals = DualVars(y=point[0], z=point[1])
    # Intercepts come from the raw Gram so they match k(support, x) at
    # inference exactly; the jitter only shapes the feasible geometry.
    b1, b2 = recover_primal(duals, raw, hyper.eta)
    model = KodsModel(
        duals=duals,
        kernel=kernel,
        support=xn,
        b1=b1,
        b2=b2,
        eta_effective=hyper.eta,
        jitter=eps,
        normalization=hyper.normalize,
        hyper=hyper,
    )
    return model, report


def kods_scores(model: KodsModel, x: np.ndarray) -> tuple[float, float]:
    """(s1, s2) for one feature vector."""
    return _score_one(kods_scores_batch, model, x, model.support.shape[1])


def kods_scores_batch(model: KodsModel, x: np.ndarray):
    """Vectorized (s1, s2) arrays over the rows of x, via kernel
    evaluations against the support set.

    Rows are scored query-major, in chunks of max(1, _SCORE_CHUNK //
    n_support) rows: each chunk's chunk x n_support cross-Gram meets the
    squared duals [Z^2; Y^2]^T in one product, so the m x n_support Gram
    is never held whole, and the extremes are taken over the (2k, m)
    response block. Every chunk's cross-Gram is written into one buffer
    allocated per call, so scoring speed does not depend on which large
    blocks the process has freed before. A row's scores depend on the rows
    sharing its chunk (the product may round differently for another chunk
    height), so they are reproduced bit for bit by scoring any
    chunk-aligned slice. A row with a non-finite entry raises DataError.
    """
    x, norms = _query_rows(x, model.support.shape[1], model.normalization)
    if norms is not None:
        x = x / norms[:, None]
    k = model.duals.z.shape[0]
    duals = np.vstack([model.duals.z, model.duals.y])
    w = (duals * duals).T  # (n_support, 2k): columns z_i^2, then y_i^2
    m, n_support = x.shape[0], model.support.shape[0]
    resp = np.empty((2 * k, m))
    step = max(1, _SCORE_CHUNK // max(n_support, 1))
    buf = np.empty((min(step, m), n_support))  # every chunk's cross-Gram
    for i in range(0, m, step):
        h = min(step, m - i)
        g = gram(model.kernel, x[i:i + h], model.support, out=buf[:h])
        resp[:, i:i + h] = (g @ w).T
    s1 = (resp[:k] + model.b1[:, None]).min(axis=0)
    s2 = (-resp[k:] + model.b2[:, None]).max(axis=0)
    return s1, s2


def kods_feasibility(model: KodsModel) -> float:
    """Constraint residual max(||Y G Y^T - I||_F, ||Z G Z^T - I||_F) under
    the jittered Gram geometry the model was trained in."""
    g = gram(model.kernel, model.support)
    if model.jitter:
        g = g + model.jitter * np.eye(g.shape[0])
    return max(_gram_residual(model.duals.y, g), _gram_residual(model.duals.z, g))
