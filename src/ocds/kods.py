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
objective closures keep no such memo: fd_gradient_check mutates its work
point in place between calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (_check_hyper, _check_model, _query_rows, _score_one,
                   _training_rows, l2_normalize)
from .errors import DataError, DimensionError, DomainError
from .kernels import KernelSpec, ensure_pd, gram
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

# Query rows scored per cross-Gram in kods_scores_batch: a 600-row support
# set then takes a 9.8 MB Gram per chunk instead of 96 MB for 20000 rows.
_SCORE_CHUNK = 2048


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
    row_y = y2.sum(axis=1)
    row_z = z2.sum(axis=1)
    self_term = 0.5 * float(row_y @ row_y)
    cross_term = float(np.sum(y2 * (z2 @ g)))
    margin_term = -hyper.eta * (float(y2.sum()) + float(z2.sum()))
    diff = row_y - row_z
    balance_term = 0.5 * hyper.lam * float(diff @ diff)
    return self_term + cross_term + margin_term + balance_term


def kods_egrad(duals: DualVars, gram_mat: np.ndarray, hyper: KodsHyper) -> DualVars:
    """Exact ambient gradient of kods_objective in both dual matrices."""
    y, z, g = _check_duals(duals, gram_mat)
    y2 = y * y
    z2 = z * z
    row_y = y2.sum(axis=1)[:, None]
    row_z = z2.sum(axis=1)[:, None]
    lam = hyper.lam
    # One pass over the Gram for both weight sets.
    z2g, y2g = np.split(np.vstack((z2, y2)) @ g, 2)
    dy = y * (2.0 * row_y + 2.0 * z2g - 2.0 * hyper.eta
              + 2.0 * lam * (row_y - row_z))
    dz = z * (2.0 * y2g - 2.0 * hyper.eta - 2.0 * lam * (row_y - row_z))
    return DualVars(y=dy, z=dz)


def recover_primal(duals: DualVars, gram_mat: np.ndarray, eta: float):
    """Intercepts (b1, b2) that place every training point on the feasible
    side of both margins, with at least one point exactly on each."""
    y, z, g = _check_duals(duals, gram_mat)
    lower = (z * z) @ g   # (K, n) responses of the lower classifier
    upper = (y * y) @ g
    b1 = (eta - lower).max(axis=1)
    b2 = (-eta + upper).min(axis=1)
    return b1, b2


def build_kods_problem(gram_pd: np.ndarray, hyper: KodsHyper):
    """Manifold over (Y, Z) plus objective closures bound to a positive
    definite Gram matrix. The manifold is a _GeneralizedStiefelPair: a
    Product whose two factors are the same GeneralizedStiefel, so
    factors[0].polar maps a K x n matrix onto either factor."""
    n = gram_pd.shape[0]
    manifold = _GeneralizedStiefelPair(GeneralizedStiefel(n, hyper.k, gram_pd))

    def cost(pt) -> float:
        return kods_objective(DualVars(y=pt[0], z=pt[1]), gram_pd, hyper)

    def egrad(pt):
        g = kods_egrad(DualVars(y=pt[0], z=pt[1]), gram_pd, hyper)
        return (g.y, g.z)

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
    gram_pd, eps = ensure_pd(raw)
    manifold, objective = build_kods_problem(gram_pd, hyper)
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

    Rows are scored in chunks of _SCORE_CHUNK: each chunk takes one
    n_support x chunk cross-Gram, so the n_support x m one is never held
    whole. A row's scores do not depend on the chunk it falls in. A row
    with a non-finite entry raises DataError.
    """
    x, norms = _query_rows(x, model.support.shape[1], model.normalization)
    if norms is not None:
        x = x / norms[:, None]
    z2 = model.duals.z * model.duals.z
    y2 = model.duals.y * model.duals.y
    s1 = np.empty(x.shape[0])
    s2 = np.empty(x.shape[0])
    for i in range(0, x.shape[0], _SCORE_CHUNK):
        rows = slice(i, i + _SCORE_CHUNK)
        kxt = gram(model.kernel, model.support, x[rows])  # (n_support, chunk)
        s1[rows] = (z2 @ kxt + model.b1[:, None]).min(axis=0)
        s2[rows] = (-(y2 @ kxt) + model.b2[:, None]).max(axis=0)
        del kxt  # free it before the next chunk's Gram is built
    return s1, s2


def kods_feasibility(model: KodsModel) -> float:
    """Constraint residual max(||Y G Y^T - I||_F, ||Z G Z^T - I||_F) under
    the jittered Gram geometry the model was trained in."""
    g = gram(model.kernel, model.support)
    if model.jitter:
        g = g + model.jitter * np.eye(g.shape[0])
    return max(_gram_residual(model.duals.y, g), _gram_residual(model.duals.z, g))
