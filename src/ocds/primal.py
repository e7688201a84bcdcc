"""Direct (input-space) one-class models built from a pair of frames.

A model is two frames W1, W2 (d x K) with intercepts b1, b2. W1 bounds the
data from below: training drives min_k(W1^T x + b1) above the margin eta.
W2 bounds it from above: max_k(W2^T x + b2) is driven below -eta. Both
conditions holding at once marks a point as in-class.

Variants differ only in the constraint set of the frames:

  bods    -- K = 1, each w a unit vector (two coupled hyperplanes)
  gods    -- orthonormal frames
  gods_n  -- orthonormal frames with learned positive column scales,
             penalized by (lam/2) * ||r||_p per frame
  gods_o  -- unit-norm columns without mutual orthogonality
  gods_e  -- unconstrained frames with a soft orthogonality penalty
             (lam/2) * ||W^T W - I||_F^2 per frame

The fitting term pulls every response toward zero, the hinge terms push
the extreme responses past the margins; see the objective functions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import _training_rows, l2_normalize
from .errors import DataError, DimensionError, DomainError
from .manifolds import (
    Euclidean,
    Manifold,
    NonCompactStiefel,
    Oblique,
    Product,
    Sphere,
    Stiefel,
)
from .solver import Objective, SolveReport, SolverConfig, minimize

__all__ = [
    "VARIANTS",
    "GodsHyper",
    "FramePair",
    "TrainedPrimalModel",
    "bods_objective",
    "bods_egrad",
    "gods_objective",
    "gods_egrad",
    "init_frames",
    "build_primal_problem",
    "train_primal",
    "primal_scores",
    "primal_scores_batch",
    "frame_feasibility",
]

VARIANTS = ("bods", "gods", "gods_n", "gods_o", "gods_e")


@dataclass
class GodsHyper:
    """Hyperparameters shared by every direct variant."""

    variant: str = "gods"
    k: int = 3
    eta: float = 0.3
    nu: float = 1.0
    lam: float = 1.0
    p_norm: float = 1.0
    normalize: bool = True

    def __post_init__(self):
        v = self.variant.lower()
        if v not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        self.variant = v
        if v == "bods" and self.k != 1:
            raise DomainError(f"bods uses a single hyperplane pair; k must be 1, got {self.k}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.eta <= 0.0:
            raise DomainError(f"eta must be positive, got {self.eta}")
        if self.nu <= 0.0:
            raise DomainError(f"nu must be positive, got {self.nu}")
        if self.lam < 0.0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")
        if self.p_norm < 1.0:
            raise DomainError(f"p_norm must be >= 1, got {self.p_norm}")


@dataclass
class FramePair:
    """Frames and intercepts; r1/r2 are the positive column scales used by
    gods_n and None elsewhere."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    r1: np.ndarray | None = None
    r2: np.ndarray | None = None


@dataclass
class TrainedPrimalModel:
    frames: FramePair
    hyper: GodsHyper
    eta_effective: float
    feature_dim: int
    normalization: bool


# ---------------------------------------------------------------------------
# Objectives. All of them are plain functions of the frame arrays, finite
# for any input, so finite-difference probes may step off the manifold.


def _responses(frames: FramePair, x: np.ndarray):
    w1, w2 = frames.w1, frames.w2
    if frames.r1 is not None:
        w1 = w1 * frames.r1
    if frames.r2 is not None:
        w2 = w2 * frames.r2
    return x @ w1 + frames.b1, x @ w2 + frames.b2


def _core_value(p1, p2, eta, nu, n):
    fit = 0.5 / n * (float(np.sum(p1 * p1)) + float(np.sum(p2 * p2)))
    h1 = np.maximum(eta - p1.min(axis=1), 0.0)
    h2 = np.maximum(eta + p2.max(axis=1), 0.0)
    hinge = 0.5 * nu / n * (float(np.sum(h1 * h1)) + float(np.sum(h2 * h2)))
    return fit + hinge


def _core_grads(x, p1, p2, eta, nu):
    n = x.shape[0]
    # argmin/argmax break ties toward the lowest index.
    h1 = np.maximum(eta - p1.min(axis=1), 0.0)
    a = np.zeros_like(p1)
    a[np.arange(n), p1.argmin(axis=1)] = h1
    h2 = np.maximum(eta + p2.max(axis=1), 0.0)
    b = np.zeros_like(p2)
    b[np.arange(n), p2.argmax(axis=1)] = h2
    dw1 = x.T @ p1 / n - (nu / n) * (x.T @ a)
    db1 = p1.sum(axis=0) / n - (nu / n) * a.sum(axis=0)
    dw2 = x.T @ p2 / n + (nu / n) * (x.T @ b)
    db2 = p2.sum(axis=0) / n + (nu / n) * b.sum(axis=0)
    return dw1, db1, dw2, db2


def _check_training_inputs(frames: FramePair, x: np.ndarray, hyper: GodsHyper):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError(f"training data must be a nonempty 2-D array, got shape {x.shape}")
    d, k = frames.w1.shape
    if x.shape[1] != d:
        raise DimensionError(f"data dimension {x.shape[1]} does not match frames ({d})")
    if k != hyper.k:
        raise DimensionError(f"frames have K={k} but hyper.k={hyper.k}")
    return x


def bods_objective(frames: FramePair, x: np.ndarray, hyper: GodsHyper) -> float:
    """Two coupled hyperplanes: a bias-coupling term (b1-b2)^2 - 2(b1-b2),
    an alignment term -w1.w2, and squared hinges on both margins."""
    x = _check_training_inputs(frames, x, hyper)
    n = x.shape[0]
    w1, w2 = frames.w1[:, 0], frames.w2[:, 0]
    b1, b2 = float(frames.b1[0]), float(frames.b2[0])
    gap = b1 - b2
    alpha = gap * gap - 2.0 * gap
    s1 = x @ w1 + b1
    s2 = x @ w2 + b2
    h1 = np.maximum(hyper.eta - s1, 0.0)
    h2 = np.maximum(hyper.eta + s2, 0.0)
    hinge = 0.5 * hyper.nu / n * (float(np.sum(h1 * h1)) + float(np.sum(h2 * h2)))
    return 0.5 * alpha - float(w1 @ w2) + hinge


def bods_egrad(frames: FramePair, x: np.ndarray, hyper: GodsHyper) -> FramePair:
    x = _check_training_inputs(frames, x, hyper)
    n = x.shape[0]
    w1, w2 = frames.w1[:, 0], frames.w2[:, 0]
    b1, b2 = float(frames.b1[0]), float(frames.b2[0])
    gap = b1 - b2
    s1 = x @ w1 + b1
    s2 = x @ w2 + b2
    h1 = np.maximum(hyper.eta - s1, 0.0)
    h2 = np.maximum(hyper.eta + s2, 0.0)
    c = hyper.nu / n
    dw1 = -w2 - c * (x.T @ h1)
    dw2 = -w1 + c * (x.T @ h2)
    db1 = gap - 1.0 - c * float(h1.sum())
    db2 = -gap + 1.0 + c * float(h2.sum())
    return FramePair(
        w1=dw1[:, None],
        b1=np.array([db1]),
        w2=dw2[:, None],
        b2=np.array([db2]),
    )


def _pnorm(r: np.ndarray, p: float) -> float:
    if p == 1.0:
        return float(np.sum(np.abs(r)))
    return float(np.sum(np.abs(r) ** p) ** (1.0 / p))


def _pnorm_grad(r: np.ndarray, p: float) -> np.ndarray:
    # Valid for r > 0, which the manifold guarantees.
    if p == 1.0:
        return np.ones_like(r)
    total = float(np.sum(r**p))
    return total ** (1.0 / p - 1.0) * r ** (p - 1.0)


def _soft_orth_value(w: np.ndarray) -> float:
    g = w.T @ w - np.eye(w.shape[1])
    return float(np.sum(g * g))


def gods_objective(frames: FramePair, x: np.ndarray, hyper: GodsHyper) -> float:
    """Frame-pair objective: mean squared response of both frames plus
    squared hinges on the extreme responses, with the variant's penalty."""
    if hyper.variant == "bods":
        return bods_objective(frames, x, hyper)
    x = _check_training_inputs(frames, x, hyper)
    n = x.shape[0]
    p1, p2 = _responses(frames, x)
    value = _core_value(p1, p2, hyper.eta, hyper.nu, n)
    if hyper.variant == "gods_n":
        value += 0.5 * hyper.lam * (
            _pnorm(frames.r1, hyper.p_norm) + _pnorm(frames.r2, hyper.p_norm)
        )
    elif hyper.variant in ("gods_o", "gods_e"):
        value += 0.5 * hyper.lam * (
            _soft_orth_value(frames.w1) + _soft_orth_value(frames.w2)
        )
    return value


def gods_egrad(frames: FramePair, x: np.ndarray, hyper: GodsHyper) -> FramePair:
    """Ambient gradient of gods_objective with the same FramePair layout.

    For gods_n the w gradients are taken with respect to the orthonormal
    factor (chain rule through W = Q diag(r)) and the r gradients land in
    the r1/r2 slots.
    """
    if hyper.variant == "bods":
        return bods_egrad(frames, x, hyper)
    x = _check_training_inputs(frames, x, hyper)
    p1, p2 = _responses(frames, x)
    dw1, db1, dw2, db2 = _core_grads(x, p1, p2, hyper.eta, hyper.nu)

    if hyper.variant == "gods_n":
        dq1 = dw1 * frames.r1
        dq2 = dw2 * frames.r2
        dr1 = (frames.w1 * dw1).sum(axis=0) + 0.5 * hyper.lam * _pnorm_grad(
            frames.r1, hyper.p_norm
        )
        dr2 = (frames.w2 * dw2).sum(axis=0) + 0.5 * hyper.lam * _pnorm_grad(
            frames.r2, hyper.p_norm
        )
        return FramePair(w1=dq1, b1=db1, w2=dq2, b2=db2, r1=dr1, r2=dr2)

    if hyper.variant in ("gods_o", "gods_e"):
        eye = np.eye(frames.w1.shape[1])
        dw1 = dw1 + 2.0 * hyper.lam * frames.w1 @ (frames.w1.T @ frames.w1 - eye)
        dw2 = dw2 + 2.0 * hyper.lam * frames.w2 @ (frames.w2.T @ frames.w2 - eye)
    return FramePair(w1=dw1, b1=db1, w2=dw2, b2=db2)


# ---------------------------------------------------------------------------
# Initialization and training.


def _frame_from_points(points: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal d x k frame spanning the dominant directions of the
    given rows, with each column's first sizable entry made nonnegative."""
    _, _, vt = np.linalg.svd(points, full_matrices=False)
    w = vt[:k].T.copy()
    for col in range(k):
        v = w[:, col]
        idx = np.flatnonzero(np.abs(v) > 1e-12)
        anchor = idx[0] if idx.size else 0
        if v[anchor] < 0.0:
            w[:, col] = -v
    return w


def init_frames(x: np.ndarray, k: int, seed: int = 0) -> FramePair:
    """Data-driven starting frames.

    Rows are ranked by distance from the origin; the frame that must bound
    the data from below starts on the span of the 3K nearest rows, the
    opposing frame on the span of the 3K farthest. Intercepts start at
    zero. With fewer than 3K rows the spans are unreliable, so both frames
    fall back to seeded random draws (with a warning).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError(f"init_frames needs a nonempty 2-D array, got shape {x.shape}")
    n, d = x.shape
    if d < k:
        raise DimensionError(f"k={k} exceeds the feature dimension {d}")
    zeros = np.zeros(k)
    if n < 3 * k:
        warnings.warn(
            f"init_frames: only {n} rows for k={k} (< {3 * k}); "
            "falling back to random frames",
            stacklevel=2,
        )
        man = Stiefel(d, k)
        rng = np.random.default_rng(seed)
        return FramePair(
            w1=man.random_point(rng), b1=zeros.copy(),
            w2=man.random_point(rng), b2=zeros.copy(),
        )
    order = np.argsort(np.linalg.norm(x, axis=1), kind="stable")
    near = x[order[: 3 * k]]
    far = x[order[-3 * k :]]
    return FramePair(
        w1=_frame_from_points(near, k), b1=zeros.copy(),
        w2=_frame_from_points(far, k), b2=zeros.copy(),
    )


@dataclass
class PrimalProblem:
    manifold: Manifold
    objective: Objective
    pack: Callable[[FramePair], tuple]
    unpack: Callable[[tuple], FramePair]


def _primal_geometry(d: int, hyper: GodsHyper):
    """(manifold, pack, unpack) of the variant's frames in dimension d."""
    k = hyper.k
    variant = hyper.variant

    if variant == "bods":
        manifold = Product(Sphere(d), Euclidean(1), Sphere(d), Euclidean(1))

        def pack(fr: FramePair):
            return (fr.w1[:, 0].copy(), fr.b1.copy(), fr.w2[:, 0].copy(), fr.b2.copy())

        def unpack(pt) -> FramePair:
            return FramePair(w1=pt[0][:, None], b1=pt[1], w2=pt[2][:, None], b2=pt[3])

    elif variant == "gods_n":
        manifold = Product(
            NonCompactStiefel(d, k), Euclidean(k), NonCompactStiefel(d, k), Euclidean(k)
        )

        def pack(fr: FramePair):
            return ((fr.w1.copy(), fr.r1.copy()), fr.b1.copy(),
                    (fr.w2.copy(), fr.r2.copy()), fr.b2.copy())

        def unpack(pt) -> FramePair:
            return FramePair(
                w1=pt[0][0], r1=pt[0][1], b1=pt[1],
                w2=pt[2][0], r2=pt[2][1], b2=pt[3],
            )

    else:
        frame_manifold = {
            "gods": lambda: Stiefel(d, k),
            "gods_o": lambda: Oblique(d, k),
            "gods_e": lambda: Euclidean(d, k),
        }[variant]
        manifold = Product(frame_manifold(), Euclidean(k), frame_manifold(), Euclidean(k))

        def pack(fr: FramePair):
            return (fr.w1.copy(), fr.b1.copy(), fr.w2.copy(), fr.b2.copy())

        def unpack(pt) -> FramePair:
            return FramePair(w1=pt[0], b1=pt[1], w2=pt[2], b2=pt[3])

    return manifold, pack, unpack


def build_primal_problem(x: np.ndarray, hyper: GodsHyper) -> PrimalProblem:
    """Manifold, packed-point codec, and objective closures for a variant."""
    x = np.asarray(x, dtype=np.float64)
    manifold, pack, unpack = _primal_geometry(x.shape[1], hyper)

    def cost(pt) -> float:
        return gods_objective(unpack(pt), x, hyper)

    def egrad(pt):
        g = gods_egrad(unpack(pt), x, hyper)
        return pack(g)

    return PrimalProblem(
        manifold=manifold, objective=Objective(cost=cost, egrad=egrad),
        pack=pack, unpack=unpack,
    )


def train_primal(
    x: np.ndarray,
    hyper: GodsHyper,
    cfg: SolverConfig | None = None,
    seed: int = 0,
) -> tuple[TrainedPrimalModel, SolveReport]:
    """Fit the requested variant on one-class training data."""
    x = _training_rows(x)
    xn = l2_normalize(x) if hyper.normalize else x

    frames0 = init_frames(xn, hyper.k, seed=seed)
    if hyper.variant == "gods_n":
        frames0 = replace(frames0, r1=np.ones(hyper.k), r2=np.ones(hyper.k))
    problem = build_primal_problem(xn, hyper)
    point0 = problem.pack(frames0)
    point, report = minimize(problem.objective, problem.manifold, point0, cfg)
    model = TrainedPrimalModel(
        frames=problem.unpack(point),
        hyper=hyper,
        eta_effective=hyper.eta,
        feature_dim=x.shape[1],
        normalization=hyper.normalize,
    )
    return model, report


def primal_scores(model: TrainedPrimalModel, x: np.ndarray) -> tuple[float, float]:
    """(s1, s2) for one feature vector: the smallest lower-frame response
    and the largest upper-frame response."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.feature_dim:
        raise DimensionError(
            f"expected a vector of length {model.feature_dim}, got shape {x.shape}"
        )
    s1, s2 = primal_scores_batch(model, x[None, :])
    return float(s1[0]), float(s2[0])


def primal_scores_batch(model: TrainedPrimalModel, x: np.ndarray):
    """Vectorized (s1, s2) arrays over the rows of x. Applies the model's
    stored normalization; gods_n applies its diag(r) scaling first."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise DimensionError(
            f"expected rows of length {model.feature_dim}, got shape {x.shape}"
        )
    if model.normalization:
        x = l2_normalize(x)
    p1, p2 = _responses(model.frames, x)
    return p1.min(axis=1), p2.max(axis=1)


def frame_feasibility(model: TrainedPrimalModel) -> float:
    """Constraint residual of the trained frames on the variant's manifold."""
    manifold, pack, _ = _primal_geometry(model.frames.w1.shape[0], model.hyper)
    return manifold.feasibility(pack(model.frames))
