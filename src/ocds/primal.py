"""Direct (input-space) one-class models built from a pair of frames.

A model is two frames W1, W2 (d x K) with intercepts b1, b2. W1 bounds the
data from below: training drives min_k(W1^T x + b1) above the margin eta.
W2 bounds it from above: max_k(W2^T x + b2) is driven below -eta. Both
conditions holding at once marks a point as in-class.

Variants differ in the constraint set of the frames:

  bods    -- K = 1, each w a unit vector (two coupled hyperplanes)
  gods    -- orthonormal frames
  gods_n  -- orthonormal frames with learned positive column scales,
             penalized by (lam/2) * ||r||_p per frame
  gods_o  -- unit-norm columns without mutual orthogonality
  gods_e  -- unconstrained frames with a soft orthogonality penalty
             (lam/2) * ||W^T W - I||_F^2 per frame

Every variant minimizes the same three terms: a lead term, squared hinges
that push the extreme responses past the margins, and the variant's
penalty. The lead term is the mean squared response, which pulls every
response toward zero; bods instead couples its two hyperplanes through
(b1-b2)^2 - 2(b1-b2) - w1.w2. See gods_objective.

Training and scoring share one response path, _responses, which returns
the responses of both frames as one (2K, n) block: rows :K are W1's,
rows K: are W2's, and each row is contiguous. A row's score is then a
min or max down a column of K entries, taken as K elementwise passes
over contiguous rows; on an (n, K) layout numpy reduces along a length-K
inner axis, its slow path, which costs more than the product itself. The
gradient folds the lead term and both hinges into one residual block of
the same shape, so it takes one product with x for both frames.

Training normalizes its rows before the fit. Scoring instead applies the
normalization to the response block: W^T (x / |x|) = (W^T x) / |x|, so
it takes one product with the raw rows and divides each column by its
row's norm before adding the intercepts. The two orders round
differently, so a score may differ by a few ulp from the training-time
response to the same row.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import (_check_hyper, _check_model, _query_rows, _score_one,
                   _training_rows, l2_normalize)
from .errors import DataError, DimensionError, DomainError, NumericError
from .inference import _extremes
from .manifolds import (
    Euclidean,
    Manifold,
    Oblique,
    PositiveVector,
    Product,
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
        v = self.variant.lower() if isinstance(self.variant, str) else self.variant
        if v not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        self.variant = v
        _check_hyper(self.k, self.eta, self.lam)
        if v == "bods" and self.k != 1:
            raise DomainError(f"bods uses a single hyperplane pair; k must be 1, got {self.k}")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError(f"nu must be positive and finite, got {self.nu}")
        if not (math.isfinite(self.p_norm) and self.p_norm >= 1.0):
            raise DomainError(f"p_norm must be finite and >= 1, got {self.p_norm}")


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

    def __post_init__(self):
        # Structure only: unit norms and positive scales are what
        # frame_feasibility measures, so they are not enforced here.
        fr, d, k = self.frames, self.feature_dim, self.hyper.k
        scales = (k,) if self.hyper.variant == "gods_n" else None
        _check_model(self.eta_effective, [
            ("frames.w1", fr.w1, (d, k)), ("frames.w2", fr.w2, (d, k)),
            ("frames.b1", fr.b1, (k,)), ("frames.b2", fr.b2, (k,)),
            ("frames.r1", fr.r1, scales), ("frames.r2", fr.r2, scales),
        ])


# ---------------------------------------------------------------------------
# Objectives. All of them are plain functions of the frame arrays, finite
# for any input, so finite-difference probes may step off the manifold.


def _responses(frames: FramePair, x: np.ndarray, norms=None) -> np.ndarray:
    """Responses of both frames to the rows of x as one (2K, n) block
    [W1 W2]^T x^T + [b1; b2], with gods_n's diag(r) applied first. Given
    row norms, column j of the product is divided by norms[j] before the
    intercepts are added: the responses to the rows x / norms[:, None]."""
    w1, w2 = frames.w1, frames.w2
    if frames.r1 is not None:
        w1 = w1 * frames.r1
    if frames.r2 is not None:
        w2 = w2 * frames.r2
    p = np.concatenate((w1, w2), axis=1).T @ x.T
    if norms is not None:
        p /= norms
    p += np.concatenate((frames.b1, frames.b2))[:, None]
    return p


def _first_row_equal(block: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Per column, the lowest row index at which block equals value: the
    argmin (argmax) of a column whose min (max) is value. argmin along
    axis 0 is numpy's slow path; one compare per row is not."""
    idx = np.full(block.shape[1], block.shape[0] - 1)
    for row in range(block.shape[0] - 2, -1, -1):
        idx[block[row] == value] = row
    return idx


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


def _hinges(frames: FramePair, x: np.ndarray, hyper: GodsHyper):
    """What gods_objective and gods_egrad both start from: the checked
    rows x, their _responses block p, its extremes (low, high) and the
    hinges max(eta - low, 0) and max(eta + high, 0)."""
    x = _check_training_inputs(frames, x, hyper)
    p = _responses(frames, x)
    low, high = _extremes(p, hyper.k)
    return (x, p, low, high,
            np.maximum(hyper.eta - low, 0.0), np.maximum(hyper.eta + high, 0.0))


def _pnorm(r: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(r) ** p) ** (1.0 / p))


def _pnorm_grad(r: np.ndarray, p: float) -> np.ndarray:
    # Valid for r > 0, which the manifold guarantees.
    total = float(np.sum(r**p))
    if total == 0.0:
        # The scales collapsed so far toward zero that every r**p underflowed;
        # the gradient of the norm is undefined there.
        raise NumericError(
            f"gods_n scales underflowed: sum(r**{p:g}) is 0, so the {p:g}-norm "
            f"gradient is undefined"
        )
    return total ** (1.0 / p - 1.0) * r ** (p - 1.0)


def _soft_orth_value(w: np.ndarray) -> float:
    g = w.T @ w - np.eye(w.shape[1])
    return float(np.sum(g * g))


def gods_objective(frames: FramePair, x: np.ndarray, hyper: GodsHyper) -> float:
    """Frame-pair objective of every variant: a lead term, squared hinges
    on the extreme responses, and the variant's penalty.

    The lead term is the mean squared response of both frames, except for
    bods, whose lead term couples its two hyperplanes: the bias term
    (b1-b2)^2 - 2(b1-b2) plus the alignment term -w1.w2.
    """
    x, p, _, _, h1, h2 = _hinges(frames, x, hyper)
    n = x.shape[0]
    if hyper.variant == "bods":
        gap = float(frames.b1[0] - frames.b2[0])
        value = 0.5 * (gap * gap - 2.0 * gap) - float(frames.w1[:, 0] @ frames.w2[:, 0])
    else:
        value = 0.5 / n * float(np.vdot(p, p))
    value += 0.5 * hyper.nu / n * (float(h1 @ h1) + float(h2 @ h2))
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
    x, p, low, high, h1, h2 = _hinges(frames, x, hyper)
    n, k = x.shape[0], hyper.k
    # One residual block for both frames: the lead term's p/n (bods has
    # none), and each row's hinge on its extreme response, ties going to
    # the lowest index as in argmin/argmax.
    resid = np.zeros_like(p) if hyper.variant == "bods" else p / n
    # Scatter through flat indices into the C-ordered block: the same
    # elements as resid[rows, cols], about half the time of a fancy 2-D index.
    cols = np.arange(n)
    c = hyper.nu / n
    flat = resid.reshape(-1)
    flat[_first_row_equal(p[:k], low) * n + cols] -= c * h1
    flat[(k + _first_row_equal(p[k:], high)) * n + cols] += c * h2
    dw = (resid @ x).T
    db = resid.sum(axis=1)
    dw1, db1, dw2, db2 = dw[:, :k], db[:k], dw[:, k:], db[k:]
    if hyper.variant == "bods":
        gap = float(frames.b1[0] - frames.b2[0])
        dw1, db1 = dw1 - frames.w2, db1 + (gap - 1.0)
        dw2, db2 = dw2 - frames.w1, db2 - (gap - 1.0)

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


# bods has no objective code of its own: its names are the shared
# functions, which dispatch on hyper.variant.
bods_objective = gods_objective
bods_egrad = gods_egrad


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
    """(manifold, pack, unpack) of the variant's frames in dimension d.

    A packed point is a flat tuple of the FramePair fields in `names`, in
    order. pack does not copy: neither the manifolds nor the solver mutate
    a point.
    """
    k, variant = hyper.k, hyper.variant
    frame = {"bods": Oblique, "gods": Stiefel, "gods_n": Stiefel, "gods_o": Oblique,
             "gods_e": Euclidean}[variant](d, k)
    names = ("w1", "b1", "w2", "b2")
    if variant == "gods_n":
        names = ("w1", "r1", "b1", "w2", "r2", "b2")
    factor = {"w": frame, "r": PositiveVector(k), "b": Euclidean(k)}  # by field letter
    manifold = Product(*(factor[name[0]] for name in names))

    def pack(fr: FramePair):
        return tuple(getattr(fr, name) for name in names)

    def unpack(pt) -> FramePair:
        return FramePair(**dict(zip(names, pt)))

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
    return _score_one(primal_scores_batch, model, x, model.feature_dim)


def primal_scores_batch(model: TrainedPrimalModel, x: np.ndarray):
    """Vectorized (s1, s2) arrays over the rows of x; gods_n applies its
    diag(r) scaling first.

    The model's stored normalization is applied to the response block,
    not to the rows: each row's responses are divided by its norm before
    the intercepts are added, so no normalized copy of x is made. A score
    may therefore differ by a few ulp from the training-time response to
    the same row. A row with a non-finite entry raises DataError.
    """
    rows, norms = _query_rows(x, model.feature_dim, model.normalization)
    return _extremes(_responses(model.frames, rows, norms), model.hyper.k)


def frame_feasibility(model: TrainedPrimalModel) -> float:
    """Constraint residual of the trained frames on the variant's manifold."""
    manifold, pack, _ = _primal_geometry(model.frames.w1.shape[0], model.hyper)
    return manifold.feasibility(pack(model.frames))
