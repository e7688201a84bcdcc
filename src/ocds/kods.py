"""Kernelized one-class model trained on dual variables.

Instead of frames in input space, the model learns two K x n dual matrices
Y and Z over the training set, constrained so that the rows of each are
orthonormal in the geometry of the jittered Gram matrix G (Y G Y^T = I and
Z G Z^T = I, the residuals kods_feasibility measures). The model weights
the kernel by the squared entries, so each recovered component is a
nonnegative kernel mixture: rows of Z^2 build the lower classifier, rows
of Y^2 (negated) build the upper one.

Every response the module forms reads one set of signed weights,
_weights = [Z^2; -Y^2] (2K x n), whose product with Gram rows is a
(2K, m) response block laid out as the primal models' (lower responses
in rows :K, upper in rows K:), reduced to (s1, s2) by
inference._extremes. The objective and its gradient read _weights @ G;
scoring and intercept recovery read the block through one chunked loop,
_response_block.

The Gram matrix enters twice, in different roles: a jittered copy defines
the feasible set (it must be positive definite for the geometry to make
sense), while the raw Gram is used to recover the intercepts. Recovery
reads the raw Gram's rows in the scorer's chunks, so the training matrix
scored as one batch, or any chunk-aligned slice of it, gets the very
responses the intercepts were set from, and every training row meets
both margins at eta exactly.

Training runs on _GeneralizedStiefelPair over one GeneralizedStiefel of
the jittered Gram: Y and Z are stacked into one 2K x n block, so each retraction,
projection and gradient conversion reads the Gram (or its Cholesky factor)
once for both matrices, and transports at an accepted iterate reuse the
U @ G the retraction already formed (see GeneralizedStiefel). The
objective closures keep a memo of the same kind: the _weights @ G block
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
from .inference import _extremes
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

# Gram entries per chunk in _response_block: 2**17 float64 values
# (1 MB), so a chunk's Gram stays in cache between the kernel pass (one
# cdist call for rbf) and the product that reads it; a 600-row support
# set scores 218 query rows per chunk. On 600 x 20000 rbf scoring (one
# BLAS thread, median of 15 calls, 4 rounds), 2**16 and 2**18 timed 6%
# and 10% slower, 2**15 15%, 2**14 28% and 2**19 40% slower.
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
    return _objective(*_cost_terms(*_check_duals(duals, gram_mat))[2:], hyper)


def kods_egrad(duals: DualVars, gram_mat: np.ndarray, hyper: KodsHyper) -> DualVars:
    """Exact ambient gradient of kods_objective in both dual matrices."""
    dy, dz = _egrad(*_cost_terms(*_check_duals(duals, gram_mat)), hyper)
    return DualVars(y=dy, z=dz)


def _weights(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The signed kernel weights [Z^2; -Y^2], (2K, n): their product with
    a Gram's rows is a response block, the lower classifier's responses in
    rows :K and the upper classifier's in rows K:."""
    return np.vstack((z * z, -(y * y)))


def _cost_terms(y, z, g):
    """(Y, Z, Y^2, Z^2, _weights(Y, Z) @ G): what _objective and _egrad
    read, so the public objective and the training closures share one
    product with the Gram."""
    w = _weights(y, z)
    k = y.shape[0]
    return y, z, -w[k:], w[:k], w @ g


def _objective(y2, z2, block, hyper: KodsHyper) -> float:
    """kods_objective from the squared duals and the [Z^2; -Y^2] @ G
    block."""
    z2g = block[:z2.shape[0]]
    row_y = y2.sum(axis=1)
    row_z = z2.sum(axis=1)
    self_term = 0.5 * float(row_y @ row_y)
    cross_term = float(np.sum(y2 * z2g))
    margin_term = -hyper.eta * (float(y2.sum()) + float(z2.sum()))
    diff = row_y - row_z
    balance_term = 0.5 * hyper.lam * float(diff @ diff)
    return self_term + cross_term + margin_term + balance_term


def _egrad(y, z, y2, z2, block, hyper: KodsHyper):
    """kods_egrad's (dY, dZ) from the duals, their squares and the
    [Z^2; -Y^2] @ G block."""
    row_y = y2.sum(axis=1)[:, None]
    row_z = z2.sum(axis=1)[:, None]
    lam = hyper.lam
    z2g, neg_y2g = np.split(block, 2)
    dy = y * (2.0 * row_y + 2.0 * z2g - 2.0 * hyper.eta
              + 2.0 * lam * (row_y - row_z))
    dz = z * (-2.0 * neg_y2g - 2.0 * hyper.eta - 2.0 * lam * (row_y - row_z))
    return dy, dz


def _response_block(w: np.ndarray, m: int, gram_rows) -> np.ndarray:
    """The (2K, m) response block of the signed weights w (2K, n) to m
    rows: the one path by which both scoring and intercept recovery form
    responses. The rows are read in chunks of max(1, _SCORE_CHUNK // n);
    gram_rows(rows, out) returns the Gram of the rows `rows` (a slice)
    against the n support rows, either written into out, a (chunk, n)
    buffer reused for every chunk, or as a view of a Gram already built.
    Each chunk's Gram meets w^T in one product, so the m x n Gram is never
    formed here."""
    n = w.shape[1]
    step = max(1, _SCORE_CHUNK // max(n, 1))
    resp = np.empty((w.shape[0], m))
    buf = np.empty((min(step, m), n))
    for i in range(0, m, step):
        h = min(step, m - i)
        resp[:, i:i + h] = (gram_rows(slice(i, i + h), buf[:h]) @ w.T).T
    return resp


def recover_primal(duals: DualVars, gram_mat: np.ndarray, eta: float):
    """Intercepts (b1, b2) that place every training point on the feasible
    side of both margins, with at least one point on each to within one
    ulp of the larger of eta and the intercept.

    gram_mat is the raw training Gram. Its rows go through the scorer's
    _response_block, in the scorer's chunks, so the guarantee holds bit
    for bit where the scorer forms the same responses: for the training
    matrix scored as one batch, or any chunk-aligned slice of it. Another
    slice may round a row's responses apart by a few ulp.

    b1 is eta - min(lower) and b2 is -eta - max(upper), per component.
    Either subtraction rounds, so the margin row's score min(lower) + b1
    can land an ulp below eta (max(upper) + b2 above -eta); such an
    intercept moves to the next float inward. The rounding error is at
    most half the gap to that float, so the one move puts the margin row
    inside."""
    y, z, g = _check_duals(duals, gram_mat)
    k = y.shape[0]
    block = _response_block(_weights(y, z), g.shape[0], lambda rows, out: g[rows])
    low, high = block[:k].min(axis=1), block[k:].max(axis=1)
    b1 = eta - low
    b2 = -eta - high
    b1 = np.where(low + b1 < eta, np.nextafter(b1, np.inf), b1)
    b2 = np.where(high + b2 > -eta, np.nextafter(b2, -np.inf), b2)
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
    memo = None  # _cost_terms at the last point seen, on copies of its Y and Z

    def terms(pt):
        nonlocal memo
        y, z = pt[0], pt[1]
        if memo is None or not (np.array_equal(memo[0], y) and np.array_equal(memo[1], z)):
            memo = _cost_terms(y.copy(), z.copy(), gram_pd)
        return memo

    def cost(pt) -> float:
        return _objective(*terms(pt)[2:], hyper)

    def egrad(pt):
        return _egrad(*terms(pt), hyper)

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

    Rows are scored query-major by _response_block, in chunks of
    max(1, _SCORE_CHUNK // n_support) rows, and the extremes are taken
    over the (2k, m) response block plus the intercepts. Every chunk's
    cross-Gram is written into one buffer allocated per call, so scoring
    speed does not depend on which large blocks the process has freed
    before. A row's scores depend on the rows sharing its chunk (the
    product may round differently for another chunk height), so they are
    reproduced bit for bit by scoring any chunk-aligned slice. A row with
    a non-finite entry raises DataError.
    """
    x, norms = _query_rows(x, model.support.shape[1], model.normalization)
    if norms is not None:
        x = x / norms[:, None]
    resp = _response_block(
        _weights(model.duals.y, model.duals.z), x.shape[0],
        lambda rows, out: gram(model.kernel, x[rows], model.support, out=out))
    resp += np.concatenate((model.b1, model.b2))[:, None]
    return _extremes(resp, model.duals.z.shape[0])


def kods_feasibility(model: KodsModel) -> float:
    """Constraint residual max(||Y G Y^T - I||_F, ||Z G Z^T - I||_F) under
    the jittered Gram geometry the model was trained in."""
    g = gram(model.kernel, model.support)
    if model.jitter:
        g = g + model.jitter * np.eye(g.shape[0])
    return max(_gram_residual(model.duals.y, g), _gram_residual(model.duals.z, g))
