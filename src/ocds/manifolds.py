"""Riemannian manifolds for frame-based one-class models.

A point is a numpy array, or for a Product a flat tuple of the factors'
arrays: Product refuses a Product factor, so no point nests a tuple.
Tangent vectors mirror the point structure exactly, and a point's ambient
dimension is the total size of its arrays. All operations are pure:
arguments are never mutated. (GeneralizedStiefel memoizes one point's
product with its gram, looked up by value, so results never depend on
it.)

One zero-step rule holds for every manifold: a zero tangent retracts to
the identical point object, so repeated zero-steps stay bit-stable.
Manifold.retract applies it and hands every other step to the
geometry's _retract; Product applies it to each factor.

KODS trains on _GeneralizedStiefelPair, a Product of one
GeneralizedStiefel with itself whose operations stack the two frames and
read the gram once.

Every manifold supports six operations: project_tangent, egrad_to_rgrad,
retract, transport (projection to the destination tangent space), inner
(the ambient Frobenius pairing, also used for conjugate-gradient
bookkeeping), and random_point. Two diagnostics, feasibility and
tangency, return scalar constraint residuals for testing and for
post-training validation.

Unit-norm drift has one measure, Oblique's ‖(‖w_j‖ - 1)_j‖. Sphere is the
one-column oblique manifold with points stored as d-vectors, so on a
sphere point that measure is |‖w‖ - 1|. PositiveVector is, in the same
way, the open positive orthant of Euclidean(K) with its own retraction.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DegenerateStepError, DimensionError, PositiveDefiniteError
from .kernels import _check_symmetric

__all__ = [
    "Manifold",
    "Euclidean",
    "Sphere",
    "Stiefel",
    "Oblique",
    "PositiveVector",
    "GeneralizedStiefel",
    "Product",
    "tree_map",
    "tree_leaves",
    "tree_dot",
    "tree_scale",
    "tree_axpy",
    "tree_copy",
    "tree_all_finite",
]

# Above this condition number of the K x K moment, the generalized polar map
# takes a second, well-conditioned pass (eps * 1e4 is about 2e-12).
_POLAR_REFINE_COND = 1e4


# ---------------------------------------------------------------------------
# Structure helpers: points/tangents are arrays or flat tuples of arrays.


def tree_map(fn, *trees):
    """Apply fn leafwise over parallel points or tangents."""
    if isinstance(trees[0], tuple):
        return tuple(fn(*parts) for parts in zip(*trees))
    return fn(*trees)


def tree_leaves(tree) -> list[np.ndarray]:
    return list(tree) if isinstance(tree, tuple) else [tree]


def tree_dot(a, b) -> float:
    return float(sum(np.vdot(x, y) for x, y in zip(tree_leaves(a), tree_leaves(b))))


def tree_scale(a, s: float):
    return tree_map(lambda x: s * x, a)


def tree_axpy(a, s: float, b):
    """a + s * b, leafwise."""
    return tree_map(lambda x, y: x + s * y, a, b)


def tree_copy(a):
    return tree_map(lambda x: np.array(x, dtype=np.float64), a)


def tree_all_finite(a) -> bool:
    return all(np.isfinite(x).all() for x in tree_leaves(a))


def _is_zero(a) -> bool:
    return all(not x.any() for x in tree_leaves(a))


def _sym(m: np.ndarray) -> np.ndarray:
    # The symmetric part of a matrix, or of each matrix in a stack.
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def _as_rng(seed) -> np.random.Generator:
    # Accepts an int seed or an existing Generator. PCG64 keeps draws
    # reproducible across platforms.
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _qr_positive(v: np.ndarray) -> np.ndarray:
    """Thin QR factor with the positive-diagonal sign convention.

    Uniqueness of the factor requires full column rank; a nearly rank
    deficient argument raises DegenerateStepError so the line search can
    shrink the step instead of silently producing garbage.
    """
    q, r = np.linalg.qr(v)
    diag = np.diagonal(r)
    scale = max(1.0, float(np.abs(diag).max(initial=0.0)))
    if np.any(np.abs(diag) <= 1e-12 * scale):
        raise DegenerateStepError("retraction argument is numerically rank deficient")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs


def _gram_residual(u: np.ndarray, gram: np.ndarray) -> float:
    """||U gram U^T - I||_F: how far U is from the generalized Stiefel
    manifold of gram. Needs no factorization of gram."""
    return float(np.linalg.norm(u @ gram @ u.T - np.eye(u.shape[0])))


# ---------------------------------------------------------------------------


class Manifold:
    """Common interface; see the module docstring for the contract."""

    name: str = "manifold"

    def project_tangent(self, point, ambient):
        raise NotImplementedError

    def egrad_to_rgrad(self, point, egrad):
        # The Riemannian gradient of the embedded metric is the tangent
        # projection of the ambient one.
        return self.project_tangent(point, egrad)

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
        return self._retract(point, tangent)

    def _retract(self, point, tangent):
        """The geometry's retraction of a nonzero tangent."""
        raise NotImplementedError

    def transport(self, start, end, tangent):
        # Projection-based transport: cheap, and exact enough for the
        # conjugate-gradient restarts used here.
        return self.project_tangent(end, tangent)

    def inner(self, point, t1, t2) -> float:
        return tree_dot(t1, t2)

    def norm(self, point, t) -> float:
        return float(np.sqrt(max(tree_dot(t, t), 0.0)))

    def random_point(self, seed):
        raise NotImplementedError

    def feasibility(self, point) -> float:
        """Constraint residual of the point; 0 means exactly feasible."""
        raise NotImplementedError

    def tangency(self, point, tangent) -> float:
        """Residual of the linearized constraint at point for tangent."""
        raise NotImplementedError

    def _expect(self, arr, shape, what: str) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != shape:
            raise DimensionError(
                f"{self.name}: {what} has shape {arr.shape}, expected {shape}"
            )
        return arr


class Euclidean(Manifold):
    """Unconstrained arrays of a fixed shape."""

    def __init__(self, *shape: int):
        self.shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in self.shape):
            raise DimensionError(f"Euclidean shape must be positive, got {self.shape}")
        self.name = f"Euclidean{self.shape}"

    def project_tangent(self, point, ambient):
        return self._expect(ambient, self.shape, "ambient vector")

    def _retract(self, point, tangent):
        return point + tangent

    def random_point(self, seed):
        return _as_rng(seed).standard_normal(self.shape)

    def feasibility(self, point) -> float:
        return 0.0

    def tangency(self, point, tangent) -> float:
        return 0.0


class Stiefel(Manifold):
    """d x K matrices with orthonormal columns, K <= d."""

    def __init__(self, d: int, k: int):
        if k < 1 or d < k:
            raise DimensionError(f"Stiefel needs 1 <= K <= d, got d={d}, K={k}")
        self.d, self.k = int(d), int(k)
        self.name = f"Stiefel({d},{k})"

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, (self.d, self.k), "ambient matrix")
        return a - point @ _sym(point.T @ a)

    def egrad_to_rgrad(self, point, egrad):
        g = self._expect(egrad, (self.d, self.k), "gradient")
        return g - point @ (g.T @ point)

    def _retract(self, point, tangent):
        return _qr_positive(point + tangent)

    def random_point(self, seed):
        return _qr_positive(_as_rng(seed).standard_normal((self.d, self.k)))

    def feasibility(self, point) -> float:
        return float(np.linalg.norm(point.T @ point - np.eye(self.k)))

    def tangency(self, point, tangent) -> float:
        return float(np.linalg.norm(point.T @ tangent + tangent.T @ point))


class Oblique(Manifold):
    """d x K matrices whose columns each have unit norm."""

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise DimensionError(f"Oblique needs d, K >= 1, got d={d}, K={k}")
        self.d, self.k = int(d), int(k)
        self.shape = (self.d, self.k)
        self.name = f"Oblique({d},{k})"

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, self.shape, "ambient array")
        return a - point * (point * a).sum(axis=0)

    def _retract(self, point, tangent):
        v = point + tangent
        norms = np.linalg.norm(v, axis=0)
        if np.any(norms <= 1e-12):
            raise DegenerateStepError("oblique retraction produced a zero column")
        return v / norms

    def random_point(self, seed):
        v = _as_rng(seed).standard_normal(self.shape)
        return v / np.linalg.norm(v, axis=0)

    def feasibility(self, point) -> float:
        return float(np.linalg.norm(np.linalg.norm(point, axis=0) - 1.0))

    def tangency(self, point, tangent) -> float:
        return float(np.linalg.norm(2.0 * (point * tangent).sum(axis=0)))


class Sphere(Oblique):
    """Unit vectors in R^d under the Euclidean norm: the one-column oblique
    manifold, with points stored as d-vectors."""

    def __init__(self, d: int):
        if d < 1:
            raise DimensionError(f"Sphere needs d >= 1, got {d}")
        super().__init__(d, 1)
        self.shape = (self.d,)
        self.name = f"Sphere({d})"


class PositiveVector(Euclidean):
    """Strictly positive K-vectors: the open positive orthant of
    Euclidean(K), whose tangent space it keeps. Steps are taken
    multiplicatively so positivity can never be lost, matching a log-space
    parameterization to first order."""

    def __init__(self, k: int):
        if k < 1:
            raise DimensionError(f"PositiveVector needs K >= 1, got {k}")
        super().__init__(k)
        self.k = int(k)
        self.name = f"PositiveVector({k})"

    def _retract(self, point, tangent):
        # exp is clipped only to guard overflow on absurd trial steps; the
        # line search rejects those by cost anyway. The floor keeps entries
        # that underflow during aggressive shrinking strictly positive.
        with np.errstate(over="ignore", divide="ignore"):
            ratio = np.clip(tangent / point, -60.0, 60.0)
        return np.maximum(point * np.exp(ratio), np.finfo(np.float64).tiny)

    def random_point(self, seed):
        return np.exp(0.25 * _as_rng(seed).standard_normal(self.k))

    def feasibility(self, point) -> float:
        return 0.0 if np.all(point > 0.0) else float("inf")


class Product(Manifold):
    """Cartesian product; points are flat tuples of factor points."""

    def __init__(self, *factors: Manifold):
        if not factors:
            raise DimensionError("Product needs at least one factor")
        if any(isinstance(f, Product) for f in factors):
            raise DimensionError("Product factors cannot be Products; list their factors instead")
        self.factors = tuple(factors)
        self.name = "Product(" + ", ".join(f.name for f in self.factors) + ")"

    def _check(self, tup, what: str):
        if not isinstance(tup, tuple) or len(tup) != len(self.factors):
            raise DimensionError(
                f"{self.name}: {what} must be a tuple of {len(self.factors)} parts"
            )

    def project_tangent(self, point, ambient):
        self._check(point, "point")
        self._check(ambient, "ambient")
        return tuple(
            f.project_tangent(p, a) for f, p, a in zip(self.factors, point, ambient)
        )

    def egrad_to_rgrad(self, point, egrad):
        self._check(point, "point")
        self._check(egrad, "gradient")
        return tuple(
            f.egrad_to_rgrad(p, g) for f, p, g in zip(self.factors, point, egrad)
        )

    def retract(self, point, tangent):
        self._check(point, "point")
        self._check(tangent, "tangent")
        return tuple(f.retract(p, t) for f, p, t in zip(self.factors, point, tangent))

    def random_point(self, seed):
        rng = _as_rng(seed)
        return tuple(f.random_point(rng) for f in self.factors)

    def feasibility(self, point) -> float:
        self._check(point, "point")
        return max(f.feasibility(p) for f, p in zip(self.factors, point))

    def tangency(self, point, tangent) -> float:
        self._check(point, "point")
        self._check(tangent, "tangent")
        return max(f.tangency(p, t) for f, p, t in zip(self.factors, point, tangent))


class GeneralizedStiefel(Manifold):
    """K x n matrices U with U @ gram @ U.T = I_K for a symmetric positive
    definite gram matrix.

    The gram matrix is Cholesky-factored once at construction (KODS
    training hands in the factor it made while repairing the gram); its
    inverse is applied through triangular solves. A gram that is not
    finite and symmetric fails as it does in ensure_pd;
    PositiveDefiniteError means only that the factorization failed.
    Retraction normalizes U + t by the inverse square root of the
    gram-weighted second moment (the generalized polar map), which keeps
    feasibility at machine precision regardless of the input's drift.

    The formulas act on a stack of frames, an (m, K, n) array, so that one
    product with the gram (or one solve against its factor) serves every
    frame in the stack. This class is the single-frame case, m = 1;
    _GeneralizedStiefelPair stacks two frames over the same gram.

    The last point a retraction (or polar) returned, or the last point a
    projection ran at, is kept with its product U @ gram in a one-entry
    memo. The polar map gets that product for O(K^2 n) from the V @ gram it
    formed anyway, so transports at an accepted iterate do no n x n work.
    The memo holds its own copy of the point and is looked up by value
    (np.array_equal), never by object identity, so a caller that mutates a
    point in place gets a fresh product, not a stale one.
    """

    def __init__(self, n: int, k: int, gram: np.ndarray, *, _factor=None):
        # _factor: the cho_factor of this very gram, from kernels._factor_pd,
        # which has checked and factored it already.
        if k < 1 or n < k:
            raise DimensionError(
                f"GeneralizedStiefel needs 1 <= K <= n, got n={n}, K={k}"
            )
        self.n, self.k = int(n), int(k)
        gram = np.asarray(gram, dtype=np.float64)
        if gram.shape != (self.n, self.n):
            raise DimensionError(
                f"gram matrix must be {self.n}x{self.n}, got {gram.shape}"
            )
        self.gram = gram
        if _factor is None:
            _check_symmetric(gram, "gram matrix")
            try:
                _factor = scipy.linalg.cho_factor(gram, lower=True)
            except np.linalg.LinAlgError as exc:
                raise PositiveDefiniteError("gram matrix is not positive definite") from exc
        self._cho = _factor
        self._memo = None  # (stack of points, the same stack @ gram)
        self.name = f"GeneralizedStiefel({n},{k})"

    # -- formulas over an (m, K, n) stack of frames --------------------------

    def _times_gram(self, stack: np.ndarray) -> np.ndarray:
        m = stack.shape[0]
        return (stack.reshape(m * self.k, self.n) @ self.gram).reshape(stack.shape)

    def _stack_gram(self, points: np.ndarray) -> np.ndarray:
        """points @ gram, from the memo when it holds these values."""
        if self._memo is not None and np.array_equal(self._memo[0], points):
            return self._memo[1]
        pg = self._times_gram(points)
        self._memo = (points.copy(), pg)
        return pg

    @staticmethod
    def _inv_sqrt_stack(moment: np.ndarray) -> tuple[np.ndarray, float]:
        """moment^{-1/2} for each K x K matrix in the stack, and the largest
        condition number among them."""
        w, q = np.linalg.eigh(_sym(moment))
        if np.any(w[:, 0] <= 1e-14 * np.maximum(w[:, -1], 1.0)):
            raise DegenerateStepError(
                "generalized polar normalization hit a rank-deficient matrix"
            )
        inv_sqrt = (q / np.sqrt(w)[:, None, :]) @ np.swapaxes(q, -1, -2)
        return inv_sqrt, float((w[:, -1] / w[:, 0]).max())

    def _polar_stack(self, v: np.ndarray) -> np.ndarray:
        vg = self._times_gram(v)
        inv_sqrt, cond = self._inv_sqrt_stack(vg @ np.swapaxes(v, -1, -2))
        u, ug = inv_sqrt @ v, inv_sqrt @ vg
        if cond > _POLAR_REFINE_COND:
            # The eigh of an ill-conditioned moment leaves U gram U^T - I at
            # about eps * cond. One more pass at U, whose moment is near I,
            # brings it back to rounding level; ug is formed afresh so the
            # memo holds the product of the returned point.
            ug = self._times_gram(u)
            inv_sqrt, _ = self._inv_sqrt_stack(ug @ np.swapaxes(u, -1, -2))
            u, ug = inv_sqrt @ u, inv_sqrt @ ug
        self._memo = (u.copy(), ug)
        return u

    def _project_stack(self, points: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        # a G U^T = a (U G)^T: G is symmetric, and U G may come from the memo.
        s = ambient @ np.swapaxes(self._stack_gram(points), -1, -2)
        return ambient - _sym(s) @ points

    def _rgrad_stack(self, points: np.ndarray, egrad: np.ndarray) -> np.ndarray:
        # G^{-1} g - (U g^T) U: one solve with m*K right-hand sides, and the
        # K x K product avoids an n x n one. The gram was checked to be
        # finite before it was factored; only the gradient is checked here.
        rows = np.asarray_chkfinite(egrad.reshape(-1, self.n))
        solved = scipy.linalg.cho_solve(self._cho, rows.T, check_finite=False).T
        return solved.reshape(egrad.shape) - (points @ np.swapaxes(egrad, -1, -2)) @ points

    # -- the single-frame manifold --------------------------------------------

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, (self.k, self.n), "ambient matrix")
        return self._project_stack(point[None], a[None])[0]

    def egrad_to_rgrad(self, point, egrad):
        g = self._expect(egrad, (self.k, self.n), "gradient")
        return self._rgrad_stack(point[None], g[None])[0]

    def polar(self, v: np.ndarray) -> np.ndarray:
        """Map a full-row-rank ambient matrix onto the manifold via the
        generalized polar normalization (V gram V^T)^{-1/2} V."""
        v = self._expect(v, (self.k, self.n), "ambient matrix")
        return self._polar_stack(v[None])[0]

    def _retract(self, point, tangent):
        return self.polar(point + tangent)

    def random_point(self, seed):
        return self.polar(_as_rng(seed).standard_normal((self.k, self.n)))

    def feasibility(self, point) -> float:
        return _gram_residual(point, self.gram)

    def tangency(self, point, tangent) -> float:
        m = point @ self.gram @ tangent.T
        return float(np.linalg.norm(m + m.T))


class _GeneralizedStiefelPair(Product):
    """Product(frame, frame) of one GeneralizedStiefel, with points (Y, Z),
    whose operations run on the stacked 2K x n block: one gram product per
    retraction or projection and one solve per gradient conversion serve
    both frames, and the two K x K polar factors come from one batched
    eigh. The factors and the tuple points are those of the plain Product,
    and so are the results up to rounding. A factor whose tangent is zero
    keeps its point object, as in Product.
    """

    def __init__(self, frame: GeneralizedStiefel):
        super().__init__(frame, frame)
        self.frame = frame

    def _stack(self, parts, what: str) -> np.ndarray:
        self._check(parts, what)
        f = self.frame
        return np.stack([f._expect(p, (f.k, f.n), what) for p in parts])

    def project_tangent(self, point, ambient):
        p = self._stack(point, "point")
        return tuple(self.frame._project_stack(p, self._stack(ambient, "ambient matrix")))

    def egrad_to_rgrad(self, point, egrad):
        p = self._stack(point, "point")
        return tuple(self.frame._rgrad_stack(p, self._stack(egrad, "gradient")))

    def retract(self, point, tangent):
        self._check(point, "point")
        self._check(tangent, "tangent")
        moving = [i for i, t in enumerate(tangent) if not _is_zero(t)]
        if not moving:
            return point
        f = self.frame
        v = np.stack([f._expect(point[i] + tangent[i], (f.k, f.n), "retraction argument")
                      for i in moving])
        out = list(point)
        for i, u in zip(moving, f._polar_stack(v)):
            out[i] = u
        return tuple(out)
