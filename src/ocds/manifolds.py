"""Riemannian manifolds for frame-based one-class models.

A point on a simple manifold is a numpy array; a point on a composite
manifold (Product, NonCompactStiefel) is a tuple whose entries are the
factor points. Tangent vectors mirror the point structure exactly. All
operations are pure: arguments are never mutated, and a zero tangent
retracts to the identical point object so repeated zero-steps stay
bit-stable.

Every manifold supports six operations: project_tangent, egrad_to_rgrad,
retract, transport (projection to the destination tangent space), inner
(the ambient Frobenius pairing, also used for conjugate-gradient
bookkeeping), and random_point. Two diagnostics, feasibility and
tangency, return scalar constraint residuals for testing and for
post-training validation.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DegenerateStepError, DimensionError, PositiveDefiniteError

__all__ = [
    "Manifold",
    "Euclidean",
    "Sphere",
    "Stiefel",
    "Oblique",
    "PositiveVector",
    "NonCompactStiefel",
    "GeneralizedStiefel",
    "Product",
    "tree_map",
    "tree_leaves",
    "tree_dot",
    "tree_norm",
    "tree_scale",
    "tree_axpy",
    "tree_copy",
    "tree_all_finite",
]


# ---------------------------------------------------------------------------
# Structure helpers: points/tangents are arrays or (nested) tuples of arrays.


def tree_map(fn, *trees):
    """Apply fn leafwise over parallel tuple structures."""
    head = trees[0]
    if isinstance(head, tuple):
        return tuple(tree_map(fn, *parts) for parts in zip(*trees))
    return fn(*trees)


def tree_leaves(tree) -> list[np.ndarray]:
    if isinstance(tree, tuple):
        out: list[np.ndarray] = []
        for part in tree:
            out.extend(tree_leaves(part))
        return out
    return [tree]


def tree_dot(a, b) -> float:
    return float(sum(np.vdot(x, y) for x, y in zip(tree_leaves(a), tree_leaves(b))))


def tree_norm(a) -> float:
    return float(np.sqrt(max(tree_dot(a, a), 0.0)))


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
    return (m + m.T) / 2.0


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


# ---------------------------------------------------------------------------


class Manifold:
    """Common interface; see the module docstring for the contract."""

    name: str = "manifold"

    @property
    def ambient_dimension(self) -> int:
        raise NotImplementedError

    def project_tangent(self, point, ambient):
        raise NotImplementedError

    def egrad_to_rgrad(self, point, egrad):
        raise NotImplementedError

    def retract(self, point, tangent):
        raise NotImplementedError

    def transport(self, start, end, tangent):
        # Projection-based transport: cheap, and exact enough for the
        # conjugate-gradient restarts used here.
        return self.project_tangent(end, tangent)

    def inner(self, point, t1, t2) -> float:
        return tree_dot(t1, t2)

    def norm(self, point, t) -> float:
        return tree_norm(t)

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
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        self.shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in self.shape):
            raise DimensionError(f"Euclidean shape must be positive, got {self.shape}")
        self.name = f"Euclidean{self.shape}"

    @property
    def ambient_dimension(self) -> int:
        return int(np.prod(self.shape))

    def project_tangent(self, point, ambient):
        return self._expect(ambient, self.shape, "ambient vector")

    def egrad_to_rgrad(self, point, egrad):
        return self._expect(egrad, self.shape, "gradient")

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
        return point + tangent

    def random_point(self, seed):
        return _as_rng(seed).standard_normal(self.shape)

    def feasibility(self, point) -> float:
        return 0.0

    def tangency(self, point, tangent) -> float:
        return 0.0


class Sphere(Manifold):
    """Unit vectors in R^d under the Euclidean norm."""

    def __init__(self, d: int):
        if d < 1:
            raise DimensionError(f"Sphere needs d >= 1, got {d}")
        self.d = int(d)
        self.name = f"Sphere({d})"

    @property
    def ambient_dimension(self) -> int:
        return self.d

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, (self.d,), "ambient vector")
        return a - float(point @ a) * point

    def egrad_to_rgrad(self, point, egrad):
        return self.project_tangent(point, egrad)

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
        v = point + tangent
        nv = float(np.linalg.norm(v))
        if nv <= 1e-12:
            raise DegenerateStepError("sphere retraction hit the origin")
        return v / nv

    def random_point(self, seed):
        v = _as_rng(seed).standard_normal(self.d)
        return v / np.linalg.norm(v)

    def feasibility(self, point) -> float:
        return abs(float(np.linalg.norm(point)) - 1.0)

    def tangency(self, point, tangent) -> float:
        return abs(2.0 * float(point @ tangent))


class Stiefel(Manifold):
    """d x K matrices with orthonormal columns, K <= d."""

    def __init__(self, d: int, k: int):
        if k < 1 or d < k:
            raise DimensionError(f"Stiefel needs 1 <= K <= d, got d={d}, K={k}")
        self.d, self.k = int(d), int(k)
        self.name = f"Stiefel({d},{k})"

    @property
    def ambient_dimension(self) -> int:
        return self.d * self.k

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, (self.d, self.k), "ambient matrix")
        return a - point @ _sym(point.T @ a)

    def egrad_to_rgrad(self, point, egrad):
        g = self._expect(egrad, (self.d, self.k), "gradient")
        return g - point @ (g.T @ point)

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
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
        self.name = f"Oblique({d},{k})"

    @property
    def ambient_dimension(self) -> int:
        return self.d * self.k

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, (self.d, self.k), "ambient matrix")
        return a - point * (point * a).sum(axis=0)

    def egrad_to_rgrad(self, point, egrad):
        return self.project_tangent(point, egrad)

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
        v = point + tangent
        norms = np.linalg.norm(v, axis=0)
        if np.any(norms <= 1e-12):
            raise DegenerateStepError("oblique retraction produced a zero column")
        return v / norms

    def random_point(self, seed):
        v = _as_rng(seed).standard_normal((self.d, self.k))
        return v / np.linalg.norm(v, axis=0)

    def feasibility(self, point) -> float:
        return float(np.linalg.norm((point * point).sum(axis=0) - 1.0))

    def tangency(self, point, tangent) -> float:
        return float(np.linalg.norm(2.0 * (point * tangent).sum(axis=0)))


class PositiveVector(Manifold):
    """Strictly positive K-vectors; steps are taken multiplicatively so
    positivity can never be lost, matching a log-space parameterization
    to first order."""

    def __init__(self, k: int):
        if k < 1:
            raise DimensionError(f"PositiveVector needs K >= 1, got {k}")
        self.k = int(k)
        self.name = f"PositiveVector({k})"

    @property
    def ambient_dimension(self) -> int:
        return self.k

    def project_tangent(self, point, ambient):
        return self._expect(ambient, (self.k,), "ambient vector")

    def egrad_to_rgrad(self, point, egrad):
        return self._expect(egrad, (self.k,), "gradient")

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
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

    def tangency(self, point, tangent) -> float:
        return 0.0


class Product(Manifold):
    """Cartesian product; points are tuples of factor points."""

    def __init__(self, *factors: Manifold):
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        if not factors:
            raise DimensionError("Product needs at least one factor")
        self.factors = tuple(factors)
        self.name = "Product(" + ", ".join(f.name for f in self.factors) + ")"

    @property
    def ambient_dimension(self) -> int:
        return sum(f.ambient_dimension for f in self.factors)

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

    def transport(self, start, end, tangent):
        return tuple(
            f.transport(s, e, t)
            for f, s, e, t in zip(self.factors, start, end, tangent)
        )

    def random_point(self, seed):
        rng = _as_rng(seed)
        return tuple(f.random_point(rng) for f in self.factors)

    def feasibility(self, point) -> float:
        self._check(point, "point")
        return max(f.feasibility(p) for f, p in zip(self.factors, point))

    def tangency(self, point, tangent) -> float:
        return max(
            f.tangency(p, t) for f, p, t in zip(self.factors, point, tangent)
        )


class NonCompactStiefel(Product):
    """Frames with per-column positive scales: points are (Q, r) with Q on
    Stiefel(d, K) and r a positive K-vector. The represented operator is
    Q @ diag(r)."""

    def __init__(self, d: int, k: int):
        super().__init__(Stiefel(d, k), PositiveVector(k))
        self.d, self.k = int(d), int(k)
        self.name = f"NonCompactStiefel({d},{k})"


class GeneralizedStiefel(Manifold):
    """K x n matrices U with U @ gram @ U.T = I_K for a symmetric positive
    definite gram matrix.

    The gram matrix is Cholesky-factored once at construction; its inverse
    is applied through triangular solves. Retraction normalizes U + t by
    the inverse square root of the gram-weighted second moment (the
    generalized polar map), which keeps feasibility at machine precision
    regardless of the input's drift.
    """

    def __init__(self, n: int, k: int, gram: np.ndarray):
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
        scale = max(1.0, float(np.abs(gram).max(initial=0.0)))
        if float(np.abs(gram - gram.T).max(initial=0.0)) > 1e-10 * scale:
            raise PositiveDefiniteError("gram matrix is not symmetric")
        self.gram = gram
        try:
            self._cho = scipy.linalg.cho_factor(gram, lower=True)
        except np.linalg.LinAlgError as exc:
            raise PositiveDefiniteError("gram matrix is not positive definite") from exc
        self.name = f"GeneralizedStiefel({n},{k})"

    @property
    def ambient_dimension(self) -> int:
        return self.n * self.k

    def _apply_gram_inverse(self, m: np.ndarray) -> np.ndarray:
        # Right-multiplication by gram^{-1}: rows of m are solved against
        # the cached Cholesky factor. gram is symmetric, so transposing
        # through the solve is exact.
        return scipy.linalg.cho_solve(self._cho, m.T).T

    def project_tangent(self, point, ambient):
        a = self._expect(ambient, (self.k, self.n), "ambient matrix")
        return a - _sym(a @ self.gram @ point.T) @ point

    def egrad_to_rgrad(self, point, egrad):
        g = self._expect(egrad, (self.k, self.n), "gradient")
        return self._apply_gram_inverse(g) - point @ (g.T @ point)

    def polar(self, v: np.ndarray) -> np.ndarray:
        """Map a full-row-rank ambient matrix onto the manifold via the
        generalized polar normalization (V gram V^T)^{-1/2} V."""
        v = self._expect(v, (self.k, self.n), "ambient matrix")
        m = _sym(v @ self.gram @ v.T)
        w, q = np.linalg.eigh(m)
        if w[0] <= 1e-14 * max(float(w[-1]), 1.0):
            raise DegenerateStepError(
                "generalized polar normalization hit a rank-deficient matrix"
            )
        inv_sqrt = (q / np.sqrt(w)) @ q.T
        return inv_sqrt @ v

    def retract(self, point, tangent):
        if _is_zero(tangent):
            return point
        return self.polar(point + tangent)

    def random_point(self, seed):
        return self.polar(_as_rng(seed).standard_normal((self.k, self.n)))

    def feasibility(self, point) -> float:
        return float(
            np.linalg.norm(point @ self.gram @ point.T - np.eye(self.k))
        )

    def tangency(self, point, tangent) -> float:
        m = point @ self.gram @ tangent.T
        return float(np.linalg.norm(m + m.T))
