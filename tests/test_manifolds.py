"""Geometry checks: every manifold keeps its constraints through
projection, gradient conversion, retraction, and transport."""
import numpy as np
import pytest

from ocds.errors import (
    ConditioningError,
    DegenerateStepError,
    DimensionError,
    DomainError,
    PositiveDefiniteError,
)
from ocds.kernels import ensure_pd
from ocds.manifolds import (
    Euclidean,
    GeneralizedStiefel,
    Manifold,
    Oblique,
    PositiveVector,
    Product,
    Sphere,
    Stiefel,
    _GeneralizedStiefelPair,
    _gram_residual,
    _sym,
    tree_dot,
    tree_leaves,
    tree_map,
)

FEAS_TOL = 1e-10
TANG_TOL = 1e-12


def _pd_gram(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def _make_manifolds():
    return [
        Euclidean(3, 2),
        Sphere(4),
        Stiefel(5, 2),
        Oblique(4, 3),
        PositiveVector(3),
        GeneralizedStiefel(6, 2, _pd_gram(6, 0)),
        Product(Stiefel(4, 2), Euclidean(2)),
    ]


MANIFOLDS = _make_manifolds()
IDS = [m.name for m in MANIFOLDS]


def _random_ambient(point, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return tree_map(lambda x: scale * rng.standard_normal(x.shape), point)


def _random_tangent(man, point, seed, scale=1.0):
    return man.project_tangent(point, _random_ambient(point, seed, scale))


def _zeros_like(point):
    return tree_map(np.zeros_like, point)


# ---------------------------------------------------------------------------
# project_tangent


def test_project_tangent_euclidean_is_identity():
    man = Euclidean(3, 2)
    a = np.arange(6.0).reshape(3, 2)
    out = man.project_tangent(None, a)
    np.testing.assert_array_equal(out, a)


def test_project_tangent_leaves_tangent_vectors_alone():
    man = Stiefel(3, 2)
    p = man.random_point(1)
    t = _random_tangent(man, p, 2)
    again = man.project_tangent(p, t)
    assert np.linalg.norm(again - t) <= TANG_TOL


def test_project_tangent_stiefel_matches_symmetrization_oracle():
    man = Stiefel(4, 2)
    for seed in range(10):
        p = man.random_point(seed)
        a = np.random.default_rng(seed + 100).standard_normal((4, 2))
        got = man.project_tangent(p, a)
        oracle = a - p @ ((p.T @ a + a.T @ p) / 2.0)
        assert np.linalg.norm(got - oracle) <= TANG_TOL
        assert np.linalg.norm(p.T @ got + got.T @ p) <= TANG_TOL


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_project_tangent_idempotent(man):
    for seed in range(5):
        p = man.random_point(seed)
        once = man.project_tangent(p, _random_ambient(p, seed + 50))
        twice = man.project_tangent(p, once)
        diff = tree_map(lambda a, b: a - b, twice, once)
        assert np.sqrt(max(tree_dot(diff, diff), 0.0)) <= TANG_TOL


def test_project_tangent_shape_mismatch_raises():
    man = Stiefel(4, 2)
    p = man.random_point(0)
    with pytest.raises(DimensionError):
        man.project_tangent(p, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# egrad_to_rgrad


def test_rgrad_stiefel_vanishes_when_gradient_equals_point():
    man = Stiefel(5, 3)
    p = man.random_point(3)
    out = man.egrad_to_rgrad(p, p)
    assert np.linalg.norm(out) <= TANG_TOL


def test_rgrad_euclidean_is_identity():
    man = Euclidean(2, 2)
    g = np.array([[1.0, -2.0], [0.5, 4.0]])
    np.testing.assert_array_equal(man.egrad_to_rgrad(None, g), g)


def test_rgrad_generalized_identity_gram_matches_stiefel_formula():
    man = GeneralizedStiefel(6, 2, np.eye(6))
    for seed in range(10):
        u = man.random_point(seed)
        g = np.random.default_rng(seed + 7).standard_normal((2, 6))
        got = man.egrad_to_rgrad(u, g)
        oracle = g - u @ (g.T @ u)
        assert np.abs(got - oracle).max() <= TANG_TOL


@pytest.mark.parametrize("k", [1, 3])
def test_rgrad_generalized_matches_the_dense_formula(k):
    # G^{-1} g - U g^T U, with G^{-1} formed explicitly and the n x n
    # product g^T U built, as the reference the k x k order must reproduce
    n = 12
    gram = _pd_gram(n, 3)
    man = GeneralizedStiefel(n, k, gram)
    for seed in range(5):
        u = man.random_point(seed)
        g = np.random.default_rng(seed + 40).standard_normal((k, n))
        oracle = g @ np.linalg.inv(gram) - u @ (g.T @ u)
        got = man.egrad_to_rgrad(u, g)
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rgrad_generalized_rejects_a_non_finite_gradient(bad):
    man = GeneralizedStiefel(6, 2, _pd_gram(6, 0))
    g = np.ones((2, 6))
    g[1, 4] = bad
    with pytest.raises(ValueError):
        man.egrad_to_rgrad(man.random_point(0), g)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_rgrad_lands_in_the_tangent_space(man):
    for seed in range(5):
        p = man.random_point(seed)
        g = _random_ambient(p, seed + 30)
        xi = man.egrad_to_rgrad(p, g)
        assert man.tangency(p, xi) <= TANG_TOL
        back = man.project_tangent(p, xi)
        diff = tree_map(lambda a, b: a - b, back, xi)
        assert np.sqrt(max(tree_dot(diff, diff), 0.0)) <= 1e-10


# ---------------------------------------------------------------------------
# retract


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_retract_zero_tangent_returns_point_bit_identical(man):
    p = man.random_point(11)
    out = man.retract(p, _zeros_like(p))
    for a, b in zip(tree_leaves(out), tree_leaves(p)):
        assert a is b


def test_retract_applies_the_zero_step_rule_before_the_geometry():
    class Shifted(Manifold):
        # defines only the geometry's retraction of a nonzero tangent
        def __init__(self):
            self.calls = 0

        def _retract(self, point, tangent):
            self.calls += 1
            return point + tangent + 1.0

    man, p = Shifted(), np.array([1.0, 2.0])
    assert man.retract(p, np.zeros(2)) is p
    assert man.calls == 0
    np.testing.assert_array_equal(man.retract(p, np.array([0.0, 0.5])), [2.0, 3.5])
    assert man.calls == 1


def test_retract_stiefel_matches_gram_schmidt_oracle():
    man = Stiefel(3, 2)
    for seed in range(20):
        p = man.random_point(seed)
        t = _random_tangent(man, p, seed + 40)
        got = man.retract(p, t)
        assert np.linalg.norm(got.T @ got - np.eye(2)) <= FEAS_TOL
        # classical Gram-Schmidt on the columns of p + t; the running
        # normalizers are positive, matching the positive-diagonal factor
        v = p + t
        q = np.empty_like(v)
        for j in range(v.shape[1]):
            w = v[:, j] - sum((q[:, i] @ v[:, j]) * q[:, i] for i in range(j))
            q[:, j] = w / np.linalg.norm(w)
        assert np.abs(got - q).max() <= FEAS_TOL


def test_retract_generalized_matches_eigh_inverse_sqrt_oracle():
    gram = _pd_gram(5, 5)
    man = GeneralizedStiefel(5, 2, gram)
    for seed in range(20):
        p = man.random_point(seed)
        t = _random_tangent(man, p, seed + 60)
        got = man.retract(p, t)
        assert np.linalg.norm(got @ gram @ got.T - np.eye(2)) <= FEAS_TOL
        v = p + t
        m = v @ gram @ v.T
        w, q = np.linalg.eigh((m + m.T) / 2.0)
        oracle = (q / np.sqrt(w)) @ q.T @ v
        assert np.abs(got - oracle).max() <= FEAS_TOL


@pytest.mark.parametrize(
    "man",
    [Sphere(3), Stiefel(3, 2), Oblique(3, 2), Oblique(3, 1),
     GeneralizedStiefel(4, 2, _pd_gram(4, 9))],
    ids=lambda m: m.name,
)
def test_retract_rank_deficient_step_raises(man):
    p = man.random_point(0)
    minus_p = tree_map(lambda x: -x, p)
    with pytest.raises(DegenerateStepError):
        man.retract(p, minus_p)


@pytest.mark.parametrize("d", [1, 2, 5, 17])
def test_sphere_is_the_one_column_oblique(d):
    sphere, oblique = Sphere(d), Oblique(d, 1)
    for seed in range(20):
        p = sphere.random_point(seed)
        np.testing.assert_array_equal(p[:, None], oblique.random_point(seed))
        a = _random_ambient(p, seed + 100, 3.0)
        t = sphere.project_tangent(p, a)
        np.testing.assert_array_equal(t[:, None], oblique.project_tangent(p[:, None], a[:, None]))
        np.testing.assert_array_equal(sphere.retract(p, t)[:, None],
                                      oblique.retract(p[:, None], t[:, None]))
        assert sphere.tangency(p, t) == oblique.tangency(p[:, None], t[:, None])


@pytest.mark.parametrize("k", [1, 3])
def test_positive_vector_is_the_positive_orthant_of_euclidean(k):
    positive, euclidean = PositiveVector(k), Euclidean(k)
    assert isinstance(positive, Euclidean)
    for seed in range(10):
        p = positive.random_point(seed)
        a = _random_ambient(p, seed + 100, 3.0)
        np.testing.assert_array_equal(positive.project_tangent(p, a),
                                      euclidean.project_tangent(p, a))
        assert positive.tangency(p, a) == euclidean.tangency(p, a) == 0.0
    with pytest.raises(DimensionError):
        positive.project_tangent(p, np.zeros(k + 1))


def test_positive_vector_retract_is_multiplicative():
    man = PositiveVector(2)
    p = np.array([1.0, 2.0])
    t = np.array([0.5, -1.0])
    out = man.retract(p, t)
    np.testing.assert_allclose(out, p * np.exp(t / p), rtol=1e-15)
    assert np.all(out > 0.0)


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_retract_feasible_over_100_seeded_steps(man):
    worst = 0.0
    for seed in range(100):
        p = man.random_point(seed)
        t = _random_tangent(man, p, seed + 1000)
        out = man.retract(p, t)
        worst = max(worst, man.feasibility(out))
    assert worst <= FEAS_TOL


# ---------------------------------------------------------------------------
# transport


def test_transport_euclidean_unchanged():
    man = Euclidean(2, 3)
    t = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(man.transport(None, None, t), t)


def test_transport_to_same_point_keeps_tangents():
    man = Stiefel(4, 2)
    p = man.random_point(4)
    t = _random_tangent(man, p, 5)
    out = man.transport(p, p, t)
    assert np.linalg.norm(out - t) <= TANG_TOL


def test_transport_is_projection_at_destination():
    man = Stiefel(4, 2)
    for seed in range(10):
        a = man.random_point(seed)
        b = man.random_point(seed + 500)
        t = _random_tangent(man, a, seed + 600)
        got = man.transport(a, b, t)
        oracle = t - b @ ((b.T @ t + t.T @ b) / 2.0)
        assert np.linalg.norm(got - oracle) <= TANG_TOL
        assert np.linalg.norm(b.T @ got + got.T @ b) <= TANG_TOL


# ---------------------------------------------------------------------------
# inner


def test_inner_of_zero_tangents_is_zero():
    man = Stiefel(3, 2)
    p = man.random_point(0)
    z = np.zeros((3, 2))
    assert man.inner(p, z, z) == 0.0


def test_inner_euclidean_all_ones():
    man = Euclidean(2, 2)
    t = np.ones((2, 2))
    assert man.inner(None, t, t) == 4.0


def test_inner_product_manifold_matches_flattened_dot():
    man = Product(Stiefel(4, 2), Euclidean(2))
    p = man.random_point(1)
    t1 = _random_tangent(man, p, 2)
    t2 = _random_tangent(man, p, 3)
    flat1 = np.concatenate([leaf.ravel() for leaf in tree_leaves(t1)])
    flat2 = np.concatenate([leaf.ravel() for leaf in tree_leaves(t2)])
    assert abs(man.inner(p, t1, t2) - float(flat1 @ flat2)) <= 1e-12


def test_inner_positive_definite():
    man = Oblique(4, 2)
    p = man.random_point(7)
    t = _random_tangent(man, p, 8)
    assert man.inner(p, t, t) > 0.0


# ---------------------------------------------------------------------------
# random_point


def test_random_point_sphere_unit_norm():
    man = Sphere(3)
    w = man.random_point(123)
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


@pytest.mark.parametrize("man", MANIFOLDS, ids=IDS)
def test_random_point_deterministic_under_seed(man):
    a = man.random_point(42)
    b = man.random_point(42)
    for x, y in zip(tree_leaves(a), tree_leaves(b)):
        np.testing.assert_array_equal(x, y)
    assert man.feasibility(a) <= FEAS_TOL


def test_random_point_stiefel_is_qr_of_seeded_gaussian():
    man = Stiefel(6, 3)
    seed = 77
    got = man.random_point(seed)
    assert np.linalg.norm(got.T @ got - np.eye(3)) <= TANG_TOL
    g = np.random.default_rng(seed).standard_normal((6, 3))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    np.testing.assert_array_equal(got, q)


# ---------------------------------------------------------------------------
# GeneralizedStiefel with identity gram against Stiefel
#
# Rows here, columns there: a point U with U U^T = I_K corresponds to the
# column-frame U^T. The two geometries share the projection, gradient
# conversion, transport, and metric formulas exactly. The retractions are
# different maps (triangular vs symmetric normalization), so for them we
# check the shared contract instead: zero steps are exact and results are
# feasible; at K = 1 both reduce to the same vector normalization.


def test_identity_gram_matches_stiefel_operations():
    n, k = 6, 2
    gen = GeneralizedStiefel(n, k, np.eye(n))
    sti = Stiefel(n, k)
    for seed in range(10):
        p_cols = sti.random_point(seed)          # n x k
        p_rows = p_cols.T.copy()                 # k x n, feasible for gen
        a_cols = np.random.default_rng(seed + 20).standard_normal((n, k))
        a_rows = a_cols.T.copy()

        proj_s = sti.project_tangent(p_cols, a_cols)
        proj_g = gen.project_tangent(p_rows, a_rows)
        assert np.abs(proj_g.T - proj_s).max() <= TANG_TOL

        rg_s = sti.egrad_to_rgrad(p_cols, a_cols)
        rg_g = gen.egrad_to_rgrad(p_rows, a_rows)
        assert np.abs(rg_g.T - rg_s).max() <= TANG_TOL

        q_cols = sti.random_point(seed + 40)
        tr_s = sti.transport(p_cols, q_cols, proj_s)
        tr_g = gen.transport(p_rows, q_cols.T.copy(), proj_g)
        assert np.abs(tr_g.T - tr_s).max() <= TANG_TOL

        t2_cols = sti.project_tangent(p_cols, np.random.default_rng(seed + 60).standard_normal((n, k)))
        assert abs(
            sti.inner(p_cols, proj_s, t2_cols) - gen.inner(p_rows, proj_g, t2_cols.T.copy())
        ) <= TANG_TOL


def test_identity_gram_retractions_share_the_contract():
    n, k = 6, 2
    gen = GeneralizedStiefel(n, k, np.eye(n))
    sti = Stiefel(n, k)
    for seed in range(10):
        p_cols = sti.random_point(seed)
        t_cols = sti.project_tangent(
            p_cols, np.random.default_rng(seed + 80).standard_normal((n, k))
        )
        out_s = sti.retract(p_cols, t_cols)
        out_g = gen.retract(p_cols.T.copy(), t_cols.T.copy())
        assert sti.feasibility(out_s) <= FEAS_TOL
        assert gen.feasibility(out_g) <= FEAS_TOL
    # K = 1: both normalizations agree on a single direction
    gen1 = GeneralizedStiefel(5, 1, np.eye(5))
    sti1 = Stiefel(5, 1)
    p = sti1.random_point(3)
    t = sti1.project_tangent(p, np.random.default_rng(99).standard_normal((5, 1)))
    out_s = sti1.retract(p, t)
    out_g = gen1.retract(p.T.copy(), t.T.copy())
    assert np.abs(out_g.T - out_s).max() <= TANG_TOL


# ---------------------------------------------------------------------------
# construction errors and diagnostics


def test_generalized_stiefel_rejects_asymmetric_gram():
    # the same input error ensure_pd raises for the same matrix
    g = np.eye(4)
    g[0, 1] = 0.5
    with pytest.raises(DomainError, match="not symmetric"):
        GeneralizedStiefel(4, 2, g)
    with pytest.raises(DomainError, match="not symmetric"):
        ensure_pd(g)


def test_generalized_stiefel_rejects_indefinite_gram():
    with pytest.raises(PositiveDefiniteError):
        GeneralizedStiefel(3, 1, np.diag([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_generalized_stiefel_rejects_non_finite_gram(bad):
    g = np.eye(4)
    g[0, 3] = g[3, 0] = bad
    with pytest.raises(ConditioningError, match="non-finite"):
        GeneralizedStiefel(4, 2, g)
    with pytest.raises(ConditioningError, match="non-finite"):
        ensure_pd(g)


def test_dimension_validation():
    with pytest.raises(DimensionError):
        Stiefel(2, 3)
    with pytest.raises(DimensionError):
        Sphere(0)
    with pytest.raises(DimensionError):
        GeneralizedStiefel(2, 3, np.eye(2))
    with pytest.raises(DimensionError):
        Product()
    # points are flat tuples, so a Product factor is refused
    with pytest.raises(DimensionError, match="cannot be Products"):
        Product(Product(Euclidean(2)), Euclidean(1))
    with pytest.raises(DimensionError):
        Product(Sphere(3), Product(Euclidean(2), Euclidean(1)))


def test_product_rejects_wrong_tuple_length():
    man = Product(Sphere(3), Euclidean(2))
    p = man.random_point(0)
    with pytest.raises(DimensionError):
        man.retract((p[0],), (p[0],))
    with pytest.raises(DimensionError):
        man.tangency(p, (np.zeros(3),))
    with pytest.raises(DimensionError):
        man.tangency(p[:1], _zeros_like(p))


@pytest.mark.parametrize(
    "man", [Euclidean(3, 2), Sphere(4), Oblique(4, 3), PositiveVector(3)],
    ids=lambda m: m.name,
)
def test_gradient_conversion_defaults_to_the_tangent_projection(man):
    point = man.random_point(3)
    egrad = _random_ambient(point, 4)
    rgrad = man.egrad_to_rgrad(point, egrad)
    np.testing.assert_array_equal(rgrad, man.project_tangent(point, egrad))


def test_product_transport_is_factorwise():
    man = Product(Stiefel(4, 2), Sphere(3), Euclidean(2))
    start, end = man.random_point(5), man.random_point(6)
    t = _random_tangent(man, start, 7)
    moved = man.transport(start, end, t)
    for f, s, e, ti, mi in zip(man.factors, start, end, t, moved):
        np.testing.assert_array_equal(mi, f.transport(s, e, ti))


def test_gram_residual_is_the_generalized_stiefel_feasibility():
    gram = _pd_gram(6, 1)
    man = GeneralizedStiefel(6, 2, gram)
    u = np.random.default_rng(8).standard_normal((2, 6))
    assert _gram_residual(u, gram) == man.feasibility(u)
    assert _gram_residual(man.random_point(9), gram) <= FEAS_TOL


# ---------------------------------------------------------------------------
# _GeneralizedStiefelPair: the stacked (Y, Z) pair against per-factor
# GeneralizedStiefel


def _pair_case(k, seed, n=9):
    gram = _pd_gram(n, seed)
    pair = _GeneralizedStiefelPair(GeneralizedStiefel(n, k, gram))
    point = pair.random_point(seed + 1)
    tangent = _random_tangent(pair, point, seed + 2, scale=0.3)
    return gram, pair, point, tangent


def _rel(got, want):
    return max(np.linalg.norm(g - w) / np.linalg.norm(w) for g, w in zip(got, want))


@pytest.mark.parametrize("k", [1, 3])
def test_stiefel_pair_matches_per_factor_generalized_stiefel(k):
    for seed in range(5):
        gram, pair, point, tangent = _pair_case(k, seed)
        n = gram.shape[0]

        def ref():  # a fresh factor each time: nothing memoized
            return GeneralizedStiefel(n, k, gram)

        moved = pair.retract(point, tangent)
        assert _rel(moved, [ref().retract(p, t) for p, t in zip(point, tangent)]) <= 1e-12
        ambient = _random_ambient(point, seed + 3)
        # at the retracted point (U G from the memo) and at a fresh one
        for at in (moved, point):
            want = [ref().project_tangent(p, a) for p, a in zip(at, ambient)]
            assert _rel(pair.project_tangent(at, ambient), want) <= 1e-12
            want = [ref().transport(s, e, a) for s, e, a in zip(point, at, ambient)]
            assert _rel(pair.transport(point, at, ambient), want) <= 1e-12
            want = [ref().egrad_to_rgrad(p, a) for p, a in zip(at, ambient)]
            assert _rel(pair.egrad_to_rgrad(at, ambient), want) <= 1e-12
        assert pair.feasibility(moved) <= FEAS_TOL
        assert pair.tangency(moved, pair.project_tangent(moved, ambient)) <= TANG_TOL


def test_stiefel_pair_keeps_the_point_of_a_factor_with_zero_tangent():
    _, pair, point, tangent = _pair_case(2, 0)
    for still in (0, 1):
        t = list(tangent)
        t[still] = np.zeros_like(t[still])
        moved = pair.retract(point, tuple(t))
        assert moved[still] is point[still]
        assert moved[1 - still] is not point[1 - still]
        assert pair.feasibility(moved) <= FEAS_TOL
    zero = tuple(np.zeros_like(p) for p in point)
    assert all(a is b for a, b in zip(pair.retract(point, zero), point))


def test_stiefel_pair_projection_sees_in_place_mutation_of_the_retracted_point():
    gram, pair, point, tangent = _pair_case(2, 4)
    moved = pair.retract(point, tangent)
    ambient = _random_ambient(point, 5)
    pair.project_tangent(moved, ambient)   # served from the memo
    moved[0][:, 0] += 0.5                  # same objects, new values
    got = pair.project_tangent(moved, ambient)
    want = [a - _sym(a @ gram @ p.T) @ p for p, a in zip(moved, ambient)]
    assert _rel(got, want) <= 1e-12


def test_stiefel_pair_checks_shapes():
    _, pair, point, _ = _pair_case(2, 0)
    with pytest.raises(DimensionError):
        pair.project_tangent(point, (point[0],))
    with pytest.raises(DimensionError):
        pair.egrad_to_rgrad(point, (point[0], point[1][:1]))
    assert pair.factors[0] is pair.factors[1]
