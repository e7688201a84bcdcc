"""Kernelized dual model: objective, gradients, recovery, training, scoring."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import ocds.kods
from ocds.data import synth
from ocds.errors import ConditioningError, DataError, DimensionError, DomainError
from ocds.inference import classify
from ocds.kernels import KernelSpec, gram
from ocds.kods import (
    DualVars,
    KodsHyper,
    KodsModel,
    build_kods_problem,
    kods_egrad,
    kods_feasibility,
    kods_objective,
    kods_scores,
    kods_scores_batch,
    kods_train,
    recover_primal,
)
from ocds.solver import SolverConfig, fd_gradient_check


def _rbf_gram(n=6, d=3, seed=0, sigma=0.8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    return gram(KernelSpec(family="rbf", sigma=sigma), x)


def _duals(k, n, seed):
    rng = np.random.default_rng(seed)
    return DualVars(y=rng.standard_normal((k, n)), z=rng.standard_normal((k, n)))


# ---------------------------------------------------------------------------
# hyperparameters


@pytest.mark.parametrize("kwargs", [
    {"k": 0}, {"eta": 0.0}, {"eta": -0.1}, {"lam": -1.0},
    {"eta": float("nan")}, {"eta": float("inf")}, {"lam": float("nan")}, {"lam": float("inf")},
    {"k": 1.5}, {"k": "2"}, {"k": None}, {"k": True}, {"k": False},
])
def test_hyper_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        KodsHyper(**kwargs)


def test_hyper_defaults():
    h = KodsHyper()
    assert (h.k, h.eta, h.lam, h.normalize) == (3, 0.3, 1.0, True)


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_duals_give_zero():
    g = _rbf_gram()
    duals = DualVars(y=np.zeros((2, 6)), z=np.zeros((2, 6)))
    assert kods_objective(duals, g, KodsHyper(k=2)) == 0.0


def test_objective_scalar_hand_value():
    duals = DualVars(y=np.array([[1.0]]), z=np.array([[1.0]]))
    hyper = KodsHyper(k=1, eta=0.3, lam=0.0)
    v = kods_objective(duals, np.array([[1.0]]), hyper)
    assert v == 0.9  # 1/2 + 1 - 0.3*2


def test_objective_nonnegative_without_margin_reward():
    # all four terms are sums of products of squares once eta = lam = 0,
    # provided the Gram entries are themselves nonnegative (true for rbf)
    hyper = KodsHyper(k=2, eta=1e-12, lam=0.0)
    g = _rbf_gram(seed=3)
    for seed in range(10):
        duals = _duals(2, 6, seed)
        assert kods_objective(duals, g, hyper) >= -1e-12


def test_objective_shape_validation():
    g = _rbf_gram()
    with pytest.raises(DimensionError):
        kods_objective(DualVars(y=np.zeros((2, 6)), z=np.zeros((3, 6))), g, KodsHyper())
    with pytest.raises(DimensionError):
        kods_objective(DualVars(y=np.zeros((2, 4)), z=np.zeros((2, 4))), g, KodsHyper())


# ---------------------------------------------------------------------------
# gradient


def test_egrad_vanishes_with_its_own_dual():
    g = _rbf_gram()
    rng = np.random.default_rng(1)
    z = rng.standard_normal((2, 6))
    out = kods_egrad(DualVars(y=np.zeros((2, 6)), z=z), g, KodsHyper(k=2))
    np.testing.assert_array_equal(out.y, np.zeros((2, 6)))
    out2 = kods_egrad(DualVars(y=z, z=np.zeros((2, 6))), g, KodsHyper(k=2))
    np.testing.assert_array_equal(out2.z, np.zeros((2, 6)))


def test_egrad_matches_finite_differences():
    g = _rbf_gram(n=6, seed=4)
    hyper = KodsHyper(k=2, eta=0.3, lam=1.0)
    manifold, objective = build_kods_problem(g, hyper)
    for trial in range(3):
        point = manifold.random_point(50 + 17 * trial)
        assert fd_gradient_check(objective, point) <= 1e-5


@pytest.mark.parametrize("k", [1, 3])
def test_problem_closures_agree_with_the_reference_functions(k):
    # The closures and the public functions read one [Z^2; -Y^2] @ G
    # product, so they agree bit for bit, with or without the block in the
    # closures' memo. A k-row Z^2 @ G product rounds apart from it on some
    # of these points at k = 1.
    g = _rbf_gram(n=9, seed=6)
    hyper = KodsHyper(k=k)
    manifold, objective = build_kods_problem(g, hyper)
    for seed in range(200):
        point = manifold.random_point(seed)
        duals = DualVars(y=point[0], z=point[1])
        want = kods_egrad(duals, g, hyper)
        cold = objective.egrad(point)
        assert objective.cost(point) == kods_objective(duals, g, hyper)
        warm = objective.egrad(point)
        for got in (cold, warm):
            assert got[0].tobytes() == want.y.tobytes()
            assert got[1].tobytes() == want.z.tobytes()


def test_problem_closures_see_a_point_edited_in_place():
    # the memo is looked up by value, so fd_gradient_check's in-place edits
    # of its work point are never served a stale block
    g = _rbf_gram(n=7, seed=2)
    hyper = KodsHyper(k=2)
    manifold, objective = build_kods_problem(g, hyper)
    point = manifold.random_point(8)
    objective.cost(point)
    point[1][0, 3] += 0.25
    duals = DualVars(y=point[0], z=point[1])
    assert objective.cost(point) == kods_objective(duals, g, hyper)
    assert objective.egrad(point)[0].tobytes() == kods_egrad(duals, g, hyper).y.tobytes()


def test_egrad_agrees_with_an_independent_elementwise_loop():
    # identity Gram, no balance penalty: the gradient reduces to a form
    # simple enough to recompute entry by entry in plain Python
    k, n = 2, 5
    duals = _duals(k, n, 7)
    eta = 0.3
    out = kods_egrad(duals, np.eye(n), KodsHyper(k=k, eta=eta, lam=0.0))
    y, z = duals.y, duals.z
    for r in range(k):
        row_y = sum(y[r, j] ** 2 for j in range(n))
        for i in range(n):
            dy = y[r, i] * (2.0 * row_y + 2.0 * z[r, i] ** 2 - 2.0 * eta)
            dz = z[r, i] * (2.0 * y[r, i] ** 2 - 2.0 * eta)
            assert abs(out.y[r, i] - dy) <= 1e-12 * max(1.0, abs(dy))
            assert abs(out.z[r, i] - dz) <= 1e-12 * max(1.0, abs(dz))


# ---------------------------------------------------------------------------
# primal recovery


def test_recover_scalar_hand_value():
    duals = DualVars(y=np.array([[1.0]]), z=np.array([[1.0]]))
    b1, b2 = recover_primal(duals, np.array([[1.0]]), 0.3)
    assert b1[0] == -0.7
    assert b2[0] == 0.7


def test_recover_zero_upper_duals_pin_b2_at_minus_eta():
    g = _rbf_gram(n=4, seed=2)
    duals = DualVars(y=np.zeros((2, 4)), z=np.abs(_duals(2, 4, 3).z))
    _, b2 = recover_primal(duals, g, 0.3)
    np.testing.assert_array_equal(b2, [-0.3, -0.3])


def test_recover_single_column_reduces_to_that_column():
    g = np.array([[2.0]])
    duals = DualVars(y=np.array([[0.5], [1.0]]), z=np.array([[1.0], [0.5]]))
    b1, b2 = recover_primal(duals, g, 0.3)
    np.testing.assert_allclose(b1, [0.3 - 2.0, 0.3 - 0.5], rtol=1e-15)
    np.testing.assert_allclose(b2, [-0.3 + 0.5, -0.3 + 2.0], rtol=1e-15)


# ---------------------------------------------------------------------------
# training


def _train_small(seed=0, **hyper_kw):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((14, 3))
    kernel = KernelSpec(family="rbf", sigma=0.9)
    hyper = KodsHyper(k=hyper_kw.pop("k", 2), normalize=False, **hyper_kw)
    return kods_train(x, kernel, hyper, cfg=SolverConfig(max_iters=150), seed=seed), x


def test_training_is_deterministic():
    (m1, r1), _ = _train_small(seed=5)
    (m2, r2), _ = _train_small(seed=5)
    np.testing.assert_array_equal(m1.duals.y, m2.duals.y)
    np.testing.assert_array_equal(m1.duals.z, m2.duals.z)
    np.testing.assert_array_equal(m1.b1, m2.b1)
    assert r1.objective_trace == r2.objective_trace


def test_trained_duals_stay_feasible():
    (model, report), _ = _train_small()
    assert kods_feasibility(model) <= 1e-8
    # The same residual as the training manifold over the jittered Gram.
    g = gram(model.kernel, model.support) + model.jitter * np.eye(model.support.shape[0])
    manifold, _ = build_kods_problem(g, model.hyper)
    assert kods_feasibility(model) == manifold.feasibility((model.duals.y, model.duals.z))
    assert all(b <= a for a, b in zip(report.objective_trace, report.objective_trace[1:]))


def test_every_training_point_lands_inside_both_margins():
    (model, _), x = _train_small()
    s1, s2 = kods_scores_batch(model, x)
    eta = model.eta_effective
    assert np.all(s1 >= eta)
    assert np.all(s2 <= -eta)
    # the intercept construction puts at least one point on each margin, to
    # within one ulp of the larger of eta and the intercept
    assert s1.min() - eta <= np.spacing(max(eta, np.abs(model.b1).max()))
    assert -eta - s2.max() <= np.spacing(max(eta, np.abs(model.b2).max()))


@pytest.mark.parametrize("kind, params, sigma, normalize", [
    ("ring", {}, 0.2, False), ("gaussian", {"d": 5}, 0.5, True),
])
def test_the_training_matrix_scored_as_one_batch_is_accepted(kind, params, sigma, normalize):
    # Intercepts read off a product other than the scorer's left a training
    # row a few ulp outside a margin in several of these fits.
    for seed in range(8):
        x = synth(kind, 300, seed=seed, **params).features
        for k in (2, 3):
            model, _ = kods_train(x, KernelSpec(family="rbf", sigma=sigma),
                                  KodsHyper(k=k, normalize=normalize),
                                  cfg=SolverConfig(max_iters=80), seed=seed)
            s1, s2 = kods_scores_batch(model, x)
            assert classify(s1, s2, model.eta_effective).all(), (seed, k)


def test_training_accepts_the_benchmark_defaults():
    rng = np.random.default_rng(12)
    x = np.abs(rng.standard_normal((12, 4)))
    model, _ = kods_train(
        x, KernelSpec(family="polynomial", degree=3), KodsHyper(),
        cfg=SolverConfig(max_iters=60),
    )
    assert model.hyper.k == 3
    assert model.eta_effective == 0.3
    assert model.kernel.degree == 3


def test_training_validation_errors():
    kernel = KernelSpec(family="rbf", sigma=1.0)
    with pytest.raises(DataError):
        kods_train(np.zeros((0, 2)), kernel, KodsHyper())
    with pytest.raises(DataError):
        kods_train(np.array([[np.inf, 0.0]]), kernel, KodsHyper())
    with pytest.raises(DimensionError):
        kods_train(np.zeros((2, 2)), kernel, KodsHyper(k=3), seed=0)


def test_training_rejects_zero_feature_columns():
    # a zero-width Gram would be all ones and fit a constant model
    with pytest.raises(DataError):
        kods_train(np.zeros((5, 0)), KernelSpec(), KodsHyper(k=1))


@pytest.mark.parametrize("kernel, k", [
    (KernelSpec(family="linear"), 3),
    (KernelSpec(family="polynomial", degree=1), 4),
], ids=["linear-k3", "polynomial-degree-1-k4"])
def test_training_rejects_k_above_the_gram_rank(kernel, k):
    # On 2-D rows the Gram has rank 2 (linear) or 3 (x.y + 1), so there is
    # no start point with k independent components: an input error, not a
    # numeric one.
    x = np.random.default_rng(0).standard_normal((30, 2))
    with pytest.raises(DataError, match=rf"k={k} exceeds the rank of the {kernel.family} kernel"):
        kods_train(x, kernel, KodsHyper(k=k))


def test_training_propagates_gram_conditioning_failures():
    x = np.zeros((3, 2))
    with pytest.raises(ConditioningError):
        kods_train(x, KernelSpec(family="linear"), KodsHyper(k=1, normalize=False))


@pytest.mark.parametrize("k", [1, 3])
def test_fit_solves_against_the_gram_factor_once_per_gradient(k, monkeypatch):
    # Y and Z share one solve with 2K right-hand sides: one cho_solve at the
    # start point and one per accepted step, not one per factor
    calls = []
    cho_solve = scipy.linalg.cho_solve

    def counting(*args, **kwargs):
        calls.append(None)
        return cho_solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve", counting)
    x = synth("ring", 200, seed=0).features
    _, report = kods_train(x, KernelSpec(family="rbf", sigma=0.06),
                           KodsHyper(k=k, normalize=False),
                           cfg=SolverConfig(max_iters=40))
    assert report.iterations > 0
    assert len(calls) == report.iterations + 1


def test_jitter_is_recorded_on_the_model():
    (model, _), _ = _train_small()
    assert model.jitter >= 0.0
    assert model.normalization is False


# ---------------------------------------------------------------------------
# scoring


def _scalar_model(y, z, b1, b2):
    return KodsModel(
        duals=DualVars(y=np.asarray(y, dtype=np.float64), z=np.asarray(z, dtype=np.float64)),
        kernel=KernelSpec(family="linear"),
        support=np.array([[1.0]]),
        b1=np.asarray(b1, dtype=np.float64),
        b2=np.asarray(b2, dtype=np.float64),
        eta_effective=0.3,
        jitter=0.0,
        normalization=False,
        hyper=KodsHyper(k=1, normalize=False),
    )


def test_scores_scalar_hand_value():
    model = _scalar_model([[1.0]], [[1.0]], [-0.7], [0.7])
    s1, s2 = kods_scores(model, np.array([1.0]))
    assert abs(s1 - 0.3) <= 1e-15  # k(x, x) = 1 against the lone support point
    assert abs(s2 - (-0.3)) <= 1e-15


def test_scores_zero_upper_duals_return_max_intercept():
    model = _scalar_model([[0.0]], [[1.0]], [-0.7], [0.25])
    _, s2 = kods_scores(model, np.array([2.0]))
    assert s2 == 0.25


def test_batch_scores_match_a_scalar_loop():
    (model, _), x = _train_small()
    s1b, s2b = kods_scores_batch(model, x)
    for i in range(x.shape[0]):
        s1, s2 = kods_scores(model, x[i])
        assert abs(s1 - s1b[i]) <= 1e-12
        assert abs(s2 - s2b[i]) <= 1e-12


def _random_model(n_support, k=1, seed=0):
    rng = np.random.default_rng(seed)
    return KodsModel(
        duals=DualVars(y=rng.standard_normal((k, n_support)) / n_support,
                       z=rng.standard_normal((k, n_support)) / n_support),
        kernel=KernelSpec(family="rbf", sigma=0.06),
        support=rng.uniform(-1.0, 1.0, (n_support, 2)),
        b1=rng.standard_normal(k),
        b2=rng.standard_normal(k),
        eta_effective=0.3,
        jitter=0.0,
        normalization=False,
        hyper=KodsHyper(k=k, normalize=False),
    )


def test_batch_scores_are_the_scores_of_each_chunk():
    model = _random_model(40, k=2)
    chunk = ocds.kods._SCORE_CHUNK // 40  # query rows per chunk
    x = np.random.default_rng(1).uniform(-1.0, 1.0, (2 * chunk + 5, 2))
    s1, s2 = kods_scores_batch(model, x)
    for i in range(0, x.shape[0], chunk):
        c1, c2 = kods_scores_batch(model, x[i:i + chunk])
        assert s1[i:i + chunk].tobytes() == c1.tobytes()
        assert s2[i:i + chunk].tobytes() == c2.tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_batch_scores_match_the_support_major_formula(k):
    # The per-support-row sums may be added in another order than
    # z^2 @ K(support, x) takes, so they agree to a few ulp, not bitwise.
    # Unit-scale duals and a wide kernel keep the sums as large as the
    # intercepts, so their rounding shows in the scores.
    rng = np.random.default_rng(k)
    model = replace(_random_model(600, k=k, seed=k), kernel=KernelSpec(family="rbf", sigma=0.3),
                    duals=DualVars(y=rng.standard_normal((k, 600)) / 20.0,
                                   z=rng.standard_normal((k, 600)) / 20.0))
    x = np.random.default_rng(4).uniform(-1.0, 1.0, (3000, 2))
    kxt = gram(model.kernel, model.support, x)
    z2, y2 = model.duals.z ** 2, model.duals.y ** 2
    w1 = (z2 @ kxt + model.b1[:, None]).min(axis=0)
    w2 = (-(y2 @ kxt) + model.b2[:, None]).max(axis=0)
    s1, s2 = kods_scores_batch(model, x)
    eps = np.finfo(np.float64).eps
    for got, want in ((s1, w1), (s2, w2)):
        assert np.all(np.abs(got - want) <= 4.0 * eps * (1.0 + np.abs(want)))


def test_an_empty_batch_scores_to_two_empty_arrays():
    model = _random_model(20, k=2)
    s1, s2 = kods_scores_batch(model, np.empty((0, 2)))
    assert s1.shape == (0,) and s2.shape == (0,)


def test_a_model_without_support_rows_scores_its_intercepts():
    model = replace(_random_model(1, k=2), support=np.empty((0, 2)),
                    duals=DualVars(y=np.empty((2, 0)), z=np.empty((2, 0))))
    s1, s2 = kods_scores_batch(model, np.ones((3, 2)))
    assert s1.tolist() == [model.b1.min()] * 3
    assert s2.tolist() == [model.b2.max()] * 3


def test_normalized_scoring_warns_about_zero_rows_at_the_callers_line():
    model = replace(_random_model(20, k=2), normalization=True)
    x = np.ones((4, 2))
    x[2] = 0.0
    with pytest.warns(UserWarning, match=r"l2_normalize: 1 zero row\(s\) left unscaled") as rec:
        kods_scores_batch(model, x)
    assert len(rec) == 1
    assert rec[0].filename == __file__


def test_batch_scoring_never_holds_the_whole_cross_gram():
    model = _random_model(600)
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (20000, 2))
    full_gram = 600 * 20000 * 8  # 96 MB
    tracemalloc.start()
    try:
        kods_scores_batch(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_gram / 2


@pytest.mark.parametrize("n, m", [(600, 1000), (40, 7000), (5000, 60)])
def test_scoring_makes_one_cdist_call_per_chunk(monkeypatch, n, m):
    import scipy.spatial.distance

    real, calls = scipy.spatial.distance.cdist, []

    def counting(xa, xb, *args, **kwargs):
        calls.append(xa.shape[0])
        return real(xa, xb, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial.distance, "cdist", counting)
    kods_scores_batch(_random_model(n), np.random.default_rng(3).uniform(-1.0, 1.0, (m, 2)))
    step = ocds.kods._SCORE_CHUNK // n
    assert len(calls) == -(-m // step)
    assert sum(calls) == m


def test_scores_normalize_when_the_model_did():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 3))
    model, _ = kods_train(
        x, KernelSpec(family="rbf", sigma=0.7), KodsHyper(k=2),
        cfg=SolverConfig(max_iters=80),
    )
    # A power-of-two scale normalizes to the same bits, so the scores must
    # agree exactly; any other scale can move the input by an ulp.
    v = np.array([0.3, -0.4, 0.5])
    assert kods_scores(model, v) == kods_scores(model, 4.0 * v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize", [True, False])
def test_scores_reject_non_finite_rows_naming_the_first(normalize, bad):
    # Unnormalized, an inf row has an rbf kernel of 0 against every support
    # row, so it would score (b1, b2) instead of failing.
    model = replace(_random_model(20, k=2), normalization=normalize)
    x = np.ones((6, 2))
    x[4, 1] = bad
    x[5, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"row 4 has non-finite values \(2 such row"):
            kods_scores_batch(model, x)
        with pytest.raises(DataError, match=r"row 0 has non-finite values"):
            kods_scores(model, x[4])


def test_scores_dimension_validation():
    model = _scalar_model([[1.0]], [[1.0]], [-0.7], [0.7])
    with pytest.raises(DimensionError):
        kods_scores(model, np.zeros(2))
    with pytest.raises(DimensionError):
        kods_scores_batch(model, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# model invariants


@pytest.mark.parametrize("field, value", [
    ("eta_effective", float("nan")),
    ("eta_effective", -1.0),
    ("jitter", float("nan")),
    ("jitter", float("inf")),
    ("jitter", -1e-12),
])
def test_model_rejects_bad_scalars(field, value):
    model = _scalar_model([[1.0]], [[1.0]], [-0.7], [0.7])
    with pytest.raises(DomainError):
        replace(model, **{field: value})


@pytest.mark.parametrize("y, b1", [
    ([[1.0, 0.0]], [-0.7]),         # two dual columns over one support row
    ([[1.0], [1.0]], [-0.7]),       # two dual rows for k = 1
    ([[1.0]], [[-0.7]]),            # (1, 1) intercept
    ([[float("nan")]], [-0.7]),     # non-finite dual
])
def test_model_rejects_inconsistent_duals(y, b1):
    with pytest.raises(DimensionError):
        _scalar_model(y, [[1.0]], b1, [0.7])


def test_model_rejects_a_flat_support_set():
    model = _scalar_model([[1.0]], [[1.0]], [-0.7], [0.7])
    with pytest.raises(DimensionError):
        replace(model, support=np.array([1.0]))
