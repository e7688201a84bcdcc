"""Hyperplane-pair objectives, gradients, initialization, and training."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ocds.data import l2_normalize, synth
from ocds.errors import DataError, DimensionError, DomainError, NumericError
from ocds.inference import _extremes, classify
from ocds.primal import (
    VARIANTS,
    FramePair,
    GodsHyper,
    TrainedPrimalModel,
    bods_egrad,
    bods_objective,
    build_primal_problem,
    frame_feasibility,
    gods_egrad,
    gods_objective,
    init_frames,
    primal_scores,
    primal_scores_batch,
    train_primal,
)
from ocds.primal import _responses
from ocds.solver import Objective, SolverConfig, fd_gradient_check, minimize


def _pair(w1, b1, w2, b2, r1=None, r2=None):
    return FramePair(
        w1=np.asarray(w1, dtype=np.float64),
        b1=np.asarray(b1, dtype=np.float64),
        w2=np.asarray(w2, dtype=np.float64),
        b2=np.asarray(b2, dtype=np.float64),
        r1=None if r1 is None else np.asarray(r1, dtype=np.float64),
        r2=None if r2 is None else np.asarray(r2, dtype=np.float64),
    )


def _model(variant, w1, b1, w2, b2, r1=None, r2=None, k=None, normalize=False):
    w1 = np.asarray(w1, dtype=np.float64)
    hyper = GodsHyper(
        variant=variant, k=k if k is not None else w1.shape[1], normalize=normalize
    )
    return TrainedPrimalModel(
        frames=_pair(w1, b1, w2, b2, r1, r2),
        hyper=hyper,
        eta_effective=hyper.eta,
        feature_dim=w1.shape[0],
        normalization=normalize,
    )


# ---------------------------------------------------------------------------
# hyperparameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"variant": "nope"},
        {"k": 0},
        {"k": True},
        {"k": False},
        {"eta": 0.0},
        {"nu": 0.0},
        {"lam": -1.0},
        {"p_norm": 0.5},
        {"variant": "bods", "k": 2},
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"nu": float("nan")},
        {"nu": float("inf")},
        {"lam": float("nan")},
        {"lam": float("inf")},
        {"p_norm": float("nan")},
        {"p_norm": float("inf")},
        {"variant": 5},
        {"variant": None},
        {"k": 2.5},
        {"k": "2"},
        {"k": None},
        {"variant": "bods", "k": 1.0},
    ],
)
def test_hyper_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        GodsHyper(**kwargs)


def test_hyper_defaults():
    h = GodsHyper()
    assert (h.variant, h.k, h.eta, h.nu, h.lam, h.p_norm, h.normalize) == (
        "gods", 3, 0.3, 1.0, 1.0, 1.0, True,
    )


# ---------------------------------------------------------------------------
# bods objective


def test_bods_identical_frames_inactive_hinges_give_minus_one():
    # a bias gap of exactly 2 zeroes the coupling term (2^2 - 2*2 = 0)
    # while keeping both hinges slack on a point orthogonal to the frames
    frames = _pair([[1.0], [0.0]], [1.0], [[1.0], [0.0]], [-1.0])
    x = np.array([[0.0, 1.0]])
    hyper = GodsHyper(variant="bods", k=1, normalize=False)
    assert bods_objective(frames, x, hyper) == -1.0


def test_bods_hand_value_single_hinge():
    frames = _pair([[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0])
    x = np.array([[1.0, 0.0]])
    hyper = GodsHyper(variant="bods", k=1, normalize=False)
    assert abs(bods_objective(frames, x, hyper) - 0.045) <= 1e-15


def test_bods_value_is_invariant_to_row_duplication():
    rng = np.random.default_rng(0)
    frames = _pair(rng.standard_normal((3, 1)), [0.2], rng.standard_normal((3, 1)), [-0.1])
    x = rng.standard_normal((5, 3))
    hyper = GodsHyper(variant="bods", k=1, normalize=False)
    v1 = bods_objective(frames, x, hyper)
    v2 = bods_objective(frames, np.vstack([x, x]), hyper)
    assert abs(v1 - v2) <= 1e-12


def test_bods_rejects_empty_data():
    frames = _pair([[1.0]], [0.0], [[1.0]], [0.0])
    with pytest.raises(DataError):
        bods_objective(frames, np.zeros((0, 1)), GodsHyper(variant="bods", k=1))


def _bods_reference(frames, x, hyper):
    """bods value and gradient written out on 1-D vectors, independently of
    the shared frame-pair code."""
    n = x.shape[0]
    w1, w2 = frames.w1[:, 0], frames.w2[:, 0]
    b1, b2 = float(frames.b1[0]), float(frames.b2[0])
    gap = b1 - b2
    h1 = np.maximum(hyper.eta - (x @ w1 + b1), 0.0)
    h2 = np.maximum(hyper.eta + (x @ w2 + b2), 0.0)
    hinge = 0.5 * hyper.nu / n * (float(np.sum(h1 * h1)) + float(np.sum(h2 * h2)))
    value = 0.5 * (gap * gap - 2.0 * gap) - float(w1 @ w2) + hinge
    c = hyper.nu / n
    grad = FramePair(
        w1=(-w2 - c * (x.T @ h1))[:, None],
        b1=np.array([gap - 1.0 - c * float(h1.sum())]),
        w2=(-w1 + c * (x.T @ h2))[:, None],
        b2=np.array([-gap + 1.0 + c * float(h2.sum())]),
    )
    return value, grad, h1, h2


EPS = np.finfo(np.float64).eps


def _assert_close_to(frames, x, hyper, value, grad, names, tol):
    """Value and gradient of the shared code within tol * eps * (1 + |v|)
    of the reference, entry by entry."""
    got = gods_objective(frames, x, hyper)
    assert abs(got - value) <= tol * EPS * (1.0 + abs(value)), (got, value)
    g = gods_egrad(frames, x, hyper)
    for name in names:
        have, want = getattr(g, name), getattr(grad, name)
        assert have.shape == want.shape, name
        err = np.abs(have - want) / (EPS * (1.0 + np.abs(want)))
        assert err.max() <= tol, (name, err.max())


@pytest.mark.parametrize("seed", range(20))
def test_bods_value_and_gradient_bit_equal_the_reference(seed):
    # The shared code sums both hyperplanes' responses in one (2, n) block
    # and the reference in two n-vectors, so the two round differently;
    # over seeds 0-199 the largest difference is 5.7 eps * (1 + |v|).
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
    x = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0)
    hyper = GodsHyper(variant="bods", k=1, eta=rng.uniform(0.1, 1.0),
                      nu=rng.uniform(0.1, 3.0), normalize=False)
    problem = build_primal_problem(x, hyper)
    point = problem.manifold.random_point(rng)
    point = (point[0], rng.normal(0.0, 0.5, 1), point[2], rng.normal(0.0, 0.5, 1))
    frames = problem.unpack(point)

    value, grad, h1, h2 = _bods_reference(frames, x, hyper)
    assert h1.any() and h2.any()  # both hinges are active
    _assert_close_to(frames, x, hyper, value, grad, ("w1", "b1", "w2", "b2"), tol=8.0)


def _loop_reference(frames, x, hyper):
    """Value and gradient of gods, gods_n, gods_o and gods_e, one training
    row at a time, independently of the shared block code."""
    n = x.shape[0]
    q1 = frames.w1 if frames.r1 is None else frames.w1 * frames.r1
    q2 = frames.w2 if frames.r2 is None else frames.w2 * frames.r2
    c = hyper.nu / n
    value = 0.0
    dq1, dq2 = np.zeros_like(q1), np.zeros_like(q2)
    db1, db2 = np.zeros(q1.shape[1]), np.zeros(q2.shape[1])
    for xi in x:
        p1 = xi @ q1 + frames.b1
        p2 = xi @ q2 + frames.b2
        value += 0.5 / n * (float(p1 @ p1) + float(p2 @ p2))
        dq1 += np.outer(xi, p1) / n
        dq2 += np.outer(xi, p2) / n
        db1 += p1 / n
        db2 += p2 / n
        j1, j2 = int(np.argmin(p1)), int(np.argmax(p2))  # ties: lowest index
        h1 = max(hyper.eta - p1[j1], 0.0)
        h2 = max(hyper.eta + p2[j2], 0.0)
        value += 0.5 * hyper.nu / n * (h1 * h1 + h2 * h2)
        dq1[:, j1] -= c * h1 * xi
        db1[j1] -= c * h1
        dq2[:, j2] += c * h2 * xi
        db2[j2] += c * h2
    grad = FramePair(w1=dq1, b1=db1, w2=dq2, b2=db2)
    if hyper.variant == "gods_n":
        # W = Q diag(r): chain rule into Q and r, plus the p-norm penalty.
        p = hyper.p_norm
        dr = []
        for w, r, dq in ((frames.w1, frames.r1, dq1), (frames.w2, frames.r2, dq2)):
            total = float(np.sum(r**p))
            value += 0.5 * hyper.lam * total ** (1.0 / p)
            dr.append((w * dq).sum(axis=0)
                      + 0.5 * hyper.lam * total ** (1.0 / p - 1.0) * r ** (p - 1.0))
        grad = FramePair(w1=dq1 * frames.r1, b1=db1, w2=dq2 * frames.r2, b2=db2,
                         r1=dr[0], r2=dr[1])
    elif hyper.variant in ("gods_o", "gods_e"):
        for name in ("w1", "w2"):
            w = getattr(frames, name)
            gap = w.T @ w - np.eye(w.shape[1])
            value += 0.5 * hyper.lam * float(np.sum(gap * gap))
            setattr(grad, name, getattr(grad, name) + 2.0 * hyper.lam * w @ gap)
    return value, grad


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", ["gods", "gods_n", "gods_o", "gods_e"])
def test_gods_value_and_gradient_match_a_per_row_loop(variant, seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 60)), int(rng.integers(3, 9))
    x = rng.standard_normal((n, d)) * rng.uniform(0.2, 2.0)
    x[:3] = 0.0  # rows whose responses are the intercepts, tied below
    hyper = GodsHyper(variant=variant, k=3, eta=rng.uniform(0.1, 1.0),
                      nu=rng.uniform(0.1, 3.0), lam=rng.uniform(0.1, 2.0),
                      p_norm=rng.uniform(1.0, 3.0), normalize=False)
    problem = build_primal_problem(x, hyper)
    frames = problem.unpack(problem.manifold.random_point(rng))
    # Columns 0 and 1 tie at the lower frame's minimum on the zero rows, and
    # columns 1 and 2 at the upper frame's maximum; both hinges are active
    # there, so the ties decide which column takes the hinge.
    frames.b1 = np.array([-0.2, -0.2, 0.4])
    frames.b2 = np.array([-0.4, 0.1, 0.1])
    names = ("w1", "b1", "w2", "b2", "r1", "r2")[: 6 if variant == "gods_n" else 4]
    value, grad = _loop_reference(frames, x, hyper)
    # Over seeds 0-99 the largest difference is 6.1 eps * (1 + |v|).
    _assert_close_to(frames, x, hyper, value, grad, names, tol=8.0)


# ---------------------------------------------------------------------------
# gods objective


def _hand_frames():
    return _pair([[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0])


def test_gods_hand_value():
    hyper = GodsHyper(variant="gods", k=1, normalize=False)
    v = gods_objective(_hand_frames(), np.array([[1.0, 0.0]]), hyper)
    assert abs(v - 0.545) <= 1e-15


def test_gods_value_nonnegative():
    rng = np.random.default_rng(1)
    for seed in range(5):
        w1 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        w2 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        frames = _pair(w1, rng.standard_normal(2), w2, rng.standard_normal(2))
        x = rng.standard_normal((6, 4))
        assert gods_objective(frames, x, GodsHyper(k=2, normalize=False)) >= 0.0


def test_gods_orthogonal_data_drives_the_objective_to_zero():
    # data in the orthogonal complement of both frames, zero intercepts;
    # with the margin taken to the validity floor the hinge terms vanish
    # to squared-epsilon level and nothing else survives
    w1 = np.eye(4)[:, :1]
    w2 = np.eye(4)[:, 1:2]
    frames = _pair(w1, [0.0], w2, [0.0])
    x = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -2.0]])
    hyper = GodsHyper(variant="gods", k=1, eta=1e-9, normalize=False)
    assert gods_objective(frames, x, hyper) <= 1e-12


def test_gods_e_with_exactly_orthonormal_frames_matches_gods():
    w1 = np.eye(5)[:, :2]
    w2 = np.eye(5)[:, 2:4]
    frames = _pair(w1, [0.1, -0.2], w2, [0.0, 0.3])
    x = np.random.default_rng(2).standard_normal((7, 5))
    plain = gods_objective(frames, x, GodsHyper(variant="gods", k=2, normalize=False))
    soft = gods_objective(
        frames, x, GodsHyper(variant="gods_e", k=2, lam=57.0, normalize=False)
    )
    assert soft == plain


def test_gods_duplication_invariance():
    rng = np.random.default_rng(3)
    w1 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    w2 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    frames = _pair(w1, rng.standard_normal(2), w2, rng.standard_normal(2))
    x = rng.standard_normal((5, 4))
    hyper = GodsHyper(k=2, normalize=False)
    assert abs(
        gods_objective(frames, x, hyper) - gods_objective(frames, np.vstack([x, x]), hyper)
    ) <= 1e-12


def test_gods_permuting_rows_leaves_the_value_unchanged():
    rng = np.random.default_rng(4)
    w1 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    w2 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    frames = _pair(w1, rng.standard_normal(2), w2, rng.standard_normal(2))
    x = rng.standard_normal((12, 5))
    perm = rng.permutation(12)
    hyper = GodsHyper(k=2, normalize=False)
    assert abs(gods_objective(frames, x, hyper) - gods_objective(frames, x[perm], hyper)) <= 1e-12
    g_a = gods_egrad(frames, x, hyper)
    g_b = gods_egrad(frames, x[perm], hyper)
    np.testing.assert_allclose(g_a.w1, g_b.w1, atol=1e-14)
    np.testing.assert_allclose(g_a.b2, g_b.b2, atol=1e-14)


# ---------------------------------------------------------------------------
# gradients


def test_gods_egrad_hand_value_fit_term():
    hyper = GodsHyper(variant="gods", k=1, normalize=False)
    g = gods_egrad(_hand_frames(), np.array([[1.0, 0.0]]), hyper)
    np.testing.assert_array_equal(g.w1, [[1.0], [0.0]])


def test_gods_egrad_zero_data_leaves_only_hinge_bias_terms():
    w1 = np.eye(3)[:, :2]
    w2 = np.eye(3)[:, 1:3]
    frames = _pair(w1, [0.0, 0.0], w2, [0.0, 0.0])
    x = np.zeros((4, 3))
    hyper = GodsHyper(variant="gods", k=2, normalize=False)
    g = gods_egrad(frames, x, hyper)
    np.testing.assert_array_equal(g.w1, np.zeros((3, 2)))
    np.testing.assert_array_equal(g.w2, np.zeros((3, 2)))
    # hinge is active at the lowest-index column with slope eta
    np.testing.assert_array_equal(g.b1, [-0.3, 0.0])
    np.testing.assert_array_equal(g.b2, [0.3, 0.0])


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradients_match_finite_differences(variant):
    rng_data = np.random.default_rng(10)
    x = rng_data.standard_normal((12, 5))
    k = 1 if variant == "bods" else 2
    hyper = GodsHyper(variant=variant, k=k, normalize=False)
    problem = build_primal_problem(x, hyper)
    for trial in range(3):
        point = problem.manifold.random_point(100 + 17 * trial)
        assert fd_gradient_check(problem.objective, point) <= 1e-5


def test_bods_egrad_matches_finite_differences_at_biased_frames():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 3))
    hyper = GodsHyper(variant="bods", k=1, normalize=False)
    problem = build_primal_problem(x, hyper)

    frames = _pair(
        np.array([[0.6], [0.8], [0.0]]), [0.4], np.array([[0.0], [0.6], [-0.8]]), [-0.2]
    )
    assert fd_gradient_check(problem.objective, problem.pack(frames)) <= 1e-5
    g = bods_egrad(frames, x, hyper)
    assert g.w1.shape == (3, 1) and g.b1.shape == (1,)


# ---------------------------------------------------------------------------
# packed points


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_point_is_flat_and_round_trips_without_copies(variant):
    x = np.random.default_rng(3).standard_normal((12, 4))
    k = 1 if variant == "bods" else 2
    problem = build_primal_problem(x, GodsHyper(variant=variant, k=k, normalize=False))
    frames = init_frames(x, k)
    names = ("w1", "b1", "w2", "b2")
    if variant == "gods_n":
        frames = replace(frames, r1=np.array([1.0, 2.0]), r2=np.array([3.0, 4.0]))
        names = ("w1", "r1", "b1", "w2", "r2", "b2")
    point = problem.pack(frames)
    assert len(point) == len(names) == len(problem.manifold.factors)
    assert all(leaf is getattr(frames, name) for leaf, name in zip(point, names))
    back = problem.unpack(point)
    assert all(getattr(back, name) is getattr(frames, name) for name in names)
    grad = problem.objective.egrad(point)
    assert all(isinstance(leaf, np.ndarray) for leaf in grad) and len(grad) == len(names)


def test_gods_n_point_is_a_flat_product_of_frame_scales_and_intercepts():
    problem = build_primal_problem(np.ones((3, 4)), GodsHyper(variant="gods_n", k=2))
    assert [f.name for f in problem.manifold.factors] == [
        "Stiefel(4,2)", "PositiveVector(2)", "Euclidean(2,)",
    ] * 2


# ---------------------------------------------------------------------------
# init_frames


def test_init_identical_points_recover_the_direction():
    x = np.tile(np.array([0.0, -0.6, 0.8]), (3, 1))
    frames = init_frames(x, 1)
    np.testing.assert_allclose(frames.w1[:, 0], [0.0, 0.6, -0.8], atol=1e-12)
    np.testing.assert_array_equal(frames.b1, [0.0])
    np.testing.assert_array_equal(frames.b2, [0.0])


def test_init_deterministic_under_seed():
    x = np.random.default_rng(5).standard_normal((4, 6))  # forces the fallback
    with pytest.warns(UserWarning, match="falling back to random frames"):
        a = init_frames(x, 2, seed=9)
    with pytest.warns(UserWarning, match="falling back to random frames"):
        b = init_frames(x, 2, seed=9)
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)


def test_init_frames_are_orthonormal_and_span_the_selected_points():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 5))
    k = 2
    frames = init_frames(x, k, seed=0)
    eye = np.eye(k)
    assert np.linalg.norm(frames.w1.T @ frames.w1 - eye) <= 1e-12
    assert np.linalg.norm(frames.w2.T @ frames.w2 - eye) <= 1e-12
    order = np.argsort(np.linalg.norm(x, axis=1), kind="stable")
    near = x[order[: 3 * k]]
    far = x[order[-3 * k :]]
    for w, pts in ((frames.w1, near), (frames.w2, far)):
        u, s, _ = np.linalg.svd(pts.T, full_matrices=False)
        basis = u[:, s > 1e-12]
        resid = w - basis @ (basis.T @ w)
        assert np.linalg.norm(resid) <= 1e-10


def test_init_rejects_thin_feature_spaces():
    with pytest.raises(DimensionError):
        init_frames(np.zeros((10, 2)), 3)


def test_init_rejects_empty_data():
    with pytest.raises(DataError):
        init_frames(np.zeros((0, 4)), 1)


# ---------------------------------------------------------------------------
# training


def test_gods_sandwiches_every_training_point():
    x = synth("gaussian", 100, seed=0, d=2, mean=2.0, cov=0.25).features
    model, report = train_primal(x, GodsHyper(variant="gods", k=2), seed=0)
    s1, s2 = primal_scores_batch(model, x)
    assert np.all(s1 > s2)
    assert all(b <= a for a, b in zip(report.objective_trace, report.objective_trace[1:]))


def test_training_is_deterministic():
    x = synth("gaussian", 40, seed=1, d=3, mean=1.0, cov=0.3).features
    cfg = SolverConfig(max_iters=120)
    m1, r1 = train_primal(x, GodsHyper(variant="gods", k=2), cfg=cfg, seed=4)
    m2, r2 = train_primal(x, GodsHyper(variant="gods", k=2), cfg=cfg, seed=4)
    np.testing.assert_array_equal(m1.frames.w1, m2.frames.w1)
    np.testing.assert_array_equal(m1.frames.b2, m2.frames.b2)
    assert r1.objective_trace == r2.objective_trace


def test_training_accepts_paperless_defaults():
    x = synth("gaussian", 30, seed=2, d=4, mean=1.5, cov=0.2).features
    model, _ = train_primal(x, GodsHyper(), cfg=SolverConfig(max_iters=40))
    assert model.hyper.k == 3
    assert model.eta_effective == 0.3
    assert model.normalization


@pytest.mark.parametrize("variant", VARIANTS)
def test_trained_frames_stay_feasible(variant):
    x = synth("gaussian", 50, seed=2, d=4, mean=1.5, cov=0.2).features
    k = 1 if variant == "bods" else 2
    model, report = train_primal(
        x, GodsHyper(variant=variant, k=k), cfg=SolverConfig(max_iters=200), seed=0
    )
    assert frame_feasibility(model) <= 1e-8
    assert all(b <= a for a, b in zip(report.objective_trace, report.objective_trace[1:]))


def test_training_from_the_same_frames_is_order_independent():
    x = synth("gaussian", 40, seed=5, d=4, mean=1.0, cov=0.5).features
    perm = np.random.default_rng(9).permutation(40)
    hyper = GodsHyper(variant="gods", k=2, normalize=False)
    init = init_frames(x, 2, seed=0)
    np.testing.assert_array_equal(init.w1, init_frames(x[perm], 2, seed=0).w1)
    pa = build_primal_problem(x, hyper)
    pb = build_primal_problem(x[perm], hyper)
    cfg = SolverConfig(max_iters=60)
    pt_a, _ = minimize(pa.objective, pa.manifold, pa.pack(init), cfg)
    pt_b, _ = minimize(pb.objective, pb.manifold, pb.pack(init), cfg)
    np.testing.assert_allclose(pa.unpack(pt_a).w1, pb.unpack(pt_b).w1, atol=1e-9)


@pytest.mark.parametrize("p_norm", [2.0, 1.5])
def test_gods_n_scale_underflow_is_a_numeric_error(p_norm):
    # gods_n drives its scales toward the float floor; once sum(r**p)
    # underflows to 0 the p-norm gradient is undefined
    x = synth("gaussian", n=80, d=3).features
    hyper = GodsHyper(variant="gods_n", k=2, p_norm=p_norm)
    with pytest.raises(NumericError, match="underflowed"):
        train_primal(x, hyper, SolverConfig(max_iters=50))


def test_training_rejects_bad_data():
    with pytest.raises(DataError):
        train_primal(np.zeros((0, 3)), GodsHyper())
    with pytest.raises(DataError):
        train_primal(np.array([[1.0, np.nan]]), GodsHyper())
    with pytest.raises(DataError):
        train_primal(np.zeros((5, 0)), GodsHyper(k=1))


def test_gods_e_soft_orthogonality_tightens_with_lambda():
    x = synth("gaussian", 60, seed=3, d=5).features
    resid = []
    for lam in (1.0, 10.0, 100.0):
        model, _ = train_primal(x, GodsHyper(variant="gods_e", k=2, lam=lam), seed=0)
        fr = model.frames
        eye = np.eye(2)
        resid.append(
            max(
                float(np.linalg.norm(fr.w1.T @ fr.w1 - eye)),
                float(np.linalg.norm(fr.w2.T @ fr.w2 - eye)),
            )
        )
    assert resid[0] >= resid[1] >= resid[2]
    assert resid[2] < 1e-2


def test_margin_monotonicity_on_a_fixed_model():
    # a stiff hinge weight pushes training scores past the +-0.3 margins,
    # so re-thresholding the same model sweeps from nearly-all-accepted
    # to none; the count can only shrink as the margin widens
    x = synth("gaussian", 100, seed=0, d=2, mean=2.0, cov=0.25).features
    model, _ = train_primal(x, GodsHyper(variant="gods", k=2, nu=20.0), seed=0)
    s1, s2 = primal_scores_batch(model, x)
    counts = [
        sum(classify(a, b, eta) for a, b in zip(s1, s2))
        for eta in (0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]  # the sweep actually moves


# ---------------------------------------------------------------------------
# scoring


def test_scores_canonical_direction():
    model = _model("gods", [[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0])
    s1, s2 = primal_scores(model, np.array([1.0, 0.0]))
    assert s1 == 1.0
    assert s2 == 0.0


def test_scores_zero_vector_zero_bias():
    model = _model("gods", [[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0])
    s1, s2 = primal_scores(model, np.zeros(2))
    assert s1 == 0.0 and s2 == 0.0


def test_scores_take_min_and_max_over_columns():
    model = _model("gods_e", [[0.7, 0.4]], [0.0, 0.0], [[-0.9, -0.5]], [0.0, 0.0])
    s1, s2 = primal_scores(model, np.array([1.0]))
    assert s1 == 0.4
    assert s2 == -0.5


def test_scores_apply_column_scales():
    model = _model(
        "gods_n", [[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0], r1=[2.0], r2=[3.0]
    )
    s1, s2 = primal_scores(model, np.array([1.0, 1.0]))
    assert s1 == 2.0
    assert s2 == 3.0


@pytest.mark.parametrize("normalize", [False, True])
def test_gods_n_scores_at_the_float_floor_are_the_intercepts(normalize):
    # Training leaves every gods_n model's scales at the smallest normal
    # float. Each response is then far below half an ulp of an intercept of
    # size >= 1e-3, so the scores are exactly (min b1, max b2); however
    # gods_n comes to apply its scales, it must keep this.
    tiny = np.finfo(np.float64).tiny
    rng = np.random.default_rng(0)
    d, k = 5, 3
    w1 = np.linalg.qr(rng.standard_normal((d, k)))[0]
    w2 = np.linalg.qr(rng.standard_normal((d, k)))[0]
    b1, b2 = np.array([0.4, -0.2, 1e-3]), np.array([-0.3, 0.5, -1e-3])
    model = _model("gods_n", w1, b1, w2, b2, r1=np.full(k, tiny), r2=np.full(k, tiny),
                   normalize=normalize)
    x = rng.uniform(-10.0, 10.0, (50, d))
    s1, s2 = primal_scores_batch(model, x)
    assert np.all(s1 == b1.min()) and np.all(s2 == b2.max())
    assert primal_scores(model, x[0]) == (b1.min(), b2.max())


def test_scores_normalize_when_the_model_was_trained_normalized():
    model = _model("gods", [[1.0], [0.0]], [0.1], [[0.0], [1.0]], [-0.1], normalize=True)
    a = primal_scores(model, np.array([2.0, 0.0]))
    b = primal_scores(model, np.array([8.0, 0.0]))
    assert a == b


def test_scores_reject_wrong_dimension():
    model = _model("gods", [[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0])
    with pytest.raises(DimensionError):
        primal_scores(model, np.zeros(3))
    with pytest.raises(DimensionError):
        primal_scores_batch(model, np.zeros((4, 3)))


def test_batch_scores_agree_with_the_scalar_path():
    x = synth("gaussian", 25, seed=7, d=3, mean=1.0, cov=0.4).features
    model, _ = train_primal(
        x, GodsHyper(variant="gods", k=2), cfg=SolverConfig(max_iters=80), seed=1
    )
    s1b, s2b = primal_scores_batch(model, x)
    for i in range(x.shape[0]):
        s1, s2 = primal_scores(model, x[i])
        assert abs(s1 - s1b[i]) <= 1e-12
        assert abs(s2 - s2b[i]) <= 1e-12


def _random_model(variant, d, seed):
    """A model with frames the way training leaves them: orthonormal frames,
    unit columns for bods and gods_o, scales for gods_n."""
    rng = np.random.default_rng(seed)
    k = 1 if variant == "bods" else min(3, d)

    def frame():
        w = np.linalg.qr(rng.standard_normal((d, k)))[0]
        return w * rng.uniform(0.5, 2.0, k) if variant == "gods_e" else w

    scales = (lambda: rng.uniform(0.1, 2.0, k)) if variant == "gods_n" else (lambda: None)
    return _model(variant, frame(), rng.uniform(-1.0, 1.0, k), frame(),
                  rng.uniform(-1.0, 1.0, k), r1=scales(), r2=scales(), normalize=True)


@pytest.mark.filterwarnings("ignore:l2_normalize")
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [3, 20, 60])
@pytest.mark.parametrize("variant", VARIANTS)
def test_normalized_scores_match_the_scores_of_the_normalized_rows(variant, d, seed):
    # Scoring divides the responses by the row norms; the reference scores
    # the l2-normalized rows. The two round differently, by a few eps.
    model = _random_model(variant, d, seed)
    rng = np.random.default_rng(100 + seed)
    q = rng.standard_normal((500, d)) * 10.0 ** rng.integers(-100, 100, (500, 1))
    q[::7] = 0.0
    q[3::11] = -0.0
    q[1::13] = 3e-170   # squared norm underflows
    q[2::17] = -3e160   # squared norm overflows
    q[5::19] = 1e154    # each square is finite, their sum is not
    got = primal_scores_batch(model, q)
    want = _extremes(_responses(model.frames, l2_normalize(q)), model.hyper.k)
    eps = np.finfo(np.float64).eps
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 8.0 * eps * (1.0 + np.abs(w)))


def test_scoring_zero_rows_warns_once_at_the_callers_line():
    model = _random_model("gods", 4, 0)
    q = np.ones((5, 4))
    q[[1, 3]] = 0.0
    with pytest.warns(UserWarning, match=r"l2_normalize: 2 zero row\(s\) left unscaled") as rec:
        primal_scores_batch(model, q)
    assert len(rec) == 1
    assert rec[0].filename == __file__


def test_normalized_scoring_makes_no_copy_of_the_rows():
    model = _random_model("gods", 60, 0)
    q = np.random.default_rng(3).standard_normal((4000, 60))
    primal_scores_batch(model, q)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        primal_scores_batch(model, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < q.nbytes / 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize", [True, False])
def test_scores_reject_non_finite_rows_naming_the_first(normalize, bad):
    model = replace(_random_model("gods", 3, 0), normalization=normalize)
    q = np.ones((6, 3))
    q[4, 2] = bad
    q[5, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"row 4 has non-finite values \(2 such row"):
            primal_scores_batch(model, q)
        with pytest.raises(DataError, match=r"row 0 has non-finite values"):
            primal_scores(model, q[4])


# ---------------------------------------------------------------------------
# feasibility diagnostics


def test_feasibility_gods_e_is_always_zero():
    model = _model("gods_e", np.full((3, 2), 0.5), [0.0, 0.0], np.full((3, 2), -0.5), [0.0, 0.0])
    assert frame_feasibility(model) == 0.0


def test_feasibility_gods_n_flags_nonpositive_scales():
    model = _model(
        "gods_n",
        np.eye(3)[:, :1], [0.0], np.eye(3)[:, 1:2], [0.0],
        r1=[0.0], r2=[1.0], k=1,
    )
    assert frame_feasibility(model) == float("inf")


def test_feasibility_bods_measures_unit_norm_drift():
    model = _model("bods", [[2.0], [0.0]], [0.0], [[1.0], [0.0]], [0.0], k=1)
    assert abs(frame_feasibility(model) - 1.0) <= 1e-15


def test_feasibility_gods_o_measures_column_norm_drift():
    # Column norms 2 and 1 drift by (1, 0): the residual is the norm of the
    # drift in the column norms, not in their squares (which would be 3).
    model = _model("gods_o", [[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0], np.eye(2), [0.0, 0.0], k=2)
    assert frame_feasibility(model) == 1.0


# ---------------------------------------------------------------------------
# model invariants


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1.0])
def test_model_rejects_bad_threshold(eta):
    model = _model("gods", [[1.0], [0.0]], [0.0], [[0.0], [1.0]], [0.0])
    with pytest.raises(DomainError):
        replace(model, eta_effective=eta)


@pytest.mark.parametrize("variant, changes", [
    ("gods", {"w1": [[1.0, 0.0]]}),                 # transposed frame
    ("gods", {"b1": [[0.0]]}),                      # (1, 1) intercept
    ("gods", {"w2": [[0.0], [float("nan")]]}),      # non-finite entry
    ("gods", {"r1": [2.0], "r2": [1.0]}),           # scales on a plain variant
    ("gods_n", {}),                                 # scaled variant without scales
    ("gods_n", {"r1": [2.0]}),                      # one scale vector only
    ("gods_n", {"r1": [2.0, 1.0], "r2": [1.0]}),    # scales of the wrong length
])
def test_model_rejects_inconsistent_frames(variant, changes):
    arrays = {"w1": [[1.0], [0.0]], "b1": [0.0], "w2": [[0.0], [1.0]], "b2": [0.0], **changes}
    with pytest.raises(DimensionError):
        _model(variant, k=1, **arrays)
