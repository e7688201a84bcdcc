"""Conjugate-gradient solver checks against closed-form minimizers."""
import dataclasses
import math

import numpy as np
import pytest

import ocds.kods
from ocds.data import synth
from ocds.errors import DegenerateStepError, DomainError, NumericError
from ocds.kernels import KernelSpec
from ocds.manifolds import Euclidean, Product, Sphere, Stiefel, tree_dot
from ocds.primal import GodsHyper, train_primal
from ocds.solver import (
    _PROGRESS_WINDOW,
    Objective,
    SolveReport,
    SolverConfig,
    _descend,
    fd_gradient_check,
    minimize,
)


def _rayleigh_problem(d=5, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a = (a + a.T) / 2.0
    obj = Objective(cost=lambda w: float(w @ a @ w), egrad=lambda w: 2.0 * (a @ w))
    return a, obj


def _procrustes_problem(n=6, k=3, m=4, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    b = rng.standard_normal((k, m))

    def cost(w):
        r = x - w @ b
        return float(np.sum(r * r))

    def egrad(w):
        return 2.0 * (w @ b - x) @ b.T

    u, _, vt = np.linalg.svd(x @ b.T, full_matrices=False)
    w_star = u @ vt
    return Objective(cost=cost, egrad=egrad), w_star, cost


def _non_increasing(trace):
    return all(b <= a for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": -1},
        {"max_iters": 2.5},
        {"max_iters": float("nan")},
        {"max_iters": float("inf")},
        {"max_iters": "10"},
        {"grad_tol": -1e-6},
        {"grad_tol": float("nan")},
        {"grad_tol": float("inf")},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        SolverConfig(**kwargs)


def test_config_has_only_the_iteration_cap_and_tolerance():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["max_iters", "grad_tol"]


# ---------------------------------------------------------------------------
# convergence against closed forms


def test_minimum_eigenvalue_on_the_sphere():
    a, obj = _rayleigh_problem()
    man = Sphere(5)
    point, report = minimize(obj, man, man.random_point(3))
    lam_min = float(np.linalg.eigvalsh(a)[0])
    assert report.converged
    assert report.iterations <= 500
    assert abs(obj.cost(point) - lam_min) <= 1e-6
    assert _non_increasing(report.objective_trace)


def test_orthogonal_regression_matches_svd_solution():
    obj, w_star, cost = _procrustes_problem()
    man = Stiefel(6, 3)
    point, report = minimize(obj, man, man.random_point(4))
    assert report.converged
    assert abs(cost(point) - cost(w_star)) <= 1e-6
    assert man.feasibility(point) <= 1e-10
    assert _non_increasing(report.objective_trace)


def test_a_step_falls_back_to_steepest_descent():
    _, obj = _rayleigh_problem(seed=2)
    man = Sphere(5)
    point = man.random_point(5)
    f, egrad = obj.cost(point), obj.egrad(point)
    grad = man.egrad_to_rgrad(point, egrad)
    for direction in (None, grad):  # no conjugate direction; an ascent direction
        new_point, new_f, taken, _ = _descend(obj, man, point, f, egrad, grad, direction)
        np.testing.assert_array_equal(taken, -grad)
        assert new_f < f and new_f == obj.cost(new_point)


# ---------------------------------------------------------------------------
# step-size memory


class _RecordingEuclidean(Euclidean):
    """Euclidean(1) that records every (point, tangent) the line search tries."""

    def __init__(self):
        super().__init__(1)
        self.trials = []

    def retract(self, point, tangent):
        self.trials.append((float(point[0]), float(tangent[0])))
        return super().retract(point, tangent)


@pytest.mark.parametrize("a", [5.0, 0.75])
def test_each_search_starts_at_twice_the_last_accepted_step(a):
    # cost a/2 x^2. With a = 5 the unit step overshoots to -4x and 0.25 is
    # accepted; with a = 0.75 the unit step is accepted and the start is
    # capped at 1. In one dimension every direction is -grad = -a x, so a
    # trial's step is its tangent over -a x (exact: steps are powers of two).
    man = _RecordingEuclidean()
    obj = Objective(cost=lambda x: 0.5 * a * float(x @ x), egrad=lambda x: a * x)
    _, report = minimize(obj, man, np.array([3.0]), SolverConfig(max_iters=30))
    assert report.iterations >= 5

    searches = {}  # trial steps per search, keyed by the point searched from
    for x, t in man.trials:
        searches.setdefault(x, []).append(t / -(a * x))
    searches = list(searches.values())
    accepted = [steps[-1] for steps in searches]
    assert accepted[: report.iterations] == report.step_trace
    assert searches[0][0] == 1.0
    for prev, steps in zip(accepted, searches[1:]):
        assert steps[0] == min(1.0, 2.0 * prev)


def test_step_trace_holds_one_power_of_two_per_iteration():
    obj, _, _ = _procrustes_problem(seed=3)
    man = Stiefel(6, 3)
    _, report = minimize(obj, man, man.random_point(2), SolverConfig(max_iters=40))
    assert len(report.step_trace) == report.iterations > 0
    for step in report.step_trace:
        assert 0.0 < step <= 1.0 and math.frexp(step)[0] == 0.5


def test_the_steepest_descent_fallback_starts_at_the_given_step():
    _, obj = _rayleigh_problem(seed=2)
    man = Sphere(5)
    point = man.random_point(5)
    f, egrad = obj.cost(point), obj.egrad(point)
    grad = man.egrad_to_rgrad(point, egrad)
    _, new_f, _, step = _descend(obj, man, point, f, egrad, grad, grad, 2.0**-6)
    assert step <= 2.0**-6 and new_f < f


def test_a_step_that_underflows_to_zero_is_a_stall():
    # every move from the origin costs more; a search started at a subnormal
    # halves to 0.0, and a zero step would pass the Armijo test by standing
    # still, after which every later search would start at 0
    man = Euclidean(1)
    obj = Objective(cost=lambda x: 1.0 if x[0] == 0.0 else 2.0,
                    egrad=lambda x: np.array([1.0]))
    point = np.array([0.0])
    egrad = obj.egrad(point)
    assert _descend(obj, man, point, 1.0, egrad, egrad, None, 1e-323) is None


def test_a_kods_ring_fit_spends_few_cost_evaluations_per_iteration(monkeypatch):
    # without step memory every search halves down from 1 again: ~14 cost
    # evaluations per iteration on this fit, against ~2 with it
    calls = []
    build = ocds.kods.build_kods_problem

    def counting_build(*args, **kwargs):
        manifold, obj = build(*args, **kwargs)

        def cost(point):
            calls.append(None)
            return obj.cost(point)

        return manifold, Objective(cost=cost, egrad=obj.egrad)

    monkeypatch.setattr(ocds.kods, "build_kods_problem", counting_build)
    x = synth("ring", 200, seed=0).features
    _, report = ocds.kods.kods_train(
        x, KernelSpec(family="rbf", sigma=0.06), ocds.kods.KodsHyper(k=1, normalize=False),
        SolverConfig(max_iters=200), seed=0,
    )
    assert report.iterations == 200
    assert (len(calls) - 1) / report.iterations <= 4.0


def test_a_kods_fit_reports_the_calls_a_counting_wrapper_sees(monkeypatch):
    calls = {"cost": 0, "egrad": 0, "retract": 0}
    built = []
    build = ocds.kods.build_kods_problem

    def counting_build(*args, **kwargs):
        manifold, obj = build(*args, **kwargs)
        retract = manifold.retract

        def counted(key, fn):
            def call(*a):
                calls[key] += 1
                return fn(*a)
            return call

        manifold.retract = counted("retract", retract)
        built.append(manifold)
        return manifold, Objective(cost=counted("cost", obj.cost),
                                   egrad=counted("egrad", obj.egrad))

    monkeypatch.setattr(ocds.kods, "build_kods_problem", counting_build)
    x = synth("ring", 200, seed=0).features
    model, report = ocds.kods.kods_train(
        x, KernelSpec(family="rbf", sigma=0.06), ocds.kods.KodsHyper(k=2, normalize=False),
        SolverConfig(max_iters=60), seed=0,
    )
    assert report.iterations > 0
    assert (report.cost_evals, report.grad_evals, report.retractions) == (
        calls["cost"], calls["egrad"], calls["retract"])
    assert report.feasibility == built[0].feasibility((model.duals.y, model.duals.z))
    assert report.feasibility <= 1e-8


# ---------------------------------------------------------------------------
# report contract


def test_trace_starts_at_initial_objective():
    a, obj = _rayleigh_problem(seed=4)
    man = Sphere(5)
    init = man.random_point(7)
    _, report = minimize(obj, man, init)
    assert report.objective_trace[0] == obj.cost(init)
    assert len(report.objective_trace) == report.iterations + 1
    assert len(report.grad_norm_trace) == report.iterations + 1
    assert report.wall_time >= 0.0


def test_stationary_start_converges_in_zero_iterations():
    man = Euclidean(3)
    obj = Objective(cost=lambda x: float(x @ x), egrad=lambda x: 2.0 * x)
    point, report = minimize(obj, man, np.zeros(3))
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(point, np.zeros(3))


def test_deterministic_given_same_inputs():
    obj, _, _ = _procrustes_problem(seed=8)
    man = Stiefel(6, 3)
    init = man.random_point(9)
    p1, r1 = minimize(obj, man, init)
    p2, r2 = minimize(obj, man, init)
    np.testing.assert_array_equal(p1, p2)
    assert r1.objective_trace == r2.objective_trace
    assert r1.grad_norm_trace == r2.grad_norm_trace
    assert r1.iterations == r2.iterations


def test_iteration_budget_is_respected():
    a, obj = _rayleigh_problem(seed=5)
    man = Sphere(5)
    _, report = minimize(obj, man, man.random_point(8), SolverConfig(max_iters=3))
    assert report.iterations <= 3
    assert not report.converged


def test_stop_reason_grad_tol_on_a_converging_quadratic():
    man = Euclidean(3)
    obj = Objective(cost=lambda x: float(x @ x), egrad=lambda x: 2.0 * x)
    _, report = minimize(obj, man, np.array([1.0, -2.0, 3.0]))
    assert report.converged and report.iterations > 0
    assert report.stop_reason == "grad_tol"
    _, report = minimize(obj, man, np.zeros(3))
    assert report.iterations == 0 and report.stop_reason == "grad_tol"


def test_stop_reason_max_iters_when_the_budget_runs_out():
    _, obj = _rayleigh_problem(seed=5)
    man = Sphere(5)
    for cap in (0, 3):
        _, report = minimize(obj, man, man.random_point(8), SolverConfig(max_iters=cap))
        assert report.iterations == cap and not report.converged
        assert report.stop_reason == "max_iters"


def test_report_counts_and_convergence_derive_from_the_traces():
    for reason in ("grad_tol", "progress"):
        report = SolveReport(step_trace=[1.0, 0.5], stop_reason=reason)
        assert report.iterations == 2 and report.converged
    for reason in ("max_iters", "stall"):
        report = SolveReport(step_trace=[1.0], stop_reason=reason)
        assert report.iterations == 1 and not report.converged
    with pytest.raises(AttributeError):
        report.iterations = 3
    _, obj = _rayleigh_problem(seed=5)
    _, report = minimize(obj, Sphere(5), Sphere(5).random_point(8))
    assert report.iterations == len(report.step_trace) == len(report.objective_trace) - 1
    assert report.converged == (report.stop_reason in ("grad_tol", "progress"))


def test_report_counts_every_call_the_run_makes():
    # a sphere whose retraction fails on every third call: the count takes
    # in degenerate trials too, which cost nothing to evaluate
    calls = {"cost": 0, "egrad": 0, "retract": 0}
    a, obj = _rayleigh_problem(seed=6)

    class Counting(Sphere):
        def retract(self, point, tangent):
            calls["retract"] += 1
            if calls["retract"] % 3 == 0:
                raise DegenerateStepError("every third trial")
            return super().retract(point, tangent)

    def cost(w):
        calls["cost"] += 1
        return obj.cost(w)

    def egrad(w):
        calls["egrad"] += 1
        return obj.egrad(w)

    man = Counting(5)
    point, report = minimize(Objective(cost=cost, egrad=egrad), man, man.random_point(2))
    assert report.iterations > 0
    assert (report.cost_evals, report.grad_evals, report.retractions) == (
        calls["cost"], calls["egrad"], calls["retract"])
    assert report.grad_evals == report.iterations + 1
    assert report.retractions > report.cost_evals - 1
    assert report.feasibility == man.feasibility(point)


def test_restart_period_is_the_start_points_size():
    # A 3-vector on the sphere and a 2-vector: the period is 5. The solver
    # takes egrad once at the start and once per iteration, so egrad calls
    # minus one is the iteration in which a transport call happens.
    calls = {"egrad": 0}
    transported_in = []

    class Counting(Product):
        def transport(self, start, end, tangent):
            transported_in.append(calls["egrad"] - 1)
            return super().transport(start, end, tangent)

    a, _ = _rayleigh_problem(d=3, seed=2)

    def egrad(pt):
        calls["egrad"] += 1
        return (2.0 * (a @ pt[0]), 4.0 * pt[1] ** 3)

    obj = Objective(cost=lambda pt: float(pt[0] @ a @ pt[0]) + float(np.sum(pt[1] ** 4)),
                    egrad=egrad)
    man = Counting(Sphere(3), Euclidean(2))
    _, report = minimize(obj, man, man.random_point(1), SolverConfig(max_iters=16, grad_tol=0.0))
    assert report.iterations == 16
    assert set(transported_in) == {i for i in range(1, 17) if i % 5 != 0}


# ---------------------------------------------------------------------------
# the relative-decrease stop


def test_procrustes_stops_on_progress_at_the_svd_optimum():
    # a smooth problem: the objective stops moving before the gradient norm
    # reaches a zero tolerance, and the stop is at the optimum
    obj, w_star, cost = _procrustes_problem()
    man = Stiefel(6, 3)
    point, report = minimize(obj, man, man.random_point(4), SolverConfig(grad_tol=0.0))
    assert report.stop_reason == "progress" and report.converged
    assert _PROGRESS_WINDOW < report.iterations < 500
    assert abs(cost(point) - cost(w_star)) <= 1e-6
    trace = report.objective_trace
    assert trace[-1 - _PROGRESS_WINDOW] - trace[-1] <= 1e-4 * (trace[0] - trace[-1])


def test_a_run_capped_below_the_window_never_stops_on_progress():
    # cost a/2 x^2 with a = 1 - 1e-3: every unit step keeps 1e-3 of x, so
    # the first step takes all but 1e-6 of the drop and the rule fires at
    # the first iteration it can, W + 1
    obj = Objective(cost=lambda x: 0.5 * 0.999 * float(x @ x), egrad=lambda x: 0.999 * x)
    cfg = SolverConfig(grad_tol=0.0)
    _, report = minimize(obj, Euclidean(1), np.array([1.0]), cfg)
    assert report.stop_reason == "progress"
    assert report.iterations == _PROGRESS_WINDOW + 1
    for cap in range(_PROGRESS_WINDOW + 1):
        _, capped = minimize(obj, Euclidean(1), np.array([1.0]),
                             SolverConfig(max_iters=cap, grad_tol=0.0))
        assert capped.stop_reason == "max_iters" and capped.iterations == cap


def test_a_capped_fit_reproduces_the_uncapped_trace_prefix():
    x = synth("gaussian", 80, seed=3, d=4).features
    hyper = GodsHyper(variant="gods", k=2)
    full_model, full = train_primal(x, hyper, seed=1)
    assert full.stop_reason == "progress" and full.iterations < 500
    for cap in (1, _PROGRESS_WINDOW, full.iterations - 1, full.iterations):
        model, capped = train_primal(x, hyper, SolverConfig(max_iters=cap), seed=1)
        assert capped.iterations == cap
        assert capped.objective_trace == full.objective_trace[: cap + 1]
        assert capped.grad_norm_trace == full.grad_norm_trace[: cap + 1]
        assert capped.step_trace == full.step_trace[:cap]
    # capped at the stop itself, the run is the uncapped one
    assert capped.stop_reason == "progress"
    assert model.frames.w1.tobytes() == full_model.frames.w1.tobytes()


# ---------------------------------------------------------------------------
# stall and failure handling


def test_line_search_stall_reports_no_convergence():
    # every trial point costs strictly more than the start, so all 60
    # halvings fail and the solver must stop cleanly where it started
    man = Euclidean(1)
    calls = {"n": 0}

    def cost(x):
        calls["n"] += 1
        return 5.0 if calls["n"] == 1 else 6.0

    obj = Objective(cost=cost, egrad=lambda x: np.array([-1.0]))
    init = np.array([2.0])
    point, report = minimize(obj, man, init)
    assert not report.converged
    assert report.stop_reason == "stall"
    assert report.iterations == 0
    assert report.objective_trace == [5.0]
    np.testing.assert_array_equal(point, init)


def test_a_step_that_leaves_the_cost_unchanged_is_a_stall():
    # 1 + 1e-20 x rounds to 1.0 near x = 0, yet -grad is a descent
    # direction: the Armijo bound rounds to f0 as well, so only the strict
    # decrease test keeps the solver from taking null steps to the cap
    man = Euclidean(1)
    obj = Objective(cost=lambda x: 1.0 + 1e-20 * float(x[0]),
                    egrad=lambda x: np.array([1e-20]))
    init = np.array([0.5])
    point, report = minimize(obj, man, init, SolverConfig(grad_tol=0.0))
    assert report.stop_reason == "stall" and not report.converged
    assert report.iterations == 0 and report.objective_trace == [1.0]
    np.testing.assert_array_equal(point, init)


def test_non_finite_cost_at_start_raises():
    man = Euclidean(2)
    obj = Objective(cost=lambda x: float("nan"), egrad=lambda x: x)
    with pytest.raises(NumericError, match=r"iterate 0"):
        minimize(obj, man, np.ones(2))


def test_non_finite_gradient_at_start_raises():
    man = Euclidean(2)
    obj = Objective(
        cost=lambda x: float(x @ x), egrad=lambda x: np.array([np.nan, 0.0])
    )
    with pytest.raises(NumericError, match=r"gradient is not finite at the initial point"):
        minimize(obj, man, np.ones(2))


def test_non_finite_gradient_mid_run_names_the_iterate():
    man = Euclidean(1)
    calls = {"n": 0}

    def egrad(x):
        calls["n"] += 1
        if calls["n"] > 1:
            return np.array([np.inf])
        return 2.0 * x

    obj = Objective(cost=lambda x: float(x @ x), egrad=egrad)
    with pytest.raises(NumericError, match=r"iterate 1"):
        minimize(obj, man, np.array([4.0]))


def test_line_search_steps_over_non_finite_regions():
    # cost blows up away from the origin; backtracking has to shrink
    # through the bad zone instead of crashing
    man = Euclidean(1)

    def cost(x):
        v = float(x[0])
        return v * v if abs(v) < 3.0 else float("inf")

    obj = Objective(cost=cost, egrad=lambda x: 2.0 * x)
    point, report = minimize(obj, man, np.array([2.5]))
    assert report.converged
    assert abs(point[0]) <= 1e-6


# ---------------------------------------------------------------------------
# finite-difference gradient audit


def test_gradient_check_accepts_a_true_gradient():
    obj, _, _ = _procrustes_problem(seed=11)
    w = Stiefel(6, 3).random_point(12)
    assert fd_gradient_check(obj, w) <= 1e-7


def test_gradient_check_flags_a_corrupted_gradient():
    obj, _, _ = _procrustes_problem(seed=13)

    def bad_egrad(w):
        g = obj.egrad(w)
        g = g.copy()
        g[0, 0] += 0.5
        return g

    bad = Objective(cost=obj.cost, egrad=bad_egrad)
    w = Stiefel(6, 3).random_point(14)
    assert fd_gradient_check(bad, w) > 1e-3


def test_gradient_check_walks_tuple_structured_points():
    def cost(p):
        a, b = p
        return float(np.sum(a * a)) + float(np.sum(b * b * b))

    def egrad(p):
        a, b = p
        return (2.0 * a, 3.0 * b * b)

    point = (np.array([[1.0, -2.0]]), np.array([0.5, 1.5]))
    assert fd_gradient_check(Objective(cost, egrad), point) <= 1e-7
