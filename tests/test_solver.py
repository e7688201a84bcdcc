"""Conjugate-gradient solver checks against closed-form minimizers."""
import dataclasses

import numpy as np
import pytest

from ocds.errors import DomainError, NumericError
from ocds.manifolds import Euclidean, Sphere, Stiefel, tree_dot
from ocds.solver import Objective, SolverConfig, _descend, fd_gradient_check, minimize


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
        new_point, new_f, taken = _descend(obj, man, point, f, egrad, grad, direction)
        np.testing.assert_array_equal(taken, -grad)
        assert new_f < f and new_f == obj.cost(new_point)


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
    assert report.iterations == 0
    assert report.objective_trace == [5.0]
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
