"""Conjugate-gradient solver checks against closed-form minimizers."""
import dataclasses
import math
import time

import numpy as np
import pytest

import ocds.kods
from ocds.data import synth
from ocds.errors import DegenerateStepError, DomainError, NumericError
from ocds.kernels import KernelSpec
from ocds.manifolds import (
    Euclidean,
    Product,
    Sphere,
    Stiefel,
    tree_all_finite,
    tree_axpy,
    tree_dot,
    tree_leaves,
    tree_scale,
)
from ocds.primal import GodsHyper, train_primal
from ocds.solver import (
    _PROGRESS_RTOL,
    _PROGRESS_WINDOW,
    Objective,
    SolveReport,
    SolverConfig,
    _line_search,
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


# ---------------------------------------------------------------------------
# step-size memory


class _RecordingEuclidean(Euclidean):
    """Euclidean(d) that records every (point, tangent) the line search tries."""

    def __init__(self, d=1):
        super().__init__(d)
        self.trials = []

    def retract(self, point, tangent):
        self.trials.append((tuple(point), tuple(tangent)))
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
    for (x,), (t,) in man.trials:
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


def _ascent_cg_problem():
    # Euclidean(2) from the origin with a made-up gradient: (1, 0) at the
    # origin and (-2, 1) elsewhere. The cost is finite only for x0 >= -2^-7,
    # so the first search halves down to 2^-7. At iterate 1 PR+ gives
    # beta = <g1, g1 - g0> / |g0|^2 = 7 and d1 = -g1 - 7 g0 = (-5, -1), whose
    # slope <g1, d1> = 9 is positive, so the search goes along -g1 = (2, -1).
    def cost(x):
        return 0.25 * float(x[0]) + float(x[1]) if x[0] >= -2.0**-7 else math.inf

    def egrad(x):
        return np.array([1.0, 0.0]) if not x.any() else np.array([-2.0, 1.0])

    return Objective(cost=cost, egrad=egrad)


def _ascent_cg_run():
    man = _RecordingEuclidean(2)
    _, report = minimize(_ascent_cg_problem(), man, np.zeros(2),
                         SolverConfig(max_iters=2, grad_tol=0.0))
    return man.trials, report


def test_a_step_falls_back_to_steepest_descent():
    # the first step and a step whose CG direction is not a descent
    # direction both search along -grad; the CG direction is never tried
    trials, report = _ascent_cg_run()
    assert report.stop_reason == "max_iters" and _non_increasing(report.objective_trace)
    first = [t for x, t in trials if x == (0.0, 0.0)]
    assert first[0] == (-1.0, 0.0)  # -grad at the unit start step
    second = [t for x, t in trials if x == (-(2.0**-7), 0.0)]
    assert len(second) == 1 and second[0][0] / second[0][1] == -2.0  # along -g1 = (2, -1)


def test_the_steepest_descent_fallback_starts_at_the_given_step():
    # the -grad search at iterate 1 starts at 2 x 2^-7, the step the first
    # search accepted
    trials, report = _ascent_cg_run()
    assert report.step_trace == [2.0**-7, 2.0**-6]
    assert [t for x, t in trials if x == (-(2.0**-7), 0.0)] == [(2.0**-5, -(2.0**-6))]


def test_a_step_that_underflows_to_zero_is_a_stall():
    # every move from the origin costs more; a search started at a subnormal
    # halves to 0.0, and a zero step would pass the Armijo test by standing
    # still, after which every later search would start at 0. The search
    # fails instead, which minimize reports as a stall.
    man = Euclidean(1)
    obj = Objective(cost=lambda x: 1.0 if x[0] == 0.0 else 2.0,
                    egrad=lambda x: np.array([1.0]))
    counts = {"retractions": 0, "cost_evals": 0}
    direction = np.array([-1.0])
    assert _line_search(obj, man, np.array([0.0]), direction, 1.0, -1.0, 1e-323, counts) is None
    assert counts == {"retractions": 2, "cost_evals": 2}  # 1e-323, 5e-324, then 0


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
    # takes egrad once at each iterate, so egrad calls minus one is the
    # iterate at which a transport call happens. The run stops at iterate
    # 16 before it needs a direction there.
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
    assert set(transported_in) == {i for i in range(1, 16) if i % 5 != 0}


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
# the one-loop solver against the two-site loop it replaced
#
# _reference_descend and _reference_minimize are the solver as it was before
# minimize became one loop: a gradient site at the start and one after each
# step, and a retry along -grad inside the step. The one-loop rewrite must
# reproduce every run of it bit for bit.


def _reference_descend(obj, manifold, point, f, egrad, grad, direction, step=1.0, counts=None):
    counts = {"retractions": 0, "cost_evals": 0} if counts is None else counts
    for d in ([direction] if direction is not None else []) + [None]:
        d = tree_scale(grad, -1.0) if d is None else d
        slope = tree_dot(egrad, d)
        if slope < 0.0:
            hit = _line_search(obj, manifold, point, d, f, slope, step, counts)
            if hit is not None:
                new_point, new_f, accepted = hit
                return new_point, new_f, d, accepted
    return None


def _reference_minimize(obj, manifold, init, cfg=None):
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    restart_every = sum(leaf.size for leaf in tree_leaves(init))

    point = init
    f = float(obj.cost(point))
    if not np.isfinite(f):
        raise NumericError("objective is not finite at the initial point (iterate 0)")
    egrad = obj.egrad(point)
    if not tree_all_finite(egrad):
        raise NumericError("gradient is not finite at the initial point (iterate 0)")
    grad = manifold.egrad_to_rgrad(point, egrad)
    gnorm = manifold.norm(point, grad)

    trace = [f]
    gtrace = [gnorm]
    steps = []
    counts = {"cost_evals": 1, "retractions": 0}
    stop_reason = "grad_tol" if gnorm <= cfg.grad_tol else "max_iters"
    direction = None

    while stop_reason == "max_iters" and len(steps) < cfg.max_iters:
        start_step = min(1.0, 2.0 * steps[-1]) if steps else 1.0
        hit = _reference_descend(obj, manifold, point, f, egrad, grad, direction,
                                 start_step, counts)
        if hit is None:
            stop_reason = "stall"
            break

        prev_point, prev_grad, prev_gnorm = point, grad, gnorm
        point, f, direction, step = hit
        steps.append(step)

        egrad = obj.egrad(point)
        if not tree_all_finite(egrad):
            raise NumericError(f"gradient is not finite at iterate {len(steps)}")
        grad = manifold.egrad_to_rgrad(point, egrad)
        gnorm = manifold.norm(point, grad)
        trace.append(f)
        gtrace.append(gnorm)

        if gnorm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break
        if (len(steps) >= _PROGRESS_WINDOW
                and trace[-1 - _PROGRESS_WINDOW] - f <= _PROGRESS_RTOL * (trace[0] - f)):
            stop_reason = "progress"
            break

        denom = prev_gnorm * prev_gnorm
        if len(steps) % restart_every == 0 or denom <= 0.0:
            direction = None
            continue
        carried_grad = manifold.transport(prev_point, point, prev_grad)
        diff = tree_axpy(grad, -1.0, carried_grad)
        beta = max(0.0, manifold.inner(point, grad, diff) / denom)
        carried_dir = manifold.transport(prev_point, point, direction)
        direction = tree_axpy(tree_scale(grad, -1.0), beta, carried_dir)

    return point, SolveReport(objective_trace=trace, grad_norm_trace=gtrace,
                              wall_time=time.perf_counter() - start,
                              step_trace=steps, stop_reason=stop_reason,
                              feasibility=manifold.feasibility(point), **counts)


@pytest.fixture
def restarts(monkeypatch):
    """How each reference step chose its direction, in order: "cg" (the
    search along the CG direction succeeded), "first" (the first step),
    "restart" (a later step with no CG direction: the periodic or
    zero-denominator restart), "not_descent" (the CG direction has a
    nonnegative slope) and "cg_failed" (the search along a descent CG
    direction failed); "stall" follows when the -grad search failed too."""
    seen = []
    descend = _reference_descend

    def recording(obj, manifold, point, f, egrad, grad, direction, step=1.0, counts=None):
        hit = descend(obj, manifold, point, f, egrad, grad, direction, step, counts)
        if direction is None:
            seen.append("restart" if seen else "first")
        elif tree_dot(egrad, direction) >= 0.0:
            seen.append("not_descent")
        elif hit is None or hit[2] is not direction:
            seen.append("cg_failed")
        else:
            seen.append("cg")
        if hit is None:
            seen.append("stall")
        return hit

    monkeypatch.setitem(globals(), "_reference_descend", recording)
    return seen


def _assert_same_run(run, reference):
    (point, report), (ref_point, ref_report) = run, reference
    for name in ("objective_trace", "grad_norm_trace", "step_trace", "stop_reason",
                 "cost_evals", "retractions", "grad_evals", "feasibility"):
        assert getattr(report, name) == getattr(ref_report, name), name
    for leaf, ref_leaf in zip(tree_leaves(point), tree_leaves(ref_point), strict=True):
        assert leaf.tobytes() == ref_leaf.tobytes()


def _two_factor_problem():
    # the start point has 5 entries, so CG restarts at iterations 5, 10, 15
    a, _ = _rayleigh_problem(d=3, seed=2)
    obj = Objective(cost=lambda pt: float(pt[0] @ a @ pt[0]) + float(np.sum(pt[1] ** 4)),
                    egrad=lambda pt: (2.0 * (a @ pt[0]), 4.0 * pt[1] ** 3))
    man = Product(Sphere(3), Euclidean(2))
    return obj, man, man.random_point(1), SolverConfig(max_iters=16, grad_tol=0.0)


def _cg_search_fails_problem():
    # Euclidean(2) from the origin with a made-up gradient, 1e-30 e0 at the
    # origin and e0 elsewhere, and cost x0 inside |x0| <= 1 (inf outside).
    # Step 1 moves to x0 = -1e-30. There PR+ gives beta = 1e60 and a
    # descent direction ~ -1e30 e0, whose every trial down to 2^-59 lands
    # outside; -grad = -e0 reaches x0 = -1. From there every -grad trial
    # lands outside, so the run stalls.
    def cost(x):
        return float(x[0]) if abs(x[0]) <= 1.0 else math.inf

    def egrad(x):
        return np.array([1e-30 if x[0] == 0.0 else 1.0, 0.0])

    return Objective(cost=cost, egrad=egrad), Euclidean(2), np.zeros(2), SolverConfig(grad_tol=0.0)


def _null_step_problem():
    obj = Objective(cost=lambda x: 1.0 + 1e-20 * float(x[0]), egrad=lambda x: np.array([1e-20]))
    return obj, Euclidean(1), np.array([0.5]), SolverConfig(grad_tol=0.0)


def _rayleigh_run():
    _, obj = _rayleigh_problem(seed=4)
    return obj, Sphere(5), Sphere(5).random_point(7), None


def _procrustes_run():
    obj, _, _ = _procrustes_problem()
    return obj, Stiefel(6, 3), Stiefel(6, 3).random_point(4), SolverConfig(grad_tol=0.0)


def _quadratic_run():
    obj = Objective(cost=lambda x: float(x @ x), egrad=lambda x: 2.0 * x)
    return obj, Euclidean(3), np.array([1.0, -2.0, 3.0]), None


@pytest.mark.parametrize("problem, stop_reason, events", [
    (_rayleigh_run, "grad_tol", {"first", "cg", "not_descent", "restart"}),
    (_procrustes_run, "progress", {"first", "cg"}),
    (_quadratic_run, "grad_tol", {"first"}),
    (_two_factor_problem, "max_iters", {"first", "restart", "cg"}),
    (_cg_search_fails_problem, "stall", {"first", "cg_failed", "restart", "stall"}),
    (_null_step_problem, "stall", {"first", "stall"}),
])
def test_minimize_reproduces_the_reference_loop(restarts, problem, stop_reason, events):
    obj, man, init, cfg = problem()
    reference = _reference_minimize(obj, man, init, cfg)
    assert reference[1].stop_reason == stop_reason
    assert events <= set(restarts)
    _assert_same_run(minimize(obj, man, init, cfg), reference)


def test_the_reference_problems_hit_each_restart_trigger(restarts):
    # the periodic restart lands on iterations 5, 10 and 15; the constructed
    # CG failure at iterate 1 is rescued by -grad, then the run stalls
    _reference_minimize(*_two_factor_problem())
    assert [i for i, e in enumerate(restarts) if e == "restart"] == [5, 10, 15]
    restarts.clear()
    _, report = _reference_minimize(*_cg_search_fails_problem())
    assert restarts == ["first", "cg_failed", "restart", "stall"]
    assert report.objective_trace == [0.0, -1e-30, -1.0]


def test_a_kods_ring_fit_reproduces_the_reference_loop(monkeypatch, restarts):
    # k = 2 on a ring: PR+ gives non-descent directions along the way
    x = synth("ring", 100, seed=0).features
    args = (x, KernelSpec(family="rbf", sigma=0.2), ocds.kods.KodsHyper(k=2, normalize=False),
            SolverConfig(max_iters=150))
    model, report = ocds.kods.kods_train(*args, seed=0)
    monkeypatch.setattr(ocds.kods, "minimize", _reference_minimize)
    ref_model, ref_report = ocds.kods.kods_train(*args, seed=0)
    assert "not_descent" in restarts
    _assert_same_run(((model.duals.y, model.duals.z), report),
                     ((ref_model.duals.y, ref_model.duals.z), ref_report))
    for name in ("b1", "b2"):
        assert getattr(model, name).tobytes() == getattr(ref_model, name).tobytes()


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
