"""Riemannian conjugate gradient with Armijo backtracking.

The solver works on any manifold from :mod:`ocds.manifolds`. Search
directions live in the tangent space at the current iterate; the previous
direction and gradient are carried to the new iterate by projection
transport. Step acceptance uses the Armijo sufficient-decrease test, so
the objective trace is non-increasing by construction. Directions follow
the nonnegative Polak-Ribiere (PR+) rule, with one restart rule: the search
goes along -grad, from the same point and start step, at the first
iteration, every ambient dimension (the total size of the start point's
arrays) iterations, when the PR+ denominator is zero, when the PR+
direction is not a descent direction, and when the search along it fails.
Only a failed search along -grad ends the run as a stall.

The search remembers its step size: each Armijo search starts at
min(1, 2 x the last accepted step) rather than at 1, so a run whose
accepted steps are small stops paying for the halvings down to them on
every iteration (Manopt's ``linesearch_adaptive``; Absil, Mahony &
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 4).
The first search starts at 1. Every accepted step is a power of two in
(0, 1], and ``SolveReport.step_trace`` records them. A trial is accepted
only if it also lowers the cost strictly, so a step too small to change a
float64 objective ends the run as a stall rather than as a null step.

Unless a line search stalls, a run stops on the first of three tests,
checked at each iterate, the start included: the gradient norm reaches
``grad_tol`` ("grad_tol"); the last ``_PROGRESS_WINDOW`` iterations
gained at most ``_PROGRESS_RTOL`` of the total drop so far, f[t-W] - f[t]
<= RTOL * (f[0] - f[t]) ("progress"); or the iteration budget runs out
("max_iters"). The primal hinge is nonsmooth and the KODS gradient is
G^-1-scaled, so on both the gradient norm alone rarely ends a fit (Boumal,
*An Introduction to Optimization on Smooth Manifolds*, 2023, ch. 4). The
progress test reads only the objective trace so far, so a run capped at N
iterations reproduces the first N + 1 trace entries of an uncapped run bit
for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateStepError, NumericError, _check_number
from .manifolds import (
    Manifold,
    tree_all_finite,
    tree_axpy,
    tree_copy,
    tree_dot,
    tree_leaves,
    tree_scale,
)

__all__ = ["Objective", "SolverConfig", "SolveReport", "minimize", "fd_gradient_check"]

_ARMIJO_C = 1e-4
# The relative-decrease stop: end the run once the last _PROGRESS_WINDOW
# iterations together gained at most _PROGRESS_RTOL of the total drop.
_PROGRESS_WINDOW = 20
_PROGRESS_RTOL = 1e-4
# A line search halves at most 60 times from its start step. From step 1.0
# that reaches ~8.7e-19, below which no float64 objective can register a
# decrease, so we report a stall.
_MAX_HALVINGS = 60
_FD_STEP = 1e-6


@dataclass
class Objective:
    """Cost and ambient (Euclidean) gradient callables over manifold points."""

    cost: Callable
    egrad: Callable


@dataclass
class SolverConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self):
        _check_number(self.max_iters, "max_iters", 0, integer=True)
        _check_number(self.grad_tol, "grad_tol", 0.0)


@dataclass
class SolveReport:
    objective_trace: list[float] = field(default_factory=list)
    grad_norm_trace: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    step_trace: list[float] = field(default_factory=list)
    # Why the run ended: "grad_tol" (the gradient norm reached grad_tol),
    # "progress" (the last _PROGRESS_WINDOW iterations gained at most
    # _PROGRESS_RTOL of the total drop), "max_iters" (the iteration budget
    # ran out) or "stall" (no descent step was found from the last iterate).
    stop_reason: str = ""
    # Calls the run made: cost evaluations and retractions (line-search
    # trials, degenerate ones included).
    cost_evals: int = 0
    retractions: int = 0
    # manifold.feasibility of the returned point.
    feasibility: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.step_trace)  # each iteration accepts one step

    @property
    def grad_evals(self) -> int:
        return len(self.objective_trace)  # one gradient at each point traced

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("grad_tol", "progress")


def _line_search(obj, manifold, point, direction, f0, slope, step, counts):
    """Backtracking Armijo search along a tangent direction, starting at
    the given step and halving it on each rejection. A trial is accepted
    when its cost passes the Armijo test and is strictly below f0.

    Returns (new_point, new_cost, accepted_step) or None when 60 halvings
    fail to find a strict sufficient decrease, or the step underflows to
    zero. Degenerate retractions and non-finite trial costs count as
    rejections, not errors. Each retraction and cost evaluation is added to
    counts.
    """
    for _ in range(_MAX_HALVINGS):
        if step == 0.0:
            break
        counts["retractions"] += 1
        try:
            candidate = manifold.retract(point, tree_scale(direction, step))
        except DegenerateStepError:
            step *= 0.5
            continue
        counts["cost_evals"] += 1
        fc = float(obj.cost(candidate))
        if np.isfinite(fc) and fc < f0 and fc <= f0 + _ARMIJO_C * step * slope:
            return candidate, fc, step
        step *= 0.5
    return None


def minimize(obj: Objective, manifold: Manifold, init, cfg: SolverConfig | None = None):
    """Minimize obj over the manifold starting from init.

    Returns (point, SolveReport). Each line search starts at min(1, 2 x the
    previous accepted step), the first at 1. A stalled line search is a
    reported condition, not an exception: the best iterate found so far
    comes back with converged=False and stop_reason "stall". Non-finite
    cost or gradient values at an accepted iterate raise NumericError
    naming the iterate. The report counts the cost and gradient
    evaluations and the retractions made, and holds the returned point's
    manifold.feasibility.

    The slope of cost(retract(point, s*d)) at s = 0 is tree_dot(egrad, d):
    the retraction curve leaves with velocity d, so the chain rule pairs the
    ambient gradient with the direction. Only descent directions are
    searched.
    """
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    restart_every = sum(leaf.size for leaf in tree_leaves(init))

    point = init
    f = float(obj.cost(point))
    if not np.isfinite(f):
        raise NumericError("objective is not finite at the initial point (iterate 0)")
    trace: list[float] = []
    gtrace: list[float] = []
    steps: list[float] = []
    counts = {"cost_evals": 1, "retractions": 0}
    stop_reason = ""
    direction = None  # the restart signal: the next search is along -grad

    while True:
        egrad = obj.egrad(point)
        if not tree_all_finite(egrad):
            where = f"iterate {len(steps)}" if steps else "the initial point (iterate 0)"
            raise NumericError(f"gradient is not finite at {where}")
        grad = manifold.egrad_to_rgrad(point, egrad)
        gnorm = manifold.norm(point, grad)
        trace.append(f)
        gtrace.append(gnorm)

        if gnorm <= cfg.grad_tol:
            stop_reason = "grad_tol"
        elif (len(steps) >= _PROGRESS_WINDOW
                and trace[-1 - _PROGRESS_WINDOW] - f <= _PROGRESS_RTOL * (trace[0] - f)):
            stop_reason = "progress"
        elif len(steps) >= cfg.max_iters:
            stop_reason = "max_iters"
        if stop_reason:
            break

        if direction is not None:  # PR+, restarted every restart_every iterations
            denom = prev_gnorm * prev_gnorm
            if len(steps) % restart_every == 0 or denom <= 0.0:
                direction = None
            else:
                carried_grad = manifold.transport(prev_point, point, prev_grad)
                diff = tree_axpy(grad, -1.0, carried_grad)
                beta = max(0.0, manifold.inner(point, grad, diff) / denom)
                carried_dir = manifold.transport(prev_point, point, direction)
                direction = tree_axpy(tree_scale(grad, -1.0), beta, carried_dir)

        start_step = min(1.0, 2.0 * steps[-1]) if steps else 1.0
        # The PR+ direction first, if there is one. If it is not a descent
        # direction or its search fails, restart: -grad from the same point
        # and start step.
        for restart in ((False, True) if direction is not None else (True,)):
            if restart:
                direction = tree_scale(grad, -1.0)
            slope = tree_dot(egrad, direction)
            hit = None
            if slope < 0.0:
                hit = _line_search(obj, manifold, point, direction, f, slope, start_step, counts)
            if hit is not None:
                break
        else:  # neither search found a step: report what we have
            stop_reason = "stall"
            break

        prev_point, prev_grad, prev_gnorm = point, grad, gnorm
        point, f, step = hit
        steps.append(step)

    return point, SolveReport(objective_trace=trace, grad_norm_trace=gtrace,
                              wall_time=time.perf_counter() - start,
                              step_trace=steps, stop_reason=stop_reason,
                              feasibility=manifold.feasibility(point), **counts)


def fd_gradient_check(obj: Objective, point) -> float:
    """Relative error between the analytic ambient gradient and a central
    finite difference of the cost, over every coordinate of the point.

    Returns ||egrad - fd||_F / max(1, ||egrad||_F) with Frobenius norms
    taken over all factors jointly.
    """
    analytic = np.concatenate([np.ravel(g) for g in tree_leaves(obj.egrad(point))])
    work = tree_copy(point)
    # Every coordinate in C order, indexed in place, whatever a leaf's layout.
    coords = [(leaf, j) for leaf in tree_leaves(work) for j in np.ndindex(leaf.shape)]
    fd = np.empty(len(coords))
    for i, (leaf, j) in enumerate(coords):
        orig = leaf[j]
        leaf[j] = orig + _FD_STEP
        f_plus = float(obj.cost(work))
        leaf[j] = orig - _FD_STEP
        f_minus = float(obj.cost(work))
        leaf[j] = orig
        fd[i] = (f_plus - f_minus) / (2.0 * _FD_STEP)
    return float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
