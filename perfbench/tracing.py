"""Per-layer attribution without touching the package's source.

A traced fit is rebuilt from the same public pieces train_primal and
kods_train use (init_frames, build_primal_problem, gram, ensure_pd,
build_kods_problem, minimize, recover_primal), with the Objective and the
Manifold handed to minimize wrapped in timing/counting proxies. The
traced CLI predict swaps the names ocds.cli and ocds.kods look up
(load_csv, load_model, the batch scorers, classify, anomaly_score, gram)
for timed wrappers for the length of one call, and puts them back after.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

import ocds.cli
import ocds.kods
from ocds import (
    DualVars,
    GodsHyper,
    KodsModel,
    Objective,
    TrainedPrimalModel,
    ensure_pd,
    gram,
    init_frames,
    l2_normalize,
    minimize,
    recover_primal,
)
from ocds.errors import DegenerateStepError
from ocds.kods import build_kods_problem
from ocds.primal import build_primal_problem

# Per-layer metric -> unit. Layers a workload does not enter read 0.
UNITS = {
    "solver.iterations": "count",
    "solver.cost_evals": "count",
    "solver.grad_evals": "count",
    "solver.ls_trials_per_iter": "trials/iter",
    "solver.ls_accept_ratio": "ratio",
    "solver.converged": "bool",
    "solver.final_grad_norm": "norm",
    "solver.self_s": "s",
    "manifolds.retract_s": "s",
    "manifolds.retract_calls": "count",
    "manifolds.degenerate_steps": "count",
    "manifolds.rgrad_s": "s",
    "manifolds.transport_s": "s",
    "manifolds.inner_s": "s",
    "manifolds.feasibility": "residual",
    "primal.cost_s": "s",
    "primal.egrad_s": "s",
    "primal.cost_ms_per_call": "ms",
    "primal.init_s": "s",
    "primal.score_s": "s",
    "kods.cost_s": "s",
    "kods.egrad_s": "s",
    "kods.cost_ms_per_call": "ms",
    "kods.init_s": "s",
    "kods.recover_s": "s",
    "kods.score_s": "s",
    "kernels.gram_s": "s",
    "kernels.ensure_pd_s": "s",
    "kernels.jitter": "abs",
    "kernels.gram_bytes": "bytes",
    "kernels.cross_gram_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_rows_per_s": "rows/s",
    "persistence.load_s": "s",
    "persistence.save_s": "s",
    "persistence.model_bytes": "bytes",
    "inference.classify_s": "s",
    "cli.self_s": "s",
    "cli.predict_rows_per_s": "rows/s",
    "trace.fit_overhead_s": "s",
}


# The proxied callees of minimize, each timed and counted on every call.
FIT_CALLEES = ("primal.cost", "primal.egrad", "kods.cost", "kods.egrad",
               "manifolds.retract", "manifolds.rgrad", "manifolds.transport",
               "manifolds.inner")


class Tracer:
    """Accumulated time and call count per span name."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.feasibility = 0.0   # manifold residual at the traced fit's point
        self.jitter = 0.0        # ensure_pd's diagonal jitter (kods)
        self.gram_bytes = 0      # n*n*8 of the training Gram, computed (kods)

    def wrap(self, key: str, fn):
        seconds, calls = self.seconds, self.calls

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
                calls[key] += 1

        return timed

    @contextlib.contextmanager
    def span(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[key] += time.perf_counter() - t0
            self.calls[key] += 1


class TracedManifold:
    """Forwards every attribute to the wrapped manifold; the methods the
    solver calls are timed and counted. Calls the manifold makes to itself
    or its factors are not intercepted, so nothing is counted twice."""

    def __init__(self, manifold, tracer: Tracer):
        self._manifold = manifold
        self._tracer = tracer
        self.egrad_to_rgrad = tracer.wrap("manifolds.rgrad", manifold.egrad_to_rgrad)
        self.transport = tracer.wrap("manifolds.transport", manifold.transport)
        self.inner = tracer.wrap("manifolds.inner", manifold.inner)
        self.norm = tracer.wrap("manifolds.inner", manifold.norm)

    def retract(self, point, tangent):
        with self._tracer.span("manifolds.retract"):
            try:
                return self._manifold.retract(point, tangent)
            except DegenerateStepError:
                self._tracer.calls["manifolds.degenerate"] += 1
                raise

    def __getattr__(self, name):
        return getattr(self._manifold, name)


def _solve(tracer: Tracer, layer: str, manifold, objective: Objective, init, cfg):
    obj = Objective(cost=tracer.wrap(f"{layer}.cost", objective.cost),
                    egrad=tracer.wrap(f"{layer}.egrad", objective.egrad))
    with tracer.span("solver.minimize"):
        point, report = minimize(obj, TracedManifold(manifold, tracer), init, cfg)
    tracer.feasibility = manifold.feasibility(point)
    return point, report


def rebuild_primal(x, hyper: GodsHyper, cfg, seed: int, tracer: Tracer):
    """train_primal, step for step, with the solver's callees proxied."""
    x = np.asarray(x, dtype=np.float64)
    xn = l2_normalize(x) if hyper.normalize else x
    with tracer.span("primal.init"):
        frames0 = init_frames(xn, hyper.k, seed=seed)
        if hyper.variant == "gods_n":
            frames0 = replace(frames0, r1=np.ones(hyper.k), r2=np.ones(hyper.k))
        problem = build_primal_problem(xn, hyper)
        point0 = problem.pack(frames0)
    point, report = _solve(tracer, "primal", problem.manifold, problem.objective,
                           point0, cfg)
    model = TrainedPrimalModel(
        frames=problem.unpack(point), hyper=hyper, eta_effective=hyper.eta,
        feature_dim=x.shape[1], normalization=hyper.normalize,
    )
    return model, report


def rebuild_kods(x, kernel, hyper, cfg, seed: int, tracer: Tracer):
    """kods_train, step for step, with the solver's callees proxied."""
    x = np.asarray(x, dtype=np.float64)
    xn = l2_normalize(x) if hyper.normalize else x
    with tracer.span("kernels.gram"):
        raw = gram(kernel, xn)
    with tracer.span("kernels.ensure_pd"):
        gram_pd, eps = ensure_pd(raw)
    with tracer.span("kods.init"):
        manifold, objective = build_kods_problem(gram_pd, hyper)
        factor = manifold.factors[0]
        n = x.shape[0]
        rng = np.random.default_rng(seed)
        base = np.full((hyper.k, n), 1.0 / (n * hyper.k))
        y0 = factor.polar(base * (1.0 + 1e-3 * rng.standard_normal(base.shape)))
        z0 = factor.polar(base * (1.0 + 1e-3 * rng.standard_normal(base.shape)))
    point, report = _solve(tracer, "kods", manifold, objective, (y0, z0), cfg)
    duals = DualVars(y=point[0], z=point[1])
    with tracer.span("kods.recover"):
        b1, b2 = recover_primal(duals, raw, hyper.eta)
    tracer.jitter = eps
    tracer.gram_bytes = n * n * 8
    model = KodsModel(
        duals=duals, kernel=kernel, support=xn, b1=b1, b2=b2,
        eta_effective=hyper.eta, jitter=eps, normalization=hyper.normalize,
        hyper=hyper,
    )
    return model, report


def fit_calls(tr: Tracer) -> int:
    """Proxied calls made during the traced fit."""
    return sum(tr.calls[k] for k in FIT_CALLEES)


def wrap_cost_s(calls: int = 20000, rounds: int = 7) -> float:
    """Time Tracer.wrap adds to one call: a wrapped no-op minus a bare one,
    the median over `rounds` rounds of `calls` calls each."""
    def noop():
        return None

    timed = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            timed()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def model_arrays(model) -> dict:
    """Every array and scalar that defines a fitted model."""
    if isinstance(model, KodsModel):
        return {"y": model.duals.y, "z": model.duals.z, "b1": model.b1,
                "b2": model.b2, "support": model.support,
                "jitter": np.float64(model.jitter)}
    fr = model.frames
    out = {"w1": fr.w1, "b1": fr.b1, "w2": fr.w2, "b2": fr.b2}
    if fr.r1 is not None:
        out.update(r1=fr.r1, r2=fr.r2)
    return out


def bit_identical(a, b, report_a, report_b) -> bool:
    arrays_a, arrays_b = model_arrays(a), model_arrays(b)
    if arrays_a.keys() != arrays_b.keys():
        return False
    for key, va in arrays_a.items():
        va, vb = np.asarray(va), np.asarray(arrays_b[key])
        if va.shape != vb.shape or va.tobytes() != vb.tobytes():
            return False
    return (report_a.objective_trace == report_b.objective_trace
            and report_a.grad_norm_trace == report_b.grad_norm_trace
            and report_a.iterations == report_b.iterations)


_CLI_SPANS = (
    (ocds.cli, "load_csv", "data.load_csv"),
    (ocds.cli, "load_model", "persistence.load"),
    (ocds.cli, "kods_scores_batch", "kods.score"),
    (ocds.cli, "primal_scores_batch", "primal.score"),
    (ocds.cli, "classify", "inference.classify"),
    (ocds.cli, "anomaly_score", "inference.classify"),
    (ocds.kods, "gram", "kernels.cross_gram"),
)


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in _CLI_SPANS]
    try:
        for mod, name, key in _CLI_SPANS:
            setattr(mod, name, tracer.wrap(key, getattr(mod, name)))
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def layer_metrics(tr: Tracer, report, rows: int, fit_overhead_s: float,
                  model_bytes: int) -> dict:
    s, c = tr.seconds, tr.calls
    cli_children = ("data.load_csv", "persistence.load", "kods.score",
                    "primal.score", "inference.classify")
    trials = c["manifolds.retract"]
    iters = report.iterations
    m = {
        "solver.iterations": iters,
        "solver.cost_evals": c["primal.cost"] + c["kods.cost"],
        "solver.grad_evals": c["primal.egrad"] + c["kods.egrad"],
        "solver.ls_trials_per_iter": trials / iters if iters else 0.0,
        "solver.ls_accept_ratio": iters / trials if trials else 0.0,
        "solver.converged": int(report.converged),
        "solver.final_grad_norm": report.grad_norm_trace[-1],
        "solver.self_s": s["solver.minimize"] - sum(s[k] for k in FIT_CALLEES),
        "manifolds.retract_s": s["manifolds.retract"],
        "manifolds.retract_calls": trials,
        "manifolds.degenerate_steps": c["manifolds.degenerate"],
        "manifolds.rgrad_s": s["manifolds.rgrad"],
        "manifolds.transport_s": s["manifolds.transport"],
        "manifolds.inner_s": s["manifolds.inner"],
        "manifolds.feasibility": tr.feasibility,
        "kernels.gram_s": s["kernels.gram"],
        "kernels.ensure_pd_s": s["kernels.ensure_pd"],
        "kernels.jitter": tr.jitter,
        "kernels.gram_bytes": tr.gram_bytes,
        "kernels.cross_gram_s": s["kernels.cross_gram"],
        "data.load_csv_s": s["data.load_csv"],
        "data.load_csv_rows_per_s": rows / s["data.load_csv"] if s["data.load_csv"] else 0.0,
        "persistence.load_s": s["persistence.load"],
        "persistence.save_s": s["persistence.save"],
        "persistence.model_bytes": model_bytes,
        "inference.classify_s": s["inference.classify"],
        "cli.self_s": s["cli.main"] - sum(s[k] for k in cli_children),
        "cli.predict_rows_per_s": rows / s["cli.main"],
        "trace.fit_overhead_s": fit_overhead_s,
    }
    for layer in ("primal", "kods"):
        cost_calls = c[f"{layer}.cost"]
        m[f"{layer}.cost_s"] = s[f"{layer}.cost"]
        m[f"{layer}.egrad_s"] = s[f"{layer}.egrad"]
        m[f"{layer}.cost_ms_per_call"] = (
            1e3 * s[f"{layer}.cost"] / cost_calls if cost_calls else 0.0)
        m[f"{layer}.init_s"] = s[f"{layer}.init"]
        m[f"{layer}.score_s"] = s[f"{layer}.score"]
    m["kods.recover_s"] = s["kods.recover"]
    return {k: m[k] for k in UNITS}
