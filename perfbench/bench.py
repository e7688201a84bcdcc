"""Workloads, end-to-end measurement and the correctness gate.

Everything here calls the package's public entry points from outside:
train_primal, kods_train, the batch scorers, save_model/load_model and
ocds.cli.main(["predict", ...]). The traced run's proxies live in
tracing.py.
"""
from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

import ocds
import ocds.cli
from ocds import (
    GodsHyper,
    KernelSpec,
    KodsHyper,
    SolverConfig,
    anomaly_score,
    classify,
    compute_metrics,
    kods_scores_batch,
    kods_train,
    load_model,
    primal_scores_batch,
    save_model,
    synth,
    train_primal,
)
from ocds.data import Dataset, write_csv
from ocds.kods import kods_feasibility
from ocds.primal import frame_feasibility

import tracing

# Feasibility residual a returned point may carry. QR and the generalized
# polar map both land at ~1e-15 here; 1e-8 leaves room for cond(G).
FEASIBILITY_TOL = 1e-8
# The determinism check repeats each run's first fit under this iteration
# cap; its objective trace must equal the full fit's first entries bit for
# bit. The traced run repeats the full fit.
REPEAT_ITERS = 25
# A shared host runs the same work 10-50% slower for seconds at a time, so
# set-up and batch scoring are sampled in slices spread over the run, not
# at one moment. A slice repeats the set-up for SETUP_SLICE_S (at least
# once), then batch scoring for SCORE_SLICE_S. The set-up repeats for
# SETUP_FIRST_S before the first fit; slices run for AFTER_FIT_S after
# every fit, then for FINAL_S or until --seconds have passed since the
# first fit began.
SETUP_FIRST_S = 1.0
SETUP_SLICE_S = 0.1
SCORE_SLICE_S = 0.5
AFTER_FIT_S = 1.0
FINAL_S = 2.0


@dataclass(frozen=True)
class Spec:
    """One workload: a model family, its training size and how much each
    run fits. Sizes are the reference ones; the self-test shrinks them."""

    name: str
    family: str                 # "gods", "gods_n" or "kods"
    n: int                      # training rows per dataset
    d: int = 2                  # feature dimension (gaussian data)
    datasets: int = 1           # distinct training sets fitted per run
    holdout: int = 1000         # held-out rows per class, per dataset


# Every run fits `datasets` seed-derived training sets, scores the first
# one's held-out rows in batches and predicts them once through the CLI.
# See README.md for why each workload and size.
WORKLOADS = {
    s.name: s
    for s in (
        Spec("gods-fit", "gods", n=2000, d=60, datasets=10, holdout=2000),
        Spec("gods_n-fit", "gods_n", n=500, d=20, datasets=2, holdout=500),
        Spec("kods-fit", "kods", n=600, datasets=3, holdout=10000),
    )
}

KERNEL = KernelSpec(family="rbf", sigma=0.06)
KODS_HYPER = KodsHyper(k=1, normalize=False)

# Unit of every metric a run can emit.
UNITS = {
    "setup_s": "s", "fit_s": "s", "objective_drop": "objective", "auc": "auc",
    "best_f1": "f1", "score_rows_per_s": "rows/s", "peak_rss_mb": "MB",
}
UNITS.update(tracing.UNITS)


def _seed(seed: int, *keys) -> int:
    """Independent stream seed for one input of one workload."""
    words = [seed] + [zlib.crc32(str(k).encode()) for k in keys]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


# ---------------------------------------------------------------- results

@dataclass
class Result:
    workload: str
    trace: int
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, samples)
    info: dict = field(default_factory=dict)      # printed, not in the contract line

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def guard(self, what: str):
        """An exception inside the block counts as one failed check; the
        run goes on."""
        try:
            yield
        except Exception as exc:  # the gate reports failures, never crashes
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def put(self, name: str, values) -> None:
        values = [float(v) for v in values]
        value = statistics.median(values) if values else 0.0
        self.metrics[name] = (value, len(values))

    def contract_line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, (v, _) in self.metrics.items()},
        }


def merge_lines(results) -> dict:
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in results:
        one = r.contract_line()
        line["correct"] = line["correct"] and one["correct"]
        line["attempted"] += one["attempted"]
        line["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            line["metrics"][f"{r.workload}/{k}"] = v
    return line


def print_result(res: Result) -> None:
    mode = "traced" if res.trace else "untraced"
    print(f"== {res.workload} ({mode}): {res.attempted - res.failed}/{res.attempted} "
          f"checks passed, fail_ratio {res.failed / max(res.attempted, 1):.3g}")
    for what in res.failures:
        print(f"   FAILED: {what}")
    for k, (v, n) in res.metrics.items():
        print(f"   {k:28s} {v:<22.10g} {UNITS[k]:12s} n={n}")
    for k, v in res.info.items():
        print(f"   [{k}] {v}")


@contextlib.contextmanager
def workdir(root: Path):
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def warm_up() -> float:
    """Touch every BLAS/LAPACK routine the workloads use, so the first
    call's one-time cost stays out of every timed region. Returns its time."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    spd = a @ a.T + 64.0 * np.eye(64)
    np.linalg.qr(a)
    np.linalg.cholesky(spd)
    np.linalg.eigh(spd)
    np.linalg.eigh(spd[:1, :1])
    scipy.linalg.cho_solve(scipy.linalg.cho_factor(spd, lower=True), a)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    """Training rows plus a held-out set labelled in-class (True) or not."""

    train: np.ndarray
    held: np.ndarray
    truth: np.ndarray
    fit_seed: int


def _hole(n: int, seed: int) -> np.ndarray:
    # Uniform over the disc inside the ring, as the ring acceptance test draws it.
    rng = np.random.default_rng(seed)
    radius = 0.7 * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def make_dataset(spec: Spec, seed: int, i: int) -> Inputs:
    s = lambda role: _seed(seed, spec.name, i, role)  # noqa: E731
    m = spec.holdout
    if spec.family == "kods":
        train = synth("ring", spec.n, seed=s("train")).features
        inside = synth("ring", m, seed=s("held")).features
        outside = _hole(m, s("anomaly"))
    else:
        g = dict(d=spec.d, mean=2.0)
        train = synth("gaussian", spec.n, seed=s("train"), cov=0.25, **g).features
        inside = synth("gaussian", m, seed=s("held"), cov=0.25, **g).features
        outside = synth("gaussian", m, seed=s("anomaly"), cov=1.0, **g).features
    held = np.vstack([inside, outside])
    truth = np.r_[np.ones(m, dtype=bool), np.zeros(m, dtype=bool)]
    return Inputs(train=train, held=held, truth=truth, fit_seed=s("fit"))


def fit(spec: Spec, data: Inputs, cfg: SolverConfig | None = None):
    """One fit with the library defaults, or with `cfg`."""
    if spec.family == "kods":
        return kods_train(data.train, KERNEL, KODS_HYPER, cfg, seed=data.fit_seed)
    return train_primal(data.train, GodsHyper(variant=spec.family, k=3), cfg,
                        seed=data.fit_seed)


def timed_fit(spec: Spec, data: Inputs):
    t0 = time.perf_counter()
    model, report = fit(spec, data)
    return data, model, report, time.perf_counter() - t0


def score_batch(model, x):
    if isinstance(model, ocds.KodsModel):
        return kods_scores_batch(model, x)
    return primal_scores_batch(model, x)


def feasibility(model) -> float:
    if isinstance(model, ocds.KodsModel):
        return kods_feasibility(model)
    return frame_feasibility(model)


@dataclass
class Setup:
    datasets: list
    csv: Path             # the first dataset's held-out rows, no labels


def set_up(spec: Spec, seed: int, work: Path) -> Setup:
    """Generate the run's inputs and write the CSV the CLI predicts."""
    datasets = [make_dataset(spec, seed, i) for i in range(spec.datasets)]
    csv = work / f"{spec.name}-held.csv"
    write_csv(Dataset(features=datasets[0].held, labels=None), csv)
    return Setup(datasets=datasets, csv=csv)


# ---------------------------------------------------------------- metrics

def best_f1(scores: np.ndarray, truth: np.ndarray) -> float:
    """Best F1 of the in-class prediction `score <= cut` over every distinct
    cut, as bench-uci's sweep defines it, from sorted cumulative counts."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    t = truth[order]
    tp = np.cumsum(t)
    fp = np.cumsum(~t)
    last = np.r_[np.flatnonzero(np.diff(s) != 0.0), s.size - 1]
    tp, fp = tp[last], fp[last]
    fn = int(t.sum()) - tp
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    return float(f1.max(initial=0.0))


def quality(model, data_held: np.ndarray, truth: np.ndarray):
    s1, s2 = score_batch(model, data_held)
    eta = model.eta_effective
    scores = np.array([anomaly_score(a, b, eta) for a, b in zip(s1, s2)])
    preds = np.array([classify(a, b, eta) for a, b in zip(s1, s2)])
    auc = compute_metrics(preds, truth, scores=scores).auc
    return auc, best_f1(scores, truth)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_predict(model_path: Path, csv_path: Path, out_path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ocds.cli.main(["predict", "--model", str(model_path),
                              "--data", str(csv_path), "--out", str(out_path)])


def check_predict_output(res: Result, out_path: Path, model, x: np.ndarray) -> None:
    """The CLI output has one row per input row and agrees with classify on
    the batch scores, row for row."""
    with res.guard("predict output"):
        lines = out_path.read_text().splitlines()
        if not res.check(len(lines) == x.shape[0] + 1,
                         f"predict wrote {len(lines) - 1} rows for {x.shape[0]} inputs"):
            return
        s1, s2 = score_batch(model, x)
        eta = model.eta_effective
        bad = 0
        for i, line in enumerate(lines[1:]):
            a, b, _, label = line.split(",")
            want = "in-class" if classify(s1[i], s2[i], eta) else "anomaly"
            if label != want or float(a) != float(s1[i]) or float(b) != float(s2[i]):
                bad += 1
        res.check(bad == 0, f"predict output disagrees with classify on {bad} rows")


def check_model(res: Result, model, report, work: Path, tag: str) -> None:
    """Finite objective, a feasible point, and save -> load -> save of the
    model byte-identical."""
    with res.guard(tag):
        res.check(math.isfinite(report.objective_trace[-1]),
                  f"{tag}: final objective {report.objective_trace[-1]!r} is not finite")
        feas = feasibility(model)
        res.check(feas < FEASIBILITY_TOL,
                  f"{tag}: feasibility residual {feas:.3g} >= {FEASIBILITY_TOL:g}")
        a, b = work / f"{tag}-a.json", work / f"{tag}-b.json"
        save_model(model, a)
        save_model(load_model(a), b)
        res.check(a.read_bytes() == b.read_bytes(),
                  f"{tag}: save -> load -> save is not byte-identical")


def check_repeat(res: Result, spec: Spec, data: Inputs, report, tag: str) -> None:
    """Refit with the same seed under REPEAT_ITERS; its objective trace must
    be the full fit's, bit for bit, as far as it goes."""
    with res.guard(tag):
        _, again = fit(spec, data, SolverConfig(max_iters=REPEAT_ITERS))
        want = report.objective_trace[: len(again.objective_trace)]
        res.check(again.objective_trace == want,
                  f"{tag}: a repeated fit with the same seed diverged from the first")


class Timings:
    """Wall times of repeated calls to one function."""

    def __init__(self, fn):
        self.fn, self.times = fn, []

    def repeat(self, seconds: float) -> None:
        """Call fn at least once, and again until `seconds` have passed."""
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.fn()
            now = time.perf_counter()
            self.times.append(now - t0)
            if now >= end:
                return


# ---------------------------------------------------------------- runs

def run_workload(spec: Spec, seed: int, seconds: float, trace: int, work: Path) -> Result:
    res = Result(workload=spec.name, trace=trace)
    res.info["warmup_s"] = warm_up()
    setups = Timings(lambda: set_up(spec, seed, work))
    t0 = time.perf_counter()
    setup = set_up(spec, seed, work)
    setups.times.append(time.perf_counter() - t0)
    with res.guard(f"{spec.name} run"):
        if trace:
            traced_run(res, spec, setup, work)
        else:
            measure(res, spec, setup, setups, work, seconds)
            res.put("peak_rss_mb", [peak_rss_mb()])
    return res


def measure(res: Result, spec: Spec, setup: Setup, setups: Timings, work: Path,
            seconds: float) -> None:
    """The end-to-end metrics of one untraced run, checked as it goes."""
    first = setup.datasets[0]

    def slices(total: float) -> None:
        end = time.perf_counter() + total
        while True:
            setups.repeat(SETUP_SLICE_S)
            scores.repeat(SCORE_SLICE_S)
            if time.perf_counter() >= end:
                return

    setups.repeat(SETUP_FIRST_S)
    start = time.perf_counter()
    fitted = [timed_fit(spec, first)]
    _, model, report, _ = fitted[0]
    scores = Timings(lambda: score_batch(model, first.held))
    slices(AFTER_FIT_S)
    for more in setup.datasets[1:]:
        fitted.append(timed_fit(spec, more))
        slices(AFTER_FIT_S)
    slices(max(FINAL_S, start + seconds - time.perf_counter()))

    drops, aucs, f1s = [], [], []
    for i, (d, m, r, _) in enumerate(fitted):
        drops.append(r.objective_trace[0] - r.objective_trace[-1])
        auc, f1 = quality(m, d.held, d.truth)
        aucs.append(auc)
        f1s.append(f1)
        check_model(res, m, r, work, f"{spec.name}[{i}]")
    check_repeat(res, spec, first, report, spec.name)
    model_path = work / f"{spec.name}-model.json"
    out = work / f"{spec.name}-predict.csv"
    with res.guard("predict"):
        save_model(model, model_path)
        code = cli_predict(model_path, setup.csv, out)
        res.check(code == 0, f"ocds predict exited {code}")
        check_predict_output(res, out, model, first.held)
    res.info.update(iterations=report.iterations, converged=report.converged,
                    final_objective=report.objective_trace[-1],
                    final_grad_norm=report.grad_norm_trace[-1],
                    held_out_rows=first.held.shape[0])

    res.put("setup_s", setups.times)
    res.put("fit_s", [dt for *_, dt in fitted])
    res.put("objective_drop", drops)
    res.put("auc", aucs)
    res.put("best_f1", f1s)
    res.put("score_rows_per_s", [first.held.shape[0] / t for t in scores.times])


def traced_run(res: Result, spec: Spec, setup: Setup, work: Path) -> None:
    """Per-layer metrics: rebuild the first fit with proxies, check it is
    bit-identical to the untraced fit, then trace one save and one CLI
    predict of that model."""
    data, model, report, untraced_s = timed_fit(spec, setup.datasets[0])

    tr = tracing.Tracer()
    t0 = time.perf_counter()
    if spec.family == "kods":
        traced, traced_report = tracing.rebuild_kods(
            data.train, KERNEL, KODS_HYPER, None, data.fit_seed, tr)
    else:
        traced, traced_report = tracing.rebuild_primal(
            data.train, GodsHyper(variant=spec.family, k=3), None, data.fit_seed, tr)
    traced_s = time.perf_counter() - t0
    res.check(tracing.bit_identical(model, traced, report, traced_report),
              f"{spec.name}: the traced fit is not bit-identical to the untraced one")
    check_model(res, traced, traced_report, work, f"{spec.name}-traced")

    model_path = work / f"{spec.name}-traced-model.json"
    with tr.span("persistence.save"):
        save_model(traced, model_path)
    out = work / f"{spec.name}-traced-predict.csv"
    with tracing.traced_cli(tr), tr.span("cli.main"):
        cli_predict(model_path, setup.csv, out)
    check_predict_output(res, out, traced, data.held)

    overhead_s = tracing.fit_calls(tr) * tracing.wrap_cost_s()
    layers = tracing.layer_metrics(tr, traced_report, data.held.shape[0],
                                   overhead_s, model_path.stat().st_size)
    for name, value in layers.items():
        res.put(name, [value])
    res.info.update(untraced_fit_s=untraced_s, traced_fit_s=traced_s)
