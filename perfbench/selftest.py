"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted with its unit
by every workload, that the correctness gate passes on correct code and
catches a different fit, that the traced run reproduces the untraced fit
bit for bit, and that the command refuses to run without the package.
"""
from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import bench  # noqa: E402
import ocds.cli  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "gods-fit": dict(n=80, d=6, datasets=2, holdout=40),
    "gods_n-fit": dict(n=60, d=5, datasets=1, holdout=30),
    "kods-fit": dict(n=60, datasets=2, holdout=40),
}


def tiny(name: str) -> bench.Spec:
    return replace(bench.WORKLOADS[name], **TINY[name])


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in load_declared()[kind]}


def run(name: str, trace: int) -> bench.Result:
    with bench.workdir(ROOT) as work:
        return bench.run_workload(tiny(name), seed=3, seconds=0.0, trace=trace, work=work)


def test_workloads_match_declaration():
    names = [w["name"] for w in load_declared()["workloads"]]
    assert names == list(bench.WORKLOADS) == list(TINY)


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    want = declared("end_to_end")
    for name in bench.WORKLOADS:
        res = run(name, trace=0)
        assert res.failed == 0, (name, res.failures)
        line = json.loads(json.dumps(res.contract_line()))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want, name
        for k, v in line["metrics"].items():
            assert math.isfinite(v["value"]) and v["value"] != 0.0, (name, k, v)


def test_traced_run_is_bit_identical_and_emits_every_layer_metric():
    want = declared("per_layer")
    for name in bench.WORKLOADS:
        res = run(name, trace=1)
        assert res.failed == 0, (name, res.failures)
        got = {k: bench.UNITS[k] for k in res.metrics}
        assert got == want, name
        assert res.metrics["solver.cost_evals"][0] > 0
        assert res.metrics["manifolds.retract_calls"][0] > 0


def test_bit_identity_check_catches_a_different_fit():
    spec = tiny("kods-fit")
    data = bench.make_dataset(spec, 3, 0)
    model, report = bench.fit(spec, data)
    other = replace(data, fit_seed=data.fit_seed + 1)
    model2, report2 = bench.fit(spec, other)
    assert tracing.bit_identical(model, model, report, report)
    assert not tracing.bit_identical(model, model2, report, report2)


def test_gate_counts_a_failed_check_without_crashing():
    spec = tiny("gods-fit")
    data = bench.make_dataset(spec, 3, 0)
    _, report = bench.fit(spec, data)
    res = bench.Result(workload=spec.name, trace=0)
    shifted = replace(report, objective_trace=[v + 1.0 for v in report.objective_trace])
    bench.check_repeat(res, spec, data, shifted, "shifted")
    assert (res.attempted, res.failed) == (1, 1)


def test_best_f1_matches_the_cli_sweep():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s1 = np.round(rng.normal(0.3, 0.2, 60), 2)   # rounding makes ties
        s2 = np.round(rng.normal(-0.3, 0.2, 60), 2)
        truth = rng.random(60) < 0.6
        eta = 0.3
        scores = np.array([ocds.anomaly_score(a, b, eta) for a, b in zip(s1, s2)])
        assert bench.best_f1(scores, truth) == ocds.cli._best_f1(s1, s2, eta, truth)


def test_command_fails_without_the_package():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=base))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gods-fit",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
