"""Repeat the benchmark over seeds and summarize the spread of each metric.

    python3 perfbench/record.py [--out perfbench/baseline.json]

Runs every workload of BENCHMARK.json at seeds 0-9 for its run_seconds,
each run its own process, as the harness that gates changes runs it:
python3 perfbench/run.py --workload W --seed S --seconds T --trace 0. For
every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median over the
seeds, next to the metric's bound. One traced run per workload at seed 0
follows. --out writes every run's result plus the environment stamp.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from run import BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def summarize(values) -> dict:
    """Median, quartiles and IQR/median of a list of numbers."""
    values = sorted(float(v) for v in values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def environment() -> dict:
    """The stamp a committed result carries."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    return line


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    runs, summary = [], {}
    for workload in (w["name"] for w in declared["workloads"]):
        lines = []
        for seed in SEEDS:
            line = run_once(workload, seed, seconds, 0)
            lines.append(line)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items())
            print(f"{workload} seed={seed} wall={line['wall_s']:.1f}s "
                  f"correct={line['correct']} failed={line['failed']}/{line['attempted']} "
                  f"{values}", flush=True)
        runs.extend(lines)
        summary[workload] = {}
        for name in bounds:
            stats = summarize([ln["metrics"][name]["value"] for ln in lines])
            stats["unit"] = lines[0]["metrics"][name]["unit"]
            stats["bound"] = bounds[name]
            summary[workload][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:20s} median {stats['median']:<14.6g} q1 {stats['q1']:<14.6g} "
                  f"q3 {stats['q3']:<14.6g} spread {stats['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        line = run_once(workload, SEEDS[0], seconds, 1)
        runs.append(line)
        print(f"{workload} traced seed={SEEDS[0]} wall={line['wall_s']:.1f}s "
              f"correct={line['correct']}", flush=True)

    if args.out:
        doc = {"environment": environment(), "seeds": SEEDS,
               "seconds": seconds, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
