"""Offline benchmark entry point.

    python3 perfbench/run.py --workload gods-fit --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Runs from the root of a checkout and imports the package from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones. --workload all runs every
workload untraced and traced in this one process and prints every metric
(peak_rss_mb is then the peak of the whole process so far).

Exit codes: 0 when a result was printed; 2 for an unknown workload or
when the package cannot be imported from ./src, with nothing printed on
standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# One BLAS thread: the matrices here are at most 600x600, where a second
# thread added more run-to-run spread than speed on the 2-CPU reference
# host, and a fixed count keeps hosts with more cores comparable.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    src = ROOT / "src"
    if not (src / "ocds" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import bench  # noqa: E402  (after the BLAS environment is set)
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in bench.WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2
    traces = (0, 1) if args.workload == "all" else (args.trace,)

    results = []
    with bench.workdir(ROOT) as work:
        for name in names:
            for trace in traces:
                res = bench.run_workload(bench.WORKLOADS[name], args.seed,
                                         args.seconds, trace, work)
                results.append(res)
                bench.print_result(res)

    if len(results) == 1:
        print(json.dumps(results[0].contract_line()))
    else:
        print(json.dumps(bench.merge_lines(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
