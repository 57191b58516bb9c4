#!/usr/bin/env python3
"""magband benchmark: one seeded workload of public-API answers per run.

    python3 perfbench/run.py --workload band-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same batch
untraced and then traced, and prints the per-layer metrics and the tracing
overhead.  Report lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Workloads, metrics and bounds are listed in BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("band-sweep", "crossing-scan", "edge-bulk-current", "classical-drift")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    package = ROOT / "src" / "magband" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no magband sources at {package.parent}", file=sys.stderr)
        return 2
    # Cap the BLAS/LAPACK pools before numpy loads; set-up subprocesses inherit it.
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cap
    sys.path.insert(0, str(ROOT / "src"))

    import bench  # imports numpy and magband, so only after the cap is set

    if Path(bench.mb.__file__).resolve().parent != package.parent.resolve():
        print(f"perfbench: imported magband from {bench.mb.__file__}", file=sys.stderr)
        return 2
    bench.mb.solve_fiber(bench.mb.ModelParams(5, 1, 0.0), bench.mb.Grid(12.0, 480), 3)

    result, lines = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(bench.machine_facts(args.seed, cap)))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
