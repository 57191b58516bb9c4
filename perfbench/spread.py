#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads all --seeds 1-10 [--trace 0] [--out runs.json]

For every workload and metric it prints the median of the runs, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
with the metric's bound from BENCHMARK.json; an end-to-end metric other than
setup_s is steady when its spread is below a third of its bound.  Runs are
made one at a time, each in its own process, exactly as the command in
BENCHMARK.json would make them.  With --out the raw runs and the summary
are also written as JSON.  The committed baselines were made with

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline_trace0.json
    python3 perfbench/spread.py --seeds 1-3 --trace 1 --out perfbench/baseline_trace1.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    facts = next(json.loads(l[len("machine: "):]) for l in lines if l.startswith("machine: "))
    return {"seed": seed, "machine": facts, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        [w["name"] for w in spec["workloads"]] if args.workloads == "all"
        else args.workloads.split(",")
    )
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, seed, args.trace) for seed in _seeds(args.seeds)]
        summary = summarize(runs, bounds)
        report[workload] = {"runs": runs, "summary": summary}
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed answers")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s":
                ok = s["spread"] < s["bound"] / 3.0
                steady &= ok
                flag = "steady" if ok else "NOT STEADY"
            print(f"  {name:36s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"Q1 {s['q1']:12.6g} Q3 {s['q3']:12.6g} spread {s['spread']:.4f} {flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
