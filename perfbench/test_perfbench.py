"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check the result format and metric names against BENCHMARK.json, that
traced counts repeat exactly for a seed, that the tracer leaves magband's
bindings as it found them, and that a checkout without sources fails.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = (
    "solver.eigensolves",
    "bands.crossing.calls",
    "bands.crossing.solves_per_call",
    "classical.rk4.steps",
)


def _command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _bindings() -> dict:
    return {
        (module, attribute): getattr(importlib.import_module(module), attribute)
        for module, attribute, _, _ in tracing.BINDINGS
    }


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, section):
    out = _command(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        inputs = bench.make_inputs(workload, 11, 2)
        pass_, tracer = bench.traced_pass(workload, inputs)
        assert not pass_.failures
        metrics, absent = tracer.metrics(len(inputs))
        assert not absent
        runs.append({name: metrics[name]["value"] for name in COUNTS})
    assert runs[0] == runs[1]
    # The workload design: only crossing-scan and edge-bulk-current make
    # crossings, only classical-drift makes RK4 steps, and it alone makes
    # no eigensolves.
    crossings = runs[0]["bands.crossing.calls"] > 0
    assert crossings == (workload in ("crossing-scan", "edge-bulk-current"))
    assert (runs[0]["bands.crossing.solves_per_call"] > 0) == crossings
    assert (runs[0]["classical.rk4.steps"] > 0) == (workload == "classical-drift")
    assert (runs[0]["solver.eigensolves"] > 0) == (workload != "classical-drift")
    if workload in ("band-sweep", "crossing-scan"):
        # The eigensolve is the hot path: most of the traced time.
        assert metrics["solver.eigensolve.self_s"]["value"] > 0.5 * pass_.raw_wall_s


def test_runs_leave_magband_bindings_unwrapped():
    before = _bindings()
    assert not any(hasattr(fn, tracing.SPAN_ATTRIBUTE) for fn in before.values())
    bench.run("classical-drift", 5, 1, trace=False)
    assert _bindings() == before
    bench.run("crossing-scan", 5, 1, trace=True)
    assert _bindings() == before


def test_missing_binding_is_reported_absent(monkeypatch):
    missing = ("magband.solver", "no_such_function", "solver.assemble", None)
    monkeypatch.setattr(tracing, "BINDINGS", tracing.BINDINGS + (missing,))
    result, lines = bench.run("crossing-scan", 5, 1, trace=True)
    assert result["correct"]
    assert "solver.assemble.self_s" not in result["metrics"]
    assert "solver.eigensolves" in result["metrics"]
    assert "absent: solver.assemble.self_s (binding missing)" in lines


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _command(tmp_path, NAMES[0], 0)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_hd_quantile_matches_scipy():
    from scipy.stats.mstats import hdquantiles

    values = np.random.default_rng(0).gamma(2.0, size=32)
    for q in (0.5, 0.65, 0.9):
        assert bench.hd_quantile(values, q) == pytest.approx(float(hdquantiles(values, prob=[q])[0]))
