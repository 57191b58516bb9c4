"""Run one workload: set-up timing, a closed loop of answers, metrics.

Load model: one process, one client, closed loop.  The next answer starts
only when the previous one has returned; each answer is timed alone and
verified outside its timed region.  An answer that raises ModelError or
ConvergenceError, or fails its check, counts as failed and the run goes on.

The timed metrics (wall_s, answer_ms.*) are answer times scaled to the
nominal speed of a reference probe timed around each answer (reference.py);
the unscaled figures are printed on a report line.  setup_s is unscaled:
it runs in fresh processes, which a probe in this one does not track.  The
traced run's self times and trace.wall_s are unscaled, so they add up;
trace.overhead_frac compares the scaled times of the two passes.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy.special import betainc

import magband as mb
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# What a CLI invocation pays before its first answer: interpreter start,
# `import magband`, and one small solve.
SETUP_CODE = (
    "import magband as mb; "
    "mb.solve_fiber(mb.ModelParams(5, 1, 0.0), mb.Grid(12.0, 480), 3)"
)


@dataclass
class Pass:
    """Latencies and failures of one pass over a batch.

    `raw` holds each answer's measured time; `latencies` the same times at
    the nominal machine speed of the workload's probe (see reference.py).
    """

    raw: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return float(sum(self.latencies))

    @property
    def raw_wall_s(self) -> float:
        return float(sum(self.raw))


def batch_size(name: str, seconds: int) -> int:
    return max(4, int(round(WORKLOADS[name].rate * seconds)))


def make_inputs(name: str, seed: int, answers: int) -> list:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return WORKLOADS[name].inputs(rng, answers)


def run_pass(name: str, inputs: list, tracer: Tracer | None = None) -> Pass:
    work = WORKLOADS[name]
    result = Pass()
    before = work.probe.time()
    for spec in inputs:
        if tracer is not None:
            tracer.begin_answer()
        out, problem = None, None
        start = perf_counter()
        try:
            out = work.answer(spec)
        except (mb.ModelError, mb.ConvergenceError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        after = work.probe.time()
        result.raw.append(elapsed)
        result.latencies.append(elapsed * work.probe.nominal_s / (0.5 * (before + after)))
        before = after
        if problem is None:
            problem = work.verify(spec, out)
        if problem is not None:
            result.failures.append(f"{spec!r}: {problem}")
    return result


def traced_pass(name: str, inputs: list) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(name, inputs, tracer), tracer
    finally:
        tracer.restore()


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of fresh processes that import magband and solve once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: src_crc32 identifies the sources
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(seed: int, blas_threads: str | None) -> dict:
    digest = zlib.crc32(b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py"))))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "src_crc32": f"{digest:08x}",
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, so it moves far less between
    runs than one interpolated order statistic when a batch holds few answers:
    edge-bulk-current's p65 over 32 answers spread 9 % across seeds the one
    way and 1 % this way.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def percentiles_ms(name: str, latencies: list[float]) -> tuple[float, float]:
    """p50 and the workload's tail percentile, in ms."""
    ms = 1e3 * np.asarray(latencies)
    return hd_quantile(ms, 0.5), hd_quantile(ms, WORKLOADS[name].tail / 100)


def end_to_end(name: str, run: Pass, setup_s: float) -> dict:
    p50, tail = percentiles_ms(name, run.latencies)
    attempted = len(run.latencies)
    return {
        "wall_s": _metric(run.wall_s, "s"),
        "answer_ms.p50": _metric(p50, "ms"),
        "answer_ms.tail": _metric(tail, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "verified_frac": _metric((attempted - len(run.failures)) / attempted, "frac"),
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines."""
    inputs = make_inputs(name, seed, batch_size(name, seconds))
    if trace:
        # Half a batch twice, untraced then traced: the same run length as
        # an untraced run, and the overhead measured on the same answers.
        inputs = inputs[: max(1, len(inputs) // 2)]
    lines = [
        f"workload {name}: {len(inputs)} answers{' untraced, then traced' if trace else ''}, "
        f"closed loop, 1 client, tail = p{WORKLOADS[name].tail}"
    ]
    if not trace:
        setup_s = setup_seconds()
        passes = [run_pass(name, inputs)]
        metrics = end_to_end(name, passes[0], setup_s)
        p50, tail = percentiles_ms(name, passes[0].raw)
        lines.append(
            f"unscaled: wall_s = {passes[0].raw_wall_s:.6g} s, "
            f"answer_ms.p50 = {p50:.6g} ms, answer_ms.tail = {tail:.6g} ms"
        )
    else:
        plain = run_pass(name, inputs)
        traced, tracer = traced_pass(name, inputs)
        passes = [plain, traced]
        metrics, absent = tracer.metrics(len(inputs))
        metrics["trace.wall_s"] = _metric(traced.raw_wall_s, "s")
        metrics["trace.overhead_frac"] = _metric((traced.wall_s - plain.wall_s) / plain.wall_s, "frac")
        lines += [f"absent: {metric} (binding missing)" for metric in absent]
        lines += [f"missing binding: {binding}" for binding in tracer.missing]
    failures = [f for p in passes for f in p.failures]
    lines += [f"failed: {f}" for f in failures[:20]]
    lines += [f"{key} = {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines
