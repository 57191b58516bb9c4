"""Traced run: spans around magband's layer entry points, from outside src/.

Each binding names a module attribute through which one layer calls another
(for example `magband.transport.crossing`, the name transport's functions
look up to call into the bands layer).  Installing a tracer replaces each such
attribute with a wrapper that times the call as a span of the callee's layer
and updates the layer's counters; `restore()` puts the originals back.

A span's self time is its duration minus the durations of the spans it
caused, so the self times of all layers add up to the traced time spent
inside magband.  A binding that no longer exists (a later refactor renamed
it) is skipped, and every metric that depends on its span is reported as
absent by name instead of as a wrong number.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter


def _count_eigensolve(tracer, args, kwargs, result):
    diagonal = args[0] if args else kwargs["d"]
    tracer.counts["eigensolves"] += 1
    tracer.counts["rows"] += len(diagonal)
    if not kwargs.get("eigvals_only", False):
        tracer.counts["eigensolves.with_vectors"] += 1


def _record_crossing_key(tracer, args, kwargs, result):
    bound = tracer.crossing_signature.bind(*args, **kwargs).arguments
    tracer.counts["transport.crossings"] += 1
    tracer.answer_keys.add((bound["n"], bound["m"], bound["p"], float(bound["energy"])))


def _count_samples(tracer, args, kwargs, result):
    bands = args[1] if len(args) > 1 else kwargs["bands"]
    tracer.counts["transport.samples"] += len({(c.m, float(x)) for c in bands for x in c.xi})


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["rk4.steps"] += result.times.size - 1


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["tables.bytes"] += len(result.encode())


SPAN_ATTRIBUTE = "__perfbench_span__"  # marks an installed wrapper

# (module, attribute, span, hook); the module is the caller's namespace.
BINDINGS = (
    ("magband.solver", "eigh_tridiagonal", "solver.eigensolve", _count_eigensolve),
    ("magband.solver", "assemble", "solver.assemble", None),
    ("magband.solver", "potential", "model", None),
    ("magband", "solve_fiber", "solver", None),
    ("magband.bands", "solve_fiber", "solver", None),
    ("magband.bands", "fiber_eigenvalues", "solver", None),
    ("magband.bands", "derivative_feynman_hellmann", "solver.derivatives", None),
    ("magband.bands", "derivative_boundary_form", "solver.derivatives", None),
    ("magband.bands", "potential", "model", None),
    ("magband.bands", "turning_points", "model", None),
    ("magband", "crossing", "bands.crossing", None),
    ("magband.transport", "crossing", "bands.crossing", _record_crossing_key),
    ("magband", "sweep", "bands.sweep", None),
    ("magband.transport", "sweep", "bands.sweep", None),
    ("magband", "agmon_weight", "bands.agmon", None),
    ("magband", "agmon_norm", "bands.agmon", None),
    ("magband", "bands_meeting_window", "transport", None),
    ("magband", "synthesize_state", "transport", None),
    ("magband", "bulk_decay_study", "transport", None),
    ("magband", "current", "transport.quadrature", _count_samples),
    ("magband.transport", "current", "transport.quadrature", _count_samples),
    ("magband", "edge_bound", "transport.quadrature", None),
    ("magband", "integrate", "classical.rk4", _count_steps),
    ("magband", "effective_velocity", "classical.analysis", None),
    ("magband.classical", "radial_period", "classical.analysis", None),
    ("magband.tables", "sweep_rows", "tables.render", None),
    ("magband.tables", "render_csv", "tables.render", _count_bytes),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num/den, or 0 when the layer did no work (den == 0)."""
    return scale * num / den if den else 0.0


# name -> (unit, spans whose bindings it needs, value from (tracer, answers))
LAYER_METRICS = {
    "solver.eigensolves": ("count", ("solver.eigensolve",), lambda t, a: t.counts["eigensolves"]),
    "solver.eigensolves.with_vectors": (
        "count", ("solver.eigensolve",), lambda t, a: t.counts["eigensolves.with_vectors"]),
    "solver.rows": ("count", ("solver.eigensolve",), lambda t, a: t.counts["rows"]),
    "solver.eigensolve.self_s": ("s", ("solver.eigensolve",), lambda t, a: t.self_s["solver.eigensolve"]),
    "solver.eigensolve.us_per_row": (
        "us", ("solver.eigensolve",),
        lambda t, a: _ratio(t.self_s["solver.eigensolve"], t.counts["rows"], 1e6)),
    "solver.assemble.self_s": ("s", ("solver.assemble",), lambda t, a: t.self_s["solver.assemble"]),
    "solver.derivatives.self_s": (
        "s", ("solver.derivatives",), lambda t, a: t.self_s["solver.derivatives"]),
    "solver.self_s": ("s", ("solver",), lambda t, a: t.self_s["solver"]),
    "model.self_s": ("s", ("model",), lambda t, a: t.self_s["model"]),
    "bands.crossing.calls": ("count", ("bands.crossing",), lambda t, a: t.calls["bands.crossing"]),
    "bands.crossing.solves_per_call": (
        "count", ("bands.crossing", "solver.eigensolve"),
        lambda t, a: _ratio(t.span_solves["bands.crossing"], t.calls["bands.crossing"])),
    "bands.crossing.self_s": ("s", ("bands.crossing",), lambda t, a: t.self_s["bands.crossing"]),
    "bands.sweep.self_s": ("s", ("bands.sweep",), lambda t, a: t.self_s["bands.sweep"]),
    "bands.agmon.self_s": ("s", ("bands.agmon",), lambda t, a: t.self_s["bands.agmon"]),
    "transport.crossings.distinct_ratio": (
        "ratio", ("bands.crossing",),
        lambda t, a: _ratio(t.counts["transport.distinct"], t.counts["transport.crossings"])),
    "transport.sweep.samples_per_answer": (
        "count", ("transport.quadrature",), lambda t, a: _ratio(t.counts["transport.samples"], a)),
    "transport.quadrature.self_s": (
        "s", ("transport.quadrature",), lambda t, a: t.self_s["transport.quadrature"]),
    "transport.self_s": ("s", ("transport",), lambda t, a: t.self_s["transport"]),
    "classical.rk4.steps": ("count", ("classical.rk4",), lambda t, a: t.counts["rk4.steps"]),
    "classical.rk4.ns_per_step": (
        "ns", ("classical.rk4",),
        lambda t, a: _ratio(t.self_s["classical.rk4"], t.counts["rk4.steps"], 1e9)),
    "classical.analysis.self_s": (
        "s", ("classical.analysis",), lambda t, a: t.self_s["classical.analysis"]),
    "tables.render.self_s": ("s", ("tables.render",), lambda t, a: t.self_s["tables.render"]),
    "tables.bytes": ("bytes", ("tables.render",), lambda t, a: t.counts["tables.bytes"]),
}


class Tracer:
    """Span and counter accounting for one traced pass over a batch."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.span_solves: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.answer_keys: set = set()
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self.crossing_signature: inspect.Signature | None = None
        self._stack: list[list[float]] = []
        self._installed: list[tuple] = []

    def _wrap(self, span, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of the spans this call causes
            stack.append(frame)
            solves = self.counts["eigensolves"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[span] += elapsed - frame[0]
                self.calls[span] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            self.span_solves[span] += self.counts["eigensolves"] - solves
            return result

        setattr(wrapper, SPAN_ATTRIBUTE, span)
        return wrapper

    def install(self) -> None:
        for module_name, attribute, span, hook in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attribute}")
                self.broken.add(span)
                continue
            if hook is _record_crossing_key:
                self.crossing_signature = inspect.signature(original)
            setattr(module, attribute, self._wrap(span, original, hook))
            self._installed.append((module, attribute, original, span))

    def restore(self) -> None:
        while self._installed:
            module, attribute, original, _ = self._installed.pop()
            setattr(module, attribute, original)

    def begin_answer(self) -> None:
        """Close the previous answer's set of distinct transport crossings."""
        self.counts["transport.distinct"] += len(self.answer_keys)
        self.answer_keys = set()

    def metrics(self, answers: int) -> tuple[dict, list[str]]:
        """Per-layer metrics as {name: {value, unit}}, and the absent names."""
        self.begin_answer()
        out, absent = {}, []
        for name, (unit, spans, value) in LAYER_METRICS.items():
            if self.broken.intersection(spans):
                absent.append(name)
            else:
                out[name] = {"value": float(value(self, answers)), "unit": unit}
        return out, absent
