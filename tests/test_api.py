"""The public API: the names magband exports and the parameters each takes.

Pinned literally, so a parameter added to or removed from a public callable
shows up here as a one-line diff.  The front ends (CLI, acceptance battery,
scripts) reach the library through public names only.  Every index and count
the API takes follows one integer rule, stated in `model`: a fractional
value is a ModelError before any fiber step, never truncated.  Every real
follows one real rule, stated beside it: a non-finite value, a string or
None is a ModelError before any fiber step, never parsed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import magband
import magband.bands
import magband.solver

PACKAGE = Path(magband.__file__).resolve().parent
FRONT_ENDS = [PACKAGE / "cli.py", PACKAGE / "acceptance.py",
              *sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))]

ERRORS = (
    "AgmonOverflowError",
    "AxisApproachError",
    "BracketError",
    "ConvergenceError",
    "MissingBandDataError",
    "ModelError",
    "SignPatternError",
)

PARAMETERS = {
    "BandCurve": ("n", "m", "p", "xi", "values", "slope_fh", "slope_bd"),
    "ClassicalState": ("x", "y", "z", "vx", "vy", "vz", "t"),
    "CrossingResult": ("energy", "xi", "slope", "coupling", "residual", "pair", "grid"),
    "Grid": ("radius", "intervals"),
    "ModelParams": ("n", "m", "xi"),
    "SpectralWindow": ("lower", "upper"),
    "agmon_norm": ("pair", "weight", "grid"),
    "agmon_weight": ("params", "energy", "grid", "alpha"),
    "band_asymptotics": ("n", "m", "p", "order", "xi_window", "samples", "grid"),
    "bands_meeting_window": ("n", "window", "m_max", "step"),
    "boundary_exponent": ("params", "pair", "grid", "fit_window"),
    "bulk_decay_study": ("n", "window", "m_cut_list", "step"),
    "coupling_constant": ("n", "m"),
    "crossing": ("n", "m", "p", "energy", "tolerance", "step"),
    "current": ("packet", "bands"),
    "current_dichotomy": ("n", "window", "edge_m_max", "cutoffs", "epsilon", "step"),
    "derivative_boundary_form": ("params", "pair", "grid"),
    "derivative_feynman_hellmann": ("params", "pair", "grid"),
    "edge_bound": ("packet", "bands"),
    "edge_current": ("n", "window", "m_max", "step"),
    "effective_velocity": ("traj",),
    "evaluate_expansion": ("coeffs", "xi"),
    "expansion_coefficients": ("p", "coupling", "order"),
    "exponential_gap_check": ("band", "xi_window", "error_estimate"),
    "fiber_eigenvalues": ("params", "grid", "count"),
    "harmonic_multiplicity": ("n", "m"),
    "integrate": ("initial", "t_max", "dt"),
    "landau_level": ("p",),
    "potential": ("params", "r"),
    "potential_minimum": ("params",),
    "radial_period": ("traj",),
    "refined_sweep": ("n", "m_range", "p_range", "xi_samples", "grid"),
    "remainder_rate": ("band", "coeffs", "xi_window", "noise_floor"),
    "scaling_study": ("n", "p", "energy", "m_list", "tolerance", "step"),
    "solve_fiber": ("params", "grid", "count"),
    "sweep": ("n", "m_range", "p_range", "xi_samples", "grid"),
    "synthesize_state": ("n", "window", "mode_set", "step"),
    "turning_points": ("params", "energy"),
    "witness_small_current": ("n", "window", "epsilon"),
}


def test_exported_names():
    assert sorted(magband.__all__) == sorted((*ERRORS, *PARAMETERS))


def test_errors_are_exceptions():
    for name in ERRORS:
        assert issubclass(getattr(magband, name), Exception), name


def test_parameter_names():
    for name, expected in PARAMETERS.items():
        assert tuple(inspect.signature(getattr(magband, name)).parameters) == expected, name


@pytest.mark.parametrize("path", FRONT_ENDS, ids=[p.name for p in FRONT_ENDS])
def test_front_ends_import_no_private_names(path):
    # a pipeline a front end needs belongs in the library under a public name
    private = [
        f"{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "magband")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names {private}"


def test_benchmark_bindings_resolve():
    # perfbench/tracing.py wraps these (module, attribute) pairs; a binding
    # renamed away would silently drop its span from every benchmark run
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    (bindings,) = [
        node.value
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "BINDINGS" for target in node.targets)
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in bindings.elts]
    assert pairs
    missing = [
        f"{module}.{attribute}"
        for module, attribute in pairs
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert missing == []


def test_cli_builds_no_check_of_its_own():
    # a criterion the CLI lists is the acceptance battery's (`*_criteria`)
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
        and "CheckResult" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == [], f"cli.py calls CheckResult on lines {calls}"


def test_integer_arguments_are_checked_in_model():
    # the integer rule is model._integer; no other module restates it
    def states_the_rule(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            return False
        kinds = node.args[1] if len(node.args) == 2 else None
        return isinstance(kinds, ast.Tuple) and {ast.unparse(kind) for kind in kinds.elts} == {
            "int", "np.integer"
        }

    stating = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(states_the_rule(node) for node in ast.walk(ast.parse(path.read_text("utf-8"))))
    )
    assert stating == ["model.py"]


def _restates_finiteness(tree) -> bool:
    """An isfinite call (math's or numpy's) on a parameter of its function
    or on a field of `self`: the finiteness rule stated on a scalar input."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        arguments = function.args
        names = {arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and node.args and "isfinite" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            )):
                continue
            checked = node.args[0]
            if isinstance(checked, ast.Name) and checked.id in names:
                return True
            if isinstance(checked, ast.Attribute) and getattr(checked.value, "id", None) == "self":
                return True
    return False


def test_real_arguments_are_checked_in_model():
    # the real rule is model._real; no other library module restates it
    for stated in ("def f(step):\n    return math.isfinite(step)",
                   "def __post_init__(self):\n    return np.isfinite(self.radius)"):
        assert _restates_finiteness(ast.parse(stated))
    stating = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path not in FRONT_ENDS and _restates_finiteness(ast.parse(path.read_text("utf-8")))
    )
    assert stating == []


WINDOW = (1.5, 2.5)
GRID = magband.Grid(12.0, 600)


# One call per public entry point and index or count, with that entry `bad`.
ENTRY_POINT_CALLS = {
    "sweep-m": lambda bad: magband.sweep(5, [bad], [1], [0.0, 0.5], GRID),
    "sweep-p": lambda bad: magband.sweep(5, [0, 1], [1, bad], [0.0, 0.5], GRID),
    "refined_sweep-m": lambda bad: magband.refined_sweep(5, [bad], [1], [0.0, 0.5], GRID),
    "refined_sweep-p": lambda bad: magband.refined_sweep(5, [0, 1], [1, bad], [0.0, 0.5], GRID),
    "crossing-m": lambda bad: magband.crossing(5, bad, 1, 2.0),
    "crossing-p": lambda bad: magband.crossing(5, 1, bad, 4.0),
    "scaling_study-m": lambda bad: magband.scaling_study(5, 1, 2.0, [5, 6, bad]),
    "scaling_study-p": lambda bad: magband.scaling_study(5, bad, 4.0, [5, 6]),
    "bulk_decay_study-cutoff": lambda bad: magband.bulk_decay_study(5, WINDOW, [bad, 10]),
    "current_dichotomy-edge_m_max":
        lambda bad: magband.current_dichotomy(5, WINDOW, bad, [10, 20], 1e-2),
    "edge_current-m_max": lambda bad: magband.edge_current(5, WINDOW, bad),
    "current_dichotomy-cutoff":
        lambda bad: magband.current_dichotomy(5, WINDOW, 2, [10, bad], 1e-2),
    "synthesize_state-m": lambda bad: magband.synthesize_state(5, WINDOW, [(bad, 1, 1)]),
    "synthesize_state-j": lambda bad: magband.synthesize_state(5, WINDOW, [(0, bad, 1)]),
    "synthesize_state-p": lambda bad: magband.synthesize_state(5, WINDOW, [(0, 1, bad)]),
    "bands_meeting_window-m_max": lambda bad: magband.bands_meeting_window(5, WINDOW, bad),
    "band_asymptotics-order":
        lambda bad: magband.band_asymptotics(5, 1, 1, bad, (8.0, 15.0), 9, GRID),
    "band_asymptotics-samples":
        lambda bad: magband.band_asymptotics(5, 1, 1, 2, (8.0, 15.0), bad, GRID),
}


@pytest.mark.parametrize("bad", [1.5, np.float64(2.0)], ids=["1.5", "float64(2.0)"])
@pytest.mark.parametrize("call", ENTRY_POINT_CALLS)
def test_a_fractional_index_is_refused_before_any_fiber_step(monkeypatch, bad, call):
    def no_fiber_step(*args):
        raise AssertionError("a fiber step ran before the input was checked")

    monkeypatch.setattr(magband.solver, "_follow", no_fiber_step)
    monkeypatch.setattr(magband.bands, "_follow", no_fiber_step)
    with pytest.raises(magband.ModelError, match=r"integer.*, got (np\.float64\()?[12]\.[05]"):
        ENTRY_POINT_CALLS[call](bad)


_BAND = magband.BandCurve(5, 1, 1, np.linspace(8.0, 15.0, 5), np.full(5, 1.01),
                          np.zeros(5), np.zeros(5))
_FLAT_BAND = magband.BandCurve(4, 0, 1, np.linspace(2.5, 3.5, 5), np.full(5, 1.001),
                               np.zeros(5), np.zeros(5))
_COEFFS = magband.expansion_coefficients(1, 0.75, 4)
_STATE = (1.0, 0.0, 0.0, 0.1, 0.5, 0.2)

# One call per public entry point and real parameter, with that parameter `bad`.
REAL_PARAMETER_CALLS = {
    "ModelParams-xi": lambda bad: magband.ModelParams(5, 1, bad),
    "turning_points-energy":
        lambda bad: magband.turning_points(magband.ModelParams(5, 1, 1.0), bad),
    "Grid-radius": lambda bad: magband.Grid(bad, 600),
    "crossing-energy": lambda bad: magband.crossing(5, 1, 1, bad),
    "crossing-tolerance": lambda bad: magband.crossing(5, 1, 1, 2.0, bad),
    "crossing-step": lambda bad: magband.crossing(5, 1, 1, 2.0, step=bad),
    "scaling_study-energy": lambda bad: magband.scaling_study(5, 1, bad, [5, 6]),
    "scaling_study-step": lambda bad: magband.scaling_study(5, 1, 2.0, [5, 6], step=bad),
    "agmon_weight-energy":
        lambda bad: magband.agmon_weight(magband.ModelParams(5, 1, 1.0), bad, GRID),
    "agmon_weight-alpha":
        lambda bad: magband.agmon_weight(magband.ModelParams(5, 1, 1.0), 2.0, GRID, alpha=bad),
    "expansion_coefficients-coupling": lambda bad: magband.expansion_coefficients(1, bad, 4),
    "evaluate_expansion-xi": lambda bad: magband.evaluate_expansion(_COEFFS, bad),
    "remainder_rate-window-lo": lambda bad: magband.remainder_rate(_BAND, _COEFFS, (bad, 15.0)),
    "remainder_rate-window-hi": lambda bad: magband.remainder_rate(_BAND, _COEFFS, (8.0, bad)),
    "remainder_rate-noise_floor":
        lambda bad: magband.remainder_rate(_BAND, _COEFFS, (8.0, 15.0), noise_floor=bad),
    "exponential_gap_check-window":
        lambda bad: magband.exponential_gap_check(_FLAT_BAND, (bad, 3.5)),
    "exponential_gap_check-error_estimate":
        lambda bad: magband.exponential_gap_check(_FLAT_BAND, (2.5, 3.5), error_estimate=bad),
    "band_asymptotics-window":
        lambda bad: magband.band_asymptotics(5, 1, 1, 2, (bad, 15.0), 9, GRID),
    "band_asymptotics-flat-window":
        lambda bad: magband.band_asymptotics(4, 0, 1, 2, (2.5, bad), 9, GRID),
    "SpectralWindow-lower": lambda bad: magband.SpectralWindow(bad, 2.5),
    "SpectralWindow-upper": lambda bad: magband.SpectralWindow(1.5, bad),
    "edge_current-window": lambda bad: magband.edge_current(5, (bad, 2.5), 1),
    "bands_meeting_window-step":
        lambda bad: magband.bands_meeting_window(5, WINDOW, 1, step=bad),
    "witness_small_current-epsilon": lambda bad: magband.witness_small_current(5, WINDOW, bad),
    "current_dichotomy-epsilon":
        lambda bad: magband.current_dichotomy(5, WINDOW, 2, [10, 20], bad),
    "integrate-dt": lambda bad: magband.integrate(magband.ClassicalState(*_STATE), 1.0, bad),
    "integrate-t_max": lambda bad: magband.integrate(magband.ClassicalState(*_STATE), bad, 1e-3),
    "integrate-x":
        lambda bad: magband.integrate(magband.ClassicalState(bad, *_STATE[1:]), 1.0, 1e-3),
    "integrate-vz":
        lambda bad: magband.integrate(magband.ClassicalState(*_STATE[:5], bad), 1.0, 1e-3),
    "integrate-t":
        lambda bad: magband.integrate(magband.ClassicalState(*_STATE, t=bad), 1.0, 1e-3),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "2.0", None],
                         ids=["nan", "inf", "-inf", "str", "None"])
@pytest.mark.parametrize("call", REAL_PARAMETER_CALLS)
def test_a_non_finite_or_non_numeric_real_is_refused_before_any_fiber_step(monkeypatch, bad, call):
    def no_fiber_step(*args):
        raise AssertionError("a fiber step ran before the input was checked")

    monkeypatch.setattr(magband.solver, "_follow", no_fiber_step)
    monkeypatch.setattr(magband.bands, "_follow", no_fiber_step)
    refused = r"must be .*finite.*, got (nan|-?inf|'2\.0'|None)$"
    with pytest.raises(magband.ModelError, match=refused):
        REAL_PARAMETER_CALLS[call](bad)


def test_numpy_integers_give_the_same_answers_as_python_ints():
    xi = np.linspace(0.0, 1.0, 5)
    for got, want in zip(
        magband.sweep(5, np.arange(3), np.arange(1, 3), xi, GRID),
        magband.sweep(5, [0, 1, 2], [1, 2], xi, GRID),
        strict=True,
    ):
        assert (type(got.m), type(got.p)) == (int, int)
        assert (got.m, got.p) == (want.m, want.p)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.slope_fh, want.slope_fh)
    step = 1.0 / 60.0
    got = magband.scaling_study(5, np.int64(1), 2.0, np.arange(5, 7), step=step)
    want = magband.scaling_study(5, 1, 2.0, [5, 6], step=step)
    assert np.array_equal(got.xi, want.xi) and np.array_equal(got.slope, want.slope)
