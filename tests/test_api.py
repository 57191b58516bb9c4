"""The public API: the names magband exports and the parameters each takes.

Pinned literally, so a parameter added to or removed from a public callable
shows up here as a one-line diff.  The front ends (CLI, acceptance battery,
scripts) reach the library through public names only.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import magband

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
    "effective_velocity": ("traj",),
    "evaluate_expansion": ("coeffs", "xi"),
    "expansion_coefficients": ("p", "coupling", "order"),
    "exponential_gap_check": ("band", "p", "xi_window", "error_estimate"),
    "fiber_eigenvalues": ("params", "grid", "count"),
    "harmonic_multiplicity": ("n", "m"),
    "integrate": ("initial", "t_max", "dt"),
    "landau_level": ("p",),
    "potential": ("params", "r"),
    "potential_minimum": ("params",),
    "radial_period": ("traj",),
    "refined_band": ("n", "m", "p", "xi_samples", "grid"),
    "refined_values": ("params", "grid", "count"),
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
