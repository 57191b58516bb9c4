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
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import magband
import magband.bands
import magband.solver
import magband.transport

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


def _builds_a_check(node) -> bool:
    return isinstance(node, ast.Call) and "CheckResult" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_cli_builds_no_check_of_its_own():
    # a criterion the CLI lists is the acceptance battery's (`*_criteria`)
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(cli) if _builds_a_check(node)]
    assert calls == [], f"cli.py calls CheckResult on lines {calls}"


def test_every_cli_report_returns_its_exit_status():
    # the exit rule is _report's (0 when every listed criterion passes, 1
    # otherwise): a subcommand that reports returns what _report gives, never
    # a literal status of its own
    def calls_report(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report"

    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    reporting, stray = [], []
    for function in cli.body:
        if not (isinstance(function, ast.FunctionDef) and function.name.startswith("cmd_")
                and any(map(calls_report, ast.walk(function)))):
            continue
        reporting.append(function.name)
        returns = [node for node in ast.walk(function) if isinstance(node, ast.Return)]
        returned = [node.value for node in returns]
        stray += [f"{function.name}:{node.lineno}" for node in ast.walk(function)
                  if calls_report(node) and not any(node is value for value in returned)]
        stray += [f"{function.name}:{node.lineno}" for node in returns
                  if isinstance(node.value, ast.Constant)]
    assert reporting == ["cmd_scaling", "cmd_asym", "cmd_classical", "cmd_current",
                         "cmd_convergence", "cmd_acceptance"]
    assert stray == []


def test_every_verdict_is_built_by_the_three_acceptance_helpers():
    # _criterion and _near derive a verdict and its bound text from one stated
    # threshold, and _fold a numbered check's verdict from its criteria; no
    # other code in the package, at module level or in a function, builds one
    builders, calls = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_builds_a_check, ast.walk(tree)))
        builders += [
            f"{path.stem}.{function.name}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(map(_builds_a_check, ast.walk(function)))
        ]
    assert sorted(builders) == ["acceptance._criterion", "acceptance._fold", "acceptance._near"]
    assert calls == 3


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


def _restates_the_pair_rule(tree) -> bool:
    """A window parameter of its function indexed by a constant (window[0]):
    the pair rule stated on a window input."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        arguments = function.args
        names = {arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
                and "window" in node.value.id
                and isinstance(node.slice, ast.Constant)
            ):
                return True
    return False


def test_real_arguments_are_checked_in_model():
    # the real rule is model._real, and the pair rule for windows
    # model._interval; no other library module restates either
    for stated in ("def f(step):\n    return math.isfinite(step)",
                   "def __post_init__(self):\n    return np.isfinite(self.radius)"):
        assert _restates_finiteness(ast.parse(stated))
    assert _restates_the_pair_rule(ast.parse("def f(xi_window):\n    return xi_window[1]"))
    stating = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path not in FRONT_ENDS
        and any(restates(ast.parse(path.read_text("utf-8")))
                for restates in (_restates_finiteness, _restates_the_pair_rule))
    )
    assert stating == []


def _squares_the_grid_step(node) -> bool:
    """h**n, or h * h, with h a name or an attribute (grid.h)."""
    def is_h(operand):
        return getattr(operand, "id", getattr(operand, "attr", None)) == "h"

    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Pow):
        return is_h(node.left)
    return isinstance(node.op, ast.Mult) and is_h(node.left) and is_h(node.right)


def _methods(tree) -> list[tuple[str, ast.FunctionDef]]:
    """("Class.method" or "function", node) for every function in `tree`."""
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            named += [(f"{node.name}.{f.name}", f) for f in node.body
                      if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.Module):
            named += [(f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
    return named


def test_the_grid_matrix_is_stated_once_in_its_record():
    # T's entries (2/h^2 + V, -1/h^2 and the leaks 1/h^2) and its ||T||_1
    # bound are the record solver._Operator's, from its `coupling`; beside it
    # only Grid's float-range check squares h
    for stated in ("c = 1.0 / grid.h**2", "c = 1.0 / (h * h)"):
        assert any(_squares_the_grid_step(node) for node in ast.walk(ast.parse(stated)))
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    squaring = sorted(
        name
        for name, function in _methods(tree)
        if any(_squares_the_grid_step(node) for node in ast.walk(function))
    )
    assert squaring == ["Grid.__post_init__", "_Operator.coupling"]


def test_solver_keeps_no_module_level_cache():
    # a fiber's arrays live in the record its chain passes (solver._Operator)
    # and k in its ModelParams, never in a cache of a module: no function of
    # the package is decorated with functools.lru_cache or functools.cache
    def caches(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) in {"lru_cache", "cache"}

    assert caches(ast.parse("@functools.lru_cache(maxsize=2)\ndef f(): pass").body[0]
                  .decorator_list[0])
    assert caches(ast.parse("@cache\ndef f(): pass").body[0].decorator_list[0])
    cached = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, function in _methods(ast.parse(path.read_text(encoding="utf-8")))
        if any(caches(decorator) for decorator in function.decorator_list)
    ]
    assert cached == []



def test_the_moments_are_computed_only_where_a_fiber_step_builds_its_record():
    # the record's moments (solver._Operator.moments) fill the fiber record in
    # `_follow`; beside it only the three public moment functions call them,
    # in any module
    calling = sorted(
        f"{path.stem}.{function.name}"
        for path in PACKAGE.glob("*.py")
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "moments"
            for node in ast.walk(function)
        )
    )
    assert calling == [
        "solver._follow",
        "solver.derivative_boundary_form",
        "solver.derivative_feynman_hellmann",
        "solver.rayleigh_quotient",
    ]
    # every fiber step builds the same record: no caller chooses which
    # moments the step or the record's moments compute
    follow = inspect.signature(magband.solver._follow).parameters
    moments = inspect.signature(magband.solver._Operator.moments).parameters
    assert list(follow) == ["operator", "xi", "count", "previous", "first"]
    assert list(moments) == ["self", "u", "xi", "v", "window"]


def test_each_lapack_routine_has_one_call_site():
    # the one LDL^T factorization (of the exact inertia count, the bisection
    # start's counts and the Rayleigh step alike) and the Rayleigh step's
    # solve with its factors (the step and the polish) each call LAPACK on
    # the fiber matrix from one place in the package, so neither the
    # two-sided count nor the solve can grow a second copy of the recurrence,
    # no LU factorization comes back and no LAPACK eigensolve returns an
    # uncertified pair; the one eigensolve is the Golub-Welsch eigensolve of
    # the Legendre Jacobi matrix behind the current's quadrature rule
    routines = {"eigh_tridiagonal", "dgttrf", "dgttrs", "dpttrf", "dpttrs", "dstebz", "dsterf",
                "dgtsv", "dptsv", "eigvalsh_tridiagonal"}
    sites = sorted(
        (node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id,
         f"{path.stem}.{name}")
        for path in sorted(PACKAGE.glob("*.py"))
        for name, function in _methods(ast.parse(path.read_text(encoding="utf-8")))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in routines
    )
    assert sites == [
        ("dpttrf", "solver._ldl"),
        ("dpttrs", "solver._rayleigh_iteration"),
        ("dpttrs", "solver._rayleigh_iteration"),
        ("eigh_tridiagonal", "transport._bump_quadrature"),
    ]
    # and no LAPACK eigensolve failure is left to wrap
    assert not any("LinAlgError" in path.read_text(encoding="utf-8")
                   for path in PACKAGE.glob("*.py"))


def test_the_inertia_count_reads_no_potential_outside_its_block():
    # `_Operator.count_below` finds the well's rows from xi and sigma alone:
    # no scan of V (no .min( or .max( call) decides which rows it factors
    solver = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    (body,) = [function for name, function in _methods(solver) if name == "_Operator.count_below"]
    scans = [ast.unparse(node) for node in ast.walk(body)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"min", "max"}]
    assert scans == []
    assert [ast.unparse(node) for node in ast.walk(ast.parse("v[:a].min() < sigma"))
            if isinstance(node, ast.Call) and node.func.attr == "min"] == ["v[:a].min()"]


def test_one_sign_rule_fixes_every_eigenvector():
    # every eigenvector, each one continued, is sign-fixed by one rule,
    # solver._negative (its first significant entry is negative), and the
    # band certificate counts no sign changes: the package names no
    # np.signbit, _negative_lobe or _significant
    def named(node):
        return getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))

    banned = {"signbit", "_negative_lobe", "_significant"}
    assert {named(node) for node in ast.walk(ast.parse("np.signbit(_significant(z))"))} >= {
        "signbit", "_significant"}
    assert "_negative_lobe" in {named(node) for node in ast.walk(
        ast.parse("from .solver import _negative_lobe"))}
    naming, calling = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        naming += sorted({f"{path.stem}.{named(node)}" for node in ast.walk(tree)
                          if named(node) in banned})
        calling += [
            f"{path.stem}.{name}"
            for name, function in _methods(tree)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and named(node.func) == "_negative"
        ]
    assert naming == []
    assert calling == ["solver._continue_fiber"]


def test_the_log_log_fit_is_stated_once():
    # every fitted line is solver._line, centered sums without a Vandermonde
    # matrix or an SVD: the power laws (scaling, bulk decay, remainder rate,
    # boundary exponent) through _loglog_slope, the axis recurrence's
    # log-ratios and classical z(t) directly
    def named(node):
        return getattr(node, "id", getattr(node, "attr", None))

    banned = {"polyfit", "vander", "lstsq"}
    assert {named(node) for node in ast.walk(ast.parse(
        "np.polyfit(x, y, 1); np.vander(x, 2); np.linalg.lstsq(a, b)"))} >= banned
    naming, calling = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        naming += sorted({f"{path.stem}.{named(node)}" for node in ast.walk(tree)
                          if named(node) in banned})
        calling += [
            f"{path.stem}.{name}"
            for name, function in _methods(tree)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and named(node.func) == "_line"
        ]
    assert naming == []
    assert sorted(calling) == [
        "classical.effective_velocity", "solver._Operator.axis_slope", "solver._loglog_slope"]


def _loops_and_newton_calls(tree) -> tuple[list[str], list[str]]:
    """The functions and methods of `tree` holding a for or while statement
    (a comprehension is none), and those that call `_newton`, a nested
    function counted in the one that holds it."""
    looping, calling = [], []
    for name, function in _methods(tree):
        nodes = list(ast.walk(function))
        if any(isinstance(node, (ast.For, ast.While)) for node in nodes):
            looping.append(name)
        if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_newton"
               for node in nodes):
            calling.append(name)
    return looping, calling


def test_the_model_has_one_root_finder():
    # the minimum of V and both turning points are roots of the one monotone
    # Newton iteration, model._newton; no other loop in the module could
    # grow a second root finder, such as the bisection it replaced
    assert _loops_and_newton_calls(ast.parse(
        "def f(a):\n    return [x for x in a]\n"
        "def g(a):\n    def h():\n        while a:\n            a = _newton(a)\n    return h\n"
        "class C:\n    def m(self):\n        for _ in self: pass"
    )) == (["g", "C.m"], ["g"])
    model = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    looping, calling = _loops_and_newton_calls(model)
    assert looping == ["_newton"]
    assert {"_potential_minimum", "_turning_points"} <= set(calling)


def test_the_transport_domain_is_stated_once():
    # every public entry checked n >= 4 itself, and four passed band 1 as p
    # into the bump current; the domain is now stated once, and band 1 by name
    def states_the_rule(node) -> bool:
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_integer"
                and [ast.unparse(arg) for arg in node.args[1:]] == ["'dimension n'", "4"])

    tree = ast.parse((PACKAGE / "transport.py").read_text(encoding="utf-8"))
    functions = dict(_methods(tree))
    assert sum(map(states_the_rule, ast.walk(tree))) == 1
    assert any(map(states_the_rule, ast.walk(functions["_domain"])))
    assert [arg.arg for arg in functions["_bump_current"].args.args] == ["n", "win", "m", "step"]


def test_the_rk4_step_loop_stores_without_numpy():
    # a numpy row assignment cost about a quarter of each RK4 step; the
    # Python loop (the compiled kernel's reference and fallback) stores each
    # step with one struct write and makes no numpy call
    tree = ast.parse((PACKAGE / "classical.py").read_text(encoding="utf-8"))
    python_rk4 = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_python_rk4")
    loop = next(node for node in ast.walk(python_rk4) if isinstance(node, ast.For))

    def stray(node):
        if isinstance(node, ast.Assign):
            return any(isinstance(target, ast.Subscript) for target in node.targets)
        if isinstance(node, ast.AugAssign):
            return isinstance(node.target, ast.Subscript)
        return isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.")

    assert [ast.unparse(node) for node in ast.walk(loop) if stray(node)] == []


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
    "bands_meeting_window-n": lambda bad: magband.bands_meeting_window(bad, WINDOW, 1),
    "synthesize_state-n": lambda bad: magband.synthesize_state(bad, WINDOW, [(0, 1, 1)]),
    "edge_current-n": lambda bad: magband.edge_current(bad, WINDOW, 1),
    "bulk_decay_study-n": lambda bad: magband.bulk_decay_study(bad, WINDOW, [10, 20]),
    "witness_small_current-n": lambda bad: magband.witness_small_current(bad, WINDOW, 1e-2),
    "current_dichotomy-n": lambda bad: magband.current_dichotomy(bad, WINDOW, 2, [10, 20], 1e-2),
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
    "potential-r": lambda bad: magband.potential(magband.ModelParams(5, 1, 1.0), [1.0, bad]),
    "sweep-xi_samples": lambda bad: magband.sweep(5, [1], [1], [0.0, bad], GRID),
    "refined_sweep-xi_samples": lambda bad: magband.refined_sweep(5, [1], [1], [0.0, bad], GRID),
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


# One call per public entry point that takes an array of reals, with that array `bad`.
ARRAY_CALLS = {
    "potential-r": lambda bad: magband.potential(magband.ModelParams(5, 1, 1.0), bad),
    "sweep-xi_samples": lambda bad: magband.sweep(5, [1], [1], bad, GRID),
    "refined_sweep-xi_samples": lambda bad: magband.refined_sweep(5, [1], [1], bad, GRID),
}


@pytest.mark.parametrize("bad", [[1.0, 0.5 + 1j], np.array([0.5 + 1j])], ids=["list", "array"])
@pytest.mark.parametrize("call", ARRAY_CALLS)
def test_a_complex_entry_is_refused_not_cut_to_its_real_part(monkeypatch, bad, call):
    # np.asarray(..., dtype=float) kept the 0.5 of 0.5 + 1j, with a warning only
    def no_fiber_step(*args):
        raise AssertionError("a fiber step ran before the input was checked")

    monkeypatch.setattr(magband.bands, "_follow", no_fiber_step)
    with pytest.raises(magband.ModelError, match=r"must be .*finite, got \(0\.5\+1j\)$"):
        ARRAY_CALLS[call](bad)


# One call per public entry point that takes a window, with that window `bad`.
WINDOW_CALLS = {
    "band_asymptotics": lambda bad: magband.band_asymptotics(5, 1, 1, 2, bad, 9, GRID),
    "band_asymptotics-flat": lambda bad: magband.band_asymptotics(4, 0, 1, 2, bad, 9, GRID),
    "remainder_rate": lambda bad: magband.remainder_rate(_BAND, _COEFFS, bad),
    "exponential_gap_check": lambda bad: magband.exponential_gap_check(_FLAT_BAND, bad),
    "edge_current": lambda bad: magband.edge_current(5, bad, 1),
    "bands_meeting_window": lambda bad: magband.bands_meeting_window(5, bad, 1),
    "bulk_decay_study": lambda bad: magband.bulk_decay_study(5, bad, [10]),
    "current_dichotomy": lambda bad: magband.current_dichotomy(5, bad, 2, [10, 20], 1e-2),
    "witness_small_current": lambda bad: magband.witness_small_current(5, bad, 1e-2),
    "synthesize_state": lambda bad: magband.synthesize_state(5, bad, [(0, 1, 1)]),
}


@pytest.mark.parametrize("bad", [(8.0,), None, 8.0, (8.0, 9.0, 15.0), (15.0, 8.0)],
                         ids=["one", "None", "scalar", "three", "descending"])
@pytest.mark.parametrize("call", WINDOW_CALLS)
def test_a_window_that_is_not_two_ascending_reals_is_refused_before_any_fiber_step(
    monkeypatch, bad, call
):
    def no_fiber_step(*args):
        raise AssertionError("a fiber step ran before the input was checked")

    monkeypatch.setattr(magband.solver, "_follow", no_fiber_step)
    monkeypatch.setattr(magband.bands, "_follow", no_fiber_step)
    refused = r"window (must be two reals \(lower, upper\), got .*|\[15\.0, 8\.0\])$"
    with pytest.raises(magband.ModelError, match=refused):
        WINDOW_CALLS[call](bad)


@pytest.mark.parametrize("bad", [None, 5, [(0, 1)], [(0, 1, 1, 2)], "abc", [None]],
                         ids=["None", "scalar", "pair", "four", "str", "None-mode"])
def test_a_mode_set_that_is_not_triples_is_refused_before_any_crossing(monkeypatch, bad):
    def no_crossing(*args, **kwargs):
        raise AssertionError("a crossing ran before the mode set was checked")

    monkeypatch.setattr(magband.transport, "crossing", no_crossing)
    monkeypatch.setattr(magband.solver, "_follow", no_crossing)
    refused = r"^mode set must hold \(m, j, p\) triples, got "
    with pytest.raises(magband.ModelError, match=refused):
        magband.synthesize_state(5, WINDOW, bad)


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


REPO = Path(__file__).resolve().parent.parent
PERFBENCH_MODULES = ("bench", "tracing", "workloads", "reference")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's `bench` module, imported read-only from the checkout: no
    bytecode written, and its modules gone from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in PERFBENCH_MODULES:
        monkeypatch.setitem(sys.modules, name, None)  # so teardown removes it
        del sys.modules[name]
    return importlib.import_module("bench")


@pytest.mark.parametrize("workload", ["band-sweep", "crossing-scan", "edge-bulk-current",
                                      "classical-drift"])
def test_every_benchmark_workload_still_answers_through_the_library(perfbench, workload):
    # the benchmark calls the public API itself; a library change that breaks
    # one of its calls fails here, not only in a benchmark run
    seconds = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    spec = perfbench.make_inputs(workload, 1, perfbench.batch_size(workload, seconds))[0]
    work = perfbench.WORKLOADS[workload]
    assert work.verify(spec, work.answer(spec)) is None
