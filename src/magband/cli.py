"""Command-line front end.

Subcommands: sweep | scaling | asym | classical | current | convergence |
acceptance.  Each subcommand parses its options, calls one library pipeline
(`convergence`: the Richardson pipeline `bands.refined_sweep` at one xi),
and reports; the pass/fail criteria it lists are the acceptance battery's own
(`magband.acceptance`), so the two never disagree on a threshold.  Options
resolve with precedence flags > config file > defaults;
the config file is plain key=value lines ('#' starts a comment) using the
flag names with underscores.  Exit codes: 0 success, 1 when a criterion that
the run lists fails (every report subcommand and `acceptance`, one rule in
`_status`), 2 invalid input, 3 numerical convergence failure.

Every pipeline runs serially in a fixed order.  CSV numbers go through
17-significant-digit formatting and JSON floats through Python's shortest
round-trip repr, so repeated runs produce byte-identical files.  Reports
are strict JSON: every non-finite value in one is written as null (`_plain`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import acceptance as acceptance_mod
from .acceptance import (
    CheckResult,
    alpha_criteria,
    classical_criteria,
    convergence_criteria,
    dichotomy_criteria,
    gap_profile_criteria,
    remainder_criterion,
    scaling_criteria,
)
from .asymptotics import band_asymptotics
from .bands import CROSSING_STEP, CROSSING_TOLERANCE, refined_sweep, scaling_study, sweep
from .classical import ClassicalState, effective_velocity, integrate
from .errors import ConvergenceError, ModelError
from .model import landau_level
from .solver import Grid
from .tables import (
    CONVERGENCE_HEADER,
    SCALING_HEADER,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    convergence_rows,
    render_csv,
    scaling_rows,
    sweep_rows,
    trajectory_rows,
)
from .transport import TRANSPORT_STEP, WITNESS_STEP, current_dichotomy


# ---------------------------------------------------------------- value parsing

_MAX_ENTRIES = 2**22  # longest list a range option expands to; 32 MiB of floats


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ModelError(f"expected an integer, got {text!r}") from exc


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ModelError(f"expected a number, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    """'3' | '0,2,5' | '0..6' (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _int(lo_text), _int(hi_text)
        if hi < lo:
            raise ModelError(f"empty integer range {text!r}")
        if hi - lo + 1 > _MAX_ENTRIES:
            raise ModelError(
                f"range {text!r} has {hi - lo + 1} entries, above the limit of {_MAX_ENTRIES}"
            )
        return list(range(lo, hi + 1))
    return [_int(part) for part in text.split(",") if part.strip() != ""]


def _float_grid(text: str) -> np.ndarray:
    """'start:stop:step' (inclusive stop) | comma list | single value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ModelError(f"grid syntax is start:stop:step, got {text!r}")
        start, stop, step = (_float(p) for p in parts)
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ModelError(f"grid start and stop must be finite, got {text!r}")
        if not (np.isfinite(step) and step > 0):
            raise ModelError(f"grid step must be positive and finite, got {step}")
        ratio = (stop - start) / step
        if ratio + 1 > _MAX_ENTRIES:
            raise ModelError(
                f"grid {text!r} has {ratio + 1:.0f} entries, above the limit of {_MAX_ENTRIES}"
            )
        count = int(round(ratio))
        if abs(start + count * step - stop) > 1e-9 * max(1.0, abs(stop)):
            raise ModelError(f"step does not divide the range in {text!r}")
        if count < 0:
            raise ModelError(f"empty grid {text!r}")
        return start + step * np.arange(count + 1)
    return np.array([_float(p) for p in text.split(",") if p.strip() != ""])


def _pair(text: str) -> tuple[float, float]:
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise ModelError(f"expected two numbers 'a:b', got {text!r}")
    pair = _float(parts[0]), _float(parts[1])
    if not np.all(np.isfinite(pair)):
        raise ModelError(f"expected two finite numbers 'a:b', got {text!r}")
    return pair


# ---------------------------------------------------------------- config plumbing

# per-subcommand option tables: name -> (converter, default-as-string-or-None, help)
_OPTIONS = {
    "sweep": {
        "n": (_int, "5", "ambient dimension (>= 3)"),
        "m": (_int_list, "0..3", "angular momenta, e.g. 0..6 or 0,2,4"),
        "p": (_int_list, "1..3", "band indices"),
        "xi": (_float_grid, "-1:5:0.05", "momentum samples start:stop:step"),
        "radius": (_float, "20", "grid radius R"),
        "intervals": (_int, "4800", "grid intervals N (step h = R/N)"),
        "output": (str, None, "CSV path (default: stdout)"),
    },
    "scaling": {
        "n": (_int, "5", "ambient dimension"),
        "p": (_int, "1", "band index"),
        "energy": (_float, "2.0", "crossing energy E, above E_p"),
        "m": (_int_list, "5..40", "angular momenta (m >= 1)"),
        "tolerance": (_float, str(CROSSING_TOLERANCE), "crossing tolerance on |lambda - E|"),
        "step": (_float, str(CROSSING_STEP), "grid step h for the fiber solves"),
        "output": (str, None, "CSV path (omit to skip the CSV)"),
        "summary": (str, None, "JSON path (default: stdout)"),
    },
    "asym": {
        "n": (_int, "5", "ambient dimension"),
        "m": (_int, "1", "angular momentum (fixes k_m; k_m=0 switches regime)"),
        "p": (_int, "1", "band index"),
        "order": (_int, "4", "expansion order N"),
        "window": (_pair, "8:15", "xi window for the remainder regression"),
        "samples": (_int, "15", "band samples across the window"),
        "radius": (_float, "30", "grid radius for the band solves"),
        "intervals": (_int, "7200", "coarse grid intervals (Richardson doubles)"),
        "summary": (str, None, "JSON path (default: stdout)"),
    },
    "classical": {
        "x0": (_float, "1.2", "initial x"),
        "y0": (_float, "0.0", "initial y"),
        "z0": (_float, "0.0", "initial z"),
        "vx": (_float, "0.1", "initial vx"),
        "vy": (_float, "0.5", "initial vy"),
        "vz": (_float, "0.3", "initial vz"),
        "t_max": (_float, "200", "integration time"),
        "dt": (_float, "1e-3", "RK4 step"),
        "stride": (_int, "100", "output every k-th sample, k >= 1 (CSV only)"),
        "output": (str, None, "trajectory CSV path (omit to skip)"),
        "summary": (str, None, "JSON path (default: stdout)"),
    },
    "current": {
        "n": (_int, "5", "ambient dimension (>= 4)"),
        "window": (_pair, "1.5:2.5", "spectral window a:b"),
        "edge_m_max": (_int, "3", "edge packet uses m = 0..edge_m_max"),
        "cutoffs": (_int_list, "10,20,30", "bulk cutoffs M"),
        "epsilon": (_float, "1e-2", "witness target |current| <= epsilon"),
        "step": (_float, str(TRANSPORT_STEP),
                 f"grid step of the edge and bulk band solves; the witness uses "
                 f"1/{round(1 / WITNESS_STEP)}"),
        "summary": (str, None, "JSON path (default: stdout)"),
    },
    "convergence": {
        "n": (_int, "5", "ambient dimension"),
        "m": (_int_list, "0..3", "angular momenta"),
        "p": (_int_list, "1..3", "band indices"),
        "xi": (_float, "0.0", "momentum"),
        "radius": (_float, "12", "grid radius"),
        "intervals": (_int, "4800", "coarse intervals (the fine grid doubles)"),
        "bound": (_float, "1e-6", "acceptance bound on the error estimate"),
        "output": (str, None, "CSV path (omit to skip)"),
        "summary": (str, None, "JSON path (default: stdout)"),
    },
    "acceptance": {
        "only": (str, None, "comma-separated check name prefixes, e.g. 01,08"),
        "summary": (str, None, "JSON path (in addition to the printed lines)"),
    },
}


def _read_config(path: str) -> dict[str, str]:
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise ModelError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge flags > config file > defaults, converting each value once."""
    table = _OPTIONS[command]
    file_values = _read_config(args.config) if args.config else {}
    unknown = set(file_values) - set(table)
    if unknown:
        raise ModelError(
            f"unknown config keys for '{command}': {', '.join(sorted(unknown))}"
        )
    resolved = {}
    for name, (convert, default, _help) in table.items():
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name, default)
        if raw is None:
            resolved[name] = None
        else:
            resolved[name] = convert(raw)
    return resolved


def _plain(value):
    """The one rule that makes a report strict JSON: `value` with each numpy
    array or scalar as Python lists and numbers, each tuple as a list, and
    each non-finite float as None (null)."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _plain(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _check_entry(check: CheckResult) -> dict:
    """One check as a report entry."""
    entry = {"name": check.name, "value": check.value, "bound": check.bound,
             "pass": bool(check.passed)}
    if check.detail:
        entry["detail"] = check.detail
    return entry


def _status(checks: list[CheckResult]) -> int:
    """The exit rule: 0 when every listed criterion passes, 1 otherwise."""
    return 0 if all(c.passed for c in checks) else 1


def _report(config: dict, results: dict, checks: list[CheckResult], path: str | None) -> int:
    """Write the JSON report, strict by `_plain`, and return the run's exit status."""
    payload = {"config": config, "results": results,
               "checks": [_check_entry(c) for c in checks]}
    _emit(json.dumps(_plain(payload), indent=2, allow_nan=False) + "\n", path)
    return _status(checks)


# ---------------------------------------------------------------- subcommands

def cmd_sweep(cfg: dict) -> int:
    grid = Grid(cfg["radius"], cfg["intervals"])
    curves = sweep(cfg["n"], cfg["m"], cfg["p"], cfg["xi"], grid)
    _emit(render_csv(SWEEP_HEADER, sweep_rows(curves)), cfg["output"])
    return 0


def cmd_scaling(cfg: dict) -> int:
    study = scaling_study(
        cfg["n"], cfg["p"], cfg["energy"], cfg["m"],
        tolerance=cfg["tolerance"], step=cfg["step"],
    )
    if cfg["output"] is not None:
        _emit(render_csv(SCALING_HEADER, scaling_rows(study)), cfg["output"])
    checks = scaling_criteria(study)
    _, _, xi_spread, slope_spread = checks
    results = {
        "xi_slope": study.xi_regression,
        "xi_slope_stderr": study.xi_regression_err,
        "derivative_slope": study.slope_regression,
        "derivative_slope_stderr": study.slope_regression_err,
        "xi_ratio_spread": xi_spread.value,
        "slope_ratio_spread": slope_spread.value,
    }
    return _report(cfg, results, checks, cfg["summary"])


def cmd_asym(cfg: dict) -> int:
    run = band_asymptotics(
        cfg["n"], cfg["m"], cfg["p"], cfg["order"], cfg["window"], cfg["samples"],
        Grid(cfg["radius"], cfg["intervals"]),
    )
    report = run.report
    if run.coeffs.coupling == 0.0:
        results = {
            "coupling": 0.0,
            "regime": "exponential",
            "xi": report.xi,
            "gap": report.gap,
            "profile": report.profile,
            "indeterminate": report.indeterminate,
        }
        checks = gap_profile_criteria(report)
    else:
        results = {
            "coupling": run.coeffs.coupling,
            "regime": "inverse-power",
            "landau_level": landau_level(cfg["p"]),
            "alphas": run.coeffs.alphas,
            "coupling_sensitive_orders": run.sensitive_orders,
            "remainder_slope": report.slope,
            "remainder_points": report.points,
            "remainder_indeterminate": report.indeterminate,
            "noise_floor": run.noise,
        }
        checks = alpha_criteria(run.coeffs.alphas) + [remainder_criterion(report, cfg["order"])]
    return _report(cfg, results, checks, cfg["summary"])


def cmd_classical(cfg: dict) -> int:
    if cfg["stride"] < 1:
        raise ModelError(f"stride must be >= 1, got {cfg['stride']}")
    initial = ClassicalState(
        cfg["x0"], cfg["y0"], cfg["z0"], cfg["vx"], cfg["vy"], cfg["vz"]
    )
    traj = integrate(initial, cfg["t_max"], cfg["dt"])
    velocity = effective_velocity(traj)
    if cfg["output"] is not None:
        rows = trajectory_rows(traj, cfg["stride"])
        _emit(render_csv(TRAJECTORY_HEADER, rows), cfg["output"])
    results = {
        "energy": float(traj.energy[0]),
        "sigma": float(traj.sigma[0]),
        "c": float(traj.c_invariant[0]),
        "energy_drift": traj.energy_drift,
        "sigma_drift": traj.sigma_drift,
        "c_drift": traj.c_drift,
        "radial_period": velocity.period.value,
        "period_spread": velocity.period.spread,
        "vz_formula": velocity.formula,
        "vz_fit": velocity.fit,
        "vz_bound": velocity.bound,
    }
    return _report(cfg, results, classical_criteria(traj, velocity), cfg["summary"])


def cmd_current(cfg: dict) -> int:
    result = current_dichotomy(
        cfg["n"], cfg["window"], cfg["edge_m_max"], cfg["cutoffs"], cfg["epsilon"],
        step=cfg["step"],
    )
    edge_report, bulk = result.edge, result.bulk
    witness_m, witness_value = result.witness
    results = {
        "edge": {
            "normalized_current": edge_report.normalized,
            "c_minus": result.c_minus,
            "contributions": {
                f"m={m},j={j},p={q}": v
                for (m, j, q), v in edge_report.contributions.items()
            },
        },
        "bulk": {
            "cutoffs": bulk.m_cut,
            "coupling": bulk.coupling,
            "normalized_current": bulk.normalized_current,
            "slope": bulk.slope,
            "slope_stderr": bulk.slope_err,
        },
        "witness": {"m": witness_m, "normalized_current": witness_value},
    }
    return _report(cfg, results, dichotomy_criteria(result, cfg["epsilon"]), cfg["summary"])


def cmd_convergence(cfg: dict) -> int:
    if not (np.isfinite(cfg["bound"]) and cfg["bound"] > 0):
        raise ModelError(f"bound must be positive and finite, got {cfg['bound']!r}")
    grid = Grid(cfg["radius"], cfg["intervals"])
    refined = refined_sweep(cfg["n"], cfg["m"], cfg["p"], [cfg["xi"]], grid)
    rows = convergence_rows(refined)
    if cfg["output"] is not None:
        _emit(render_csv(CONVERGENCE_HEADER, rows), cfg["output"])
    keys = ("m", "p", "xi", "coarse", "fine", "richardson", "error_estimate")
    results = {"entries": [dict(zip(keys, row[1:])) for row in rows]}
    return _report(cfg, results, convergence_criteria(refined, cfg["bound"]), cfg["summary"])


def cmd_acceptance(cfg: dict) -> int:
    selected = acceptance_mod.ALL_CHECKS
    if cfg["only"]:
        prefixes = [p.strip() for p in cfg["only"].split(",") if p.strip()]
        selected = [
            (name, fn)
            for name, fn in selected
            if any(name.startswith(prefix) for prefix in prefixes)
        ]
        if not selected:
            raise ModelError(f"no acceptance check matches {cfg['only']!r}")
    checks = []
    for name, fn in selected:
        result = fn()
        print(f"[{name}] {result.line()}")
        checks.append(replace(result, name=name))
    if cfg["summary"] is None:
        return _status(checks)
    return _report({"only": cfg["only"]}, {}, checks, cfg["summary"])


_COMMANDS = {
    "sweep": (cmd_sweep, "band-function sweep to CSV"),
    "scaling": (cmd_scaling, "high-m crossing scaling study"),
    "asym": (cmd_asym, "expansion coefficients and remainder rate"),
    "classical": (cmd_classical, "classical trajectory and drift velocity"),
    "current": (cmd_current, "edge/bulk current dichotomy"),
    "convergence": (cmd_convergence, "Richardson refinement report"),
    "acceptance": (cmd_acceptance, "run the acceptance checks"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magband",
        description="Band functions of the axisymmetric magnetic Hamiltonian.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_fn, blurb) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=blurb)
        sub.add_argument("--config", default=None, help="key=value config file")
        for name, (_conv, default, help_text) in _OPTIONS[command].items():
            shown = f"{help_text} (default {default})" if default is not None else help_text
            sub.add_argument(
                f"--{name.replace('_', '-')}", dest=name, default=None, help=shown
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        cfg = _resolve(command, args)
        return _COMMANDS[command][0](cfg)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
