"""Row/CSV serialization shared by the CLI and the acceptance runner.

Floats print with 17 significant digits — enough to round-trip binary64 — so
identical computations serialize to identical bytes.
"""

from __future__ import annotations

from .bands import BandCurve, ScalingStudy
from .classical import TrajectoryResult
from .model import _integer
from .solver import RefinedValue

SWEEP_HEADER = ("n", "m", "p", "xi", "lambda", "lambda_prime_fh", "lambda_prime_bd")
SCALING_HEADER = ("m", "k_m", "xi_m", "lambda_prime", "xi_over_sqrtk", "prime_times_sqrtk")
TRAJECTORY_HEADER = ("t", "x", "y", "z", "vx", "vy", "vz", "E", "sigma", "c")
CONVERGENCE_HEADER = ("n", "m", "p", "xi", "lambda_coarse", "lambda_fine", "lambda_richardson", "error_estimate")


def format_value(value) -> str:
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def sweep_rows(curves: list[BandCurve]) -> list[tuple]:
    """Flatten band curves to (n,m,p,xi,...) rows sorted by (m, p, xi)."""
    rows = []
    for curve in sorted(curves, key=lambda c: (c.m, c.p)):
        for i in range(curve.xi.size):
            rows.append(
                (
                    curve.n,
                    curve.m,
                    curve.p,
                    curve.xi[i],
                    curve.values[i],
                    curve.slope_fh[i],
                    curve.slope_bd[i],
                )
            )
    return rows


def scaling_rows(study: ScalingStudy) -> list[tuple]:
    return [
        (
            int(study.m[i]),
            study.coupling[i],
            study.xi[i],
            study.slope[i],
            study.xi_over_sqrtk[i],
            study.slope_times_sqrtk[i],
        )
        for i in range(study.m.size)
    ]


def trajectory_rows(traj: TrajectoryResult, stride: int = 1) -> list[tuple]:
    """Rows of every `stride`-th sample, starting with the first."""
    return [
        (
            traj.times[i],
            *traj.states[i],
            traj.energy[i],
            traj.sigma[i],
            traj.c_invariant[i],
        )
        for i in range(0, traj.times.size, _integer(stride, "stride", 1))
    ]


def convergence_rows(refined: list[tuple[BandCurve, RefinedValue]]) -> list[tuple]:
    """Flatten `refined_sweep`'s bands to (n,m,p,xi,...) rows in its order."""
    return [
        (curve.n, curve.m, curve.p, *entry)
        for curve, rv in refined
        for entry in zip(curve.xi, rv.coarse, rv.fine, rv.value, rv.error)
    ]
