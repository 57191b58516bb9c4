"""Band-function analysis: sweeps, threshold crossings, scaling, Agmon weights.

A band function is the p-th eigenvalue of the fiber operator as a function of
the momentum xi.  For nonnegative coupling the bands decrease strictly from
+infinity to the Landau level 2p-1, which makes every threshold crossing
unique: any pair of points where lambda - E changes sign brackets it.
Crossings are found by Newton's method on the Feynman-Hellmann slope, seeded
from the leading law lambda ~ E_p + k_m/xi^2 and kept inside that bracket.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .errors import AgmonOverflowError, BracketError, ConvergenceError, ModelError
from .model import ModelParams, landau_level, potential, turning_points
from .solver import (
    EigenPair,
    Grid,
    derivative_boundary_form,
    derivative_feynman_hellmann,
    fiber_eigenvalues,  # not called here; perfbench/tracing.py wraps this binding
    rayleigh_quotient,
    solve_fiber,
)

_BRACKET_LIMIT = float(2**30)
_FLAT_SEED = 1.0  # k_m = 0 has no leading law to seed from


@dataclass(frozen=True)
class BandCurve:
    """Sampled band lambda_{m,p} with both derivative evaluations per sample."""

    n: int
    m: int
    p: int
    xi: np.ndarray
    values: np.ndarray
    slope_fh: np.ndarray
    slope_bd: np.ndarray


@dataclass(frozen=True)
class CrossingResult:
    """Solution xi of lambda_{m,p}(xi) = energy on a decreasing band.

    `slope` is the Feynman-Hellmann derivative at xi, and `residual` is
    |lambda - energy| with lambda the Rayleigh quotient of the eigenvector at
    xi (see `solver.rayleigh_quotient`), both on the crossing's grid.
    """

    energy: float
    xi: float
    slope: float
    coupling: float
    residual: float


def _parallel_map(task, keys, workers: int) -> dict:
    """Run `task` over `keys`, possibly concurrently; results keyed by input.

    Aggregation by key keeps downstream output independent of completion
    order.  On the first failure remaining work is cancelled and the error
    propagates.
    """
    if workers <= 1:
        return {key: task(key) for key in keys}
    out = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(task, key): key for key in keys}
        try:
            for future in as_completed(futures):
                out[futures[future]] = future.result()
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    return out


def sweep(
    n: int,
    m_range,
    p_range,
    xi_samples,
    grid: Grid,
    *,
    workers: int = 1,
) -> list[BandCurve]:
    """Solve every (m, p) band over xi_samples; one fiber solve per (m, xi).

    Output is ordered by (m, p) with xi ascending inside each curve, no matter
    how the fiber solves were scheduled.
    """
    ms = sorted(set(int(m) for m in m_range))
    ps = sorted(set(int(p) for p in p_range))
    if not ms or not ps:
        raise ModelError("sweep needs non-empty m and p ranges")
    if ps[0] < 1:
        raise ModelError(f"band indices must be >= 1, got {ps[0]}")
    xi = np.asarray(xi_samples, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise ModelError("xi_samples must be a non-empty 1-d sequence")
    if np.any(np.diff(xi) < 0):
        raise ModelError("xi_samples must be sorted ascending")
    if not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise ModelError(f"worker count must be an integer >= 1, got {workers!r}")
    for m in ms:
        ModelParams(n, m, 0.0)  # validates (n, m) once up front

    count = ps[-1]

    def task(key):
        m, x = key
        params = ModelParams(n, m, x)
        try:
            pairs = solve_fiber(params, grid, count)
        except ConvergenceError as exc:
            raise ConvergenceError(f"fiber (m={m}, xi={x}): {exc}") from exc
        return {
            p: (
                pairs[p - 1].value,
                derivative_feynman_hellmann(params, pairs[p - 1], grid),
                derivative_boundary_form(params, pairs[p - 1], grid),
            )
            for p in ps
        }

    keys = [(m, float(x)) for m in ms for x in xi]
    results = _parallel_map(task, keys, workers)

    curves = []
    for m in ms:
        per_xi = [results[(m, float(x))] for x in xi]
        for p in ps:
            values = np.array([row[p][0] for row in per_xi])
            fh = np.array([row[p][1] for row in per_xi])
            bd = np.array([row[p][2] for row in per_xi])
            curves.append(BandCurve(n, m, p, xi.copy(), values, fh, bd))
    return curves


def _crossing_grid(base_radius: float, step: float, xi: float) -> Grid:
    radius = max(base_radius, xi + 10.0)
    intervals = max(16, int(np.ceil(radius / step)))
    return Grid(intervals * step, intervals)


def crossing(
    n: int,
    m: int,
    p: int,
    energy: float,
    tolerance: float = 1e-8,
    *,
    step: float = 1.0 / 240.0,
    base_radius: float = 12.0,
) -> CrossingResult:
    """The unique xi with lambda_{m,p}(xi) = energy, by safeguarded Newton.

    Works on the strictly decreasing regime k_m >= 0.  The iteration starts
    from the leading law lambda ~ E_p + k_m/xi^2, i.e. xi_0 = sqrt(k_m/(E - E_p))
    (a fixed seed when k_m = 0), on one grid sized for it (R >= xi + 10, fixed
    step).  Each iterate costs one eigenpair solve: lambda is the Rayleigh
    quotient of the eigenvector (`rayleigh_quotient`), and the
    Feynman-Hellmann moment is its exact xi-derivative, so Newton runs on the
    discrete branch itself.  Signs of lambda - energy keep a bracket; a Newton
    step that leaves it is replaced by bisection, or by a bounded expansion
    while one side is still open.  An iterate beyond the grid's reach
    rebuilds the grid and drops the bracket, which belonged to the old one.
    The returned slope and residual |lambda - energy| are those of the last
    iterate, with lambda measured as that Rayleigh quotient.
    """
    probe = ModelParams(n, m, 0.0)
    if probe.k < 0:
        raise ModelError(
            f"crossing requires nonnegative coupling, got k_m={probe.k} for (n={n}, m={m})"
        )
    target = float(landau_level(p))
    if not (np.isfinite(energy) and energy > target):
        raise ModelError(
            f"energy must exceed the Landau level E_p={target}, got {energy!r}"
        )
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ModelError(f"tolerance must be positive, got {tolerance!r}")

    x = float(np.sqrt(probe.k / (energy - target))) if probe.k > 0 else _FLAT_SEED
    grid, lo, hi = None, -np.inf, np.inf  # f > 0 at lo, f < 0 at hi
    for _ in range(60):
        if abs(x) > _BRACKET_LIMIT:
            raise BracketError(f"no sign change of lambda - {energy} for |xi| <= 2^30")
        wider = _crossing_grid(base_radius, step, x)
        if grid is None or wider.intervals > grid.intervals:
            grid, lo, hi = wider, -np.inf, np.inf
        params = ModelParams(n, m, x)
        pair = solve_fiber(params, grid, p)[p - 1]
        f = rayleigh_quotient(params, pair, grid) - energy
        slope = derivative_feynman_hellmann(params, pair, grid)
        if abs(f) <= tolerance:
            return CrossingResult(
                energy=float(energy),
                xi=x,
                slope=slope,
                coupling=probe.k,
                residual=abs(f),
            )
        if f > 0.0:
            lo = x
        else:
            hi = x
        # The Newton step heads from x toward the root, i.e. toward the
        # other end of the bracket, whatever the sign of f.
        delta = -f / slope if slope < 0.0 else (np.inf if f > 0.0 else -np.inf)
        if np.isfinite(lo) and np.isfinite(hi):
            x = x + delta if lo < x + delta < hi else 0.5 * (lo + hi)
        else:
            reach = max(1.0, abs(x))  # at most a doubling toward an open side
            x += min(max(delta, -reach), reach)
    raise ConvergenceError(
        f"Newton did not reach |lambda - {energy}| <= {tolerance} "
        f"within 60 iterations (bracket [{lo:.6g}, {hi:.6g}])"
    )


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope and its standard error for log y against log x."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = lx.size - 2
    if dof > 0:
        stderr = float(np.sqrt(np.sum(resid**2) / dof / np.sum((lx - lx.mean()) ** 2)))
    else:
        stderr = float("nan")
    return float(slope), stderr


@dataclass(frozen=True)
class ScalingStudy:
    """Crossings xi_m and slopes lambda'(xi_m) across m, with log-log fits.

    The regression slopes quantify the high-angular-momentum laws
    xi_m ~ sqrt(k_m) and |lambda'(xi_m)| ~ 1/sqrt(k_m); only entries with
    m >= 5 enter the fit (pre-asymptotic bias below that).
    """

    energy: float
    p: int
    m: np.ndarray
    coupling: np.ndarray
    xi: np.ndarray
    slope: np.ndarray
    xi_over_sqrtk: np.ndarray
    slope_times_sqrtk: np.ndarray
    xi_regression: float
    xi_regression_err: float
    slope_regression: float
    slope_regression_err: float


def scaling_study(
    n: int,
    p: int,
    energy: float,
    m_list,
    *,
    tolerance: float = 1e-8,
    step: float = 1.0 / 240.0,
) -> ScalingStudy:
    """Crossing study over m_list at fixed energy; see ScalingStudy."""
    ms = sorted(set(int(m) for m in m_list))
    if not ms:
        raise ModelError("scaling study needs a non-empty m list")
    if ms[0] < 1:
        raise ModelError(f"scaling study needs m >= 1, got m={ms[0]}")
    q = round((energy + 1.0) / 2.0)
    if q >= 1 and energy == float(landau_level(q)):
        raise ModelError(f"energy {energy} is a Landau level; crossings degenerate")

    rows = [crossing(n, m, p, energy, tolerance, step=step) for m in ms]
    m_arr = np.array(ms, dtype=int)
    k_arr = np.array([r.coupling for r in rows])
    xi_arr = np.array([r.xi for r in rows])
    sl_arr = np.array([r.slope for r in rows])

    fit = m_arr >= 5
    if np.count_nonzero(fit) < 2:
        raise ModelError("regression needs at least two entries with m >= 5")
    xi_slope, xi_err = _loglog_slope(k_arr[fit], xi_arr[fit])
    der_slope, der_err = _loglog_slope(k_arr[fit], np.abs(sl_arr[fit]))

    return ScalingStudy(
        energy=float(energy),
        p=int(p),
        m=m_arr,
        coupling=k_arr,
        xi=xi_arr,
        slope=sl_arr,
        xi_over_sqrtk=xi_arr / np.sqrt(k_arr),
        slope_times_sqrtk=np.abs(sl_arr) * np.sqrt(k_arr),
        xi_regression=xi_slope,
        xi_regression_err=xi_err,
        slope_regression=der_slope,
        slope_regression_err=der_err,
    )


@dataclass(frozen=True)
class AgmonWeight:
    """Scaled Agmon distance Phi to the classical well, on the grid nodes.

    Phi is delta times the (V - E)_+ geodesic distance to the well interval,
    so it vanishes on the well, grows outward on both sides, and satisfies the
    eikonal identity |Phi'|^2 = delta^2 (V - E)_+ away from the turning
    points.
    """

    delta: float
    alpha: float
    energy: float
    values: np.ndarray
    well: tuple[float, float]


def agmon_weight(
    params: ModelParams, energy: float, grid: Grid, alpha: float = 2.0
) -> AgmonWeight:
    """Cumulative-trapezoid Agmon weight with delta = alpha / sqrt(k_m)."""
    if not (np.isfinite(alpha) and alpha > 1.5):
        raise ModelError(f"alpha must exceed 3/2, got {alpha!r}")
    if params.k <= 0:
        raise ModelError(f"Agmon scaling needs k_m > 0, got k_m={params.k}")
    r_minus, r_plus = turning_points(params, energy)  # rejects an empty well
    delta = alpha / np.sqrt(params.k)

    r = grid.nodes
    g = delta * np.sqrt(np.clip(potential(params, r) - energy, 0.0, None))
    phi = np.zeros_like(r)

    right = np.nonzero(r > r_plus)[0]
    if right.size:
        first = right[0]
        # partial cell from the exact turning point, where the integrand is 0
        steps = np.concatenate(
            [[0.5 * (r[first] - r_plus) * g[first]],
             0.5 * np.diff(r[right]) * (g[right][1:] + g[right][:-1])]
        )
        phi[right] = np.cumsum(steps)

    left = np.nonzero(r < r_minus)[0]
    if left.size:
        last = left[-1]
        # cells walk outward, i.e. toward smaller r: partial cell at r_minus
        # first, then node-to-node trapezoids; cumulate in that direction.
        steps = np.concatenate(
            [[0.5 * (r_minus - r[last]) * g[last]],
             0.5 * np.diff(r[left])[::-1] * (g[left][:-1] + g[left][1:])[::-1]]
        )
        phi[left] = np.cumsum(steps)[::-1]

    return AgmonWeight(
        delta=float(delta),
        alpha=float(alpha),
        energy=float(energy),
        values=phi,
        well=(float(r_minus), float(r_plus)),
    )


def agmon_norm(pair: EigenPair, weight: AgmonWeight, grid: Grid) -> float:
    """Weighted norm ||e^{Phi} u|| over the grid, accumulated in log space.

    The weight can reach several hundred at the edge of the grid, so the sum
    of e^{2 Phi} u^2 is formed as a log-sum-exp; an unrepresentable result
    raises instead of saturating to inf.
    """
    if weight.values.shape != grid.nodes.shape:
        raise ModelError("weight was built on a different grid")
    u = pair.vector
    mask = u != 0.0
    if not np.any(mask):
        return 0.0
    t = 2.0 * (weight.values[mask] + np.log(np.abs(u[mask])))
    peak = float(np.max(t))
    log_norm_sq = peak + np.log(np.sum(np.exp(t - peak))) + np.log(grid.h)
    if 0.5 * log_norm_sq > 700.0:
        raise AgmonOverflowError(
            f"weighted norm overflows: log ||e^Phi u|| = {0.5 * log_norm_sq:.1f}"
        )
    return float(np.exp(0.5 * log_norm_sq))
