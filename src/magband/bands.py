"""Band-function analysis: sweeps, threshold crossings, scaling, Agmon weights.

A band function is the p-th eigenvalue of the fiber operator as a function of
the momentum xi.  For nonnegative coupling the bands decrease strictly from
+infinity to the Landau level 2p-1, which makes every threshold crossing
unique: any pair of points where lambda - E changes sign brackets it.
Crossings are found by Newton's method on the Feynman-Hellmann slope, seeded
from the leading law lambda ~ E_p + k_m/xi^2 and kept inside that bracket.

`sweep` and `crossing` follow eigenpairs from one xi to the next, by sample
or by Newton iterate, through the solver's fiber step (`solver._follow`);
`refined_sweep` pairs the sweeps on a grid and on its refinement in
Richardson records, the one pipeline behind every refined value.  Every
band value here is the Rayleigh quotient of an eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AgmonOverflowError, BracketError, ConvergenceError, ModelError
from .model import ModelParams, _integers, _real, landau_level, potential, turning_points
from .solver import (
    EigenPair,
    Grid,
    RefinedValue,
    _admit,
    _follow,
    derivative_boundary_form,
    derivative_feynman_hellmann,  # not called here; perfbench/tracing.py binds it
    fiber_eigenvalues,  # likewise
    fixed_step_grid,
    richardson,
    solve_fiber,  # likewise
)

_BRACKET_LIMIT = float(2**30)
_FLAT_SEED = 1.0  # k_m = 0 has no leading law to seed from

CROSSING_TOLERANCE = 1e-8  # default bound on |lambda - energy| at a crossing
CROSSING_STEP = 1.0 / 240.0  # default grid step of the crossing solves


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
    |lambda - energy| with lambda the Rayleigh quotient of `pair`, the p-th
    eigenpair at xi (see `solver.rayleigh_quotient`); all three are measured
    on `grid`, the grid the crossing was solved on.
    """

    energy: float
    xi: float
    slope: float
    coupling: float
    residual: float
    pair: EigenPair = field(compare=False, repr=False)
    grid: Grid = field(compare=False, repr=False)


def _xi_samples(xi_samples) -> np.ndarray:
    """xi_samples as a float array: non-empty, 1-d, finite and ascending."""
    try:
        xi = np.asarray(xi_samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"xi_samples must be real numbers: {exc}") from None
    if xi.ndim != 1 or xi.size == 0:
        raise ModelError("xi_samples must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(xi)):
        raise ModelError(f"xi_samples must be finite, got {float(xi[~np.isfinite(xi)][0])!r}")
    if np.any(np.diff(xi) < 0):
        raise ModelError("xi_samples must be sorted ascending")
    return xi


def sweep(n: int, m_range, p_range, xi_samples, grid: Grid) -> list[BandCurve]:
    """Solve every (m, p) band over xi_samples; one fiber eigensolve per (m, xi).

    For each m the fiber step (`solver._follow`) solves the first xi afresh
    and continues each later one from the previous sample, from the third
    on by a second-order start extrapolated from the two samples before it,
    so every value is the Rayleigh quotient of its eigenvector; a value
    depends on those samples only at the rounding level.  Samples of
    different m never interact.  A sample whose top band `grid` does not
    admit (`solver._admit`) is a ModelError, and so, before any solve, is a grid
    that admits no value at the largest xi: every eigenvalue exceeds
    min V >= 0 when k_m >= 0, and the rule's reach falls as the value grows.

    m_range and p_range count as their distinct entries, each an integer
    (m >= 0, p >= 1); a fractional one is a ModelError before any solve.
    Output is ordered by (m, p) with xi ascending inside each curve.
    """
    ms, ps = _integers(m_range, "angular number m", 0), _integers(p_range, "band index p", 1)
    xi = _xi_samples(xi_samples)
    for m in ms:  # validates (n, m) and the grid at value 0 once up front
        _admit(ModelParams(n, m, float(xi[-1])), grid, 0.0)

    curves = []
    for m in ms:
        values, fh, bd = (np.empty((len(ps), xi.size)) for _ in range(3))
        fiber = None
        for i, x in enumerate(xi.tolist()):
            params = ModelParams(n, m, x)
            fiber = _follow(params, grid, ps[-1], fiber)
            _admit(params, grid, fiber.values[-1])
            for j, p in enumerate(ps):
                values[j, i] = fiber.values[p - 1]
                fh[j, i] = fiber.slopes[p - 1]
                bd[j, i] = derivative_boundary_form(params, fiber.pairs[p - 1], grid)
        curves.extend(
            BandCurve(n, m, p, xi.copy(), values[j], fh[j], bd[j]) for j, p in enumerate(ps)
        )
    return curves


def refined_sweep(
    n: int, m_range, p_range, xi_samples, grid: Grid
) -> list[tuple[BandCurve, RefinedValue]]:
    """Every (m, p) band of `sweep` on grid and on grid.refined(), paired up.

    Each entry is the fine sweep's curve with the Richardson record
    (`solver.richardson`) of its values: b on the fine grid and a on grid
    give the extrapolated values (4b - a)/3 and the error estimates
    |b - a|/3, elementwise over the samples.  The refined grid is built
    first, so a grid too large to refine fails before any solve; each sweep
    applies the input and grid rules of `sweep`.
    """
    fine_grid = grid.refined()
    coarse = sweep(n, m_range, p_range, xi_samples, grid)
    fine = sweep(n, m_range, p_range, xi_samples, fine_grid)
    return [(b, richardson(a.values, b.values)) for a, b in zip(coarse, fine)]


def crossing(
    n: int,
    m: int,
    p: int,
    energy: float,
    tolerance: float = CROSSING_TOLERANCE,
    *,
    step: float = CROSSING_STEP,
) -> CrossingResult:
    """The unique xi with lambda_{m,p}(xi) = energy, by safeguarded Newton.

    Works on the strictly decreasing regime k_m >= 0.  The iteration starts
    from the leading law lambda ~ E_p + k_m/xi^2, i.e. xi_0 = sqrt(k_m/(E - E_p))
    (a fixed seed when k_m = 0), on one grid that `solver.fixed_step_grid`
    sizes to admit `energy` there (an energy so close to E_p that this grid
    would be too large is a ModelError).  The fiber step (`solver._follow`)
    solves the first iterate's lowest p eigenpairs afresh and continues each
    later one from the previous iterate.  lambda is the Rayleigh quotient of
    pair p's eigenvector, and the Feynman-Hellmann moment is its exact
    xi-derivative, so Newton runs on the discrete branch itself.  Signs of
    lambda - energy keep a bracket; a Newton step that leaves it is replaced
    by bisection, or by a bounded expansion while one side is still open.  An
    iterate the grid does not admit `energy` at rebuilds the grid with the
    same step and drops the bracket, which belonged to the old one.  The
    result carries the last iterate's eigenpair p and grid, with its slope
    and residual |lambda - energy|.
    """
    probe = ModelParams(n, m, 0.0)
    if probe.k < 0:
        raise ModelError(
            f"crossing requires nonnegative coupling, got k_m={probe.k} for (n={n}, m={m})"
        )
    target = float(landau_level(p))
    energy = _real(energy, f"energy (Landau level E_p={target})", above=target)
    tolerance = _real(tolerance, "tolerance", above=0.0)

    x = float(np.sqrt(probe.k / (energy - target))) if probe.k > 0 else _FLAT_SEED
    grid, lo, hi = None, -np.inf, np.inf  # f > 0 at lo, f < 0 at hi
    fiber = None
    for _ in range(60):
        if abs(x) > _BRACKET_LIMIT:
            raise BracketError(f"no sign change of lambda - {energy} for |xi| <= 2^30")
        wider = fixed_step_grid(x, energy, step)
        if grid is None or wider.intervals > grid.intervals:
            grid, lo, hi = wider, -np.inf, np.inf
        fiber = _follow(ModelParams(n, m, x), grid, p, fiber)
        f = float(fiber.values[p - 1]) - energy
        slope = float(fiber.slopes[p - 1])
        if abs(f) <= tolerance:
            return CrossingResult(
                energy=energy,
                xi=x,
                slope=slope,
                coupling=probe.k,
                residual=abs(f),
                pair=fiber.pairs[p - 1],
                grid=grid,
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
    tolerance: float = CROSSING_TOLERANCE,
    step: float = CROSSING_STEP,
) -> ScalingStudy:
    """Crossing study over m_list at fixed energy; see ScalingStudy.

    Every m is an integer >= 1 and at least two are >= 5; `crossing` checks
    the energy, which only has to exceed E_p, before its first solve.
    """
    ms = _integers(m_list, "angular number m", 1)
    energy = _real(energy, "energy")
    m_arr = np.array(ms, dtype=int)
    fit = m_arr >= 5
    if np.count_nonzero(fit) < 2:
        raise ModelError("regression needs at least two entries with m >= 5")

    rows = [crossing(n, m, p, energy, tolerance, step=step) for m in ms]
    k_arr = np.array([r.coupling for r in rows])
    xi_arr = np.array([r.xi for r in rows])
    sl_arr = np.array([r.slope for r in rows])
    xi_slope, xi_err = _loglog_slope(k_arr[fit], xi_arr[fit])
    der_slope, der_err = _loglog_slope(k_arr[fit], np.abs(sl_arr[fit]))

    return ScalingStudy(
        energy=energy,
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
    points.  `grid` is the grid whose nodes carry the values.
    """

    delta: float
    alpha: float
    energy: float
    values: np.ndarray
    well: tuple[float, float]
    grid: Grid


def _outward(r: np.ndarray, g: np.ndarray, turning: float) -> np.ndarray:
    """Cumulative trapezoids of g over the nodes r, ordered outward from the
    turning point: the partial cell from it first, where the integrand is 0,
    then node to node."""
    steps = np.concatenate(
        [0.5 * np.abs(r[:1] - turning) * g[:1], 0.5 * np.abs(np.diff(r)) * (g[1:] + g[:-1])]
    )
    return np.cumsum(steps)


def agmon_weight(
    params: ModelParams, energy: float, grid: Grid, alpha: float = 2.0
) -> AgmonWeight:
    """Cumulative-trapezoid Agmon weight with delta = alpha / sqrt(k_m)."""
    alpha, energy = _real(alpha, "alpha", above=1.5), _real(energy, "energy")
    if params.k <= 0:
        raise ModelError(f"Agmon scaling needs k_m > 0, got k_m={params.k}")
    r_minus, r_plus = turning_points(params, energy)  # rejects an empty well
    delta = alpha / np.sqrt(params.k)

    r = grid.nodes
    g = delta * np.sqrt(np.clip(potential(params, r) - energy, 0.0, None))
    phi = np.zeros_like(r)

    right, left = r > r_plus, r < r_minus
    phi[right] = _outward(r[right], g[right], r_plus)
    phi[left] = _outward(r[left][::-1], g[left][::-1], r_minus)[::-1]

    return AgmonWeight(
        delta=float(delta),
        alpha=alpha,
        energy=energy,
        values=phi,
        well=(float(r_minus), float(r_plus)),
        grid=grid,
    )


def agmon_norm(pair: EigenPair, weight: AgmonWeight, grid: Grid) -> float:
    """Weighted norm ||e^{Phi} u|| over the grid, accumulated in log space.

    The weight can reach several hundred at the edge of the grid, so the sum
    of e^{2 Phi} u^2 is formed as a log-sum-exp; an unrepresentable result
    raises instead of saturating to inf.  The weight must have been built on
    `grid` and the pair's vector must have one entry per node of it; anything
    else is a ModelError.  A continued vector is exactly zero on the rows
    outside its continuation's window (`solver._window`), far from the well,
    so those rows add nothing; where delta >= 1 the weight outgrows the
    eigenfunction's decay, and the norm depends on how far that tail reaches.
    """
    if weight.grid != grid:
        raise ModelError(f"weight was built on {weight.grid}, not on {grid}")
    if pair.vector.size != grid.intervals - 1:
        raise ModelError(
            f"eigenvector has {pair.vector.size} entries, but {grid} has "
            f"{grid.intervals - 1} nodes"
        )
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
