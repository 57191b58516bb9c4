"""End-to-end acceptance suite: thirteen numbered checks, one verdict each.

Every check re-derives its expected numbers from an independent route
(closed-form spectra, dense-matrix recursions, conservation laws, regression
targets) and compares the package's output at a stated tolerance.  The runner
reports one line per check; nothing here mutates package state.

Every verdict is built by three helpers, each from one stated threshold: a
criterion `value relation bound` (`_criterion`), a criterion |value - target|
<= tol (`_near`), and a numbered check's verdict folded from its criteria
(`_fold`), which lists each criterion by name and names those that failed.
The criteria that the CLI reports as well (expansion coefficients, scaling
laws, classical drift, current dichotomy, gap profile, remainder slope,
Richardson error) are stated once, in the `*_criteria` / `remainder_criterion`
functions, which the CLI lists in its JSON `checks` and a numbered check,
where there is one, folds into its verdict.

Check 7 (high-frequency window [1.0, 1.1]) fails by design of the model: the
band value at xi = -10 is bounded below by the minimum of the potential,
which already exceeds 1.1 * xi^2 for the smallest coupling in the family (see
the check's detail string for the measured numbers).  The window is kept at
its stated value rather than loosened; the check runs and reports honestly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .asymptotics import GapProfile, RateReport, band_asymptotics, expansion_coefficients
from .bands import (
    BandCurve,
    ScalingStudy,
    agmon_norm,
    agmon_weight,
    crossing,
    refined_sweep,
    scaling_study,
    sweep,
)
from .classical import (
    ClassicalState,
    EffectiveVelocity,
    TrajectoryResult,
    effective_velocity,
    integrate,
)
from .errors import AgmonOverflowError
from .model import ModelParams, coupling_constant, landau_level, potential
from .solver import (
    Grid,
    RefinedValue,
    derivative_boundary_form,
    derivative_feynman_hellmann,
    boundary_exponent,
    fiber_eigenvalues,
    solve_fiber,
)
from .tables import SWEEP_HEADER, render_csv, sweep_rows
from .transport import CurrentDichotomy, current_dichotomy

# alpha_1 = 0 and alpha_2 = 1 for every band and coupling: (exact value, tolerance)
_ALPHA_EXACT = {"alpha1": (0.0, 1e-12), "alpha2": (1.0, 1e-12)}
_RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge,
              ">": operator.gt}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}: value {self.value:.6g} vs {self.bound}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def _criterion(name: str, value, relation: str, bound) -> CheckResult:
    """The criterion `value relation bound`: its verdict and its bound text
    (`f"{relation} {bound}"`) from one stated threshold."""
    return CheckResult(name, bool(_RELATIONS[relation](value, bound)), value,
                       f"{relation} {bound}")


def _near(name: str, value, target: float, tol: float) -> CheckResult:
    """The criterion |value - target| <= tol."""
    return CheckResult(name, bool(abs(value - target) <= tol), value, f"{target} +/- {tol}")


def _fold(title: str, criteria: list[CheckResult], value, detail: str) -> CheckResult:
    """A numbered check's verdict: it passes when every criterion passes, its
    bound lists each criterion by name, and its detail names those that failed."""
    failed = [c.name for c in criteria if not c.passed]
    if failed:
        detail += f"; failed: {', '.join(failed)}"
    bound = "; ".join(f"{c.name} {c.bound}" for c in criteria)
    return CheckResult(title, not failed, value, bound, detail)


def alpha_criteria(alphas) -> list[CheckResult]:
    """The first two expansion coefficients take their exact values."""
    return [
        _near(name, alpha, exact, tol)
        for alpha, (name, (exact, tol)) in zip(alphas, _ALPHA_EXACT.items())
    ]


def scaling_criteria(study: ScalingStudy) -> list[CheckResult]:
    """xi_m ~ sqrt(k_m), |lambda'| ~ 1/sqrt(k_m), and flat scaled ratios."""
    r_xi = float(np.max(study.xi_over_sqrtk) / np.min(study.xi_over_sqrtk))
    r_sl = float(np.max(study.slope_times_sqrtk) / np.min(study.slope_times_sqrtk))
    return [
        _near("xi-slope", study.xi_regression, 0.5, 0.05),
        _near("derivative-slope", study.slope_regression, -0.5, 0.1),
        _criterion("xi-ratio-spread", r_xi, "<=", 2.0),
        _criterion("slope-ratio-spread", r_sl, "<=", 3.0),
    ]


def classical_criteria(
    traj: TrajectoryResult, velocity: EffectiveVelocity
) -> list[CheckResult]:
    """Invariant drift, formula-vs-fit drift velocity, and its kinematic bound."""
    drift = max(traj.energy_drift, traj.sigma_drift, traj.c_drift)
    deviation = abs(velocity.formula - velocity.fit) / max(abs(velocity.fit), 1e-6)
    speed = max(abs(velocity.formula), abs(velocity.fit))
    return [
        _criterion("invariant-drift", drift, "<=", 1e-8),
        _criterion("vz-agreement", deviation, "<=", 0.01),
        _criterion("vz-bound", speed, "<=", velocity.bound),
    ]


def dichotomy_criteria(result: CurrentDichotomy, epsilon: float) -> list[CheckResult]:
    """Edge current above C^- > 0, bulk 1/sqrt(k) decay, witness below epsilon."""
    steps = np.diff(np.abs(result.bulk.normalized_current))
    return [
        _criterion("edge-lower-bound", abs(result.edge.normalized), ">=", result.c_minus),
        _criterion("c-minus", result.c_minus, ">", 0.0),
        _criterion("bulk-decreasing", float(np.max(steps)), "<", 0.0),
        _near("bulk-slope", result.bulk.slope, -0.5, 0.15),
        _criterion("witness", abs(result.witness[1]), "<=", epsilon),
    ]


def gap_profile_criteria(profile: GapProfile) -> list[CheckResult]:
    """k_m = 0: positive gap whose xi e^{-xi^2} profile is flat within 2x.  On
    an indeterminate profile, a gap in the discretization noise, the gap and
    the ratio are NaN, and so both fail."""
    gap = float("nan") if profile.indeterminate else float(np.min(profile.gap))
    return [
        _criterion("gap-positive", gap, ">", 0.0),
        _criterion("profile-spread", profile.ratio, "<=", 2.0),
    ]


def remainder_criterion(report: RateReport, order: int) -> CheckResult:
    """The remainder after `order` terms decays at least like xi^-(order + 1/2)."""
    slope = float("nan") if report.slope is None else report.slope
    return _criterion("remainder-slope", slope, "<=", -(order + 1) + 0.5)


def convergence_criteria(
    refined: list[tuple[BandCurve, RefinedValue]], bound: float
) -> list[CheckResult]:
    """Each band of `refined_sweep`: its largest Richardson error is at most bound."""
    return [
        _criterion(f"error(m={band.m},p={band.p})", float(np.max(rv.error)), "<=", bound)
        for band, rv in refined
    ]


def check_exact_spectrum() -> CheckResult:
    """1. Richardson-refined xi=0 eigenvalues against the closed form."""
    worst = 0.0
    where = ""
    grid = Grid(12.0, 4800)
    for n, m in [(4, 0), (5, 0), (5, 2), (3, 1)]:
        for band, rv in refined_sweep(n, [m], (1, 2, 3), [0.0], grid):
            p = band.p
            exact = 4.0 * (p - 1) + abs(2 * m + n - 3) + 2.0
            rel = abs(rv.value[0] - exact) / exact
            if rel > worst:
                worst, where = rel, f"(n={n}, m={m}, p={p})"
    criteria = [_criterion("relative-error", worst, "<=", 1e-4)]
    return _fold("exact-spectrum oracle", criteria, worst, f"worst at {where}")


def check_band_structure() -> CheckResult:
    """2. n=5 family: decrease, threshold gap, and the tail bound at xi=6."""
    grid = Grid(20.0, 4800)
    xi = -1.0 + 0.05 * np.arange(141)
    curves = sweep(5, range(7), (1, 2, 3), xi, grid)
    max_diff = max(float(np.max(np.diff(c.values))) for c in curves)
    min_gap = min(float(np.min(c.values - landau_level(c.p))) for c in curves)
    tails = [
        (float(c.values[-1] - 1.0), 1.5 * float(coupling_constant(5, c.m)) / 36.0, c.m)
        for c in curves if c.p == 1
    ]
    tail, limit, m = max(tails, key=lambda t: t[0] - t[1])  # closest to 1.5 k/36
    criteria = [
        _criterion("max-diff", max_diff, "<", 1e-8),
        _criterion("min-gap-above-E_p", min_gap, ">", 0.0),
        _criterion("tail-minus-1.5k/36", tail - limit, "<=", 0.0),
    ]
    detail = f"min gap above threshold {min_gap:.3g}"
    if not criteria[-1].passed:
        detail = f"m={m}: tail {tail:.4g} > {limit:.4g}"
    return _fold("band-family structure", criteria, max_diff, detail)


def _dense_alphas(p: int, k: float, order: int, size: int) -> np.ndarray:
    """Independent recursion: dense matrices and linear solves, no ladders."""
    idx = np.arange(1, size)
    s = np.zeros((size, size))
    s[idx - 1, idx] = s[idx, idx - 1] = np.sqrt(idx / 2.0)
    h0 = np.diag(2.0 * np.arange(1, size + 1) - 1.0)
    e_p = np.zeros(size)
    e_p[p - 1] = 1.0

    def a_op(q):
        if q == 1:
            return np.zeros((size, size))
        return (q - 1) * np.linalg.matrix_power(-s, q - 2)

    shifted = h0 - (2.0 * p - 1.0) * np.eye(size)
    shifted_mod = shifted.copy()
    shifted_mod[p - 1, p - 1] = 1.0  # pin the kernel slot

    g = [e_p]
    alphas = np.zeros(order)
    for q0 in range(1, order + 1):
        vec = a_op(q0) @ g[0]
        for q in range(1, q0):
            vec = vec + a_op(q) @ g[q0 - q] - alphas[q - 1] * g[q0 - q]
        alphas[q0 - 1] = float(e_p @ vec)
        rhs = k * (vec - alphas[q0 - 1] * e_p)
        rhs[p - 1] = 0.0
        sol = np.linalg.solve(shifted_mod, -rhs)
        sol[p - 1] = 0.0
        g.append(sol)
    return alphas


def check_expansion_coefficients() -> CheckResult:
    """3. alpha_1..alpha_4 exact values and the dense-matrix cross-check."""
    worst = 0.0
    where = ""
    for p in (1, 2, 3):
        e_p = float(landau_level(p))
        for k in (0.75, 8.75):
            got = expansion_coefficients(p, k, 4).alphas
            reference = _dense_alphas(p, k, 4, p + 16)
            exact = np.array([0.0, 1.0, 0.0, 1.5 * e_p])
            errs = {
                c.name: abs(c.value - exact) / tol
                for c, (exact, tol) in zip(alpha_criteria(got), _ALPHA_EXACT.values())
            }
            errs |= {
                "alpha3": abs(got[2]) / 1e-10,
                "alpha4": abs(got[3] - 1.5 * e_p) / 1e-10,
                "dense": float(np.max(np.abs(got - reference))) / 1e-10,
                "dense-exact": float(np.max(np.abs(reference - exact))) / 1e-10,
            }
            for label, ratio in errs.items():
                if ratio > worst:
                    worst, where = ratio, f"{label} at (p={p}, k={k})"
    criteria = [_criterion("error/tolerance", worst, "<=", 1.0)]
    return _fold("expansion coefficients", criteria, worst, f"worst ratio from {where}")


def check_leading_asymptotics() -> CheckResult:
    """4. k/xi^2 leading term at xi=15 and the N=2 remainder rate."""
    run = band_asymptotics(5, 1, 1, 2, (8.0, 15.0), 15, Grid(30.0, 7200))
    ratio = 15.0**2 * (run.band.values[-1] - 1.0) / run.coeffs.coupling
    criteria = [
        _criterion("ratio", ratio, ">=", 0.9),
        _criterion("ratio", ratio, "<=", 1.1),
        remainder_criterion(run.report, 2),
    ]
    slope = run.report.slope if run.report.slope is not None else "n/a"
    return _fold("leading-order asymptotics", criteria, ratio, f"remainder slope {slope}")


def check_derivative_cross_validation() -> CheckResult:
    """5. FH vs boundary form (1%) and vs centered differences (0.1%)."""
    rng = np.random.default_rng(20260822)
    grid = Grid(20.0, 4800)
    delta = 1e-4
    worst_bd = 0.0
    worst_cd = 0.0
    for _ in range(20):
        m = int(rng.integers(0, 7))
        p = int(rng.integers(1, 4))
        x = float(rng.uniform(0.0, 5.0))
        params = ModelParams(5, m, x)
        pair = solve_fiber(params, grid, p)[p - 1]
        fh = derivative_feynman_hellmann(params, pair, grid)
        bd = derivative_boundary_form(params, pair, grid)
        lo = fiber_eigenvalues(ModelParams(5, m, x - delta), grid, p)[p - 1]
        hi = fiber_eigenvalues(ModelParams(5, m, x + delta), grid, p)[p - 1]
        cd = (hi - lo) / (2.0 * delta)
        worst_bd = max(worst_bd, abs(fh - bd) / abs(fh))
        worst_cd = max(worst_cd, abs(fh - cd) / abs(fh))
    criteria = [
        _criterion("boundary-form", worst_bd, "<=", 0.01),
        _criterion("centered-diff", worst_cd, "<=", 0.001),
    ]
    return _fold("derivative cross-validation", criteria, worst_bd,
                 f"worst centered-diff deviation {worst_cd:.3e}")


def check_boundary_exponent() -> CheckResult:
    """6. Fitted vanishing exponent against (1 + |2m+n-3|)/2."""
    worst = 0.0
    where = ""
    grid = Grid(16.0, 8000)
    for n, m in [(4, 0), (5, 1), (5, 3)]:
        params = ModelParams(n, m, 1.5)
        pair = solve_fiber(params, grid, 1)[0]
        nu_fit = boundary_exponent(params, pair, grid, 40)
        nu = 0.5 * (1.0 + abs(2 * m + n - 3))
        rel = abs(nu_fit - nu) / nu
        if rel > worst:
            worst, where = rel, f"(n={n}, m={m}): fit {nu_fit:.4f} vs {nu}"
    return _fold("boundary exponent", [_criterion("relative-error", worst, "<=", 0.05)], worst,
                 where)


def check_high_frequency() -> CheckResult:
    """7. lambda(-10)/xi^2 against the window [1.0, 1.1].

    The window is unattainable: lambda >= min V by the variational principle,
    and min V at xi=-10 already exceeds 110 for every (m, p) here (112.8 at
    the most favorable m=0).  Reported honestly; see the module docstring.
    """
    grid = Grid(12.0, 4800)
    ratios = [rv.value[0] / 100.0 for _, rv in refined_sweep(5, range(4), (1, 2), [-10.0], grid)]
    floors = [
        float(np.min(potential(ModelParams(5, m, -10.0), grid.nodes))) / 100.0 for m in range(4)
    ]
    lo, hi = min(ratios), max(ratios)
    criteria = [_criterion("lowest", lo, ">=", 1.0), _criterion("highest", hi, "<=", 1.1)]
    return _fold(
        "high-frequency window",
        criteria,
        hi,
        f"measured range [{lo:.4f}, {hi:.4f}]; variational floor min V/xi^2 = "
        f"{min(floors):.4f} at m={int(np.argmin(floors))}",
    )


def check_scaling_laws() -> CheckResult:
    """8. xi_m ~ sqrt(k_m) and |lambda'| ~ 1/sqrt(k_m) over m = 5..40."""
    study = scaling_study(5, 1, 2.0, range(5, 41))
    criteria = scaling_criteria(study)
    _, _, xi_spread, slope_spread = criteria
    return _fold(
        "scaling laws",
        criteria,
        study.xi_regression,
        f"slope(|lambda'|) {study.slope_regression:.4f}, "
        f"spreads {xi_spread.value:.3f}/{slope_spread.value:.3f}",
    )


def check_agmon_uniformity() -> CheckResult:
    """9. Weighted norms stay uniformly bounded across m = 10..40."""
    norms = []
    try:
        for m in range(10, 41):
            result = crossing(5, m, 1, 2.0)
            weight = agmon_weight(ModelParams(5, m, result.xi), 2.0, result.grid, alpha=2.0)
            norms.append(agmon_norm(result.pair, weight, result.grid))
    except AgmonOverflowError as exc:  # a norm past the float range
        largest = ratio = float("inf")
        detail = str(exc)
    else:
        largest = float(np.max(norms))
        ratio = float(largest / np.median(norms))
        detail = f"norms in [{np.min(norms):.4g}, {largest:.4g}]"
    criteria = [
        _criterion("max-norm", largest, "<", float("inf")),
        _criterion("max/median", ratio, "<=", 4.0),
    ]
    return _fold("Agmon uniformity", criteria, ratio, detail)


def check_exponential_regime() -> CheckResult:
    """10. k=0 gap closes like xi e^{-xi^2}: profile flat within 2x.  The
    detail names the profile's range and the limit 2/sqrt(pi) of the p = 1
    gap law (lambda - 1 ~ (2/sqrt(pi)) xi e^{-xi^2}), which the profile
    approaches like 1 - O(xi^-2)."""
    report = band_asymptotics(4, 0, 1, 0, (2.5, 3.5), 11, Grid(12.0, 4800)).report
    return _fold(
        "exponential gap regime",
        gap_profile_criteria(report),
        report.ratio if np.isfinite(report.ratio) else float("inf"),
        f"gap range [{np.min(report.gap):.3e}, {np.max(report.gap):.3e}]; profile "
        f"e^(xi^2)(lambda - 1)/xi in [{np.min(report.profile):.4f}, "
        f"{np.max(report.profile):.4f}], approaching the gap law's limit "
        f"2/sqrt(pi) = {2.0 / np.sqrt(np.pi):.4f} like 1 - O(xi^-2)",
    )


def check_classical_dynamics() -> CheckResult:
    """11. Invariant drifts, v_z cross-validation, and the kinematic bound,
    each criterion at its worst over five trajectories: a failing one where
    there is one, and otherwise the largest value."""
    rng = np.random.default_rng(1618)
    runs = []
    for _ in range(5):
        r0 = float(rng.uniform(0.8, 1.6))
        while True:
            vx, vy, vz = (float(v) for v in rng.uniform(-0.8, 0.8, size=3))
            if r0 * abs(vy) >= 0.2:
                break
        traj = integrate(ClassicalState(r0, 0.0, 0.0, vx, vy, vz), 200.0, 1e-3)
        runs.append(classical_criteria(traj, effective_velocity(traj)))
    worst = [max(group, key=lambda c: (not c.passed, c.value)) for group in zip(*runs)]
    drift, vz, _ = worst
    return _fold("classical dynamics", worst, drift.value, f"worst v_z deviation {vz.value:.3e}")


def check_current_dichotomy() -> CheckResult:
    """12. Edge lower bound, bulk 1/sqrt(k) decay, and a small-current witness."""
    epsilon = 1e-2
    result = current_dichotomy(5, (1.5, 2.5), 3, [10, 20, 30], epsilon)
    witness_m, witness_value = result.witness
    return _fold(
        "current dichotomy",
        dichotomy_criteria(result, epsilon),
        abs(result.edge.normalized),
        f"bulk slope {result.bulk.slope:.4f}; witness m={witness_m}, |J|={abs(witness_value):.3e}",
    )


def check_determinism() -> CheckResult:
    """13. Sweep CSV bytes: a repeated sweep and the single-m sweeps agree."""
    grid = Grid(12.0, 2880)
    xi = -1.0 + 0.25 * np.arange(17)

    def csv(curves) -> bytes:
        return render_csv(SWEEP_HEADER, sweep_rows(curves)).encode()

    outputs = [
        csv(sweep(5, range(3), (1, 2), xi, grid)),
        csv(sweep(5, range(3), (1, 2), xi, grid)),
        csv([c for m in range(3) for c in sweep(5, [m], (1, 2), xi, grid)]),
    ]
    criteria = [_criterion("distinct-outputs", len(set(outputs)), "==", 1)]
    return _fold("sweep determinism", criteria, float(len(outputs[0])), f"{len(outputs[0])} bytes")


ALL_CHECKS = [
    ("01-exact-spectrum", check_exact_spectrum),
    ("02-band-structure", check_band_structure),
    ("03-expansion-coefficients", check_expansion_coefficients),
    ("04-leading-asymptotics", check_leading_asymptotics),
    ("05-derivative-cross-validation", check_derivative_cross_validation),
    ("06-boundary-exponent", check_boundary_exponent),
    ("07-high-frequency", check_high_frequency),
    ("08-scaling-laws", check_scaling_laws),
    ("09-agmon-uniformity", check_agmon_uniformity),
    ("10-exponential-regime", check_exponential_regime),
    ("11-classical-dynamics", check_classical_dynamics),
    ("12-current-dichotomy", check_current_dichotomy),
    ("13-determinism", check_determinism),
]
