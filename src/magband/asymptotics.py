"""Large-xi expansion of the bands through a Hermite-basis recursion.

Far from the axis the fiber operator is a harmonic oscillator centered at xi
perturbed by the inverse-square term; expanding in 1/xi turns the eigenvalue
problem into a triangular system over the oscillator eigenbasis.  Everything
here is exact linear algebra on coefficient arrays over Psi_1..Psi_{p+2N},
a basis whose truncation edge the order-N recursion never reaches.

`band_asymptotics` sets a band against its expansion: the band comes from
`bands.refined_sweep`, the library's one Richardson pipeline, and its
largest error estimate is the noise floor of the comparison.

Conventions: 1-based Hermite functions Psi_1, Psi_2, ... normalized to unit
L^2 norm (Psi_1 = pi^{-1/4} e^{-s^2/2}), with H0 Psi_q = (2q - 1) Psi_q and
the ladder identity s Psi_q = sqrt((q-1)/2) Psi_{q-1} + sqrt(q/2) Psi_{q+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bands import BandCurve, refined_sweep
from .errors import ModelError
from .model import _integer, _real, coupling_constant
from .solver import Grid

_MAX_SAMPLES = 2**22  # longest band a comparison samples; 32 MiB per array
_NOISE_MARGIN = 10.0  # a remainder or gap within this factor of the noise witnesses nothing


def apply_s(c: np.ndarray) -> np.ndarray:
    """Multiplication by s in coefficient space (symmetric tridiagonal).

    The term pushed onto Psi_{Q+1} has no slot and is dropped; callers keep
    their vectors clear of the last slot.
    """
    q = c.size
    w = np.sqrt(np.arange(1, q) / 2.0)
    out = np.zeros_like(c)
    out[:-1] += w * c[1:]   # down term: sqrt((q-1)/2) Psi_{q-1}
    out[1:] += w * c[:-1]   # up term:   sqrt(q/2)     Psi_{q+1}
    return out


def apply_A(q: int, c: np.ndarray) -> np.ndarray:
    """The interaction operator A_q = (q-1)(-s)^{q-2}, with A_1 = 0."""
    if _integer(q, "operator index q", 1) == 1:
        return np.zeros_like(c)
    out = c
    for _ in range(q - 2):
        out = apply_s(out)
    return (q - 1) * (-1.0) ** (q - 2) * out


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients alpha_1..alpha_N of the inverse-power eigenvalue series.

    The band expands as E_p + k_m * sum_q alpha_q / xi^q; modes holds the
    corrector vectors g_0..g_N of the quasi-mode as coefficient arrays over
    Psi_1..Psi_{p+2N}.
    """

    p: int
    coupling: float
    order: int
    alphas: np.ndarray
    modes: list[np.ndarray] = field(repr=False)


def expansion_coefficients(p: int, coupling: float, order: int) -> ExpansionCoefficients:
    """Run the corrector recursion to the requested order N.

    Every vector formed at order q, correctors included, lies within distance
    q - 2 of Psi_p, so no ladder step reaches past Psi_{p+N-2}.  The basis
    Psi_1..Psi_{p+2N} keeps the truncation edge out of reach: the result is
    exact up to rounding, and a larger basis gives the same numbers.
    """
    p, order = _integer(p, "band index p", 1), _integer(order, "expansion order", 0)
    coupling = _real(coupling, "coupling")
    basis_size = p + 2 * order
    e_p = np.zeros(basis_size)
    e_p[p - 1] = 1.0
    # resolvent of H0 - E_p off Psi_p: divide by 2(q - p), zero the p-th slot
    denom = 2.0 * (np.arange(1, basis_size + 1) - p)
    denom[p - 1] = 1.0
    modes = [e_p]
    alphas = np.zeros(order)
    for q0 in range(1, order + 1):
        acc = apply_A(q0, e_p)
        for q in range(1, q0):
            acc += apply_A(q, modes[q0 - q]) - alphas[q - 1] * modes[q0 - q]
        alphas[q0 - 1] = float(acc @ e_p)
        g = -(coupling * (acc - alphas[q0 - 1] * e_p)) / denom
        g[p - 1] = 0.0
        modes.append(g)

    return ExpansionCoefficients(
        p=p,
        coupling=coupling,
        order=order,
        alphas=alphas,
        modes=modes,
    )


def evaluate_expansion(coeffs: ExpansionCoefficients, xi: float) -> float:
    """Partial sum E_p + k_m * sum_{q<=N} alpha_q / xi^q at one xi > 0, if finite."""
    xi = _real(xi, "expansion point xi", above=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = xi ** -np.arange(1, coeffs.order + 1)
        value = float(2 * coeffs.p - 1 + coeffs.coupling * (coeffs.alphas @ powers))
    if not np.isfinite(value):
        raise ModelError(f"the order-{coeffs.order} partial sum at xi={xi!r} is not finite")
    return value


@dataclass(frozen=True)
class RateReport:
    """Log-log regression of a remainder against xi over `points` samples.

    slope is None, and `indeterminate` set, when the remainder sits at or
    below the numerical noise floor.
    """

    slope: float | None
    points: int
    indeterminate: bool


def _remainder_window(coupling: float, xi_window) -> tuple[float, float]:
    """xi_window as floats (lo, hi) with lo < hi and lo past the asymptotic
    onset max(5, 2 sqrt(k_m)), or a ModelError."""
    lo, hi = _real(xi_window[0], "xi window start"), _real(xi_window[1], "xi window end")
    onset = max(5.0, 2.0 * np.sqrt(max(coupling, 0.0)))
    if not lo < hi:
        raise ModelError(f"empty xi window [{lo}, {hi}]")
    if lo < onset:
        raise ModelError(
            f"window starts at xi={lo}, inside the pre-asymptotic region "
            f"(needs xi >= {onset:.3g})"
        )
    return lo, hi


def _gap_window(xi_window) -> tuple[float, float]:
    """xi_window as floats (lo, hi) with 0 < lo < hi, or a ModelError."""
    lo, hi = _real(xi_window[0], "xi window start"), _real(xi_window[1], "xi window end")
    if not 0 < lo < hi:
        raise ModelError(f"window must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    return lo, hi


def remainder_rate(
    band: BandCurve,
    coeffs: ExpansionCoefficients,
    xi_window: tuple[float, float],
    *,
    noise_floor: float = 0.0,
) -> RateReport:
    """Decay rate of |lambda - partial sum| over a window of band samples.

    The window must sit in the asymptotic regime xi >= max(5, 2 sqrt(k_m)).
    Pass the discretization-error estimate of the band values as noise_floor;
    residuals within _NOISE_MARGIN times it cannot witness a rate and yield
    an indeterminate report instead of a bogus slope.
    """
    noise_floor = _real(noise_floor, "noise_floor")
    lo, hi = _remainder_window(coeffs.coupling, xi_window)
    mask = (band.xi >= lo) & (band.xi <= hi)
    if np.count_nonzero(mask) < 3:
        raise ModelError("window holds fewer than three band samples")
    xi = band.xi[mask]
    resid = np.abs(
        band.values[mask] - np.array([evaluate_expansion(coeffs, x) for x in xi])
    )
    if np.max(resid) <= _NOISE_MARGIN * noise_floor or np.any(resid == 0.0):
        return RateReport(slope=None, points=int(xi.size), indeterminate=True)
    slope, _ = np.polyfit(np.log(xi), np.log(resid), 1)
    return RateReport(slope=float(slope), points=int(xi.size), indeterminate=False)


@dataclass(frozen=True)
class GapProfile:
    """Scaled gap profile e^{xi^2} (lambda - E_p) / xi^{2p-1} over a window."""

    xi: np.ndarray
    gap: np.ndarray
    profile: np.ndarray
    ratio: float
    positive: bool
    indeterminate: bool


def exponential_gap_check(
    band: BandCurve,
    xi_window: tuple[float, float],
    *,
    error_estimate: float = 0.0,
) -> GapProfile:
    """Exponential-closeness diagnostic for the zero-coupling band (n=4, m=0).

    With k_m = 0 the inverse-power series is empty and the gap to the Landau
    level closes like xi^{2p-1} e^{-xi^2}; near-constancy of the compensated
    profile over the window is the checkable signature, with p = band.p.  The
    band values must resolve the gap: samples within _NOISE_MARGIN times
    error_estimate mark the report indeterminate.
    """
    if (band.n, band.m) != (4, 0):
        raise ModelError(
            f"the exponential regime is the k_m=0 case (n=4, m=0); "
            f"got (n={band.n}, m={band.m})"
        )
    error_estimate = _real(error_estimate, "error_estimate")
    lo, hi = _gap_window(xi_window)
    mask = (band.xi >= lo) & (band.xi <= hi)
    if np.count_nonzero(mask) < 3:
        raise ModelError("window holds fewer than three band samples")
    p = band.p
    xi = band.xi[mask]
    gap = band.values[mask] - float(2 * p - 1)
    profile = np.exp(xi**2) * gap / xi ** (2 * p - 1)
    positive = bool(np.all(gap > 0.0))
    if np.min(np.abs(gap)) <= _NOISE_MARGIN * error_estimate:
        return GapProfile(
            xi=xi, gap=gap, profile=profile, ratio=float("nan"),
            positive=positive, indeterminate=True,
        )
    ratio = float(np.max(profile) / np.min(profile)) if positive else float("inf")
    return GapProfile(
        xi=xi, gap=gap, profile=profile, ratio=ratio,
        positive=positive, indeterminate=False,
    )


@dataclass(frozen=True)
class BandAsymptotics:
    """A band with its noise and the report of its regime.

    report is a RateReport when k_m != 0 and a GapProfile when k_m = 0;
    sensitive_orders lists the q whose alpha_q moves when k_m doubles.
    """

    coeffs: ExpansionCoefficients
    sensitive_orders: tuple[int, ...]
    band: BandCurve
    noise: float
    report: RateReport | GapProfile


def band_asymptotics(
    n: int, m: int, p: int, order: int, xi_window, samples: int, grid: Grid
) -> BandAsymptotics:
    """Band p of (n, m) at `samples` points spanning xi_window, against the
    order-N expansion (k_m != 0) or the exponential gap (k_m = 0).

    The inputs are checked before `refined_sweep` solves the band on grid and
    its refinement, and the grid as each sample is solved: a grid that does
    not admit a sample (`sweep`) is a ModelError.  The band carries the
    Richardson values and the fine sweep's slopes, and the largest Richardson
    error is the report's noise floor.
    """
    coupling = float(coupling_constant(n, m))
    samples = _integer(samples, "samples", 3, _MAX_SAMPLES)
    coeffs = expansion_coefficients(p, coupling, order)
    probe = expansion_coefficients(p, 2.0 * coupling, order)
    sensitive = tuple(
        q + 1 for q in range(order) if abs(coeffs.alphas[q] - probe.alphas[q]) > 1e-10
    )
    window = _gap_window(xi_window) if coupling == 0.0 else _remainder_window(coupling, xi_window)
    ((fine, refined),) = refined_sweep(n, [m], [p], np.linspace(*window, samples), grid)
    band, noise = replace(fine, values=refined.value), float(np.max(refined.error))
    if coupling == 0.0:
        report = exponential_gap_check(band, window, error_estimate=noise)
    else:
        report = remainder_rate(band, coeffs, window, noise_floor=noise)
    return BandAsymptotics(coeffs, sensitive, band, noise, report)
