"""Large-xi expansion of the bands through a Hermite-basis recursion.

Far from the axis the fiber operator is a harmonic oscillator centered at xi
perturbed by the inverse-square term; expanding in 1/xi turns the eigenvalue
problem into a triangular system over the oscillator eigenbasis.  Everything
here is exact linear algebra on coefficient vectors — the only error source is
basis truncation, which is tracked as "spill" and bounded by construction.

Conventions: 1-based Hermite functions Psi_1, Psi_2, ... normalized to unit
L^2 norm (Psi_1 = pi^{-1/4} e^{-s^2/2}), with H0 Psi_q = (2q - 1) Psi_q and
the ladder identity s Psi_q = sqrt((q-1)/2) Psi_{q-1} + sqrt(q/2) Psi_{q+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bands import BandCurve
from .errors import FredholmError, InsufficientBasisError, ModelError


@dataclass(frozen=True)
class HermiteVector:
    """Coefficients over Psi_1..Psi_Q plus accumulated truncation spill."""

    coefficients: np.ndarray
    spill: float = 0.0

    @property
    def size(self) -> int:
        return self.coefficients.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def basis_vector(q: int, size: int) -> HermiteVector:
    """The unit vector Psi_q in a basis of the given size."""
    if not 1 <= q <= size:
        raise ModelError(f"basis index must satisfy 1 <= q <= {size}, got {q}")
    c = np.zeros(size)
    c[q - 1] = 1.0
    return HermiteVector(c)


def dot(u: HermiteVector, v: HermiteVector) -> float:
    """L^2 inner product = Euclidean dot of coefficients (orthonormal basis)."""
    return float(u.coefficients @ v.coefficients)


def apply_s(v: HermiteVector) -> HermiteVector:
    """Multiplication by s in coefficient space (symmetric tridiagonal).

    The coefficient pushed onto Psi_{Q+1} has no slot; its magnitude joins the
    spill tally instead of being silently dropped.
    """
    c = v.coefficients
    q = c.size
    w = np.sqrt(np.arange(1, q) / 2.0)
    out = np.zeros_like(c)
    out[:-1] += w * c[1:]   # down term: sqrt((q-1)/2) Psi_{q-1}
    out[1:] += w * c[:-1]   # up term:   sqrt(q/2)     Psi_{q+1}
    lost = abs(c[-1]) * np.sqrt(q / 2.0)
    return HermiteVector(out, v.spill + float(lost))


def apply_A(q: int, v: HermiteVector) -> HermiteVector:
    """The interaction operator A_q = (q-1)(-s)^{q-2}, with A_1 = 0."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ModelError(f"operator index must be an integer >= 1, got {q!r}")
    if q == 1:
        return HermiteVector(np.zeros_like(v.coefficients), v.spill)
    out = v
    for _ in range(q - 2):
        out = apply_s(out)
    scale = (q - 1) * (-1.0) ** (q - 2)
    return HermiteVector(scale * out.coefficients, abs(scale) * out.spill)


def solve_fredholm(p: int, rhs: HermiteVector) -> HermiteVector:
    """Solve (H0 - E_p) g = -rhs with g orthogonal to Psi_p.

    Diagonal resolvent: divide each coefficient by 2(q - p).  Solvability
    requires rhs to carry no Psi_p component (up to 1e-10 relative).
    """
    if not 1 <= p <= rhs.size:
        raise ModelError(f"band index must satisfy 1 <= p <= {rhs.size}, got {p}")
    projection = rhs.coefficients[p - 1]
    if abs(projection) > 1e-10 * rhs.norm:
        raise FredholmError(
            f"rhs has component {projection:.3e} on the kernel direction Psi_{p} "
            f"(norm {rhs.norm:.3e}); the corrector equation is unsolvable"
        )
    q = np.arange(1, rhs.size + 1)
    denom = 2.0 * (q - p)
    denom[p - 1] = 1.0  # avoid 0/0; the slot is zeroed below
    g = -rhs.coefficients / denom
    g[p - 1] = 0.0
    return HermiteVector(g, rhs.spill)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients alpha_1..alpha_N of the inverse-power eigenvalue series.

    The band expands as E_p + k_m * sum_q alpha_q / xi^q; modes holds the
    corrector vectors g_0..g_N of the quasi-mode.
    """

    p: int
    coupling: float
    order: int
    basis_size: int
    alphas: np.ndarray
    modes: list[HermiteVector] = field(repr=False)


def expansion_coefficients(p: int, coupling: float, order: int, basis_size: int) -> ExpansionCoefficients:
    """Run the corrector recursion to the requested order.

    Each step applies ladder operators at most `order` times to vectors
    supported within distance `order` of Psi_p, so basis_size >= p + 2*order
    guarantees nothing reaches the truncation edge; anything that does anyway
    is a hard error, not a warning.
    """
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ModelError(f"band index must be an integer >= 1, got {p!r}")
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise ModelError(f"expansion order must be an integer >= 0, got {order!r}")
    if not np.isfinite(coupling):
        raise ModelError(f"coupling must be finite, got {coupling!r}")
    if basis_size < p + 2 * order:
        raise InsufficientBasisError(
            f"basis size {basis_size} < p + 2N = {p + 2 * order}; "
            "truncation would contaminate the requested order"
        )

    modes = [basis_vector(p, basis_size)]
    alphas = np.zeros(order)
    for q0 in range(1, order + 1):
        total = apply_A(q0, modes[0])
        acc = total.coefficients.copy()
        spill = total.spill
        for q in range(1, q0):
            term = apply_A(q, modes[q0 - q])
            acc += term.coefficients - alphas[q - 1] * modes[q0 - q].coefficients
            spill += term.spill
        alphas[q0 - 1] = float(acc @ modes[0].coefficients)
        rhs = HermiteVector(
            coupling * (acc - alphas[q0 - 1] * modes[0].coefficients),
            abs(coupling) * spill,
        )
        g = solve_fredholm(p, rhs)
        if g.spill > 1e-14:
            raise InsufficientBasisError(
                f"truncation spill {g.spill:.3e} at order {q0} exceeds 1e-14; "
                f"enlarge the basis beyond Q={basis_size}"
            )
        modes.append(g)

    return ExpansionCoefficients(
        p=int(p),
        coupling=float(coupling),
        order=int(order),
        basis_size=int(basis_size),
        alphas=alphas,
        modes=modes,
    )


def evaluate_expansion(coeffs: ExpansionCoefficients, xi: float) -> float:
    """Partial sum E_p + k_m * sum_{q<=N} alpha_q / xi^q at one xi > 0."""
    if not (np.isfinite(xi) and xi > 0):
        raise ModelError(f"the expansion is asymptotic for xi > 0, got {xi!r}")
    powers = xi ** -np.arange(1, coeffs.order + 1)
    return float(2 * coeffs.p - 1 + coeffs.coupling * (coeffs.alphas @ powers))


@dataclass(frozen=True)
class RateReport:
    """Log-log regression of a remainder against xi, or why it was skipped.

    slope is None when the data sits at/below the numerical noise floor, in
    which case `indeterminate` is set and `reason` says what happened.
    """

    slope: float | None
    points: int
    max_residual: float
    noise_floor: float
    indeterminate: bool
    reason: str = ""


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
    residuals within 10x of it cannot witness a rate and yield an
    indeterminate report instead of a bogus slope.
    """
    lo, hi = float(xi_window[0]), float(xi_window[1])
    onset = max(5.0, 2.0 * np.sqrt(max(coeffs.coupling, 0.0)))
    if not lo < hi:
        raise ModelError(f"empty xi window [{lo}, {hi}]")
    if lo < onset:
        raise ModelError(
            f"window starts at xi={lo}, inside the pre-asymptotic region "
            f"(needs xi >= {onset:.3g})"
        )
    mask = (band.xi >= lo) & (band.xi <= hi)
    if np.count_nonzero(mask) < 3:
        raise ModelError("window holds fewer than three band samples")
    xi = band.xi[mask]
    resid = np.abs(
        band.values[mask] - np.array([evaluate_expansion(coeffs, x) for x in xi])
    )
    max_resid = float(np.max(resid))
    if max_resid <= 10.0 * noise_floor or np.any(resid == 0.0):
        return RateReport(
            slope=None,
            points=int(xi.size),
            max_residual=max_resid,
            noise_floor=float(noise_floor),
            indeterminate=True,
            reason="remainder at or below the numerical noise floor",
        )
    slope, _ = np.polyfit(np.log(xi), np.log(resid), 1)
    return RateReport(
        slope=float(slope),
        points=int(xi.size),
        max_residual=max_resid,
        noise_floor=float(noise_floor),
        indeterminate=False,
    )


@dataclass(frozen=True)
class GapProfile:
    """Scaled gap profile e^{xi^2} (lambda - E_p) / xi^{2p-1} over a window."""

    xi: np.ndarray
    gap: np.ndarray
    profile: np.ndarray
    ratio: float
    positive: bool
    indeterminate: bool
    reason: str = ""


def exponential_gap_check(
    band: BandCurve,
    p: int,
    xi_window: tuple[float, float],
    *,
    error_estimate: float = 0.0,
) -> GapProfile:
    """Exponential-closeness diagnostic for the zero-coupling band (n=4, m=0).

    With k_m = 0 the inverse-power series is empty and the gap to the Landau
    level closes like xi^{2p-1} e^{-xi^2}; near-constancy of the compensated
    profile over the window is the checkable signature.  The band values must
    resolve the gap: samples within 10x of error_estimate mark the report
    indeterminate.
    """
    if (band.n, band.m) != (4, 0):
        raise ModelError(
            f"the exponential regime is the k_m=0 case (n=4, m=0); "
            f"got (n={band.n}, m={band.m})"
        )
    if band.p != p:
        raise ModelError(f"band carries p={band.p}, check requested p={p}")
    lo, hi = float(xi_window[0]), float(xi_window[1])
    if not 0 < lo < hi:
        raise ModelError(f"window must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    mask = (band.xi >= lo) & (band.xi <= hi)
    if np.count_nonzero(mask) < 3:
        raise ModelError("window holds fewer than three band samples")
    xi = band.xi[mask]
    gap = band.values[mask] - float(2 * p - 1)
    profile = np.exp(xi**2) * gap / xi ** (2 * p - 1)
    positive = bool(np.all(gap > 0.0))
    if np.min(np.abs(gap)) <= 10.0 * error_estimate:
        return GapProfile(
            xi=xi, gap=gap, profile=profile, ratio=float("nan"),
            positive=positive, indeterminate=True,
            reason="gap within 10x of the discretization error estimate",
        )
    ratio = float(np.max(profile) / np.min(profile)) if positive else float("inf")
    return GapProfile(
        xi=xi, gap=gap, profile=profile, ratio=ratio,
        positive=positive, indeterminate=False,
    )
