"""Closed-form layer of the reduced radial model.

The full operator separates into half-line fibers

    L_m(xi) = -d^2/dr^2 + k_m / r^2 + (r - xi)^2,   r > 0,

with coupling k_m = ((2m + n - 3)^2 - 1)/4 in dimension n >= 3 and angular
number m >= 0.  Everything in this module is exact arithmetic or scalar
root-finding on the potential; no discretization happens here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ModelError

_EPS = float(np.finfo(float).eps)


def _integer(value, what: str, least: int, most: int | None = None) -> int:
    """The one rule for an index or count the API takes: `value` as an int
    when it is a Python or numpy integer with least <= value (<= most), and
    otherwise a ModelError naming `what`, the bounds and the value.  A
    fractional value is refused, never truncated.  `what` names an index
    ("band index p") or, when `most` bounds it, the things counted
    ("samples")."""
    if not (
        isinstance(value, (int, np.integer)) and least <= value and (most is None or value <= most)
    ):
        if most is None:
            rule = f"{what} must be an integer >= {least}"
        else:
            rule = f"need an integer count: at least {least} {what} and at most {most}"
        raise ModelError(f"{rule}, got {value!r}")
    return int(value)


def _real(value, what: str, above: float | None = None) -> float:
    """The one rule for a real the API takes: a Python, numpy or Fraction
    real, finite and > `above` when given, as a float; otherwise a ModelError
    naming `what`, the rule and the value.  A string is refused, never parsed."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        number = math.inf
    if not (math.isfinite(number) and (above is None or number > above)):
        rule = {None: "finite", 0: "positive and finite"}.get(above, f"finite and above {above!r}")
        raise ModelError(f"{what} must be {rule}, got {value!r}")
    return number


def _integers(values, what: str, least: int) -> list[int]:
    """The distinct entries of the sequence `values` in ascending order, each
    checked by `_integer`; a ModelError when there is none or `values` is not
    a sequence."""
    if not np.iterable(values):
        raise ModelError(f"{what} must be a list of integers, got {values!r}")
    entries = sorted({_integer(value, what, least) for value in values})
    if not entries:
        raise ModelError(f"need at least one {what}, got none")
    return entries


def _validate_nm(n: int, m: int) -> None:
    _integer(n, "dimension n", 3)
    _integer(m, "angular number m", 0)


def coupling_constant(n: int, m: int) -> Fraction:
    """Coupling of the centrifugal 1/r^2 term, as an exact rational.

    Nonnegative except at (n, m) = (3, 0) where it equals -1/4 (the critical
    Hardy coupling; the operator stays bounded below).
    """
    _validate_nm(n, m)
    w = 2 * m + n - 3
    return Fraction(w * w - 1, 4)


def landau_level(p: int) -> int:
    """Threshold energy E_p = 2p - 1 of the p-th band, p >= 1."""
    return 2 * _integer(p, "band index p", 1) - 1


@dataclass(frozen=True)
class ModelParams:
    """Fiber identity: dimension n, angular number m, momentum xi."""

    n: int
    m: int
    xi: float

    def __post_init__(self) -> None:
        _validate_nm(self.n, self.m)
        object.__setattr__(self, "xi", _real(self.xi, "momentum xi"))

    @property
    def coupling(self) -> Fraction:
        return coupling_constant(self.n, self.m)

    @cached_property
    def k(self) -> float:
        """float(coupling), computed once per instance."""
        return float(self.coupling)


@dataclass(frozen=True)
class PotentialProfile:
    """Location and value of the potential minimum of one fiber."""

    params: ModelParams
    r_min: float
    v_min: float


def potential(params: ModelParams, r):
    """V_m(r, xi) = k_m/r^2 + (r - xi)^2 for r > 0 (scalar or array)."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr > 0.0):  # NaN too
        raise ModelError("potential is only defined for r > 0")
    out = params.k / r_arr**2 + (r_arr - params.xi) ** 2
    return out if out.ndim else float(out)


def _potential_at(params: ModelParams, r: float) -> float:
    """`potential` at one float r > 0 in plain float arithmetic: the same bits."""
    return params.k / (r * r) + (r - params.xi) * (r - params.xi)


def potential_minimum(params: ModelParams) -> PotentialProfile:
    """Unique minimum of V_m over (0, inf).

    The stationarity condition V' = 0 is the quartic r^4 - xi*r^3 - k_m = 0,
    solved by Newton from max(xi, k_m^(1/4)).  From that start the iteration
    is monotone (f is increasing and convex on r > 3*xi/4), so no damping is
    needed.  Requires k_m > 0, or k_m = 0 with xi > 0 (pure parabola).
    """
    k, xi = params.k, params.xi
    if not (k > 0.0 or (k == 0.0 and xi > 0.0)):
        raise ModelError(
            f"potential has no interior minimum for k_m={k}, xi={xi}; "
            "need k_m > 0, or k_m = 0 with xi > 0"
        )
    if k == 0.0:
        return PotentialProfile(params, float(xi), 0.0)

    def f(r: float) -> float:
        return r**3 * (r - xi) - k

    r = max(xi, k**0.25)
    scale = max(1.0, k, r**4)
    for _ in range(100):
        fr = f(r)
        if abs(fr) < 1e-12:
            break
        step = fr / (r * r * (4.0 * r - 3.0 * xi))
        if abs(step) <= 4.0 * _EPS * abs(r):
            break  # at machine resolution; accept if the scaled residual is met
        r -= step
    if abs(f(r)) > 1e-12 * scale:
        raise ConvergenceError(
            f"potential_minimum: Newton residual {f(r):.3e} above tolerance "
            f"for k_m={k}, xi={xi}"
        )
    return PotentialProfile(params, r, float(_potential_at(params, r)))


def turning_points(params: ModelParams, energy: float) -> tuple[float, float]:
    """Solutions r_minus < r_plus of V_m(r) = E bracketing the well.

    Bisection on the two monotone branches on either side of r_min; the well
    I_m is the interval (r_minus, r_plus).  The bisection evaluates V with
    `_potential_at`.  A non-finite energy is a ModelError.
    """
    energy = _real(energy, "energy")
    profile = potential_minimum(params)
    if not energy > profile.v_min:
        raise ModelError(
            f"empty well: E={energy} is not above min V = {profile.v_min}"
        )
    k, xi = params.k, params.xi
    if k == 0.0:
        # V = (r - xi)^2; the inner branch only reaches V(0+) = xi^2.
        if energy >= xi * xi:
            raise ModelError(
                f"no inner turning point: E={energy} >= V(0+)={xi * xi} at k_m=0"
            )
        root = math.sqrt(energy)
        return xi - root, xi + root

    def bisect(lo: float, hi: float, increasing: bool) -> float:
        tol = 1e-12 * max(1.0, abs(energy))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            excess = _potential_at(params, mid) - energy
            if abs(excess) <= tol:
                return mid
            if (excess > 0.0) == increasing:
                hi = mid
            else:
                lo = mid
        mid = 0.5 * (lo + hi)
        if abs(_potential_at(params, mid) - energy) <= 1e-10 * max(1.0, abs(energy)):
            return mid
        raise ConvergenceError(
            f"turning point bisection stalled at r={mid} for k_m={k}, xi={xi}, E={energy}"
        )

    lo = profile.r_min
    while _potential_at(params, lo) <= energy:
        lo *= 0.5
        if lo < 1e-300:  # unreachable for k > 0: V ~ k/r^2 near 0
            raise ConvergenceError("failed to bracket the inner turning point")
    r_minus = bisect(lo, profile.r_min, increasing=False)

    hi = profile.r_min + 1.0
    while _potential_at(params, hi) <= energy:
        hi = profile.r_min + 2.0 * (hi - profile.r_min)
    r_plus = bisect(profile.r_min, hi, increasing=True)
    return r_minus, r_plus


def harmonic_multiplicity(n: int, m: int) -> int:
    """Dimension N_m of the degree-m spherical-harmonic space on S^(n-2).

    N_m = C(m+n-2, n-2) - C(m+n-4, n-2), with C(a, b) = 0 for a < b.
    Used by the transport layer, which works in n >= 4.
    """
    _validate_nm(n, m)
    if n < 4:
        raise ModelError(f"harmonic_multiplicity requires n >= 4, got n={n}")

    def comb0(a: int, b: int) -> int:
        return math.comb(a, b) if a >= b else 0

    return comb0(m + n - 2, n - 2) - comb0(m + n - 4, n - 2)
