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


def _reals(values, what: str, above: float | None = None) -> np.ndarray:
    """`_real` for each entry of the array `values`, as a float array of its
    shape: one vectorized pass over an integer or float array, and otherwise
    `_real` entry by entry, so a string, bytes or complex entry (or a ragged
    row) is refused and named, never parsed or cut to its real part."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = None
    if array is None or array.dtype.kind not in "iuf":
        entries = np.asarray(values, dtype=object)  # as given: ["a", 1.0] holds no "1.0"
        return np.reshape([_real(e, what, above) for e in entries.ravel().tolist()], entries.shape)
    admitted = np.isfinite(array) if above is None else np.isfinite(array) & (array > above)
    if not admitted.all():
        _real(array[~admitted][0].item(), what, above)  # refuses the first such entry
    return array.astype(float, copy=False)


def _interval(value, what: str) -> tuple[float, float]:
    """The one rule for a window the API takes: exactly two reals, each
    passing `_real`, the second above the first, as floats (lo, hi);
    otherwise a ModelError naming `what` and the value.  A container of
    another length is refused, never cut to two."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ModelError(f"{what} must be two reals (lower, upper), got {value!r}") from None
    lo, hi = _real(lo, f"{what} lower end"), _real(hi, f"{what} upper end")
    if not lo < hi:
        raise ModelError(f"empty {what} [{lo}, {hi}]")
    return lo, hi


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
    """The one rule for a fiber's (n, m): integers n >= 3 and m >= 0 whose
    coupling k_m = ((2m + n - 3)^2 - 1)/4 is in the float range; otherwise a
    ModelError."""
    _integer(n, "dimension n", 3)
    _integer(m, "angular number m", 0)
    w = 2 * m + n - 3
    try:
        float(Fraction(w * w - 1, 4))
    except OverflowError:
        raise ModelError(
            f"(n, m) = ({n}, {m}) gives a coupling k_m = ((2m + n - 3)^2 - 1)/4 "
            "past the float range"
        ) from None


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
    """V_m(r, xi) = k_m/r^2 + (r - xi)^2 for r > 0 (scalar or array); each r
    passes the real rule (`_reals`)."""
    r_arr = _reals(r, "radius r", above=0.0)
    out = params.k / r_arr**2 + (r_arr - params.xi) ** 2
    return out if out.ndim else float(out)


def _potential_at(k: float, xi: float, r: float) -> float:
    """`potential` at one float r > 0 in plain float arithmetic: the same bits."""
    return k / (r * r) + (r - xi) * (r - xi)


def potential_minimum(params: ModelParams) -> PotentialProfile:
    """Unique minimum of V_m over (0, inf).

    The stationarity condition V' = 0 is the quartic r^4 - xi*r^3 - k_m = 0,
    solved by Newton from max(xi, k_m^(1/4)).  From that start the iteration
    is monotone (f is increasing and convex on r > 3*xi/4), so no damping is
    needed.  Requires k_m > 0, or k_m = 0 with xi > 0 (pure parabola).  The
    turning points run the same Newton (`_newton`); `_turning_points` says why.
    """
    return PotentialProfile(params, *_potential_minimum(params.k, params.xi))


def _newton(f, slope, r: float, scale, what: str) -> float:
    """The module's one iterative root finder: Newton on f from r, where its
    iterates are monotone, so no step is damped.  It stops at |f| < 1e-12 or
    at a step of machine resolution (4 eps |r|), and returns r when
    |f(r)| <= 1e-12 scale(r); otherwise (NaN too), or when a term of f, its
    slope or scale overflows the float range, a ConvergenceError naming `what`."""
    try:
        for _ in range(100):
            fr = f(r)
            if abs(fr) < 1e-12:
                break
            step = fr / slope(r)
            if abs(step) <= 4.0 * _EPS * abs(r):
                break  # at machine resolution; accept if the scaled residual is met
            r -= step
        residual, tolerance = f(r), 1e-12 * scale(r)
    except OverflowError:  # float ** raises where * gives inf
        raise ConvergenceError(f"{what}: a term overflows the float range") from None
    if not abs(residual) <= tolerance:
        raise ConvergenceError(f"{what}: Newton residual {residual:.3e} above tolerance")
    return r


def _potential_minimum(k: float, xi: float) -> tuple[float, float]:
    """(r_min, V(r_min)) of `potential_minimum`, from the coupling k and xi alone."""
    if not (k > 0.0 or (k == 0.0 and xi > 0.0)):
        raise ModelError(
            f"potential has no interior minimum for k_m={k}, xi={xi}; "
            "need k_m > 0, or k_m = 0 with xi > 0"
        )
    if k == 0.0:
        return float(xi), 0.0
    start = max(xi, k**0.25)
    r = _newton(lambda r: r**3 * (r - xi) - k, lambda r: r * r * (4.0 * r - 3.0 * xi), start,
                lambda _: max(1.0, k, start**4), f"potential_minimum for k_m={k}, xi={xi}")
    return r, float(_potential_at(k, xi, r))


def turning_points(params: ModelParams, energy: float) -> tuple[float, float]:
    """Solutions r_minus < r_plus of V_m(r) = E, the ends of the well I_m;
    `_turning_points` at (k_m, xi) states their Newton.  A non-finite energy,
    or one not above min V, is a ModelError.
    """
    energy = _real(energy, "energy")
    _, v_min = _potential_minimum(params.k, params.xi)
    if not energy > v_min:
        raise ModelError(f"empty well: E={energy} is not above min V = {v_min}")
    return _turning_points(params.k, params.xi, energy)


def _turning_points(k: float, xi: float, energy: float) -> tuple[float, float]:
    """Roots r_minus < r_plus of V = k/r^2 + (r - xi)^2 = E, k >= 0, E > min V.

    For k > 0, V'' = 6k/r^4 + 2 > 0, so Newton (`_newton`) from a point on
    either side of the minimum where V > E moves monotonically to that side's
    root.  From sqrt(k/E), where k/r^2 = E, it rises to r_minus; from
    xi + sqrt(E), where (r - xi)^2 = E, it falls to r_plus.  V exceeds E at
    each by the other term, and each lies on its root's side of the minimum,
    where k/r^2 and (r - xi)^2 are both below E.  A root is accepted at
    |V - E| <= 1e-12 max(1, E, |r V'(r)|), the size of the terms there, which
    a root found to rounding meets at any xi and E.  Floats carry V - E with
    an error of eps max(1, E), so a root moves by up to eps max(1, E) /
    |r V'(r)| of itself; where that bound is above 1e-8 (an inner root where
    xi^2 rounds to E) the root is not resolved, a ConvergenceError.  For k = 0,
    V = (r - xi)^2 gives xi -+ sqrt(E), the inner root only while E < xi^2.
    """
    if k == 0.0:
        if energy >= xi * xi:
            raise ModelError(f"no inner turning point: E={energy} >= V(0+)={xi * xi} at k_m=0")
        root = math.sqrt(energy)
        return xi - root, xi + root

    def r_slope(r: float) -> float:  # r V'(r), finite where r^3 underflows
        return 2.0 * (r * (r - xi) - k / (r * r))

    def root(start: float) -> float:
        what = f"turning point of k_m={k}, xi={xi}, E={energy}"
        r = _newton(lambda r: _potential_at(k, xi, r) - energy, lambda r: r_slope(r) / r, start,
                    lambda r: max(1.0, energy, abs(r_slope(r))), what)
        size = abs(r_slope(r))
        error = _EPS * max(1.0, energy) / size if size else math.inf
        if not error <= 1e-8:
            raise ConvergenceError(f"{what}: floats resolve r={r:.6g} only to {error:.2g} of it")
        return r

    return root(math.sqrt(k / energy)), root(xi + math.sqrt(energy))


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
