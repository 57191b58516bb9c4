"""Finite-difference solver for the half-line fiber operator.

Second-order central differences on a uniform grid over (0, R) with Dirichlet
conditions at both ends; the nodes r_j = j*h, j = 1..N-1, exclude the singular
axis r = 0 and the artificial wall r = R.  The discrete operator T is
symmetric tridiagonal.  `solve_fiber`, `fiber_eigenvalues`, band sweeps and
crossing iterations all solve it through one fiber step (`_follow`), which
continues at most one start per source in the order `_starts` states (the
closed-form Hermite functions of the harmonic well that V turns into near
its minimum, when they lead; the pairs of the fiber at a nearby xi; the
same fiber on a grid 8 times coarser, a nested solve: Brandt, Math. Comp.
31, 1977), and otherwise bisects (LAPACK's Sturm-sequence bisection plus
inverse iteration), so bisection runs almost only on grids below 512
intervals.

A continuation (`_continue_fiber`) is Rayleigh-quotient iteration, one
tridiagonal LU solve per step, accepted only under a certificate of the band
indices (the discrete oscillation theorem and a Sturm count) (Parlett, The
Symmetric Eigenvalue Problem, ch. 4 and 7).  It runs on a window of rows
(`_window`): those where a start vector exceeds _WINDOW of its peak, widened
by |dxi| plus one unit of r, since an eigenfunction decays like e^(-d) at
Agmon distance d from its well.  The iteration factors only the window's
block of T, but stops on the residual of the zero-padded vector on the full
T, the window's residual plus the leaks |z|/h^2 of its trimmed ends.  So its
value is still a Rayleigh quotient of T within 8 eps ||T||_1 of an
eigenvalue.  The Sturm count runs on the window too, each side trimmed,
with 1/h^2 taken from its end's diagonal, where V lies above the count's
bound on every row beyond it, and extended to the grid's end otherwise: the
rows counted have at least as many eigenvalues below the bound as T
(Haynsworth inertia additivity; see `_count_below`), and the certified values
account for at least as many.  The vectors are zero outside the window.  All
of it is deterministic for fixed input.

A start changes the number of steps, never the certificate, so a value
depends on its start only at the rounding level.

Eigenvectors are returned with the continuum normalization h * sum(u^2) = 1
and sign fixed to be positive near the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, lapack

from .errors import ConvergenceError, ModelError, SignPatternError
from .model import ModelParams, _integer, _real, potential, potential_minimum, turning_points

_SIGNIFICANT = 1e-8  # entries below this fraction of a vector's peak carry no sign
# Rows where no start vector reaches this fraction of its peak lie outside a
# continuation's window (`_window`).  A unit vector's entry z at a trimmed end
# leaks |z|/h^2 into the full-grid residual, and tol = 8 eps ||T||_1 >= 32 eps/h^2,
# so a start vector's edge leaks at most 1.5e-4 of tol.
_WINDOW = 1e-18
_RQI_STEPS = 8  # Rayleigh-quotient steps before a continuation gives up
_NESTED_FLOOR = 512  # grids of fewer intervals are bisected directly
_NESTED_FACTOR = 8  # a nested solve starts on a grid with 1/8 of the intervals
_EPS = float(np.finfo(float).eps)
_MAX_INTERVALS = 2**22  # largest grid; one vector on it takes 32 MiB
REACH = 14.0  # Agmon lengths from well to wall that a grid must reach; see `_admit`


@dataclass(frozen=True)
class Grid:
    """Uniform grid over (0, radius) with 16 to 2^22 `intervals` of width h."""

    radius: float
    intervals: int

    def __post_init__(self) -> None:
        if _integer(self.intervals, "grid intervals", 16) > _MAX_INTERVALS:
            raise ModelError(
                f"a grid of {self.intervals} intervals is above the limit of {_MAX_INTERVALS}"
            )
        radius = _real(self.radius, "grid radius", above=0.0)
        object.__setattr__(self, "radius", radius)
        h = radius / self.intervals  # the matrix needs 2/h^2 and R^2 as floats
        if not (h * h > 0.0 and math.isfinite(2.0 / (h * h) + radius * radius)):
            raise ModelError(f"grid radius {radius!r} puts 2/h^2 or R^2 outside the float range")

    @property
    def h(self) -> float:
        return self.radius / self.intervals

    @cached_property
    def nodes(self) -> np.ndarray:
        """Interior nodes r_j = j*h, j = 1..N-1."""
        return np.arange(1, self.intervals) * self.h

    def refined(self) -> "Grid":
        """Same radius, half the step."""
        return Grid(self.radius, 2 * self.intervals)


def _reach(grid: Grid, xi: float, value: float) -> float:
    """Agmon lengths from the well of `value` at momentum xi to the wall.

    The integral of sqrt(s^2 - value) from s = sqrt(value) to R - xi, in
    closed form: a lower bound of the Agmon distance from r_plus to R, since
    V >= (r - xi)^2.  At value 0 it is its limit (R - xi)^2/2.
    """
    a, x = math.sqrt(value), grid.radius - xi
    if not x > a:  # the wall is inside the well, or value is NaN
        return 0.0
    q = math.sqrt(x * x - a * a)
    return 0.5 * (x * q - (a * a * math.acosh(x / a) if a else 0.0))


def _admitted_radius(xi: float, energy: float) -> float:
    """A radius admitting every eigenvalue up to `energy` at xi: the wall lies
    d = sqrt(2 REACH) past s = sqrt(energy), and the reach is >= d^2/2."""
    return max(0.0, xi + math.sqrt(energy)) + math.sqrt(2.0 * REACH)


def _admit(params: ModelParams, grid: Grid, value: float) -> None:
    """The one grid rule: raise ModelError unless the wall of `grid` lies at
    least REACH Agmon lengths (`_reach`) past the well of the eigenvalue `value`.

    An eigenfunction decays like e^(-d) at Agmon distance d from its well
    (Agmon, Lectures on Exponential Decay, 1982), so the wall moves `value`
    by about e^(-2 REACH).  `value` is the computed eigenvalue: a wall too
    close raises it (Dirichlet domain monotonicity) and so only shortens the
    reach, and up to the O(h^2) of the differences a grid too short cannot
    admit itself.
    """
    reach = _reach(grid, params.xi, value)
    if not reach >= REACH:
        raise ModelError(
            f"fiber (n={params.n}, m={params.m}, xi={params.xi}): the wall of {grid} lies "
            f"{reach:.4g} Agmon lengths past the well of lambda={value:.6g}, fewer than "
            f"{REACH:g}; a radius of {_admitted_radius(params.xi, value):.6g} is admitted"
        )


def fixed_step_grid(xi: float, energy: float, step: float) -> Grid:
    """Grid of step `step` admitting every eigenvalue up to `energy` at xi,
    of radius `_admitted_radius` rounded up to whole steps.

    Raises ModelError on a step that is not finite and positive, or on a grid
    past `Grid`'s interval limit.
    """
    step = _real(step, "grid step", above=0.0)
    intervals = max(16, math.ceil(_admitted_radius(xi, energy) / step))
    return Grid(intervals * step, intervals)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its grid eigenvector, normalized to h * sum(u^2) = 1."""

    value: float
    vector: np.ndarray


def assemble(params: ModelParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of -d^2/dr^2 + V_m(r, xi) on the grid interior."""
    return _block(grid, potential(params, grid.nodes), slice(None))


def _block(grid: Grid, v: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the block T[rows, rows] of `assemble`'s
    matrix, from v, the potential on grid.nodes."""
    diagonal = 2.0 / grid.h**2 + v[rows]
    return diagonal, np.full(diagonal.size - 1, -1.0 / grid.h**2)


def solve_fiber(params: ModelParams, grid: Grid, count: int) -> list[EigenPair]:
    """The `count` smallest eigenpairs, ascending, normalized and sign-fixed.

    Eigenvalues are simple (the fiber operator is a limit-point Sturm-Liouville
    problem), so the pairs are well defined.  They are the fiber step's
    (`_follow`), continued from the first start of `_starts` that is
    certified, each value a Rayleigh quotient within 8 eps ||T||_1 of an
    eigenvalue, and otherwise bisected (a few ulps of ||T||).
    """
    return _follow(params, grid, count, None).pairs


def fiber_eigenvalues(params: ModelParams, grid: Grid, count: int) -> np.ndarray:
    """The `count` smallest eigenvalues, ascending: the Rayleigh quotients
    (`rayleigh_quotient`) of the fiber step's eigenvectors (`_follow`),
    continued from a start of `_starts` or bisected, as in `solve_fiber`."""
    return _follow(params, grid, count, None).values


class _Fiber:
    """The lowest eigenpairs of one fiber on one grid, with v the potential on
    its nodes.  Their Rayleigh quotients (`values`) and Feynman-Hellmann
    slopes (`slopes`) are computed when first read.  `before` is the xi,
    vectors and slopes of the fiber this one was continued from on the same
    grid at another xi, kept as plain arrays so that no chain of fibers
    builds up, and None otherwise."""

    def __init__(
        self,
        params: ModelParams,
        grid: Grid,
        pairs: list[EigenPair],
        v: np.ndarray,
        before: tuple[float, list[np.ndarray], np.ndarray] | None = None,
    ):
        self.params, self.grid, self.pairs, self.v, self.before = params, grid, pairs, v, before

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([_rayleigh_quotient(pair, self.grid, self.v) for pair in self.pairs])

    @cached_property
    def slopes(self) -> np.ndarray:
        return np.array(
            [derivative_feynman_hellmann(self.params, pair, self.grid) for pair in self.pairs]
        )


def _follow(params: ModelParams, grid: Grid, count: int, previous: _Fiber | None) -> _Fiber:
    """The fiber step: the `count` lowest eigenpairs at params.xi on `grid`.

    The one place that continues or bisects a fiber.  Each start of `_starts`
    in turn is continued (`_continue_fiber`) on its window of rows; with no
    start left the grid is bisected (`_bisect_fiber`).  A fiber continued
    from `previous` on the same grid keeps that sample's xi, vectors and
    slopes, so the next step can start from a second-order extrapolation.
    An invalid `count` is a ModelError before any solve.
    """
    count = _integer(count, "eigenpairs", 1, grid.intervals - 1)
    v = potential(params, grid.nodes)
    for vectors, shifts, window, before in _starts(params, grid, count, previous, v):
        pairs = _continue_fiber(grid, vectors, shifts, v, window)
        if pairs is not None:
            return _Fiber(params, grid, pairs, v, before)
    return _Fiber(params, grid, _bisect_fiber(params, grid, count), v)


def _window(grid: Grid, vectors: list[np.ndarray], dxi: float) -> slice:
    """The rows a continuation from `vectors` works on, |dxi| away in xi:
    every row where some vector exceeds _WINDOW of its own peak, `_widened`."""
    size = grid.intervals - 1
    lo, hi = size, 0
    for u in vectors:
        magnitude = np.abs(u)
        occupied = magnitude > _WINDOW * magnitude.max()
        lo = min(lo, int(occupied.argmax()))
        hi = max(hi, size - int(occupied[::-1].argmax()))
    return _widened(grid, lo, hi, dxi)


def _widened(grid: Grid, lo: int, hi: int, dxi: float) -> slice:
    """Rows [lo, hi) widened on each side by |dxi| plus one unit of r, as the
    well moves with xi, and by at least two rows (LAPACK's tridiagonal LU
    takes three rows or more)."""
    margin = max(2, math.ceil((dxi + 1.0) / grid.h))
    return slice(max(0, lo - margin), min(grid.intervals - 1, hi + margin))


def _starts(params: ModelParams, grid: Grid, count: int, previous: _Fiber | None, v: np.ndarray):
    """(vectors, shifts, window, before) for `_follow` to continue from, in
    turn: start vectors on grid.nodes, their shifts, the rows to work on and
    the `_Fiber.before` of a fiber continued from them.  v is the potential on
    grid.nodes.  Each source is offered at most once, in this order:

    1. the closed-form start of the harmonic well (`_harmonic`), only when it
       leads: with no `previous`, or after a `previous` that keeps no sample
       before it when the residual (`_residual`) of its start is at least w,
       the bound the closed form's own gate sets;
    2. the start from `previous`, the step at a nearby xi, dxi away (on the
       same grid or a grown grid of the same step): its vectors u1 at the
       shifts lambda1 + lambda1' dxi, or, when it keeps the sample before it
       (`_Fiber.before`, dxi0 further back), the second-order start
       u1 + (u1 - u0) dxi/dxi0 at the Hermite shifts
       lambda1 + lambda1' dxi + (lambda1' - lambda0') dxi^2 / (2 dxi0), with
       which a dense sweep's sample takes one Rayleigh step (a repeated xi is
       the same formula at dxi = 0);
    3. on 512 intervals or more, the same fiber on the grid with 1/8 of the
       intervals at its values (a nested solve), solved only when reached
       and skipped when that fails.

    The well (`_well`) is looked up at most once.
    """
    if previous is None:
        well, start = _well(params), None
    else:
        dxi = params.xi - previous.params.xi
        vectors = [pair.vector for pair in previous.pairs]
        before = None
        if dxi and previous.grid == grid:
            before = (previous.params.xi, vectors, previous.slopes)
        shifts = previous.values + previous.slopes * dxi
        if previous.before is not None:
            xi0, vectors0, slopes0 = previous.before
            dxi0 = previous.params.xi - xi0
            vectors = [u + (u - u0) * (dxi / dxi0) for u, u0 in zip(vectors, vectors0)]
            shifts += 0.5 * (previous.slopes - slopes0) / dxi0 * dxi**2
        vectors = _onto(grid, previous.grid, vectors)
        window = _window(grid, vectors, abs(dxi))
        start, well = (vectors, shifts, window, before), None
        if previous.before is None:
            rival = _residual(grid, v, window, [u[window] for u in vectors], shifts)
            # k >= 0 wherever there is a well, so w >= 1 and a residual below 1
            # keeps the lead without looking the well up
            well = _well(params) if rival >= 1.0 else None
            if well is not None and rival < well[2]:
                well = None
    closed = _harmonic(grid, count, v, well)
    if closed is not None:
        yield closed
    if start is not None:
        yield start
    intervals = grid.intervals // _NESTED_FACTOR
    if grid.intervals >= _NESTED_FLOOR and intervals - 1 >= count:
        try:
            nested = _follow(params, Grid(grid.radius, intervals), count, None)
        except ConvergenceError:
            return
        vectors = _onto(grid, nested.grid, [pair.vector for pair in nested.pairs])
        yield vectors, [pair.value for pair in nested.pairs], _window(grid, vectors, 0.0), None


def _well(params: ModelParams) -> tuple[float, float, float] | None:
    """(r0, V(r0), w) of the harmonic well V ~ V(r0) + w^2 (r - r0)^2 near
    the minimum r0 of V (`potential_minimum`), with w^2 = V''(r0)/2 =
    1 + 3 k/r0^4; None where V has no interior minimum (k < 0, or k = 0 with
    xi <= 0) or the minimum is not found."""
    try:
        profile = potential_minimum(params)
    except (ModelError, ConvergenceError):
        return None
    return profile.r_min, profile.v_min, math.sqrt(1.0 + 3.0 * params.k / profile.r_min**4)


def _harmonic(grid: Grid, count: int, v: np.ndarray, well: tuple[float, float, float] | None):
    """The closed-form start (vectors, shifts, window, None) from `well`, the
    (r0, V(r0), w) of `_well`, or None; v is the potential on grid.nodes.

    The eigenpairs of the harmonic well are V(r0) + (2j + 1) w
    with the Hermite functions psi_j(sqrt(w) (r - r0)), j < count, from
    their three-term recurrence.  They are evaluated only where psi_0's
    Gaussian exceeds _WINDOW, widened by psi_(count-1)'s turning point,
    sqrt(2 count - 1) (beyond a turning point x_t a Hermite function falls
    at least like e^(-(x - x_t)^2 / 2)), and cut on the axis side where the
    Agmon distance from the well of the top shift, in the true V, exceeds
    ln(1/_WINDOW): there k/r^2 makes V steeper than its harmonic model, and
    a Gaussian tail left there would outlive the few Rayleigh steps as noise
    far above the eigenvector (past r0, V'' falls, V lies below its model
    and needs no cut).  So the start costs O(window), not O(N).  It is
    offered only when every vector's residual (`_residual`, the leak at a
    trimmed end included) is below w, half the oscillator's level spacing;
    where `_well` finds no well there is no start.
    """
    if well is None:
        return None
    r0, v0, w = well
    shifts = [v0 + (2 * j + 1) * w for j in range(count)]
    reach = (math.sqrt(-2.0 * math.log(_WINDOW)) + math.sqrt(2 * count - 1)) / math.sqrt(w)
    h, size = grid.h, grid.intervals - 1
    lo, hi = max(0, math.floor((r0 - reach) / h)), min(size, math.ceil((r0 + reach) / h) - 1)
    if hi - lo <= count:
        return None
    centre = min(max(lo, round(r0 / h) - 1), hi - 1)  # the row nearest r0
    inward = v[lo : centre + 1][::-1] - shifts[-1]  # Agmon distance / h, from r0 inward
    np.cumsum(np.sqrt(np.maximum(inward, 0.0, out=inward), out=inward), out=inward)
    lo = centre + 1 - int(np.searchsorted(inward, -math.log(_WINDOW) / h))
    if hi - lo <= count:
        return None
    # The first row's residual of psi_0, over a bound of ||psi_0|| (a Gaussian
    # summed on nodes s apart is at most 1 + sqrt(pi)/s), bounds its gate
    # residual from below: a well at the axis fails there before any array.
    s, coupling = math.sqrt(w) * h, 1.0 / h**2
    z0, z1 = (math.exp(-0.5 * ((node - r0 / h) * s) ** 2) for node in (lo + 1, lo + 2))
    row = (v[lo] + (2.0 * coupling - shifts[0])) * z0 - coupling * z1
    if row * row + (coupling * z0) ** 2 * (lo > 0) >= w * w * (1.0 + math.sqrt(math.pi) / s):
        return None
    x = np.arange(lo + 1.0, hi + 1.0)
    x -= r0 / h
    x *= s
    psi = [0.0, np.exp(x * x * -0.5)]  # psi_(-1) = 0 and psi_0
    for j in range(count):  # the gate turns most starts away at psi_0
        if j:
            psi.append(math.sqrt(2.0 / j) * x * psi[-1] - math.sqrt((j - 1) / j) * psi[-2])
        if not _residual(grid, v, slice(lo, hi), psi[-1:], shifts[j : j + 1]) < w:
            return None
    vectors = [np.zeros(size) for _ in range(count)]
    for vector, values in zip(vectors, psi[1:]):
        vector[lo:hi] = values
    return vectors, shifts, _widened(grid, lo, hi, 0.0), None


def _residual(grid: Grid, v: np.ndarray, rows: slice, vectors: list[np.ndarray], shifts) -> float:
    """The largest ||(T - mu) z|| / ||z|| on the full grid matrix T, over
    start vectors z given on `rows` and zero outside them, and their shifts
    mu: the rows' residual with the leaks |z|/h^2 of a trimmed end, as in
    `_continue_fiber`.  v is the potential on grid.nodes."""
    coupling = 1.0 / grid.h**2
    a, b = rows.start, rows.stop
    largest = 0.0
    for z, mu in zip(vectors, shifts):
        residual = v[a:b] + (2.0 * coupling - mu)
        residual *= z
        residual[:-1] -= coupling * z[1:]
        residual[1:] -= coupling * z[:-1]
        leak = (coupling * z[0]) ** 2 * (a > 0) + (coupling * z[-1]) ** 2 * (b < v.size)
        norm = _dot(z, z)
        if not norm:
            return math.inf
        largest = max(largest, math.sqrt((_dot(residual, residual) + leak) / norm))
    return largest


def _onto(grid: Grid, source: Grid, vectors: list[np.ndarray]) -> list[np.ndarray]:
    """`vectors` on source.nodes carried onto grid.nodes by linear
    interpolation, with zeros at the axis and past the wall of `source`."""
    if source == grid:  # on the same nodes the interpolation is the identity
        return vectors
    nodes = np.concatenate(([0.0], source.nodes, [source.radius]))
    return [np.interp(grid.nodes, nodes, np.pad(u, 1)) for u in vectors]


def _bisect_fiber(params: ModelParams, grid: Grid, count: int) -> list[EigenPair]:
    """The fiber's pairs by LAPACK bisection and inverse iteration, to a few
    ulps of ||T||.  A failure names the fiber."""
    diagonal, offdiagonal = assemble(params, grid)
    try:
        values, vectors = eigh_tridiagonal(
            diagonal,
            offdiagonal,
            select="i",
            select_range=(0, count - 1),
            check_finite=False,
        )
    except LinAlgError as exc:
        raise ConvergenceError(
            f"fiber (m={params.m}, xi={params.xi}): tridiagonal eigensolve failed "
            f"for indices 0..{count - 1}: {exc}"
        ) from exc
    # Sign: positive near the axis.  The first entries can be underflow-level
    # noise for strongly vanishing eigenfunctions, so key on the first
    # significant entry.
    return [
        EigenPair(float(value), -u if _significant(u)[0] < 0.0 else u)
        for value, u in zip(values, (vectors / np.sqrt(grid.h)).T)
    ]


def _significant(vector: np.ndarray) -> np.ndarray:
    """The entries of `vector` above _SIGNIFICANT of its peak, in order."""
    magnitude = np.abs(vector)
    return vector[magnitude > _SIGNIFICANT * np.max(magnitude)]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's own loop, not BLAS.

    OpenBLAS runs ddot (`@`, `np.linalg.norm`) on its thread pool above
    ~10 000 entries.  Each call then waits for the pool, which costs far more
    than the sum when the pool is idle or a core is busy: one continuation on
    11 498 rows took 30 ms through ddot and 1.2 ms through this loop, with
    one of two cores loaded.
    """
    return float(np.einsum("i,i", a, b))


def _continue_fiber(
    grid: Grid,
    vectors: list[np.ndarray],
    shifts,
    v: np.ndarray,
    window: slice,
) -> list[EigenPair] | None:
    """The len(vectors) smallest eigenpairs, continued from start vectors on
    grid.nodes on the rows `window` = [a, b), with v the potential on
    grid.nodes.

    Pair i runs Rayleigh-quotient iteration from vectors[i], starting at
    shifts[i], on the principal submatrix T[a:b, a:b]: one tridiagonal LU
    solve (LAPACK dgttrf/dgttrs) per step, until the residual of the
    zero-padded vector z on the full T falls to tol = 8 eps ||T||_1.  That
    residual is the window's ||T z - mu z|| with the two leak terms |z_a|/h^2
    and |z_(b-1)|/h^2 of a trimmed end added in quadrature, so each value is
    the Rayleigh quotient mu of the padded vector on T, within tol of an
    eigenvalue of T.  One more solve with the last factorization then
    polishes the vector; it stays zero outside the window.

    The result is accepted only when it is certified to be the lowest
    eigenpairs in order: the values ascend with gaps above 2 tol (so they
    belong to distinct eigenvalues of T, all below sigma = last value +
    2 tol), vector i has i sign changes over its significant entries
    (discrete oscillation theorem), and a Sturm count (`_count_below`) bounds
    the eigenvalues of T below sigma by len(vectors): on the window, each
    side trimmed with 1/h^2 taken from its end's diagonal where V >= sigma
    on every row beyond it, and extended to the grid's end otherwise (an
    upper bound by Haynsworth inertia additivity).  The certified values
    bound that number from below, so it is exact.  Otherwise, and on any
    LAPACK failure, it returns None.  Vectors are normalized and sign-fixed
    as in `solve_fiber`.
    """
    # ||T||_1: interior columns hold two off-diagonal entries, end columns one.  Each
    # diagonal entry is >= 1.75/h^2 > 0 (k >= -1/4, r >= h); rounding is monotone, so
    # the largest is 2/h^2 + max V, with no full-length temporary
    coupling, lift = 1.0 / grid.h**2, 2.0 / grid.h**2
    norm = max(
        lift + float(v[1:-1].max()) + 2.0 * coupling,
        lift + float(v[0]) + coupling,
        lift + float(v[-1]) + coupling,
    )
    tol = 8.0 * _EPS * norm
    a, b = window.start, window.stop
    leaks = (coupling if a > 0 else 0.0, coupling if b < v.size else 0.0)
    diagonal, offdiagonal = _block(grid, v, window)
    pairs = []
    for u, mu in zip(vectors, shifts):
        found = _rayleigh_iteration(diagonal, offdiagonal, u[a:b], float(mu), tol, leaks)
        if found is None:
            return None
        mu, z = found
        z /= np.sqrt(_dot(z, z) * grid.h)
        if not np.all(np.isfinite(z)):
            return None
        signs = np.signbit(_significant(z))
        if np.count_nonzero(signs[1:] != signs[:-1]) != len(pairs):
            return None
        vector = np.zeros_like(v)
        vector[window] = -z if signs[0] else z
        pairs.append(EigenPair(mu, vector))
    values = [pair.value for pair in pairs]
    if any(upper - lower <= 2.0 * tol for lower, upper in zip(values, values[1:])):
        return None
    if _count_below(grid, v, values[-1] + 2.0 * tol, window) != len(pairs):
        return None
    return pairs


def _count_below(grid: Grid, v: np.ndarray, sigma: float, window: slice) -> int | None:
    """An upper bound of the number of eigenvalues of T below sigma, exact on
    the full matrix, from v on grid.nodes; None on a LAPACK failure.

    Each side of `window` = [a, b) is decided alone: a side whose outer rows
    hold some V < sigma extends to the grid's end, and otherwise it is
    trimmed, with 1/h^2 subtracted from the diagonal of its end row.  The
    full T is the case a = 0, b = N.  A trimmed outer block of T - sigma is the Dirichlet difference
    Laplacian plus V - sigma >= 0, so positive definite, and by Haynsworth's
    inertia additivity T - sigma has as many negative eigenvalues as their
    Schur complement: the kept block minus (1/h^4) (block^-1)_corner at each
    trimmed end.  That corner lies in (0, h^2), since the block dominates the
    Laplacian, whose corner inverse is h^2 k/(k + 1) on k rows; subtracting
    the whole 1/h^2 can only add negative eigenvalues.  The count is one
    LAPACK Sturm count (dstebz over a value range from a Gershgorin floor,
    with an abstol so large that no bisection runs).
    """
    a, b, size = window.start, window.stop, v.size
    if v[:a].min(initial=np.inf) < sigma:
        a = 0
    if v[b:].min(initial=np.inf) < sigma:
        b = size
    coupling = 1.0 / grid.h**2
    diagonal, offdiagonal = _block(grid, v, slice(a, b))
    if a > 0:
        diagonal[0] -= coupling
    if b < size:
        diagonal[-1] -= coupling
    floor = float(np.min(diagonal)) - 2.0 * coupling - 1.0
    below, *_, info = lapack.dstebz(diagonal, offdiagonal, 1, floor, sigma, 0, 0, 1e30, "B")
    return below if info == 0 else None


def _rayleigh_iteration(diagonal, offdiagonal, z, mu, tol, leaks):
    """(mu, z) after Rayleigh-quotient iteration on the window matrix from
    (mu, z) to a full-grid residual of tol and one polishing solve, or None.
    `leaks` are the couplings of the window's first and last rows to the
    rows outside it, 0 at an end of the grid.

    A function of its own so that its LU factors and residual are freed
    before the caller's Sturm count, the largest allocation of a
    continuation.
    """
    for _ in range(_RQI_STEPS):
        *factors, info = lapack.dgttrf(offdiagonal, diagonal - mu, offdiagonal)
        if info != 0:
            return None
        z, info = lapack.dgttrs(*factors, z)
        z /= np.sqrt(_dot(z, z))
        residual = diagonal * z
        residual[:-1] += offdiagonal * z[1:]
        residual[1:] += offdiagonal * z[:-1]
        mu = _dot(z, residual)
        residual -= mu * z
        leak = (leaks[0] * z[0]) ** 2 + (leaks[1] * z[-1]) ** 2
        if np.sqrt(_dot(residual, residual) + leak) <= tol:
            break
    else:
        return None
    z, info = lapack.dgttrs(*factors, z)
    return None if info != 0 else (mu, z)


def rayleigh_quotient(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """The discrete eigenvalue as the Rayleigh quotient of its eigenvector.

    Difference form h * sum((u_{j+1} - u_j)/h)^2 + h * sum V u^2 with
    u_0 = u_N = 0.  It is the same eigenvalue as the solver's, but smooth in
    xi to rounding: the bisection value scatters by a few ulps of the matrix
    norm, and k/h^2 on the first diagonal entry makes that norm large.
    """
    return _rayleigh_quotient(pair, grid, potential(params, grid.nodes))


def _rayleigh_quotient(pair: EigenPair, grid: Grid, v: np.ndarray) -> float:
    """`rayleigh_quotient` from v, the potential on grid.nodes."""
    u = pair.vector
    jumps = np.empty(u.size + 1)
    jumps[0], jumps[-1] = u[0], -u[-1]
    np.subtract(u[1:], u[:-1], out=jumps[1:-1])
    kinetic = (jumps**2).sum() / grid.h
    return float(kinetic + grid.h * (v * u**2).sum())


def derivative_feynman_hellmann(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """d(lambda)/d(xi) as -2 * integral (r - xi) u^2 dr on the grid.

    This is the exact derivative of the *discrete* eigenvalue (the matrix
    depends on xi only through its diagonal), which is why it cross-validates
    against centered differences of the solved eigenvalue to near machine
    precision.
    """
    r = grid.nodes
    return float(-2.0 * grid.h * ((r - params.xi) * pair.vector**2).sum())


def derivative_boundary_form(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """d(lambda)/d(xi) through the boundary representation.

    Three regimes, split by the coupling:

    * (n, m) = (3, 0), k = -1/4: -integral (u^2/r - K)/r^2 dr with
      K = lim u^2/r at the axis, estimated by quadratic extrapolation from the
      first three nodes (u^2/r - K = O(r^2), so the r^2-exact stencil
      3*y1 - 3*y2 + y3 is the right one).  The integrand keeps the constant
      tail -K/r^2 beyond the eigenfunction's support, so the exact remainder
      K/R of the truncated integral is added back.
    * k = 0 (only (n, m) = (4, 0)): -|u'(0)|^2 with the one-sided difference
      u(r_1)/h.
    * otherwise: -2 k integral u^2/r^3 dr.
    """
    r = grid.nodes
    u = pair.vector
    if params.n == 3 and params.m == 0:
        y = u[:3] ** 2 / r[:3]
        k_axis = 3.0 * y[0] - 3.0 * y[1] + y[2]
        integral = grid.h * ((u**2 / r - k_axis) / r**2).sum()
        return float(-integral + k_axis / grid.radius)
    if params.k == 0.0:
        return float(-((u[0] / grid.h) ** 2))
    return float(-2.0 * params.k * grid.h * (u**2 / r**3).sum())


def boundary_exponent(
    params: ModelParams, pair: EigenPair, grid: Grid, fit_window: int
) -> float:
    """Vanishing exponent of the eigenfunction at the axis, u ~ r^nu.

    Least-squares slope of log u against log r over the first `fit_window`
    nodes.  The window must sit strictly inside the classically forbidden
    inner region r < r_minus, where the eigenfunction is monotone and
    sign-definite; otherwise the fit is meaningless.  A continued vector is
    exactly zero on rows outside its continuation's window, where it fell
    below _WINDOW of its peak (near the axis at large nu), and there the fit
    raises SignPatternError.
    """
    fit_window = _integer(fit_window, "fit_window nodes", 3, grid.intervals - 1)
    r_minus, _ = turning_points(params, pair.value)
    r = grid.nodes[:fit_window]
    if r[-1] >= r_minus:
        raise ModelError(
            f"fit window reaches r={r[-1]:.4g}, not inside the forbidden region "
            f"r < {r_minus:.4g}"
        )
    u = pair.vector[:fit_window]
    if np.any(u <= 0.0):
        raise SignPatternError(
            "eigenvector is not strictly positive over the fit window; "
            "the boundary exponent fit needs sign-definite data"
        )
    slope, _ = np.polyfit(np.log(r), np.log(u), 1)
    return float(slope)


@dataclass(frozen=True)
class RefinedValue:
    """Richardson extrapolation from an h, h/2 grid pair, elementwise over arrays."""

    coarse: np.ndarray
    fine: np.ndarray
    value: np.ndarray
    error: np.ndarray


def richardson(a, b) -> RefinedValue:
    """(4b - a)/3 and |b - a|/3 from a on a grid and b on its refinement, elementwise."""
    return RefinedValue(a, b, (4.0 * b - a) / 3.0, abs(b - a) / 3.0)
