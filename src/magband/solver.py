"""Finite-difference solver for the half-line fiber operator.

Second-order central differences on a uniform grid over (0, R) with Dirichlet
conditions at both ends; the nodes r_j = j*h, j = 1..N-1, exclude the singular
axis r = 0 and the artificial wall r = R.  The discrete operator T is
symmetric tridiagonal, stated once, in the record `_Operator` of a fiber's
coupling k on a grid, built once per followed chain.  `solve_fiber`,
`fiber_eigenvalues`, band sweeps and crossing iterations all solve it
through one fiber step (`_follow`) of a record at one xi for a contiguous
band range q..p (q = 1 everywhere but in a crossing, which asks for band p
alone), which continues at most one start per source in the order `_starts`
states (the closed-form
Hermite functions of the harmonic well that V turns into near its minimum,
when they lead; the pairs of the fiber at a nearby xi; the same fiber on a
grid 8 times coarser, a nested solve: Brandt, Math. Comp. 31, 1977; last,
the shifts of a Sturm-sequence bisection by exact counts, `_bisection`),
so every pair it returns is a certified continuation, and it raises
ConvergenceError when no start is certified.

A continuation (`_continue_fiber`) is Rayleigh-quotient iteration on a
window of rows (`_window`), one LDL^T factorization (`_ldl`) and solve per
step.  The window holds the rows where a start vector exceeds _WINDOW of
its peak, widened by |dxi| plus one unit of r, since an eigenfunction
decays like e^(-d) at Agmon distance d from its well; the vectors are zero
outside it.  Its certificate, stated in `_continue_fiber`, makes each value
a Rayleigh quotient within 8 eps ||T||_1 of T's eigenvalue of its band.
All of it is deterministic for fixed input.

A start changes the number of steps, never the certificate, so a value
depends on its start only at the rounding level.

Eigenvectors are returned with the continuum normalization h * sum(u^2) = 1
and sign fixed to be positive near the axis (`_negative`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack  # eigh_tridiagonal: perfbench/tracing.py binds it

from .errors import ConvergenceError, ModelError, SignPatternError
from .model import ModelParams, _integer, _potential_minimum, _real, potential, turning_points

_SIGNIFICANT = 1e-8  # entries below this fraction of a vector's peak carry no sign
# Rows where no start vector reaches this fraction of its peak lie outside a
# continuation's window (`_window`).  A unit vector's entry z at a trimmed end
# leaks |z|/h^2 into the full-grid residual, and tol = 8 eps ||T||_1 >= 32 eps/h^2,
# so a start vector's edge leaks at most 1.5e-4 of tol.
_WINDOW = 1e-18
_RQI_STEPS = 8  # Rayleigh-quotient steps before a continuation gives up
_NESTED_FLOOR = 512  # grids of fewer intervals take no nested solve
_NESTED_FACTOR = 8  # a nested solve starts on a grid with 1/8 of the intervals
_BISECTION_WIDTH = 0.01  # a bisection start's bracket of one band is narrower
_EPS = float(np.finfo(float).eps)
_MAX_INTERVALS = 2**22  # largest grid; one vector on it takes 32 MiB
REACH = 14.0  # Agmon lengths from well to wall that a grid must reach; see `_admit`
# Largest relative miss of nu by the axis recurrence (`_Operator.axis_slope`)
# that `boundary_exponent` admits: check 06's fits miss by at most 1.0 %.
_AXIS_BIAS = 0.02


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
    V >= (r - xi)^2.  At value 0 it is its limit (R - xi)^2/2.  It is inf
    where (R - xi)^2 is past the float range.
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


def _admit(params: ModelParams, grid: Grid, value: float, xi: float | None = None) -> None:
    """The one grid rule: raise ModelError unless the wall of `grid` lies at
    least REACH Agmon lengths (`_reach`) past the well of `value` at xi (params.xi if None),
    and (r - xi)^2 is a float on the whole grid (at the axis and at the wall).

    An eigenfunction decays like e^(-d) at Agmon distance d from its well
    (Agmon, Lectures on Exponential Decay, 1982), so the wall moves `value`
    by about e^(-2 REACH).  `value` is the computed eigenvalue: a wall too
    close raises it (Dirichlet domain monotonicity) and so only shortens the
    reach, and up to the O(h^2) of the differences a grid too short cannot
    admit itself.

    The reach falls as `value` grows, so a grid that does not admit value 0
    admits no eigenvalue, and `_admitted` and `bands.sweep` check value 0
    before any solve.
    """
    xi = params.xi if xi is None else xi
    reach = _reach(grid, xi, value)
    if not math.isfinite(max(xi * xi, reach)):
        raise ModelError(
            f"fiber (n={params.n}, m={params.m}, xi={xi}): the potential (r - xi)^2 "
            f"on {grid} is past the float range"
        )
    if not reach >= REACH:
        raise ModelError(
            f"fiber (n={params.n}, m={params.m}, xi={xi}): the wall of {grid} lies "
            f"{reach:.4g} Agmon lengths past the well of lambda={value:.6g}, fewer than "
            f"{REACH:g}; a radius of {_admitted_radius(xi, value):.6g} is admitted"
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
    """Diagonal and off-diagonal of -d^2/dr^2 + V_m(r, xi) on the grid interior.
    Not called in the package; perfbench/tracing.py binds it."""
    v = potential(params, grid.nodes)
    return _Operator(params, grid).block(v, slice(0, grid.intervals - 1))[:2]


@dataclass(frozen=True)
class _Operator:
    """The grid matrix T of the fiber `params` on `grid`, whose methods are
    the only statement of T's shape: the diagonal 2/h^2 + V, one coupling
    -1/h^2 between neighbouring rows and unit mass.  T depends on params
    only through k and on xi only through V (`potential`); params also
    names the fiber in the fiber step's ConvergenceError.  A followed chain
    builds one record, so its k/r^2 and off-diagonal are built once.  Its
    inertia count (`count_below`) factors the rows of the well at xi."""

    params: ModelParams
    grid: Grid

    @cached_property
    def coupling(self) -> float:
        return 1.0 / self.grid.h**2

    @cached_property
    def centrifugal(self) -> np.ndarray:
        """k/r^2 on grid.nodes, the part of V that does not depend on xi."""
        return self.params.k / self.grid.nodes**2

    @cached_property
    def offdiagonal(self) -> np.ndarray:
        offdiagonal = np.full(self.grid.intervals - 2, -self.coupling)
        offdiagonal.flags.writeable = False  # `block` hands out views; LAPACK copies it
        return offdiagonal

    def potential(self, xi: float) -> np.ndarray:
        """V on grid.nodes at xi, the bits of `potential`."""
        v = self.grid.nodes - xi
        np.square(v, out=v)
        v += self.centrifugal
        return v

    def block(self, v: np.ndarray, rows: slice, shift=0.0):
        """(diagonal, off-diagonal, leaks) of the block T[rows, rows] - shift,
        from v, the potential on grid.nodes.  The leaks couple its first and
        last rows to the rows outside it: 1/h^2 on a side trimmed from the
        grid, 0 at the grid's end."""
        coupling = self.coupling
        diagonal = v[rows] + (2.0 * coupling - shift)
        leaks = (coupling if rows.start > 0 else 0.0, coupling if rows.stop < v.size else 0.0)
        return diagonal, self.offdiagonal[: diagonal.size - 1], leaks

    def one_norm(self, v: np.ndarray) -> float:
        """||T||_1 from v, the potential on grid.nodes.  Interior columns hold
        two off-diagonal entries, end columns one.  Each diagonal entry is
        >= 1.75/h^2 > 0 (k >= -1/4, r >= h); rounding is monotone, so the
        largest is 2/h^2 + max V, with no full-length temporary."""
        coupling, lift = self.coupling, 2.0 * self.coupling
        ends = lift + max(float(v[0]), float(v[-1])) + coupling
        return max(lift + float(v[1:-1].max()) + 2.0 * coupling, ends)

    def squared_residual(self, block, z: np.ndarray, rayleigh: bool = False):
        """(mu, ||(T - mu) z||^2), T less the shift of the block B (`block`)
        that z is given on: B's residual plus z's end entries times their
        leaks, squared.  mu is 0, or with `rayleigh` the quotient z . B z of a
        unit z.  One product gives both off-diagonal terms (equal couplings)."""
        diagonal, _, leaks = block
        residual = diagonal * z
        coupled = -self.coupling * z
        residual[:-1] += coupled[1:]
        residual[1:] += coupled[:-1]
        mu = 0.0
        if rayleigh:
            mu = _dot(z, residual)
            residual -= np.multiply(z, mu, out=coupled)
        return mu, _dot(residual, residual) + ((leaks[0] * z[0]) ** 2 + (leaks[1] * z[-1]) ** 2)

    def count_below(self, v: np.ndarray, sigma: float, xi: float | None, lower=False) -> int | None:
        """A bound of the number of eigenvalues of T below sigma, from v, the
        potential on grid.nodes at xi: the count of a block of T, exact by
        Sylvester's law of inertia (`_ldl`), that bounds T's, from above by
        default and from below with `lower`; exact on the full matrix, which
        xi = None counts (`_bisection`); None on a LAPACK failure.
        `_continue_fiber` certifies bands q..p with the upper bound at
        mu_p + 2 tol and, for q > 1, the lower bound at mu_q - 2 tol.

        The block is the well's rows, |r - xi| < sqrt(sigma) + 1, clipped to
        the grid (one row at least) and taken down to the axis when k < 0, so
        (n, m) = (3, 0) alone: found from xi with no pass over v, they hold
        every row where V < sigma, as V >= (r - xi)^2 for k >= 0.  At
        k = -1/4 the trimmed wall side has r > xi + sqrt(sigma) + 1 > 1
        whenever T has an eigenvalue below sigma (T >= (r - xi)^2 by the
        discrete Hardy inequality), so there V >= sigma + 2 sqrt(sigma) + 1
        - 1/(4 r^2) > sigma too.

        Upper (Haynsworth): each trimmed side has its leak (`block`)
        subtracted from its end row.  A trimmed outer block of T - sigma is
        the Dirichlet difference Laplacian plus V - sigma >= 0, so positive
        definite, and by Haynsworth's inertia additivity T - sigma has as
        many negative eigenvalues as their Schur complement: the kept block
        minus (1/h^4) (block^-1)_corner at each trimmed end, a corner in
        (0, h^2), as the block dominates the Laplacian, whose corner inverse
        is h^2 k/(k + 1) on k rows.  So subtracting 1/h^2 only adds negatives.

        Lower (Cauchy): the plain block is a principal submatrix of T, so by
        Cauchy interlacing its i-th eigenvalue is at least T's, and it has at
        most as many eigenvalues below sigma (Parlett, ch. 10).
        """
        a, b = 0, v.size
        if xi is not None:  # row j holds r = (j + 1) h
            reach, h = math.sqrt(max(sigma, 0.0)) + 1.0, self.grid.h
            if self.params.k >= 0.0:
                a = min(max(0, math.floor((xi - reach) / h)), b - 1)
            b = max(a + 1, min(b, math.ceil((xi + reach) / h) - 1))
        diagonal, offdiagonal, leaks = self.block(v, slice(a, b), sigma)
        if not lower:
            diagonal[0] -= leaks[0]
            diagonal[-1] -= leaks[1]
        factored = _ldl(diagonal, offdiagonal)
        return None if factored is None else factored[0]

    def axis_slope(self, nodes: int) -> float:
        """The log-log slope over rows j = 1..nodes of the
        solution of T's rows where k/r^2 dominates V, the recurrence
        j^2 (u_{j+1} - 2 u_j + u_{j-1}) = k u_j with u_0 = 0: what a fit of
        u ~ r^nu there returns in place of nu, for any h.  The solution is
        carried by log u_j, the running sum of the logs of its ratios
        u_{j+1}/u_j, which `_line` fits against log j directly, so u itself
        never has to be a float."""
        inverse, logs = 0.0, [0.0]
        for j in range(1, nodes):
            ratio = 2.0 - inverse + self.params.k / (j * j)
            logs.append(logs[-1] + math.log(ratio))
            inverse = 1.0 / ratio
        return _line(np.log(np.arange(1.0, nodes + 1)), np.array(logs))[0]

    def moments(self, u: np.ndarray, xi: float, v=None, window=None) -> tuple:
        """The three moments (`rayleigh_quotient`, `derivative_feynman_hellmann`,
        `derivative_boundary_form`) of the grid vector u at xi, from one u^2,
        with v the potential on grid.nodes (by default `potential` at xi).

        Each is a pairwise sum (numpy's .sum()) over the rows where u is
        nonzero, so every caller gets the same bits: the rows of `window` when
        u is nonzero at both its ends (a continued vector is zero outside its
        window), and otherwise the rows it finds itself.  At k = -1/4, which
        is (n, m) = (3, 0) alone, the rows are the whole grid, since there the
        boundary form's integrand has a tail past the vector's support.
        """
        k, grid = self.params.k, self.grid
        if k == -0.25:
            lo, hi = 0, u.size
        elif window is not None and u[window.start] and u[window.stop - 1]:
            lo, hi = window.start, window.stop
        else:
            nonzero = u != 0.0
            lo, hi = int(nonzero.argmax()), u.size - int(nonzero[::-1].argmax())
        h, z, r = grid.h, u[lo:hi], grid.nodes[lo:hi]
        jumps = np.empty(z.size + 1)  # u is zero past both ends of the rows
        jumps[0], jumps[-1] = z[0], -z[-1]
        np.subtract(z[1:], z[:-1], out=jumps[1:-1])
        square = z * z
        v = (self.potential(xi) if v is None else v)[lo:hi]
        value = float((jumps * jumps).sum() / h + h * (v * square).sum())
        slope = float(-2.0 * h * ((r - xi) * square).sum())
        if k == -0.25:
            y = square[:3] / r[:3]
            k_axis = 3.0 * y[0] - 3.0 * y[1] + y[2]
            boundary = -h * ((square / r - k_axis) / r**2).sum() + k_axis / grid.radius
        elif k == 0.0:
            boundary = -((u[0] / h) ** 2)
        else:
            boundary = -2.0 * h * (square * self.centrifugal[lo:hi] / r).sum()
        return value, slope, float(boundary)


def solve_fiber(params: ModelParams, grid: Grid, count: int) -> list[EigenPair]:
    """The `count` smallest eigenpairs, ascending, normalized and sign-fixed.

    Eigenvalues are simple (the fiber operator is a limit-point Sturm-Liouville
    problem), so the pairs are well defined.  They are the fiber step's
    (`_follow`), continued from the first start of `_starts` that is
    certified, each value a Rayleigh quotient within 8 eps ||T||_1 of an
    eigenvalue; ConvergenceError when none is.  A grid that does not admit
    the top pair's quotient, or value 0 before any solve (`_admitted`), is a
    ModelError, as in `sweep`.
    """
    return _admitted(params, grid, count).pairs


def fiber_eigenvalues(params: ModelParams, grid: Grid, count: int) -> np.ndarray:
    """The `count` smallest eigenvalues, ascending: the Rayleigh quotients
    (`rayleigh_quotient`) of the eigenvectors of `solve_fiber`'s step."""
    return _admitted(params, grid, count).values


def _admitted(params: ModelParams, grid: Grid, count: int) -> _Fiber:
    """The fiber step (`_follow`) of params at params.xi on `grid`, afresh,
    once `grid` admits value 0 (`_admit`), before the solve, and its top
    Rayleigh quotient."""
    _admit(params, grid, 0.0)
    fiber = _follow(_Operator(params, grid), params.xi, count, None)
    _admit(params, grid, fiber.values[-1])
    return fiber


@dataclass(frozen=True)
class _Fiber:
    """The record of one fiber step (`_follow`): the eigenpairs of a band
    range of the fiber `operator` at `xi`, with `moments`, the (3, pairs)
    array of their Rayleigh quotients (`values`), Feynman-Hellmann slopes
    (`slopes`) and boundary-form slopes (`moments[2]`), one
    `_Operator.moments` per pair, computed when the step builds the record.
    `before` is the record this one was continued from on the same grid at
    another xi, with its own `before` dropped so that no chain of records
    builds up, and None otherwise."""

    operator: _Operator
    xi: float
    pairs: list[EigenPair]
    moments: np.ndarray
    before: _Fiber | None

    @property
    def values(self) -> np.ndarray:
        return self.moments[0]

    @property
    def slopes(self) -> np.ndarray:
        return self.moments[1]


def _follow(
    operator: _Operator, xi: float, count: int, previous: _Fiber | None, first: int = 1
) -> _Fiber:
    """The fiber step: the eigenpairs of bands first..count of `operator` at
    xi (the `count` lowest when first = 1), ascending.

    The one place that solves a fiber.  Each start of `_starts` in turn is
    continued (`_continue_fiber`, which states the certificate) on its
    window of rows, the bisection start last; when none is certified the
    step raises ConvergenceError naming the fiber.  A fiber continued from
    `previous` (same band range) on the same grid keeps that record as its
    `before`, so the next step can start from a second-order extrapolation.
    The record holds the three moments of each pair (`_Operator.moments`).
    An invalid `count` is a ModelError before any solve.
    """
    count = _integer(count, "eigenpairs", 1, operator.grid.intervals - 1)
    v = operator.potential(xi)
    for vectors, shifts, window, before in _starts(operator, xi, count, previous, v, first):
        pairs = _continue_fiber(operator, vectors, shifts, v, window, xi, first)
        if pairs is not None:
            break
    else:
        raise ConvergenceError(
            f"fiber (m={operator.params.m}, xi={xi}): no start of bands {first}..{count} "
            f"is certified on {operator.grid}"
        )
    columns = [operator.moments(pair.vector, xi, v, window) for pair in pairs]
    return _Fiber(operator, xi, pairs, np.array(list(zip(*columns))), before)  # a row per moment


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
    well moves with xi, and by at least two rows (LAPACK's tridiagonal
    routines take two rows or more)."""
    margin = max(2, math.ceil((dxi + 1.0) / grid.h))
    return slice(max(0, lo - margin), min(grid.intervals - 1, hi + margin))


def _starts(
    operator: _Operator, xi: float, count: int, previous: _Fiber | None, v: np.ndarray, first=1
):
    """(vectors, shifts, window, before) for `_follow` to continue bands
    first..count from at xi, in turn: start vectors on grid.nodes, one per
    band, their shifts, the rows to work on and the `_Fiber.before` of a
    fiber continued from them (`previous` without its own `before` when both
    lie on one grid at distinct xi, else None).  v is the potential on the
    nodes of operator.grid.  Each source is offered at most once, in this
    order:

    1. the closed-form start of the harmonic well (`_harmonic`), only when it
       leads: with no `previous`, or after a `previous` that keeps no record
       before it when the largest residual (`_residual`) of its start is at
       least w, the bound the closed form's own gate sets;
    2. the start from `previous`, the step at a nearby xi, dxi away (on the
       same grid or a grown grid of the same step): its vectors u1 at the
       shifts lambda1 + lambda1' dxi, or, when it keeps the record before it
       (`_Fiber.before`, dxi0 further back), the second-order start
       u1 + (u1 - u0) dxi/dxi0 at the Hermite shifts
       lambda1 + lambda1' dxi + (lambda1' - lambda0') dxi^2 / (2 dxi0), with
       which a dense sweep's sample takes one Rayleigh step (a repeated xi is
       the same formula at dxi = 0);
    3. on 512 intervals or more, the same fiber on the grid with 1/8 of the
       intervals at its values (a nested solve), solved only when reached
       and skipped when it raises;
    4. the bisection start (`_bisection`) on the whole grid, built only when
       reached.

    The well (`_well`) is looked up at most once.
    """
    grid, k = operator.grid, operator.params.k
    if previous is None:
        well, start = _well(k, xi), None
    else:
        dxi = xi - previous.xi
        before = None
        if dxi and previous.operator.grid == grid:
            before = _Fiber(previous.operator, previous.xi, previous.pairs, previous.moments, None)
        vectors = [pair.vector for pair in previous.pairs]
        shifts = previous.values + previous.slopes * dxi
        back = previous.before
        if back is not None:
            dxi0 = previous.xi - back.xi
            vectors = [
                u + (u - pair.vector) * (dxi / dxi0) for u, pair in zip(vectors, back.pairs)
            ]
            shifts = shifts + 0.5 * (previous.slopes - back.slopes) / dxi0 * dxi**2
        vectors = _onto(grid, previous.operator.grid, vectors)
        window = _window(grid, vectors, abs(dxi))
        start, well = (vectors, shifts, window, before), None
        if back is None:
            rival = max(
                _residual(operator, v, window, u[window], mu) for u, mu in zip(vectors, shifts)
            )
            # k >= 0 wherever there is a well, so w >= 1 and a residual below 1
            # keeps the lead without looking the well up
            well = _well(k, xi) if rival >= 1.0 else None
            if well is not None and rival < well[2]:
                well = None
    closed = _harmonic(operator, count, v, well, first)
    if closed is not None:
        yield closed
    if start is not None:
        yield start
    intervals = grid.intervals // _NESTED_FACTOR
    if grid.intervals >= _NESTED_FLOOR and intervals - 1 >= count:
        try:
            coarse = _Operator(operator.params, Grid(grid.radius, intervals))
            nested = _follow(coarse, xi, count, None, first=first)
        except ConvergenceError:
            pass
        else:
            vectors = _onto(grid, coarse.grid, [pair.vector for pair in nested.pairs])
            yield vectors, [pair.value for pair in nested.pairs], _window(grid, vectors, 0.0), None
    bisected = _bisection(operator, count, v, first)
    if bisected is not None:
        yield bisected


def _well(k: float, xi: float) -> tuple[float, float, float] | None:
    """(r0, V(r0), w) of the harmonic well V ~ V(r0) + w^2 (r - r0)^2 near
    the minimum r0 of V (`potential_minimum` at k, xi), with w^2 = V''(r0)/2
    = 1 + 3 k/r0^4; None where V has no interior minimum (k < 0, or k = 0
    with xi <= 0) or the minimum is not found."""
    try:
        r0, v0 = _potential_minimum(k, xi)
    except (ModelError, ConvergenceError):
        return None
    return r0, v0, math.sqrt(1.0 + 3.0 * k / r0**4)


def _harmonic(operator: _Operator, count: int, v: np.ndarray, well, first=1):
    """The closed-form start (vectors, shifts, window, None) of bands
    first..count from `well`, the (r0, V(r0), w) of `_well`, or None; v is
    the potential on grid.nodes.

    The eigenpairs of the harmonic well are V(r0) + (2j + 1) w with the
    Hermite functions psi_j(sqrt(w) (r - r0)), j < count, from their
    three-term recurrence; those of j >= first - 1 are returned.  They are
    evaluated only where psi_0's Gaussian exceeds _WINDOW, widened by
    psi_(count-1)'s turning point, sqrt(2 count - 1) (beyond a turning point
    x_t a Hermite function falls at least like e^(-(x - x_t)^2 / 2)), and
    cut on the axis side where the Agmon distance from the well of the top
    shift, in the true V, exceeds ln(1/_WINDOW): there k/r^2 makes V steeper
    than its harmonic model, and a Gaussian tail left there would outlive
    the few Rayleigh steps as noise far above the eigenvector (past r0, V''
    falls, V lies below its model and needs no cut).  So the start costs
    O(window), not O(N).  It is offered only when every returned vector's
    residual (`_residual`, the leak at a trimmed end included) is below w,
    half the oscillator's level spacing; where `_well` finds no well there
    is no start.
    """
    if well is None:
        return None
    r0, v0, w = well
    shifts = [v0 + (2 * j + 1) * w for j in range(count)]
    reach = (math.sqrt(-2.0 * math.log(_WINDOW)) + math.sqrt(2 * count - 1)) / math.sqrt(w)
    h, size = operator.grid.h, operator.grid.intervals - 1
    lo, hi = max(0, math.floor((r0 - reach) / h)), min(size, math.ceil((r0 + reach) / h) - 1)
    if hi - lo <= count:
        return None
    centre = min(max(lo, round(r0 / h) - 1), hi - 1)  # the row nearest r0
    inward = v[lo : centre + 1][::-1] - shifts[-1]  # Agmon distance / h, from r0 inward
    np.cumsum(np.sqrt(np.maximum(inward, 0.0, out=inward), out=inward), out=inward)
    lo = centre + 1 - int(np.searchsorted(inward, -math.log(_WINDOW) / h))
    if hi - lo <= count:
        return None
    x = np.arange(lo + 1.0, hi + 1.0)
    x -= r0 / h
    x *= math.sqrt(w) * h
    psi = [0.0, np.exp(x * x * -0.5)]  # psi_(-1) = 0 and psi_0
    for j in range(count):  # the gate turns most starts away at its first function
        if j:
            psi.append(math.sqrt(2.0 / j) * x * psi[-1] - math.sqrt((j - 1) / j) * psi[-2])
        if j + 1 < first:  # a band below the range is only a step of the recurrence
            continue
        if not _residual(operator, v, slice(lo, hi), psi[-1], shifts[j]) < w:
            return None
    vectors = [np.zeros(size) for _ in range(first - 1, count)]
    for vector, values in zip(vectors, psi[first:]):
        vector[lo:hi] = values
    return vectors, shifts[first - 1 :], _widened(operator.grid, lo, hi, 0.0), None


def _residual(operator: _Operator, v: np.ndarray, rows: slice, z: np.ndarray, mu) -> float:
    """||(T - mu) z|| / ||z|| on the full grid matrix T, for a start vector z
    given on `rows` and zero outside them (`_Operator.squared_residual`).
    v is the potential on grid.nodes."""
    norm = _dot(z, z)
    if not norm:
        return math.inf
    _, squared = operator.squared_residual(operator.block(v, rows, mu), z)
    return math.sqrt(squared / norm)


def _onto(grid: Grid, source: Grid, vectors: list[np.ndarray]) -> list[np.ndarray]:
    """`vectors` on source.nodes carried onto grid.nodes by linear
    interpolation, with zeros at the axis and past the wall of `source`."""
    if source == grid:  # on the same nodes the interpolation is the identity
        return vectors
    nodes = np.concatenate(([0.0], source.nodes, [source.radius]))
    return [np.interp(grid.nodes, nodes, np.pad(u, 1)) for u in vectors]


def _bisection(operator: _Operator, count: int, v: np.ndarray, first=1):
    """The bisection start (vectors, shifts, window, None) of bands
    first..count on the whole grid, or None; v is the potential on grid.nodes.

    Exact counts below sigma (`_Operator.count_below` on every row) bracket
    the bands between min V, which no Gershgorin disc of T crosses, and a
    bound doubled until it lies above them, and bisect the brackets, shared
    by the bands as in LAPACK's dstebz (Kahan, 1966), until each band's
    holds it alone and is narrower than _BISECTION_WIDTH, so that the first
    Rayleigh quotient stays off the other bands.  Its midpoint is the band's
    shift and e_r its vector, r the row of the least twisted pivot
    |d+_r + d-_r - (T_rr - shift)| of T - shift factored from both ends
    (`_ldl`), where the band dominates the diagonal of (T - shift)^-1
    (Parlett and Dhillon, Lin. Alg. Appl. 267, 1997); a fixed vector is
    orthogonal to a band on whole curves of fibers.
    """
    rows = slice(0, v.size)
    sigmas, counts = [float(v.min())], [0]  # ascending
    while counts[-1] < count:
        sigma = sigmas[0] + 2.0 ** (len(sigmas) - 1)
        below = operator.count_below(v, sigma, None)
        if below is None:
            return None
        sigmas.append(sigma)
        counts.append(below)
    shifts, vectors = [], []
    for j in range(first, count + 1):
        while True:
            i = bisect_left(counts, j)  # sigmas[i] is the first with j or more below
            lower, upper = sigmas[i - 1], sigmas[i]
            if counts[i - 1] == j - 1 and counts[i] == j and upper - lower < _BISECTION_WIDTH:
                break
            sigma = 0.5 * (lower + upper)
            below = operator.count_below(v, sigma, None)
            if below is None or not lower < sigma < upper:
                return None
            sigmas.insert(i, sigma)
            counts.insert(i, below)
        shifts.append(0.5 * (lower + upper))
        shifted, offdiagonal, _ = operator.block(v, rows, shifts[-1])
        down, up = shifted.copy(), shifted[::-1].copy()
        if _ldl(down, offdiagonal) is None or _ldl(up, offdiagonal[::-1]) is None:
            return None
        vectors.append(np.zeros(v.size))
        vectors[-1][int(np.abs(down + up[::-1] - shifted).argmin())] = 1.0
    return vectors, shifts, rows, None


def _negative(z: np.ndarray) -> bool:
    """Whether the first entry of z above _SIGNIFICANT of its peak is
    negative: the one sign rule, positive near the axis.  The first entries
    can be underflow-level noise for strongly vanishing eigenfunctions, so
    it keys on the first significant entry."""
    magnitude = np.abs(z)
    return bool(z[int((magnitude > _SIGNIFICANT * magnitude.max()).argmax())] < 0.0)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's own loop, not BLAS.

    OpenBLAS runs ddot (`@`, `np.linalg.norm`) on its thread pool above
    ~10 000 entries.  Each call then waits for the pool, which costs far more
    than the sum when the pool is idle or a core is busy: one continuation on
    11 498 rows took 30 ms through ddot and 1.2 ms through this loop, with
    one of two cores loaded.
    """
    return float(np.einsum("i,i", a, b))


def _ldl(diagonal: np.ndarray, offdiagonal: np.ndarray) -> tuple[int, np.ndarray] | None:
    """(negatives, multipliers) of the LDL^T factorization of the symmetric
    tridiagonal matrix (diagonal, offdiagonal), or None on a LAPACK failure:
    the count of negative eigenvalues and L's subdiagonal l_i = e_i/d_i;
    `diagonal` is overwritten with D, so `lapack.dpttrs` solves with the two.

    The count is the number of pivots d_i <= 0 of the Sturm recurrence
    d_{i+1} = a_{i+1} - e_i^2/d_i, exact by Sylvester's law of inertia and
    backward stable (Kahan, Stanford CS41, 1966; Parlett, ch. 3).  LAPACK's
    dpttrf runs the recurrence in place until a pivot d_i <= 0; the next
    pass continues it from a_{i+1} - l_i e_i, a zero pivot taken as -pivmin,
    as LAPACK's dstebz does, and a last single row is finished without
    LAPACK.  Unpivoted, a solve can grow near a small pivot; the residual
    test of its caller catches that.
    """
    multipliers = np.array(offdiagonal)  # writable: dpttrf stores l_i over e_i
    negatives, start, size = 0, 0, diagonal.size
    while size - start > 1:  # f2py refuses an empty off-diagonal
        *_, info = lapack.dpttrf(
            diagonal[start:], multipliers[start:], overwrite_d=1, overwrite_e=1
        )
        if info <= 0:
            return (negatives, multipliers) if info == 0 else None
        negatives, row = negatives + 1, start + info - 1  # the row of the pivot <= 0
        start = row + 1
        if start < size:
            if not diagonal[row]:  # dstebz's pivmin
                diagonal[row] = -np.finfo(float).tiny * max(1.0, float(np.max(offdiagonal**2)))
            multipliers[row] = offdiagonal[row] / diagonal[row]
            diagonal[start] -= multipliers[row] * offdiagonal[row]
    return negatives + int(size - start == 1 and diagonal[start] <= 0.0), multipliers


def _continue_fiber(
    operator: _Operator, vectors: list, shifts, v: np.ndarray, window: slice, xi: float, first=1
) -> list[EigenPair] | None:
    """The eigenpairs of bands first..first + len(vectors) - 1 of `operator`,
    continued from start vectors on grid.nodes, one per band, on the rows
    `window` = [a, b), with v the potential on grid.nodes at xi.

    Each pair runs Rayleigh-quotient iteration from its vector, starting at
    its shift, on the principal submatrix T[a:b, a:b]: one LDL^T
    factorization (`_ldl`) and solve per step, until the residual of the
    zero-padded vector z on the full T falls to tol = 8 eps ||T||_1.  That
    residual (`_Operator.squared_residual`) is the window's ||T z - mu z||
    with the leaks of its end entries added in quadrature, so each value is
    the Rayleigh quotient mu of the padded vector on T, within tol of an
    eigenvalue of T.  One more solve with the last factorization then
    polishes the vector; it stays zero outside the window.

    The result is accepted only when it is certified to be bands q..p
    (q = first) in order, and the certificate is complete.  Each mu_j has a
    full-grid residual <= tol, so T has an eigenvalue within tol of it; the
    values ascend with gaps above 2 tol, so those eigenvalues are p - q + 1
    distinct ones, all in (mu_q - 2 tol, mu_p + 2 tol); a pair closer than
    that to the one below it is refused as soon as it is found.  The
    inertia of two blocks of T on the well's rows at xi, each exact by
    Sylvester's law (`_Operator.count_below`; Parlett, The Symmetric
    Eigenvalue Problem, ch. 3 and 10), brackets T's count: the
    Haynsworth upper bound at mu_p + 2 tol is p, and for q > 1 the Cauchy
    lower bound at mu_q - 2 tol is q - 1.  Then T has at most p eigenvalues
    below mu_p + 2 tol and at least q - 1 below mu_q - 2 tol, so the
    certified values are exactly its eigenvalues q..p.  Otherwise, and on
    any LAPACK failure, it returns None.  Vectors are normalized and
    sign-fixed by `_negative`, as in `solve_fiber`.
    """
    tol = 8.0 * _EPS * operator.one_norm(v)
    block = operator.block(v, window)
    pairs = []
    for u, mu in zip(vectors, shifts):
        found = _rayleigh_iteration(operator, block, u[window], mu, tol)
        if found is None:
            return None
        mu, z = found
        if pairs and mu - pairs[-1].value <= 2.0 * tol:
            return None
        vector = np.zeros(v.size)
        if _negative(z):
            np.negative(z, out=vector[window])
        else:
            vector[window] = z
        pairs.append(EigenPair(mu, vector))
    if operator.count_below(v, pairs[-1].value + 2.0 * tol, xi) != first + len(pairs) - 1:
        return None
    if first > 1 and operator.count_below(v, pairs[0].value - 2.0 * tol, xi, True) != first - 1:
        return None
    return pairs


def _rayleigh_iteration(operator: _Operator, block, z, mu, tol):
    """(mu, z) after Rayleigh-quotient iteration on `block` (`_Operator`) from
    (mu, z) to a full-grid residual of tol and one polishing solve, with
    h * sum(z^2) = 1, or None: on a failed LDL^T factorization (`_ldl`, one
    per step) or a solve (LAPACK dpttrs) whose norm is not finite and
    positive.  A function of its own so that its factors are freed before
    the caller's inertia count, the largest allocation of a continuation.
    """
    diagonal, offdiagonal, _ = block
    for step in range(_RQI_STEPS):
        pivots = diagonal - mu
        factored = _ldl(pivots, offdiagonal)
        if factored is None:
            return None
        # the first solve leaves the caller's start as it is
        z, info = lapack.dpttrs(pivots, factored[1], z, overwrite_b=step > 0)
        norm = _dot(z, z)
        if info or not (math.isfinite(norm) and norm > 0.0):
            return None
        z /= math.sqrt(norm)
        mu, squared = operator.squared_residual(block, z, rayleigh=True)
        if math.sqrt(squared) <= tol:
            break
    else:
        return None
    z, info = lapack.dpttrs(pivots, factored[1], z, overwrite_b=1)
    norm = _dot(z, z)
    if info or not (math.isfinite(norm) and norm > 0.0):
        return None
    z /= math.sqrt(norm * operator.grid.h)
    return mu, z


def rayleigh_quotient(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """The discrete eigenvalue as the Rayleigh quotient of its eigenvector.

    Difference form h * sum((u_{j+1} - u_j)/h)^2 + h * sum V u^2 with
    u_0 = u_N = 0.  It is the same eigenvalue as the solver's, but smooth in
    xi to rounding: a pair's value z . T z sums terms of the size of ||T||
    and scatters by a few ulps of it, and 2/h^2 and k/h^2 make that norm
    large, where the difference form sums terms of the eigenvalue's size.
    """
    return _Operator(params, grid).moments(pair.vector, params.xi)[0]


def derivative_feynman_hellmann(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """d(lambda)/d(xi) as -2 * integral (r - xi) u^2 dr on the grid.

    This is the exact derivative of the *discrete* eigenvalue (the matrix
    depends on xi only through its diagonal), which is why it cross-validates
    against centered differences of the solved eigenvalue to near machine
    precision.
    """
    return _Operator(params, grid).moments(pair.vector, params.xi)[1]


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
    return _Operator(params, grid).moments(pair.vector, params.xi)[2]


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
    raises SignPatternError.  A window whose nodes cannot resolve r^nu is a
    ModelError: there T's rows near the axis (`_Operator.axis_slope`) fit a
    slope more than _AXIS_BIAS off nu = 1/2 + sqrt(1/4 + k), whatever h.
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
    nu, fitted = 0.5 + math.sqrt(0.25 + params.k), _Operator(params, grid).axis_slope(fit_window)
    if not abs(fitted - nu) <= _AXIS_BIAS * nu:
        raise ModelError(
            f"{fit_window} fit nodes cannot resolve u ~ r^{nu:g} at the axis: the difference "
            f"recurrence there fits {fitted:.4g}, more than {_AXIS_BIAS:.0%} off"
        )
    return _loglog_slope(r, u)[0]


@dataclass(frozen=True)
class RefinedValue:
    """Richardson extrapolation from an h, h/2 grid pair, elementwise over arrays."""

    coarse: np.ndarray
    fine: np.ndarray
    value: np.ndarray
    error: np.ndarray


def _line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x and its standard error, from the
    centered sums of x - mean(x) and y - mean(y) (`_dot`, no BLAS), the two
    temporaries the fit holds; the second becomes the residuals in place.
    With two points there is no residual freedom and the error is NaN."""
    dx, dy = x - x.mean(), y - y.mean()
    sxx = _dot(dx, dx)
    slope = _dot(dx, dy) / sxx
    dx *= slope
    dy -= dx
    dof = dy.size - 2
    return slope, math.sqrt(_dot(dy, dy) / dof / sxx) if dof > 0 else float("nan")


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope and its standard error for log y against log x (`_line`)."""
    return _line(np.log(x), np.log(y))


def richardson(a, b) -> RefinedValue:
    """(4b - a)/3 and |b - a|/3 from a on a grid and b on its refinement, elementwise."""
    return RefinedValue(a, b, (4.0 * b - a) / 3.0, abs(b - a) / 3.0)
