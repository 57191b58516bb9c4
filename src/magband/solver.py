"""Finite-difference solver for the half-line fiber operator.

Second-order central differences on a uniform grid over (0, R) with Dirichlet
conditions at both ends; the nodes r_j = j*h, j = 1..N-1, exclude the singular
axis r = 0 and the artificial wall r = R.  The discrete operator is symmetric
tridiagonal, so the lowest eigenpairs come from LAPACK's Sturm-sequence
bisection plus inverse iteration, which is deterministic for fixed input.

Eigenvectors are returned with the continuum normalization h * sum(u^2) = 1
and sign fixed to be positive near the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .errors import ConvergenceError, ModelError, SignPatternError
from .model import ModelParams, potential, turning_points


@dataclass(frozen=True)
class Grid:
    """Uniform grid over (0, radius) with `intervals` panels of width h."""

    radius: float
    intervals: int

    def __post_init__(self) -> None:
        if not (isinstance(self.intervals, (int, np.integer)) and self.intervals >= 16):
            raise ModelError(f"grid needs an integer interval count >= 16, got {self.intervals!r}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ModelError(f"grid radius must be positive and finite, got {self.radius!r}")

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


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal representation of one fiber."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its grid eigenvector, normalized to h * sum(u^2) = 1."""

    value: float
    vector: np.ndarray


def assemble(params: ModelParams, grid: Grid) -> DiscreteOperator:
    """Discretize -d^2/dr^2 + V_m(r, xi) on the grid interior."""
    if params.k < -0.25:
        raise ModelError(f"coupling k_m={params.k} below the critical value -1/4")
    h = grid.h
    diagonal = 2.0 / h**2 + potential(params, grid.nodes)
    offdiagonal = np.full(grid.intervals - 2, -1.0 / h**2)
    return DiscreteOperator(diagonal, offdiagonal, grid)


def _solve(op: DiscreteOperator, count: int, vectors: bool):
    size = op.diagonal.size
    if not (isinstance(count, (int, np.integer)) and 1 <= count <= size):
        raise ModelError(f"eigenpair count must satisfy 1 <= count <= {size}, got {count!r}")
    try:
        return eigh_tridiagonal(
            op.diagonal,
            op.offdiagonal,
            eigvals_only=not vectors,
            select="i",
            select_range=(0, int(count) - 1),
            check_finite=False,
        )
    except LinAlgError as exc:
        raise ConvergenceError(
            f"tridiagonal eigensolve failed for indices 0..{count - 1}: {exc}"
        ) from exc


def lowest_eigenvalues(op: DiscreteOperator, count: int) -> np.ndarray:
    """The `count` smallest eigenvalues, ascending (no vectors)."""
    return np.asarray(_solve(op, count, vectors=False), dtype=float)


def lowest_eigenpairs(op: DiscreteOperator, grid: Grid, count: int) -> list[EigenPair]:
    """The `count` smallest eigenpairs, ascending, normalized and sign-fixed.

    Eigenvalues are simple (the fiber operator is a limit-point Sturm-Liouville
    problem), so the pairs are well defined; accuracy is the LAPACK bisection
    guarantee, a few ulps of the matrix norm.
    """
    if grid is not op.grid and grid != op.grid:
        raise ModelError("grid does not match the one the operator was assembled on")
    values, vectors = _solve(op, count, vectors=True)
    vectors = vectors / np.sqrt(grid.h)
    # Sign: positive near the axis.  The first entries can be underflow-level
    # noise for strongly vanishing eigenfunctions, so key on the first entry
    # that is non-negligible against the vector's peak.
    thresholds = 1e-8 * np.max(np.abs(vectors), axis=0)
    for i in range(vectors.shape[1]):
        lead = int(np.argmax(np.abs(vectors[:, i]) > thresholds[i]))
        if vectors[lead, i] < 0.0:
            vectors[:, i] = -vectors[:, i]
    return [EigenPair(float(values[i]), vectors[:, i]) for i in range(len(values))]


def solve_fiber(params: ModelParams, grid: Grid, count: int) -> list[EigenPair]:
    """Assemble and diagonalize in one call."""
    return lowest_eigenpairs(assemble(params, grid), grid, count)


def fiber_eigenvalues(params: ModelParams, grid: Grid, count: int) -> np.ndarray:
    """Eigenvalues only; cheaper where no eigenvector is needed."""
    return lowest_eigenvalues(assemble(params, grid), count)


def rayleigh_quotient(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """The discrete eigenvalue as the Rayleigh quotient of its eigenvector.

    Difference form h * sum((u_{j+1} - u_j)/h)^2 + h * sum V u^2 with
    u_0 = u_N = 0.  It is the same eigenvalue as the solver's, but smooth in
    xi to rounding: the bisection value scatters by a few ulps of the matrix
    norm, and k/h^2 on the first diagonal entry makes that norm large.
    """
    u = pair.vector
    jumps = np.diff(u, prepend=0.0, append=0.0)
    kinetic = np.sum(jumps**2) / grid.h
    return float(kinetic + grid.h * np.sum(potential(params, grid.nodes) * u**2))


def derivative_feynman_hellmann(params: ModelParams, pair: EigenPair, grid: Grid) -> float:
    """d(lambda)/d(xi) as -2 * integral (r - xi) u^2 dr on the grid.

    This is the exact derivative of the *discrete* eigenvalue (the matrix
    depends on xi only through its diagonal), which is why it cross-validates
    against centered differences of the solved eigenvalue to near machine
    precision.
    """
    r = grid.nodes
    return float(-2.0 * grid.h * np.sum((r - params.xi) * pair.vector**2))


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
        integral = grid.h * np.sum((u**2 / r - k_axis) / r**2)
        return float(-integral + k_axis / grid.radius)
    if params.k == 0.0:
        return float(-((u[0] / grid.h) ** 2))
    return float(-2.0 * params.k * grid.h * np.sum(u**2 / r**3))


def boundary_exponent(
    params: ModelParams, pair: EigenPair, grid: Grid, fit_window: int
) -> float:
    """Vanishing exponent of the eigenfunction at the axis, u ~ r^nu.

    Least-squares slope of log u against log r over the first `fit_window`
    nodes.  The window must sit strictly inside the classically forbidden
    inner region r < r_minus, where the eigenfunction is monotone and
    sign-definite; otherwise the fit is meaningless.
    """
    if not (isinstance(fit_window, (int, np.integer)) and 3 <= fit_window <= grid.intervals - 1):
        raise ModelError(f"fit_window must be an integer in [3, N-1], got {fit_window!r}")
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
    """Richardson extrapolation of one eigenvalue from an h, h/2 grid pair."""

    coarse: float
    fine: float
    value: float
    error: float


def refine(params: ModelParams, grid_a: Grid, grid_b: Grid, p: int) -> RefinedValue:
    """Richardson-extrapolated p-th eigenvalue from grids with N_B = 2 N_A.

    The scheme is second order, so lambda_ext = (4 lambda_B - lambda_A)/3 and
    |lambda_B - lambda_A|/3 estimates the fine-grid error.
    """
    if grid_a.radius != grid_b.radius:
        raise ModelError("refinement grids must share the same radius")
    if grid_b.intervals == grid_a.intervals:
        raise ModelError("identical grids carry no refinement information")
    if grid_b.intervals != 2 * grid_a.intervals:
        raise ModelError(
            f"refinement needs N_B = 2*N_A, got {grid_a.intervals} -> {grid_b.intervals}"
        )
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ModelError(f"band index p must be an integer >= 1, got {p!r}")
    coarse = float(fiber_eigenvalues(params, grid_a, p)[p - 1])
    fine = float(fiber_eigenvalues(params, grid_b, p)[p - 1])
    return RefinedValue(coarse, fine, (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0)


def refined_values(params: ModelParams, grid: Grid, count: int) -> list[RefinedValue]:
    """Richardson extrapolation of the lowest `count` eigenvalues at once."""
    coarse = fiber_eigenvalues(params, grid, count)
    fine = fiber_eigenvalues(params, grid.refined(), count)
    return [
        RefinedValue(float(a), float(b), float((4.0 * b - a) / 3.0), float(abs(b - a) / 3.0))
        for a, b in zip(coarse, fine)
    ]
