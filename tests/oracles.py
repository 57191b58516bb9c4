"""Independent reference computations backing the test suite.

Everything here is deliberately built from generic library machinery — dense
matrices, Gauss–Hermite quadrature, polynomial root finding, adaptive ODE
integration — and never calls into the package's own numerics, so agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq, minimize_scalar
from scipy.special import pbdv


def exact_level(n: int, m: int, p: int) -> float:
    """xi=0 eigenvalue of the fiber operator: odd half-line oscillator level."""
    return 4.0 * (p - 1) + abs(2 * m + n - 3) + 2.0


def weber_eigenvalues(xi: float, count: int) -> np.ndarray:
    """The `count` lowest eigenvalues of the k = 0 fiber, (n, m) = (4, 0), at xi.

    The solution of -u'' + (r - xi)^2 u = lambda u that decays at infinity is
    Weber's parabolic cylinder function D_nu(sqrt(2) (r - xi)) with
    lambda = 2 nu + 1 (DLMF 12.2), so lambda_p is the p-th root in lambda of
    D_((lambda - 1)/2)(-sqrt(2) xi) = 0: scanned upward from E_1 = 1 in steps
    of 0.01 (the levels lie about 2 apart) and refined by Brent's method.
    Past xi = 5 the gap lambda_1 - 1 ~ (2/sqrt(pi)) xi e^(-xi^2) nears the
    rounding of 1, so such a xi is refused.
    """
    if not xi <= 5.0:
        raise ValueError(f"xi={xi}: band 1's gap is below what the root can resolve")
    x = -math.sqrt(2.0) * xi

    def boundary(value: float) -> float:
        return pbdv(0.5 * (value - 1.0), x)[0]

    roots, lower = [], 1.0
    below = boundary(lower)
    while len(roots) < count:
        upper = lower + 0.01
        above = boundary(upper)
        if below == 0.0:
            roots.append(lower)
        elif below * above < 0.0:
            roots.append(brentq(boundary, lower, upper, xtol=1e-15, rtol=4.0 * np.finfo(float).eps))
        lower, below = upper, above
    return np.array(roots)


def weber_slopes(xi: float, count: int) -> np.ndarray:
    """d(lambda_p)/d(xi) of the `count` lowest bands of the k = 0 fiber at xi.

    lambda_p(xi) is a root of F(lambda, xi) = D_((lambda - 1)/2)(-sqrt(2) xi)
    (`weber_eigenvalues`), so by implicit differentiation the slope is
    -F_xi / F_lambda, with F_xi = -sqrt(2) dD_nu/dt from `pbdv` and
    F_lambda = (1/2) dD_nu/dnu by a centred difference of step 1e-5 in nu,
    where its truncation and its rounding balance near 1e-10.
    """
    x, step = -math.sqrt(2.0) * xi, 1e-5
    slopes = []
    for value in weber_eigenvalues(xi, count):
        nu = 0.5 * (value - 1.0)
        d_nu = (pbdv(nu + step, x)[0] - pbdv(nu - step, x)[0]) / (2.0 * step)
        slopes.append(math.sqrt(2.0) * pbdv(nu, x)[1] / (0.5 * d_nu))
    return np.array(slopes)


def coupling_reference(n: int, m: int) -> Fraction:
    # second closed form: m(m+n-3) + nu(nu-1) with nu = (n-2)/2
    nu = Fraction(n - 2, 2)
    return Fraction(m) * (m + n - 3) + nu * (nu - 1)


def dense_fiber_eigenvalues(k: float, xi: float, radius: float, intervals: int,
                            count: int) -> np.ndarray:
    """Dense symmetric eigensolve of the standard FD fiber matrix."""
    h = radius / intervals
    r = h * np.arange(1, intervals)
    mat = np.diag(2.0 / h**2 + k / r**2 + (r - xi) ** 2)
    off = np.full(intervals - 2, -1.0 / h**2)
    mat += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(mat)[:count]


class Pair(NamedTuple):
    """An eigenpair of the reference solve: value, grid vector."""

    value: float
    vector: np.ndarray


def tridiagonal_fiber_pairs(k: float, xi: float, radius: float, intervals: int,
                            count: int) -> list[Pair]:
    """The `count` lowest eigenpairs of the standard FD fiber matrix by scipy's
    tridiagonal eigensolve (LAPACK bisection and inverse iteration), each
    vector scaled to h * sum(u^2) = 1 with its first entry above 1e-8 of its
    peak positive."""
    h = radius / intervals
    r = h * np.arange(1, intervals)
    values, vectors = eigh_tridiagonal(
        2.0 / h**2 + k / r**2 + (r - xi) ** 2,
        np.full(intervals - 2, -1.0 / h**2),
        select="i",
        select_range=(0, count - 1),
    )
    pairs = []
    for value, u in zip(values, (vectors / np.sqrt(h)).T):
        _, sign = sign_pattern(u)
        pairs.append(Pair(float(value), sign * u))
    return pairs


def dense_window_eigenvalues(k: float, xi: float, radius: float, intervals: int,
                             start: int, stop: int) -> np.ndarray:
    """Dense symmetric eigensolve of rows and columns start..stop-1 of the
    standard FD fiber matrix (a principal submatrix), ascending."""
    h = radius / intervals
    r = h * np.arange(1, intervals)[start:stop]
    mat = np.diag(2.0 / h**2 + k / r**2 + (r - xi) ** 2)
    off = np.full(r.size - 1, -1.0 / h**2)
    mat += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(mat)


def sturm_counts_below(k, xi, radius, intervals, sigma) -> np.ndarray:
    """The number of eigenvalues below sigma of the standard FD fiber matrix
    of (k, xi, radius, intervals), elementwise over arrays of the five: the
    negative pivots of the Sturm recurrence d_j = a_j - sigma - e^2/d_(j-1)
    over every row, a zero pivot taken as negative (Wilkinson, The
    Algebraic Eigenvalue Problem, 1965, ch. 5), all matrices at once."""
    k, xi, radius, intervals, sigma = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (k, xi, radius, intervals, sigma))
    )
    h = radius / intervals
    counts, pivots = np.zeros(k.shape, dtype=int), np.full(k.shape, np.inf)
    for j in range(1, int(intervals.max())):
        r = j * h
        pivots = 2.0 / h**2 + k / r**2 + (r - xi) ** 2 - sigma - h**-4 / pivots
        pivots = np.where(pivots == 0.0, -np.finfo(float).tiny, pivots)
        counts += (pivots < 0.0) & (j < intervals)
    return counts


def agmon_weight_reference(k: float, xi: float, energy: float, radius: float, intervals: int,
                           delta: float, well: tuple[float, float]) -> np.ndarray:
    """The cumulative-trapezoid Agmon weight on the grid nodes with boolean
    masks: delta * sqrt((V - energy)_+) summed outward from each turning
    point of `well`, its partial cell first, and 0 on the well."""
    r_minus, r_plus = well
    r = radius / intervals * np.arange(1, intervals)
    g = delta * np.sqrt(np.clip(k / r**2 + (r - xi) ** 2 - energy, 0.0, None))
    phi = np.zeros_like(r)
    outward = ((r > r_plus, r_plus, slice(None)), (r < r_minus, r_minus, slice(None, None, -1)))
    for side, turning, order in outward:
        x, y = r[side][order], g[side][order]
        cells = np.concatenate(
            [0.5 * np.abs(x[:1] - turning) * y[:1], 0.5 * np.abs(np.diff(x)) * (y[1:] + y[:-1])]
        )
        phi[side] = np.cumsum(cells)[order]
    return phi


def sign_pattern(vector: np.ndarray) -> tuple[int, float]:
    """(sign changes, sign of the first entry) over the entries of `vector`
    above 1e-8 of its peak magnitude, in order: the discrete oscillation
    theorem gives band j of a Sturm-Liouville matrix j - 1 sign changes."""
    vector = np.asarray(vector, dtype=float)
    magnitude = np.abs(vector)
    signs = np.sign(vector[magnitude > 1e-8 * np.max(magnitude)])
    return int(np.count_nonzero(signs[1:] != signs[:-1])), float(signs[0])


def axis_recurrence_slope(k: float, nodes: int) -> float:
    """OLS slope of log u_j on log j over j = 1..nodes for the difference
    recurrence j^2 (u_{j+1} - 2 u_j + u_{j-1}) = k u_j from u_0 = 0, u_1 = 1,
    run directly on u (so only while u stays in the float range)."""
    u = [0.0, 1.0]
    for j in range(1, nodes):
        u.append(2.0 * u[j] - u[j - 1] + k * u[j] / (j * j))
    return float(np.polyfit(np.log(np.arange(1, nodes + 1)), np.log(u[1:]), 1)[0])


def axis_slope_rescaled(k: float, nodes: int) -> float:
    """The same slope as an OLS fit of log u_j on log j by np.polyfit, with
    u_j rebuilt from the logs of its ratios u_{j+1}/u_j as exp(log u_j /
    scale), scale = max(1, log u_nodes / 600) so that u stays a float, and
    the slope scaled back by `scale`."""
    inverse, logs = 0.0, [0.0]
    for j in range(1, nodes):
        ratio = 2.0 - inverse + k / (j * j)
        logs.append(logs[-1] + math.log(ratio))
        inverse = 1.0 / ratio
    scale = max(1.0, logs[-1] / 600.0)
    u = np.exp(np.array(logs) / scale)
    return scale * float(np.polyfit(np.log(np.arange(1.0, nodes + 1)), np.log(u), 1)[0])


def exact_line(x, y) -> tuple[Fraction, Fraction | None]:
    """OLS slope of y against x and its squared standard error
    SSR / (N - 2) / sum (x - mean x)^2, in exact rationals over the floats
    given; the error is None for two points."""
    xs, ys = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((a - mx) ** 2 for a in xs)
    slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sxx
    if len(xs) == 2:
        return slope, None
    ssr = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(xs, ys))
    return slope, ssr / (len(xs) - 2) / sxx


def polyfit_line(x, y) -> tuple[float, float]:
    """np.polyfit's slope of y against x (a Vandermonde least squares by
    SVD) and its standard error, the root of its scaled covariance's slope
    entry; the error is NaN for two points, where polyfit cannot scale it."""
    if len(x) == 2:
        return float(np.polyfit(x, y, 1)[0]), math.nan
    coefficients, covariance = np.polyfit(x, y, 1, cov=True)
    return float(coefficients[0]), math.sqrt(covariance[0, 0])


def agmon_reach_reference(xi: float, value: float, radius: float) -> float:
    """Integral of sqrt((r - xi)^2 - value) from r = xi + sqrt(value) to the
    wall at `radius`, by adaptive quadrature: the reach of the grid rule."""
    start = xi + math.sqrt(value)
    if radius <= start:
        return 0.0
    integral, _ = quad(lambda r: math.sqrt(max((r - xi) ** 2 - value, 0.0)), start, radius,
                       epsabs=1e-12, epsrel=1e-12, limit=200)
    return integral


def bump_current_reference(k: float, lo: float, hi: float, p: int, radius: float,
                           intervals: int, dxi: float = 1e-3) -> float:
    """Normalized current of the unit bump on the band-p preimage [lo, hi].

    The bump density is (1 - t^2)^4 on xi = mid + 0.495 (hi - lo) t, |t| < 1;
    the current is its 16-node Gauss-Legendre sum against lambda', each slope
    a centered difference of dense eigenvalues on the given grid.
    """
    t, w = np.polynomial.legendre.leggauss(16)
    w = w * (1.0 - t**2) ** 4
    nodes = 0.5 * (lo + hi) + 0.495 * (hi - lo) * t
    slopes = [
        (dense_fiber_eigenvalues(k, x + dxi, radius, intervals, p)[p - 1]
         - dense_fiber_eigenvalues(k, x - dxi, radius, intervals, p)[p - 1]) / (2.0 * dxi)
        for x in nodes
    ]
    return float(np.dot(w, slopes) / np.sum(w))


def dense_alphas(p: int, k: float, order: int, size: int) -> np.ndarray:
    """Inverse-power eigenvalue coefficients by dense matrix recursion.

    Perturbation A_q = (q-1)(-s)^(q-2) for q >= 2 (A_1 = 0) in the Hermite
    basis; order-q0 coefficient and corrector solved with the p-th slot
    pinned.  Matches the analytic start (alpha_1, alpha_2) = (0, 1).
    """
    s = np.zeros((size, size))
    for idx in range(1, size):
        s[idx - 1, idx] = s[idx, idx - 1] = np.sqrt(idx / 2.0)

    def a_op(q: int) -> np.ndarray:
        if q < 2:
            return np.zeros((size, size))
        return (q - 1) * np.linalg.matrix_power(-s, q - 2)

    h0 = np.diag(2.0 * np.arange(size) + 1.0)
    e_p = 2.0 * p - 1.0
    g = [np.zeros(size) for _ in range(order + 1)]
    g[0][p - 1] = 1.0
    alphas = np.zeros(order)
    shifted = h0 - e_p * np.eye(size)
    shifted_mod = shifted.copy()
    shifted_mod[p - 1, p - 1] = 1.0

    for q0 in range(1, order + 1):
        acc = a_op(q0) @ g[0]
        for q in range(1, q0):
            acc += a_op(q) @ g[q0 - q] - alphas[q - 1] * g[q0 - q]
        alphas[q0 - 1] = acc @ g[0]
        if q0 < order:
            rhs = k * (acc - alphas[q0 - 1] * g[0])
            rhs_mod = -rhs.copy()
            rhs_mod[p - 1] = 0.0
            sol = np.linalg.solve(shifted_mod, rhs_mod)
            sol[p - 1] = 0.0
            g[q0] = sol
    return alphas


def turning_points_reference(k: float, xi: float, energy: float) -> tuple[float, float]:
    """Roots of k/r^2 + (r-xi)^2 = E via the quartic r^4 - 2 xi r^3 + (xi^2-E) r^2 + k.

    np.roots finds them to the accuracy of its companion matrix, which is
    off by 4e-9 in a well 1e-6 above min V at (n, m, xi) = (5, 4096, 100);
    three Newton steps on the quartic in exact rational arithmetic, each
    rounded to a float, polish each root to rounding.
    """
    roots = np.roots([1.0, -2.0 * xi, xi**2 - energy, 0.0, k])
    real = sorted(
        float(z.real) for z in roots if abs(z.imag) < 1e-9 * max(1.0, abs(z)) and z.real > 0
    )
    if len(real) < 2:
        raise AssertionError(f"expected two positive turning points, got {real}")
    b, c, d = -2 * Fraction(xi), Fraction(xi) ** 2 - Fraction(energy), Fraction(k)

    def polish(root: float) -> float:
        for _ in range(3):
            r = Fraction(root)
            quartic = (((r + b) * r + c) * r) * r + d
            root = float(r - quartic / (((4 * r + 3 * b) * r + 2 * c) * r))
        return root

    # the classically allowed well is bounded by the middle pair when four
    # real roots occur (k < 0 never happens here for k > 0)
    return polish(real[-2]), polish(real[-1])


def hermite_phi(q: int, s: np.ndarray) -> np.ndarray:
    """Hermite-function polynomial part: Psi_q(s) = phi_q(s) exp(-s^2/2), 1-based."""
    j = q - 1
    coeff = np.zeros(j + 1)
    coeff[j] = 1.0
    norm = 1.0 / np.sqrt(float(2.0**j) * float(math.factorial(j)) * np.sqrt(np.pi))
    return norm * np.polynomial.hermite.hermval(s, coeff)


def ladder_matrix_element(i: int, j: int, npts: int = 80) -> float:
    """<Psi_i, s Psi_j> by Gauss-Hermite quadrature (weight e^{-s^2})."""
    nodes, weights = np.polynomial.hermite.hermgauss(npts)
    return float(np.sum(weights * hermite_phi(i, nodes) * nodes * hermite_phi(j, nodes)))


def potential_minimum_reference(k: float, xi: float) -> tuple[float, float]:
    """(argmin, min) of k/r^2 + (r-xi)^2 on (0, inf) by bounded scalar search."""
    hi = max(abs(xi) + 2.0, 4.0 * (k + 1.0) ** 0.25 + 2.0)
    res = minimize_scalar(
        lambda r: k / r**2 + (r - xi) ** 2,
        bounds=(1e-8, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), float(res.fun)


def reference_trajectory(state0, t_eval, rtol: float = 1e-12):
    """High-order adaptive integration of the field-line dynamics."""

    def rhs(_t, y):
        x, yy, _z, vx, vy, vz = y
        r = np.hypot(x, yy)
        return [vx, vy, vz, -vz * x / r, -vz * yy / r, (vx * x + vy * yy) / r]

    sol = solve_ivp(
        rhs,
        (t_eval[0], t_eval[-1]),
        list(state0),
        t_eval=t_eval,
        method="DOP853",
        rtol=rtol,
        atol=1e-13,
    )
    if not sol.success:
        raise AssertionError(f"reference integration failed: {sol.message}")
    return sol.y


def crossing_law(k: float, p: int, energy: float) -> tuple[float, float]:
    """(xi, lambda'(xi)) at lambda_{m,p}(xi) = energy by the two-term large-k law.

    With s = xi/sqrt(k), lambda = E_p + 1/s^2 + (3 E_p/(2 s^4) - 1/s^6)/k
    + O(k^-2) (E_p = 2p - 1); solved at lambda = energy to first order in 1/k,
    with delta = energy - E_p.
    """
    level = 2.0 * p - 1.0
    delta = energy - level
    xi = math.sqrt(k / delta) * (1.0 + (1.5 * level * delta - delta**2) / (2.0 * k))
    slope = -(2.0 * delta**1.5 / math.sqrt(k)) * (
        1.0 + (0.75 * level * delta - 1.5 * delta**2) / k
    )
    return xi, slope
