"""Discrete fiber solver: eigenvalues, derivatives, refinement."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import brentq

import magband.acceptance
import magband.bands
import magband.solver
from magband import (
    ConvergenceError,
    Grid,
    ModelError,
    ModelParams,
    SignPatternError,
    boundary_exponent,
    crossing,
    derivative_boundary_form,
    derivative_feynman_hellmann,
    fiber_eigenvalues,
    potential_minimum,
    refined_sweep,
    solve_fiber,
    sweep,
)
from magband.solver import (
    REACH,
    EigenPair,
    _admit,
    _bisection,
    _continue_fiber,
    _follow,
    _harmonic,
    _ldl,
    _line,
    _rayleigh_iteration,
    _Operator,
    _reach,
    _residual,
    _well,
    _window,
    assemble,
    fixed_step_grid,
    potential,
    rayleigh_quotient,
)

from magband.transport import _NODES, _SUPPORT, WITNESS_STEP

import oracles


def test_grid_basics():
    g = Grid(12.0, 600)
    assert g.h == pytest.approx(0.02)
    assert g.nodes[0] == pytest.approx(g.h)
    assert g.nodes[-1] == pytest.approx(12.0 - g.h)
    assert len(g.nodes) == 599
    fine = g.refined()
    assert fine.radius == g.radius and fine.intervals == 2 * g.intervals


def test_grid_validation():
    with pytest.raises(ModelError):
        Grid(-1.0, 600)
    with pytest.raises(ModelError):
        Grid(12.0, 8)
    largest = Grid(12.0, 2**22)
    with pytest.raises(ModelError, match="above the limit"):
        Grid(12.0, 2**22 + 1)
    with pytest.raises(ModelError, match="above the limit"):
        largest.refined()
    # on 16 intervals 2/h^2 or R^2 is not a finite float
    for radius in (1e308, 1e300, 1e-300, 1e-160):
        with pytest.raises(ModelError, match="outside the float range"):
            Grid(radius, 16)
    for radius in (1e150, 1e-150):
        diagonal, offdiagonal = assemble(ModelParams(5, 1, 0.0), Grid(radius, 16))
        assert np.all(np.isfinite(diagonal)) and np.all(np.isfinite(offdiagonal))


def test_assemble_accepts_hardy_boundary_case():
    # k_m = -1/4 at (n, m) = (3, 0) sits exactly on the Hardy threshold and
    # must be accepted (the model cannot produce anything below it)
    diagonal, offdiagonal = assemble(ModelParams(3, 0, 0.0), Grid(10.0, 200))
    assert diagonal.shape == (199,) and offdiagonal.shape == (198,)


@pytest.mark.parametrize("n,m,xi", [(5, 1, 0.0), (5, 2, 2.5), (4, 0, -1.0)])
def test_eigenvalues_match_dense_solver(n, m, xi):
    grid = Grid(12.0, 400)
    params = ModelParams(n, m, xi)
    vals = fiber_eigenvalues(params, grid, 4)
    ref = oracles.dense_fiber_eigenvalues(params.k, xi, 12.0, 400, 4)
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-10)


@pytest.mark.parametrize("n,m,xi", [(5, 1, 3.0), (4, 0, 1.0), (3, 1, -2.0)])
def test_eigenvalues_above_potential_minimum(n, m, xi):
    # variational lower bound lambda_{m,p} > min V_m
    params = ModelParams(n, m, xi)
    vals = fiber_eigenvalues(params, Grid(14.0, 800), 3)
    if params.k > 0 or xi > 0:
        floor = potential_minimum(params).v_min
    else:
        floor = 0.0
    assert np.all(vals > floor)
    assert np.all(np.diff(vals) > 0)  # simple spectrum


def test_eigenvector_normalization_and_sign():
    params, grid = ModelParams(5, 1, 1.0), Grid(12.0, 800)
    pairs = solve_fiber(params, grid, 3)
    for pair in pairs:
        assert grid.h * np.sum(pair.vector**2) == pytest.approx(1.0, rel=1e-12)
        lead = np.argmax(np.abs(pair.vector) > 1e-8 * np.max(np.abs(pair.vector)))
        assert pair.vector[lead] > 0
    # both entry points admit the grid on one record's top quotient
    assert fiber_eigenvalues(params, grid, 3)[-1] == rayleigh_quotient(params, pairs[-1], grid)


def test_the_weber_oracle_gives_the_odd_levels_at_xi_zero():
    assert oracles.weber_eigenvalues(0.0, 3) == pytest.approx([3.0, 7.0, 11.0], abs=1e-12)
    with pytest.raises(ValueError):
        oracles.weber_eigenvalues(5.5, 1)


@pytest.mark.parametrize("xi", [-2.0, 1.0, 3.0])
def test_the_k0_fiber_converges_to_weber_at_the_h2_rate(xi):
    # (n, m) = (4, 0) has k = 0, whose eigenvalues are the roots of Weber's
    # parabolic cylinder function: the second-order differences miss them by
    # O(h^2), so halving h divides each error by 4
    exact = oracles.weber_eigenvalues(xi, 3)
    radius = 12.0 + max(xi, 0.0)
    errors = [
        np.abs(fiber_eigenvalues(ModelParams(4, 0, xi), Grid(radius, intervals), 3) - exact)
        for intervals in (1200, 2400, 4800)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all(np.abs(coarse / fine - 4.0) <= 0.1)


@pytest.mark.parametrize("xi", [-2.0, 1.0, 3.0])
def test_the_k0_feynman_hellmann_slope_converges_to_weber_at_the_h2_rate(xi):
    # the Feynman-Hellmann slope is the exact derivative of the grid
    # eigenvalue, so it inherits the eigenvalue's O(h^2) error: halving h
    # divides its distance to the exact slope of the Weber root by 4
    exact = oracles.weber_slopes(xi, 3)
    params, radius = ModelParams(4, 0, xi), 12.0 + max(xi, 0.0)
    errors = []
    for intervals in (1200, 2400, 4800):
        grid = Grid(radius, intervals)
        slopes = [derivative_feynman_hellmann(params, pair, grid)
                  for pair in solve_fiber(params, grid, 3)]
        errors.append(np.abs(np.array(slopes) - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all(np.abs(coarse / fine - 4.0) <= 0.1)


@pytest.mark.parametrize("xi", [-2.0, 1.0, 3.0])
def test_every_refined_k0_value_is_within_its_error_of_weber(xi):
    exact = oracles.weber_eigenvalues(xi, 3)
    grid = Grid(12.0 + max(xi, 0.0), 1200)
    for band, rv in refined_sweep(4, [0], [1, 2, 3], [xi], grid):
        assert abs(rv.value[0] - exact[band.p - 1]) <= rv.error[0]


def test_xi_zero_closed_form_under_refinement():
    # at xi=0 the levels are known in closed form; refinement must converge to them
    grid = Grid(12.0, 1200)
    for n, m in [(4, 0), (5, 1)]:
        for band, rv in refined_sweep(n, [m], [1, 2], [0.0], grid):
            assert rv.value[0] == pytest.approx(oracles.exact_level(n, m, band.p), rel=2e-6)
            assert rv.error[0] < 1e-3


def test_feynman_hellmann_matches_central_difference():
    # delta = 1e-3 balances truncation against eigensolver noise (~1e-11)
    grid = Grid(16.0, 2400)
    params = ModelParams(5, 2, 1.3)
    pair = solve_fiber(params, grid, 2)[1]
    fh = derivative_feynman_hellmann(params, pair, grid)
    d = 1e-3
    up = fiber_eigenvalues(ModelParams(5, 2, 1.3 + d), grid, 2)[1]
    dn = fiber_eigenvalues(ModelParams(5, 2, 1.3 - d), grid, 2)[1]
    assert abs(fh - (up - dn) / (2 * d)) <= 1e-3 * abs(fh)


def test_rayleigh_quotient_is_the_discrete_eigenvalue():
    grid = Grid(17.0, 408)  # the step of Grid(14, 336), which does not admit xi = 9
    for n, m, xi in [(5, 3, 2.5), (4, 0, -1.0), (6, 10, 9.0)]:
        params = ModelParams(n, m, xi)
        dense = oracles.dense_fiber_eigenvalues(params.k, xi, grid.radius, grid.intervals, 3)
        for pair, ref in zip(solve_fiber(params, grid, 3), dense):
            assert rayleigh_quotient(params, pair, grid) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("solve", [solve_fiber, fiber_eigenvalues])
def test_single_fiber_solves_refuse_the_grid_sweep_refuses(solve):
    # both skipped the grid rule: on Grid(20, 4800) the m=0 fiber at xi = 19
    # gave [1.47, 4.40, 7.56] for bands near [1, 3, 5]
    grid = Grid(20.0, 4800)
    with pytest.raises(ModelError, match=r"xi=14\.2\).* past the well of lambda=3\.0") as swept:
        sweep(5, [1], [1, 2], [14.2], grid)
    with pytest.raises(ModelError) as solved:
        solve(ModelParams(5, 1, 14.2), grid, 2)
    assert str(solved.value) == str(swept.value)
    with pytest.raises(ModelError, match=r"xi=19\.0\).* a radius of 2\d\.\d+ is admitted$"):
        solve(ModelParams(5, 0, 19.0), grid, 3)


@pytest.fixture
def no_continuation(monkeypatch):
    def continued(*args, **kwargs):
        raise AssertionError("a fiber was solved before the grid was admitted")

    monkeypatch.setattr(magband.solver, "_continue_fiber", continued)


@pytest.mark.parametrize("call", [
    lambda grid: solve_fiber(ModelParams(5, 1, -1e200), grid, 1),
    lambda grid: fiber_eigenvalues(ModelParams(5, 1, -1e200), grid, 1),
    lambda grid: sweep(5, [1], [1], [-1e200], grid),
    lambda grid: sweep(5, [1], [1], [-1e200, 0.0], grid),  # the smallest xi is checked too
], ids=["solve_fiber", "fiber_eigenvalues", "sweep", "sweep-two"])
def test_a_grid_on_which_v_is_not_a_float_is_refused_before_any_solve(no_continuation, call):
    # (R - xi)^2 = 1e400 made the reach inf, so the grid was admitted, and
    # the bisection start raised OverflowError from 2.0 ** 1024
    with pytest.raises(ModelError, match=r"xi=-1e\+200\): the potential \(r - xi\)\^2 on "
                       r"Grid\(radius=20\.0, intervals=4800\) is past the float range$"):
        call(Grid(20.0, 4800))


@pytest.mark.parametrize("solve", [solve_fiber, fiber_eigenvalues])
def test_single_fiber_solves_check_value_zero_before_solving(no_continuation, solve):
    # they solved lambda = 1643.57 and only then refused the grid; sweep
    # checked value 0 first, and now both run that one check
    grid = Grid(20.0, 2000)
    with pytest.raises(ModelError, match=r"lambda=0, fewer than 14; a radius of 65\.2915") as solved:
        solve(ModelParams(5, 1, 60.0), grid, 1)
    with pytest.raises(ModelError) as swept:
        sweep(5, [1], [1], [60.0], grid)
    assert str(solved.value) == str(swept.value)


def test_a_fiber_whose_minimum_overflows_skips_the_closed_form_start():
    # _well let potential_minimum's OverflowError escape the fiber step
    params, grid = ModelParams(5, 1, 1e78), Grid(2e78, 200)
    assert _well(params.k, params.xi) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (pair,) = solve_fiber(params, grid, 1)
    # h = 1e76 resolves no well: the row at r = xi, of diagonal 2/h^2 + k/xi^2,
    # holds the pair, as its neighbours' diagonals are about 1e152 and its
    # couplings 1e-152
    assert pair.value == pytest.approx(2.0 / grid.h**2 + params.k / 1e156, rel=1e-12)


@pytest.mark.parametrize("n,m", [(5, 1), (4, 0), (6, 3)])
def test_boundary_form_agrees_with_feynman_hellmann(n, m):
    # the two independent derivative formulas must coincide in the continuum;
    # (4,0) takes the one-sided-derivative branch, the rest the moment formula
    grid = Grid(16.0, 3200)
    params = ModelParams(n, m, 2.0)
    pair = solve_fiber(params, grid, 1)[0]
    fh = derivative_feynman_hellmann(params, pair, grid)
    bd = derivative_boundary_form(params, pair, grid)
    assert bd == pytest.approx(fh, rel=2e-2, abs=1e-6)


def test_boundary_form_attractive_branch_is_finite():
    # k = -1/4 carries a sqrt(r) boundary layer the grid resolves only to
    # first order; the regularized formula must at least evaluate cleanly
    grid = Grid(16.0, 3200)
    params = ModelParams(3, 0, 2.0)
    pair = solve_fiber(params, grid, 1)[0]
    assert np.isfinite(derivative_boundary_form(params, pair, grid))


def test_boundary_exponent_recovers_indicial_root():
    # u ~ r^((1+|2m+n-3|)/2) near the origin
    grid = Grid(16.0, 8000)
    for n, m, expected in [(4, 0, 1.0), (5, 1, 2.5)]:
        params = ModelParams(n, m, 1.5)
        pair = solve_fiber(params, grid, 1)[0]
        slope = boundary_exponent(params, pair, grid, 40)
        assert slope == pytest.approx(expected, rel=0.05)


def test_boundary_exponent_refuses_a_vector_that_vanishes_near_the_axis():
    # at m = 32 (nu = 33.5) u(r)/max u falls below 1e-18 well inside the fit
    # window, so the continuation leaves those rows out and they hold exact
    # zeros; the full-grid vector's entries there were noise, which fitted
    # 23.25
    grid = Grid(16.0, 8000)
    params = ModelParams(5, 32, 1.5)
    pair = solve_fiber(params, grid, 1)[0]
    assert pair.vector[0] == 0.0
    with pytest.raises(SignPatternError):
        boundary_exponent(params, pair, grid, 40)


@pytest.mark.parametrize("n,m,miss", [(4, 0, 0.0), (5, 1, 0.001), (5, 3, -0.010), (5, 7, -0.050),
                                      (5, 32, -0.27)])
def test_axis_slope_is_the_difference_recurrence_fit(n, m, miss):
    # the slope a log-log fit over nodes 1..40 finds on T's rows near the
    # axis, against the recurrence run directly, and its miss of nu
    params = ModelParams(n, m, 0.0)
    nu = 0.5 * (1.0 + abs(2 * m + n - 3))
    for grid in (Grid(16.0, 480), Grid(3.0, 8000)):  # the same for any h
        slope = _Operator(params, grid).axis_slope(40)
        assert slope == pytest.approx(oracles.axis_recurrence_slope(params.k, 40), rel=1e-12)
        assert slope / nu - 1.0 == pytest.approx(miss, abs=0.005)
    # far past the float range of u itself, the slope stays finite and below nu
    slope = _Operator(ModelParams(5, 400, 0.0), Grid(16.0, 480)).axis_slope(200)
    assert 0.0 < slope < 401.5


@pytest.mark.parametrize("nodes", [3, 40, 400, 8000])
def test_axis_slope_fits_the_log_ratios_as_the_rescaled_expression_did(nodes):
    # log u_j fitted directly, against exp(log u_j / scale) fitted by
    # np.polyfit and scaled back, for every m <= 40
    grid = Grid(16.0, 8000)
    for n, m in [(3, 0), (4, 0), *((5, m) for m in range(41))]:
        params = ModelParams(n, m, 0.0)
        slope = _Operator(params, grid).axis_slope(nodes)
        assert slope == pytest.approx(oracles.axis_slope_rescaled(params.k, nodes), rel=1e-12)


def test_the_line_is_exact_ols_on_data_with_a_known_slope():
    # residuals of +-1/8 in the pattern +, -, -, + are orthogonal to 1 and to
    # x, so the least-squares slope is 3/4 exactly
    x = np.arange(20.0)
    y = 0.75 * x - 1.5 + 0.125 * np.tile([1.0, -1.0, -1.0, 1.0], 5)
    slope, variance = oracles.exact_line(x, y)
    assert slope == Fraction(3, 4) and variance == Fraction(5, 16) / 18 / 665
    fitted, stderr = _line(x, y)
    assert fitted == pytest.approx(0.75, rel=1e-15)
    assert stderr == pytest.approx(math.sqrt(variance), rel=1e-14)


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_the_line_is_exact_ols_and_polyfit_on_random_data(offset):
    rng = np.random.default_rng(46)
    x = offset + rng.uniform(0.0, 10.0, 1000)
    y = -2.5 * (x - offset) + 3.0 + 0.1 * rng.normal(size=1000)
    slope, stderr = _line(x, y)
    exact, variance = oracles.exact_line(x, y)
    assert slope == pytest.approx(float(exact), rel=1e-13)
    assert stderr == pytest.approx(math.sqrt(variance), rel=1e-12)
    fitted, error = oracles.polyfit_line(x, y)
    if offset == 0.0:
        assert (slope, stderr) == pytest.approx((fitted, error), rel=1e-12)
    else:
        # polyfit's scaled Vandermonde columns [x, 1] are nearly parallel at
        # x ~ 1e8: its slope holds about nine digits and its error none
        assert slope == pytest.approx(fitted, rel=1e-8)


def test_the_line_through_two_points_has_no_error():
    x, y = np.array([1.0, 3.0]), np.array([2.0, -1.0])
    slope, stderr = _line(x, y)
    assert slope == oracles.exact_line(x, y)[0] == -1.5
    fitted, error = oracles.polyfit_line(x, y)
    assert slope == pytest.approx(fitted, rel=1e-12)
    assert math.isnan(stderr) and math.isnan(error)


def test_boundary_exponent_admits_check_06_fits_with_their_values():
    # over 40 nodes the axis recurrence misses nu by 0.0 %, 0.1 % and 1.0 %,
    # inside the 2 % bound: check 06's three fits are admitted, unchanged
    grid = Grid(16.0, 8000)
    for n, m, want in [(4, 0, 1.0002996322440043), (5, 1, 2.5025188964023464),
                       (5, 3, 4.456390421441743)]:
        params = ModelParams(n, m, 1.5)
        pair = solve_fiber(params, grid, 1)[0]
        assert boundary_exponent(params, pair, grid, 40) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fit_window", [20, 40])
def test_boundary_exponent_refuses_a_fit_its_nodes_cannot_resolve(fit_window):
    # (5, 32), nu = 33.5, on Grid(16, 480) at xi = 0: the vector is positive
    # over the window, but its fit (20.74 over 20 nodes) is the difference
    # recurrence's (20.78), not nu
    grid, params = Grid(16.0, 480), ModelParams(5, 32, 0.0)
    pair = solve_fiber(params, grid, 1)[0]
    assert np.all(pair.vector[:fit_window] > 0.0)
    with pytest.raises(ModelError, match=r"cannot resolve u ~ r\^33\.5 at the axis"):
        boundary_exponent(params, pair, grid, fit_window)


def test_boundary_exponent_window_validation():
    grid = Grid(12.0, 600)
    params = ModelParams(5, 1, 1.5)
    pair = solve_fiber(params, grid, 1)[0]
    with pytest.raises(ModelError):
        boundary_exponent(params, pair, grid, 2)  # too short
    with pytest.raises(ModelError):
        boundary_exponent(params, pair, grid, 599)  # reaches the well


def test_boundary_exponent_sign_pattern_guard():
    grid = Grid(12.0, 600)
    params = ModelParams(5, 1, 1.5)
    pair = solve_fiber(params, grid, 2)[1]  # p=2 has a node, but not near 0
    boundary_exponent(params, pair, grid, 30)  # fine
    bad = pair.__class__(pair.value, -np.abs(pair.vector))
    with pytest.raises(SignPatternError):
        boundary_exponent(params, bad, grid, 30)


def test_refine_richardson_beats_fine_grid():
    # quadratic convergence: extrapolation lands closer than either input
    ((_, rv),) = refined_sweep(4, [0], [1], [0.0], Grid(12.0, 600))
    (coarse,), (fine,), (value,), (error,) = rv.coarse, rv.fine, rv.value, rv.error
    exact = 3.0
    assert abs(value - exact) < abs(fine - exact) < abs(coarse - exact)
    assert abs(fine - exact) < error  # estimate is conservative here


def test_refined_values_refuses_an_inadmissible_grid(monkeypatch):
    # radius 12 at xi = 19 puts the wall inside the well: the coarse value was
    # 63.0717 (true 1.0021) with an error estimate of 5.4e-8.  The wall is too
    # close even at value 0, so the grid is refused before any solve.
    monkeypatch.setattr(magband.solver, "_follow", None)
    monkeypatch.setattr(magband.bands, "_follow", None)
    with pytest.raises(ModelError, match=r"xi=19\.0\).* a radius of 24\.29\d* is admitted"):
        refined_sweep(5, [0], [1], [19.0], Grid(12.0, 48000))


@pytest.mark.parametrize("xi, value", [
    (19.0, 4.4065),  # the defects the rule refuses
    (19.0, 63.0717),
    (8.0, 1.06),
    (-9.0, 102.8),  # a transport node near xi = -9, where the window sets the wall
    (0.0, 1.5),
    (46.6, 1.7744),
])
def test_grid_rule_admits_exactly_at_the_oracle_reach(xi, value):
    # the wall where the quadrature reach equals REACH, and 1e-6 to either side
    start = xi + np.sqrt(value)
    wall = brentq(lambda r: oracles.agmon_reach_reference(xi, value, r) - REACH,
                  start, start + np.sqrt(2.0 * REACH) + 1.0, xtol=1e-13)
    params = ModelParams(5, 1, xi)
    _admit(params, Grid(wall * (1.0 + 1e-6), 4800), value)
    with pytest.raises(ModelError, match="Agmon lengths"):
        _admit(params, Grid(wall * (1.0 - 1e-6), 4800), value)


@pytest.mark.parametrize("xi, radius", [(0.0, 1e-150), (0.0, 5.0), (-3.0, 12.0), (19.0, 24.0),
                                         (19.0, 12.0)])
def test_reach_at_value_zero_is_its_limit(xi, radius):
    # (R - xi)^2 / 2, the integral of |r - xi| from the well at xi to the wall
    reach = _reach(Grid(radius, 16), xi, 0.0)
    assert reach == pytest.approx(oracles.agmon_reach_reference(xi, 0.0, radius), rel=1e-10)


@pytest.mark.parametrize("step", [1.0 / 24.0, 1.0 / 60.0, 1.0 / 120.0, 1.0 / 240.0])
def test_fixed_step_grid_admits_its_own_grids(step):
    for xi in np.concatenate([np.linspace(-20.0, 0.0, 9), np.linspace(25.0, 400.0, 16)]):
        for energy in (1.0 + 1e-9, 1.5, 4.5, 20.0, 102.8, 200.0 - 1e-9):
            grid = fixed_step_grid(float(xi), energy, step)
            assert grid.h == pytest.approx(step, rel=1e-12)
            assert oracles.agmon_reach_reference(xi, energy, grid.radius) >= REACH
            _admit(ModelParams(5, 1, float(xi)), grid, energy)


def test_fourth_order_error_decay():
    # eigenvalue error is O(h^2): quartering under one refinement
    params = ModelParams(5, 1, 0.0)
    exact = oracles.exact_level(5, 1, 1)
    errs = []
    for N in (300, 600, 1200):
        val = fiber_eigenvalues(params, Grid(12.0, N), 1)[0]
        errs.append(abs(val - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def _record_bisections(monkeypatch) -> list:
    """Record the row count of every bisection start (`solver._bisection`)
    from now on."""
    sizes = []
    original = magband.solver._bisection

    def recorded(operator, count, v, *args):
        sizes.append(v.size)
        return original(operator, count, v, *args)

    monkeypatch.setattr(magband.solver, "_bisection", recorded)
    return sizes


def _reference(params: ModelParams, grid: Grid, count: int) -> list:
    """Pairs 1..count of the fiber on `grid` by the oracle's own tridiagonal
    eigensolve (`oracles.tridiagonal_fiber_pairs`)."""
    return oracles.tridiagonal_fiber_pairs(params.k, params.xi, grid.radius, grid.intervals, count)


NESTED_CASES = [
    # (n, m, xi, grid, count, dense oracle affordable)
    (3, 0, 1.0, Grid(12.0, 960), 4, True),  # k = -1/4
    (4, 0, -1.0, Grid(12.0, 960), 3, True),  # k = 0
    (5, 0, 2.0, Grid(14.0, 1120), 2, True),
    (5, 40, 45.0, fixed_step_grid(45.0, 16.0, 1.0 / 240.0), 4, False),
    (5, 128, 150.0, Grid(11499 / 60.0, 11499), 1, False),  # check 12's witness grid
]


def _assert_bisection_pairs(params: ModelParams, grid: Grid, pairs, dense: bool) -> None:
    """`pairs` are the oracle's bisection pairs (`_reference`): every value
    within a few ulps of ||T||_1 of its values (and of the dense oracle's,
    when `dense`), every vector within 1e-6 of its vector, positive near the
    axis."""
    count = len(pairs)
    h, r = grid.h, grid.nodes
    norm = float(np.max(np.abs(2.0 / h**2 + params.k / r**2 + (r - params.xi) ** 2))) + 2.0 / h**2
    tol = 16.0 * np.finfo(float).eps * norm
    values = np.array([pair.value for pair in pairs])
    bisected = _reference(params, grid, count)
    assert np.all(np.abs(values - [pair.value for pair in bisected]) <= tol)
    if dense:
        ref = oracles.dense_fiber_eigenvalues(
            params.k, params.xi, grid.radius, grid.intervals, count
        )
        assert np.all(np.abs(values - ref) <= tol)
    for got, want in zip(pairs, bisected):
        assert np.max(np.abs(got.vector - want.vector)) <= 1e-6 * np.max(np.abs(want.vector))
        assert oracles.sign_pattern(got.vector)[1] > 0 and oracles.sign_pattern(want.vector)[1] > 0
        assert grid.h * np.sum(got.vector**2) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n,m,xi,grid,count,dense", NESTED_CASES)
def test_nested_solve_matches_bisection_and_the_dense_oracle(monkeypatch, n, m, xi, grid,
                                                             count, dense):
    # the fallback for a fiber whose closed-form start is turned away
    monkeypatch.setattr(magband.solver, "_harmonic", lambda *args: None)
    params = ModelParams(n, m, xi)
    sizes = _record_bisections(monkeypatch)
    pairs = solve_fiber(params, grid, count)
    assert len(pairs) == count and max(sizes) < 511  # the coarse grids were bisected
    _assert_bisection_pairs(params, grid, pairs, dense)


def _record_continuations(monkeypatch) -> list:
    """Record (grid intervals, certified) for every continuation from now on."""
    log = []
    continue_ = magband.solver._continue_fiber

    def recorded(operator, *args):
        pairs = continue_(operator, *args)
        log.append((operator.grid.intervals, pairs is not None))
        return pairs

    monkeypatch.setattr(magband.solver, "_continue_fiber", recorded)
    return log


CLOSED_FORM_CASES = [
    # (n, m, xi, grid, count, dense oracle affordable)
    (4, 0, 5.0, Grid(16.0, 960), 2, True),  # k = 0: the well is the oscillator's
    (5, 10, 8.0, Grid(20.0, 1200), 3, True),
    (5, 40, 45.0, fixed_step_grid(45.0, 16.0, 1.0 / 240.0), 4, False),
    (5, 128, 150.0, Grid(11499 / 60.0, 11499), 1, False),  # check 12's witness grid
]


@pytest.mark.parametrize("n,m,xi,grid,count,dense", CLOSED_FORM_CASES)
def test_closed_form_start_matches_bisection_and_the_dense_oracle(monkeypatch, n, m, xi, grid,
                                                                  count, dense):
    # one continuation, on the grid itself, from the harmonic well's Hermite
    # functions: no nested solve and no bisection
    params = ModelParams(n, m, xi)
    sizes = _record_bisections(monkeypatch)
    log = _record_continuations(monkeypatch)
    pairs = solve_fiber(params, grid, count)
    assert sizes == [] and log == [(grid.intervals, True)]
    _assert_bisection_pairs(params, grid, pairs, dense)


@pytest.mark.parametrize("m", [128, 256])
def test_closed_form_start_carries_the_witness_sweep(monkeypatch, m):
    # check 12's witness sweeps the 16 Gauss nodes of band 1 on its window
    # preimage, up to 6 or more apart at these m: there the previous node's
    # vectors barely overlap the next one's, their residual exceeds w, and
    # the closed-form start goes first, so no continuation fails and
    # nothing is bisected
    window = (1.5, 2.5)
    lo, hi = (crossing(5, m, 1, e, step=WITNESS_STEP).xi for e in window[::-1])
    xi = 0.5 * (lo + hi) + _SUPPORT * (hi - lo) * _NODES
    grid = fixed_step_grid(xi[-1], window[1], WITNESS_STEP)
    assert np.min(np.diff(xi)) < 6.0 < np.max(np.diff(xi))
    sizes = _record_bisections(monkeypatch)
    log = _record_continuations(monkeypatch)
    (curve,) = sweep(5, [m], [1], xi, grid)
    assert sizes == [] and all(certified for _, certified in log)
    for x, value in zip(xi, curve.values):
        params = ModelParams(5, m, float(x))
        (want,) = _reference(params, grid, 1)
        h, r = grid.h, grid.nodes
        norm = float(np.max(np.abs(2.0 / h**2 + params.k / r**2 + (r - x) ** 2))) + 2.0 / h**2
        assert abs(value - want.value) <= 16.0 * np.finfo(float).eps * norm


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("xi", [-3.0, 0.0, 1.0])
def test_a_closed_form_start_turned_away_still_gives_the_bisection_pairs(monkeypatch, m, xi):
    # the well touches the axis, and the Hermite functions' residual exceeds
    # w: the fiber is solved through the nested start instead
    params, grid = ModelParams(5, m, xi), Grid(20.0, 4800)
    well = _well(params.k, xi)
    assert _harmonic(_Operator(params, grid), 3, potential(params, grid.nodes), well) is None
    log = _record_continuations(monkeypatch)
    pairs = solve_fiber(params, grid, 3)
    assert log[-1] == (grid.intervals, True) and len(log) >= 2
    _assert_bisection_pairs(params, grid, pairs, False)


@pytest.mark.parametrize(
    "n,m,xi", [(3, 0, -1.0), (3, 0, 0.0), (3, 0, 1.0), (4, 0, -1.0), (4, 0, 0.0)]
)
def test_closed_form_start_is_skipped_where_v_has_no_interior_minimum(n, m, xi):
    # k = -1/4, or k = 0 with xi <= 0: potential_minimum refuses the fiber,
    # and the step goes on to the nested start without raising
    params, grid = ModelParams(n, m, xi), Grid(12.0, 960)
    with pytest.raises(ModelError):
        potential_minimum(params)
    well = _well(params.k, xi)
    assert _harmonic(_Operator(params, grid), 3, potential(params, grid.nodes), well) is None
    _assert_bisection_pairs(params, grid, solve_fiber(params, grid, 3), True)


def test_closed_form_start_is_skipped_when_potential_minimum_fails(monkeypatch):
    def failing(k, xi):
        raise ConvergenceError("potential_minimum: Newton residual above tolerance")

    monkeypatch.setattr(magband.solver, "_potential_minimum", failing)
    params, grid = ModelParams(5, 10, 8.0), Grid(20.0, 1200)
    well = _well(params.k, params.xi)
    assert _harmonic(_Operator(params, grid), 3, potential(params, grid.nodes), well) is None
    _assert_bisection_pairs(params, grid, solve_fiber(params, grid, 3), True)


def test_a_failed_previous_fiber_start_goes_straight_to_the_nested_solve(monkeypatch):
    # the samples before xi = 8 lie 5.95 away: their second-order start
    # fails, and the step retries neither it at first order nor the closed
    # form, which would pass its gate here, but solves the fiber on 150
    # intervals and continues from that
    grid, params = Grid(20.0, 1200), ModelParams(5, 10, 8.0)
    operator = _Operator(params, grid)
    previous = _follow(operator, 2.0, 3, None)
    previous = _follow(operator, 2.05, 3, previous)
    well = _well(params.k, 8.0)
    assert _harmonic(operator, 3, potential(params, grid.nodes), well) is not None
    log = _record_continuations(monkeypatch)
    pairs = _follow(operator, 8.0, 3, previous).pairs
    assert log[0] == (1200, False) and log[-1] == (1200, True)
    assert all(intervals == 150 for intervals, _ in log[1:-1])
    _assert_bisection_pairs(params, grid, pairs, True)


def _fiber_from(source: str, monkeypatch):
    """A fiber step's record taken from the start `source`, with a check of
    the solves the step ran to get it."""
    sizes, log = _record_bisections(monkeypatch), _record_continuations(monkeypatch)
    if source == "bisection":  # below 512 intervals, with no other start
        fiber = _follow(_Operator(ModelParams(5, 1, 0.0), Grid(12.0, 480)), 0.0, 3, None)
        assert sizes == [479] and log == [(480, True)]
        return fiber
    if source == "nested":  # its coarse grid's bisection start, then the grid's
        monkeypatch.setattr(magband.solver, "_harmonic", lambda *args: None)
        fiber = _follow(_Operator(ModelParams(5, 0, 2.0), Grid(14.0, 1120)), 2.0, 2, None)
        assert sizes == [139] and log == [(140, True), (1120, True)] and fiber.before is None
        return fiber
    grid, steps = Grid(20.0, 1200), ("closed form", "first order", "second order").index(source)
    operator = _Operator(ModelParams(5, 10, 8.0), grid)
    fiber = _follow(operator, 8.0, 3, None)
    for x in (8.05, 8.1)[:steps]:
        previous = fiber
        fiber = _follow(operator, x, 3, previous)
        # a record continued from the step before keeps it, without its before
        assert fiber.before.xi == previous.xi and fiber.before.before is None
        assert fiber.before.pairs is previous.pairs
    assert sizes == [] and log == [(1200, True)] * (steps + 1)
    assert (fiber.before is None) == (source == "closed form")
    return fiber


@pytest.mark.parametrize(
    "source", ["closed form", "first order", "second order", "nested", "bisection"]
)
def test_a_fiber_record_holds_the_public_moments_of_its_pairs(monkeypatch, source):
    # the record's arrays are filled when the step builds it, and are the
    # three public moments of its pairs, bit for bit
    fiber = _fiber_from(source, monkeypatch)
    fiber_params, grid = fiber.operator.params, fiber.operator.grid
    params = ModelParams(fiber_params.n, fiber_params.m, fiber.xi)
    for got, moment in (
        (fiber.values, rayleigh_quotient),
        (fiber.slopes, derivative_feynman_hellmann),
        (fiber.moments[2], derivative_boundary_form),
    ):
        want = np.array([moment(params, pair, grid) for pair in fiber.pairs])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n, m, xi, grid",
    [
        (3, 0, 1.0, Grid(12.0, 960)),  # k = -1/4: the rows are the whole grid
        (4, 0, 5.0, Grid(20.0, 1200)),  # k = 0
        (5, 10, 8.0, Grid(20.0, 1200)),
    ],
)
def test_the_moments_read_the_one_grid_potential(monkeypatch, n, m, xi, grid):
    # given no v, the record's moments slice its own `potential`: for a
    # continued vector (zero outside its window) and a vector nonzero on every
    # row (the oracle's), on each boundary-form branch, the bits of the
    # moments given the public potential
    log = _record_continuations(monkeypatch)
    params = ModelParams(n, m, xi)
    operator = _Operator(params, grid)
    continued = _follow(operator, xi, 2, None).pairs
    assert log[-1] == (grid.intervals, True)
    assert all(intervals < grid.intervals and certified for intervals, certified in log[:-1])
    assert all((pair.vector == 0.0).any() for pair in continued)
    v = potential(params, grid.nodes)
    for pair in continued + _reference(params, grid, 2):
        got = np.array(operator.moments(pair.vector, xi))
        assert got.tobytes() == np.array(operator.moments(pair.vector, xi, v)).tobytes()


def test_a_refused_nested_start_falls_back_to_the_bisection_start(monkeypatch):
    # every start the grid's step takes on fewer rows than the whole grid is
    # refused: the nested start comes before the bisection start, which is
    # continued on the whole grid to the oracle's pairs
    params, grid = ModelParams(5, 2, 1.5), Grid(16.0, 4096)
    continue_, windows = magband.solver._continue_fiber, []

    def whole_grid_only(operator, vectors, shifts, v, window, *args):
        if operator.grid != grid:
            return continue_(operator, vectors, shifts, v, window, *args)
        windows.append((window.start, window.stop))
        if window != slice(0, v.size):
            return None
        return continue_(operator, vectors, shifts, v, window, *args)

    monkeypatch.setattr(magband.solver, "_continue_fiber", whole_grid_only)
    sizes = _record_bisections(monkeypatch)
    pairs = solve_fiber(params, grid, 3)
    assert len(windows) >= 2 and windows[-1] == (0, grid.intervals - 1)
    assert sizes[-1] == grid.intervals - 1
    _assert_bisection_pairs(params, grid, pairs, False)


@pytest.mark.parametrize("count", [0, 4096, 2.0])
def test_nested_solve_checks_the_count_before_any_solve(monkeypatch, count):
    calls = []
    monkeypatch.setattr(magband.solver, "_ldl", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(magband.solver, "_continue_fiber", lambda *a: calls.append(a))
    with pytest.raises(ModelError, match=r"at least 1 eigenpairs and at most 4095, got "):
        solve_fiber(ModelParams(5, 2, 1.5), Grid(16.0, 4096), count)
    assert calls == []


def test_crossing_bisects_no_large_matrix(monkeypatch):
    # m = 40 on step 1/240: ~12 000 rows; the first iterate starts from its
    # harmonic well, so no matrix is bisected, not even a nested solve's
    sizes = _record_bisections(monkeypatch)
    res = crossing(5, 40, 2, 3.6)
    assert res.residual <= 1e-8
    assert sizes == []


def test_fiber_eigenvalues_bisect_no_large_matrix(monkeypatch):
    # the values are the Rayleigh quotients of the nested solve's vectors
    params, grid = ModelParams(5, 1, 1.0), Grid(12.0, 1024)
    sizes = _record_bisections(monkeypatch)
    values = fiber_eigenvalues(params, grid, 3)
    assert sizes and max(sizes) < 511
    h, r = grid.h, grid.nodes
    norm = float(np.max(np.abs(2.0 / h**2 + params.k / r**2 + (r - 1.0) ** 2))) + 2.0 / h**2
    ref = oracles.dense_fiber_eigenvalues(params.k, 1.0, grid.radius, grid.intervals, 3)
    assert np.all(np.abs(values - ref) <= 16.0 * np.finfo(float).eps * norm)


@pytest.mark.parametrize("solve", [solve_fiber, fiber_eigenvalues])
def test_a_refusal_of_every_start_names_its_fiber(monkeypatch, solve):
    # no start certified, the bisection start's included: the step raises,
    # naming the fiber, on a grid that takes no nested solve and on one whose
    # nested solve raises first
    log = _record_continuations(monkeypatch)
    monkeypatch.setattr(magband.solver, "_continue_fiber", lambda *args: None)
    for grid in (Grid(12.0, 480), Grid(12.0, 4800)):
        with pytest.raises(ConvergenceError, match=r"^fiber \(m=3, xi=1\.5\): no start"):
            solve(ModelParams(5, 3, 1.5), grid, 2)
    assert log == []


def test_small_grid_is_bisected_directly(monkeypatch):
    # below 512 intervals, with its closed-form start turned away, the fiber
    # is continued from its bisection start on the whole grid
    sizes, log = _record_bisections(monkeypatch), _record_continuations(monkeypatch)
    solve_fiber(ModelParams(5, 1, 0.0), Grid(12.0, 480), 3)
    assert sizes == [479] and log == [(480, True)]


def _bisection_only(operator, xi, count, previous, v, first=1):
    """`solver._starts` with the bisection start alone."""
    start = magband.solver._bisection(operator, count, v, first)
    return [] if start is None else [start]


BISECTION_FIBERS = [
    # (n, m, xi, grid, count, dense oracle affordable)
    (5, 1, 0.0, Grid(12.0, 120), 3, True),
    (5, 1, 0.0, Grid(12.0, 480), 3, True),
    (3, 0, 1.0, Grid(12.0, 480), 3, True),  # k = -1/4
    (4, 0, -1.0, Grid(12.0, 480), 3, True),  # k = 0
    (5, 40, 45.0, Grid(53.0, 400), 4, True),  # a well far from the axis
    (5, 10, 6.0, Grid(12.0, 480), 6, True),
    (5, 3, 2.85, Grid(20.0, 4800), 3, False),  # a seeded random vector misses band 1
]


@pytest.mark.parametrize("n,m,xi,grid,count,dense", BISECTION_FIBERS)
def test_the_bisection_start_gives_the_dense_pairs(monkeypatch, n, m, xi, grid, count, dense):
    # the bisection start alone, continued on the whole grid.  Each band's
    # start vector is the unit vector at the row where the band dominates
    # (T - shift)^-1, so it has a component along its band, where a flat
    # vector has none along the odd bands of a well far from the axis
    # (m = 40) and a fixed pseudo-random one next to none at some fibers;
    # the brackets are narrow enough that the first Rayleigh quotient does
    # not leave them for a neighbouring band
    monkeypatch.setattr(magband.solver, "_starts", _bisection_only)
    sizes, log = _record_bisections(monkeypatch), _record_continuations(monkeypatch)
    params = ModelParams(n, m, xi)
    pairs = _follow(_Operator(params, grid), xi, count, None).pairs
    assert sizes == [grid.intervals - 1] and log == [(grid.intervals, True)]
    _, _, norm = _grid_matrix(params, grid)
    if dense:
        want = oracles.dense_fiber_eigenvalues(params.k, xi, grid.radius, grid.intervals, count)
    else:
        want = [pair.value for pair in _reference(params, grid, count)]
    values = np.array([pair.value for pair in pairs])
    assert np.all(np.abs(values - want) <= 16.0 * np.finfo(float).eps * norm)
    assert [oracles.sign_pattern(pair.vector) for pair in pairs] == [
        (j, 1.0) for j in range(count)
    ]


@pytest.mark.parametrize("first", [1, 2, 3])
def test_the_bisection_start_of_a_band_range_brackets_those_bands_alone(first):
    # bands first..3: each shift within half the bracket width of T's
    # eigenvalue, each vector a unit vector at the row where the diagonal of
    # (T - shift)^-1 peaks, on the whole grid
    params, grid = ModelParams(5, 10, 6.0), Grid(12.0, 480)
    operator = _Operator(params, grid)
    vectors, shifts, window, before = _bisection(operator, 3, operator.potential(6.0), first)
    dense = oracles.dense_fiber_eigenvalues(params.k, 6.0, grid.radius, grid.intervals, 3)
    assert len(shifts) == len(vectors) == 4 - first and before is None
    assert np.all(np.abs(np.array(shifts) - dense[first - 1:]) < 0.5 * 0.01)
    assert window == slice(0, grid.intervals - 1)
    diagonal = _grid_matrix(params, grid)[0]
    size = diagonal.size
    matrix = np.diag(diagonal) - (np.eye(size, k=1) + np.eye(size, k=-1)) / grid.h**2
    for vector, shift in zip(vectors, shifts):
        peak = np.argmax(np.abs(np.diag(np.linalg.inv(matrix - shift * np.eye(size)))))
        assert np.flatnonzero(vector).tolist() == [peak] and vector[peak] == 1.0


def _grid_matrix(params: ModelParams, grid: Grid):
    """Diagonal, potential and ||T||_1 of the grid matrix T (off-diagonal
    -1/h^2), from its formula."""
    h, r = grid.h, grid.nodes
    v = params.k / r**2 + (r - params.xi) ** 2
    diagonal = 2.0 / h**2 + v
    couplings = np.full(diagonal.size, 2.0 / h**2)
    couplings[[0, -1]] = 1.0 / h**2
    return diagonal, v, float(np.max(np.abs(diagonal) + couplings))


def _full_residual(diagonal: np.ndarray, h: float, pair) -> float:
    """||T u - lambda u|| / ||u|| on the whole grid."""
    u = pair.vector
    tu = diagonal * u
    tu[:-1] -= u[1:] / h**2
    tu[1:] -= u[:-1] / h**2
    return float(np.linalg.norm(tu - pair.value * u) / np.linalg.norm(u))


@pytest.mark.parametrize("start,stop", [(0, 100), (140, 239), (60, 180), (0, 239)],
                         ids=["axis", "wall", "inside", "whole"])
def test_residual_is_the_full_grid_residual_of_the_zero_padded_vector(start, stop):
    # the leaks 1/h^2 of a trimmed end count, and there is none at the grid's end
    params, grid = ModelParams(5, 2, 3.0), Grid(12.0, 240)
    diagonal, v, _ = _grid_matrix(params, grid)
    rows = slice(start, stop)
    wide = np.exp(-(((grid.nodes[rows] - 6.0) / 2.0) ** 2))  # 0.1 of its peak at r = 3, 9
    noise = np.random.default_rng(29).standard_normal(stop - start)
    for z, mu in ((wide, 20.0), (noise, 7.5), (wide + 1e-3 * noise, 15.0)):
        padded = np.zeros(v.size)
        padded[rows] = z
        want = _full_residual(diagonal, grid.h, EigenPair(mu, padded))
        assert abs(_residual(_Operator(params, grid), v, rows, z, mu) - want) <= 1e-12 * want


M40_CROSSING = 41.003025466444605  # band 1 of m = 40 meets E = 2 here (check 09)


@pytest.mark.parametrize("step, dense", [(1.0 / 240.0, False), (1.0 / 24.0, True)])
def test_windowed_continuation_at_m_40(monkeypatch, step, dense):
    params, grid = ModelParams(5, 40, M40_CROSSING), fixed_step_grid(M40_CROSSING, 2.0, step)
    windows = []
    continue_ = magband.solver._continue_fiber

    def recorded(operator, vectors, shifts, v, window, *args):
        windows.append((operator.grid.intervals, window))
        return continue_(operator, vectors, shifts, v, window, *args)

    monkeypatch.setattr(magband.solver, "_continue_fiber", recorded)
    pairs = solve_fiber(params, grid, 2)
    intervals, window = windows[-1]
    rows = grid.intervals - 1
    assert intervals == grid.intervals and window.stop - window.start < rows / 2
    diagonal, _, norm = _grid_matrix(params, grid)
    tol = 8.0 * np.finfo(float).eps * norm
    values = np.array([pair.value for pair in pairs])
    bisected = [pair.value for pair in _reference(params, grid, 2)]
    assert np.all(np.abs(values - bisected) <= tol)
    if dense:
        ref = oracles.dense_fiber_eigenvalues(params.k, params.xi, grid.radius, grid.intervals, 2)
        assert np.all(np.abs(values - ref) <= tol)
    outside = np.ones(rows, dtype=bool)
    outside[window] = False
    for pair in pairs:
        assert np.all(pair.vector[outside] == 0.0)
        assert _full_residual(diagonal, grid.h, pair) <= tol


def test_continuation_from_a_vector_off_the_well_is_none_or_right():
    params, grid = ModelParams(5, 40, M40_CROSSING), fixed_step_grid(M40_CROSSING, 2.0, 1 / 24)
    r, operator = grid.nodes, _Operator(params, grid)
    v = potential(params, r)
    (want,) = _reference(params, grid, 1)
    tol = 8.0 * np.finfo(float).eps * _grid_matrix(params, grid)[2]
    outcomes = set()
    for center in (3.0, 10.0, 20.0, 30.0, 36.0, 46.5):
        for width in (0.5, 2.0):
            start = np.exp(-0.5 * ((r - center) / width) ** 2)
            for shift in (want.value, want.value + 0.5, 10.0):
                window = _window(grid, [start], 0.0)
                got = _continue_fiber(operator, [start], [shift], v, window, params.xi)
                outcomes.add(got is None)
                if got is not None:
                    assert abs(got[0].value - want.value) <= tol
                    assert np.max(np.abs(got[0].vector - want.vector)) <= 1e-6 * np.max(want.vector)
    assert outcomes == {True, False}


@pytest.mark.parametrize("cut", [1e-3, 1e-6, 1e-10, 1e-14, 1e-18])
def test_continuation_on_a_window_too_narrow_is_none_or_right(cut):
    # the window of rows where the eigenvector exceeds `cut` of its peak: the
    # leaks at its ends keep the full-grid residual above tolerance unless
    # the vector has decayed there
    params, grid = ModelParams(5, 40, M40_CROSSING), fixed_step_grid(M40_CROSSING, 2.0, 1 / 24)
    (want,) = _reference(params, grid, 1)
    diagonal, v, norm = _grid_matrix(params, grid)
    tol = 8.0 * np.finfo(float).eps * norm
    rows = np.flatnonzero(np.abs(want.vector) > cut * np.max(np.abs(want.vector)))
    window = slice(int(rows[0]), int(rows[-1]) + 1)
    operator = _Operator(params, grid)
    got = _continue_fiber(operator, [want.vector], [want.value], v, window, params.xi)
    if cut > 1e-10:
        assert got is None
    if got is not None:
        assert abs(got[0].value - want.value) <= tol
        assert _full_residual(diagonal, grid.h, got[0]) <= tol


def _sign_changes_oracle(z: np.ndarray) -> bool | None:
    """The sign pattern by counting (`oracles.sign_pattern`): None when the
    entries above the significance threshold change sign, else whether the
    first is negative."""
    changes, first = oracles.sign_pattern(z)
    return None if changes else first < 0.0


# fibers whose band certificate is tested from both sides, each with a grid
CERTIFIED_FIBERS = [
    (ModelParams(5, 1, 1.0), Grid(14.0, 1120)),
    (ModelParams(5, 5, 4.0), Grid(16.0, 1920)),
]


def _record_counts(monkeypatch) -> list[tuple[bool, int | None]]:
    """(lower, count) of each inertia bound (`_Operator.count_below`)."""
    calls, original = [], magband.solver._Operator.count_below

    def recorded(operator, v, sigma, xi, lower=False):
        count = original(operator, v, sigma, xi, lower)
        calls.append((lower, count))
        return count

    monkeypatch.setattr(magband.solver._Operator, "count_below", recorded)
    return calls


def _dense_spectrum(params: ModelParams, grid: Grid, window: slice | None = None) -> np.ndarray:
    """The dense eigenvalues of T's rows `window` (all of T by default)."""
    window = slice(0, grid.intervals - 1) if window is None else window
    return oracles.dense_window_eigenvalues(
        params.k, params.xi, grid.radius, grid.intervals, window.start, window.stop
    )


def test_continuation_refuses_a_start_with_a_significant_node(monkeypatch):
    # starts that converge to the wrong bands are refused: the second
    # eigenpair offered as band 1 alone, and offered as bands 1..2 band 2's
    # pair twice and as bands 1..3 band 2's pair twice before band 3's (by
    # the gap test: one eigenvalue of T lies near both values), bands (1, 3)
    # and bands (2, 3) (by the upper count: T has three eigenvalues below
    # the top value + 2 tol); the true pairs are accepted
    calls = _record_counts(monkeypatch)
    iterations, rayleigh = [], magband.solver._rayleigh_iteration

    def iterated(*args):
        iterations.append(1)
        return rayleigh(*args)

    monkeypatch.setattr(magband.solver, "_rayleigh_iteration", iterated)
    wrong = [
        ((2,), "upper"), ((2, 2), "gap"), ((2, 2, 3), "gap"), ((1, 3), "upper"), ((2, 3), "upper")
    ]
    for params, grid in CERTIFIED_FIBERS:
        operator, v = _Operator(params, grid), potential(params, grid.nodes)
        tol = 8.0 * np.finfo(float).eps * operator.one_norm(v)
        pairs = _reference(params, grid, 3)
        dense = _dense_spectrum(params, grid)
        for bands, refusal in wrong:
            offered = [pairs[j - 1] for j in bands]
            vectors = [pair.vector for pair in offered]
            window = _window(grid, vectors, 0.0)
            del calls[:], iterations[:]
            shifts = [p.value for p in offered]
            got = _continue_fiber(operator, vectors, shifts, v, window, params.xi)
            assert got is None, (params, bands)
            top = offered[-1].value
            if refusal == "gap":
                # refused at the second pair, which collides with the first:
                # no later pair is iterated and nothing is counted
                assert calls == [] and len(iterations) == 2
                assert np.count_nonzero(np.abs(dense - offered[1].value) <= 2.0 * tol) == 1
            else:
                assert calls == [(False, len(bands) + 1)]
                assert np.count_nonzero(dense < top + 2.0 * tol) == len(bands) + 1
        assert _sign_changes_oracle(pairs[1].vector) is None
        # the true pairs of bands 1..2 are certified, with one upper count
        vectors = [p.vector for p in pairs[:2]]
        del calls[:]
        window, shifts = _window(grid, vectors, 0.0), [p.value for p in pairs[:2]]
        got = _continue_fiber(operator, vectors, shifts, v, window, params.xi)
        assert got is not None and [_sign_changes_oracle(p.vector) for p in got] == [False, None]
        assert calls == [(False, 2)]
        assert np.count_nonzero(dense < got[1].value + 2.0 * tol) == 2


def test_every_continued_and_bisected_pair_obeys_the_oscillation_theorem(monkeypatch):
    # the certificate counts no sign changes, yet band j of every continued
    # pair has j - 1 of them and every pair is positive near the axis:
    # check 02's samples, followed as one chain per m, and continued from
    # their bisection starts alone
    grid = Grid(20.0, 4800)
    xi = -1.0 + 0.05 * np.arange(141)
    for m in (0, 3, 6):
        operator, fiber, continued = _Operator(ModelParams(5, m, xi[0]), grid), None, 0
        for x in xi:
            fiber = _follow(operator, float(x), 3, fiber)
            continued += fiber.before is not None
            assert [oracles.sign_pattern(p.vector) for p in fiber.pairs] == [
                (0, 1.0), (1, 1.0), (2, 1.0)
            ], (m, x)
        assert continued >= xi.size - 10
    monkeypatch.setattr(magband.solver, "_starts", _bisection_only)
    for m in (0, 3, 6):
        operator = _Operator(ModelParams(5, m, xi[0]), grid)
        for x in xi[::7]:
            pairs = _follow(operator, float(x), 3, None).pairs
            assert [oracles.sign_pattern(p.vector) for p in pairs] == [
                (0, 1.0), (1, 1.0), (2, 1.0)
            ], (m, x)


@pytest.mark.parametrize("grid", [Grid(12.0, 480), Grid(14.0, 1120)])
def test_the_shared_off_diagonal_cannot_be_written(grid):
    # `assemble` hands out a view of its record's read-only off-diagonal: a
    # write into it raises, and the next solve on that grid keeps its bits
    params = ModelParams(5, 1, 1.0)
    want = solve_fiber(params, grid, 2)
    _, offdiagonal = assemble(params, grid)
    assert np.all(offdiagonal == -1.0 / grid.h**2)
    with pytest.raises(ValueError):
        offdiagonal[:] = 0.0
    with pytest.raises(ValueError):
        offdiagonal[0] = 1.0
    got = solve_fiber(params, grid, 2)
    for a, b in zip(got, want):
        assert a.value == b.value and a.vector.tobytes() == b.vector.tobytes()


def _dense_count(params: ModelParams, grid: Grid, sigma: float) -> int:
    values = oracles.dense_fiber_eigenvalues(
        params.k, params.xi, grid.radius, grid.intervals, grid.intervals - 1
    )
    return int(np.count_nonzero(values < sigma))


def _record_inertia_passes(monkeypatch) -> list[tuple[int, int]]:
    """(rows, info) of each LDL^T factorization (dpttrf) the count runs."""
    calls, original = [], magband.solver.lapack.dpttrf

    def recorded(diagonal, *args, **kwargs):
        *factors, info = original(diagonal, *args, **kwargs)
        calls.append((diagonal.size, info))
        return (*factors, info)

    monkeypatch.setattr(magband.solver.lapack, "dpttrf", recorded)
    return calls


def _record_count_rows(monkeypatch) -> list[slice]:
    """The rows of each block of T (`_Operator.block`) built from now on."""
    rows, block = [], magband.solver._Operator.block

    def recorded(operator, v, window, shift=0.0):
        rows.append(window)
        return block(operator, v, window, shift)

    monkeypatch.setattr(magband.solver._Operator, "block", recorded)
    return rows


def _well_rows(params: ModelParams, grid: Grid, sigma: float) -> slice:
    """The rows a well count at sigma factors: |r - xi| < sqrt(sigma) + 1,
    from the axis when k < 0."""
    rows = np.flatnonzero(np.abs(grid.nodes - params.xi) < np.sqrt(max(sigma, 0.0)) + 1.0)
    return slice(0 if params.k < 0 else int(rows[0]), int(rows[-1]) + 1)


@pytest.mark.parametrize("n,m,xi", [(5, 10, 6.0), (5, 40, 41.0), (4, 0, 3.0)],
                         ids=["5-10-6.0", "5-40-41.0", "4-0-3.0"])
def test_windowed_sturm_count_matches_the_dense_count(monkeypatch, n, m, xi):
    params = ModelParams(n, m, xi)
    grid = fixed_step_grid(xi, 12.0, 1.0 / 16.0)
    operator, v = _Operator(params, grid), potential(params, grid.nodes)
    values = oracles.dense_fiber_eigenvalues(params.k, xi, grid.radius, grid.intervals, 5)
    rows = _record_count_rows(monkeypatch)
    for lower, upper in zip(values, values[1:]):
        # mid-gap on the well's rows alone, trimmed where V >= sigma: the
        # count is exact
        sigma = 0.5 * (lower + upper)
        assert operator.count_below(v, sigma, xi) == _dense_count(params, grid, sigma)
        assert rows[-1] == _well_rows(params, grid, sigma) != slice(0, v.size)
        assert np.all(np.delete(v, np.arange(v.size)[rows[-1]]) >= sigma)
    calls = _record_inertia_passes(monkeypatch)
    for value in values:
        # just above an eigenvalue the count is still an upper bound
        sigma = value + 1e-6
        assert operator.count_below(v, sigma, xi) >= _dense_count(params, grid, sigma)
    # there a pivot <= 0 falls on the block's last row, so that the pass
    # restarts on no row
    assert 0 in {size - info for size, info in calls if info > 0}
    for j, value in enumerate(values):
        # just above an eigenvalue on the whole grid: the count is exact
        sigma = value + 1e-6
        assert operator.count_below(v, sigma, None) == j + 1
        assert _dense_count(params, grid, sigma) == j + 1
    # above the whole spectrum every row is removed: the last pass restarts
    # on one row, which LAPACK never sees
    top = oracles.dense_fiber_eigenvalues(
        params.k, xi, grid.radius, grid.intervals, grid.intervals - 1
    )[-1]
    del calls[:]
    assert operator.count_below(v, top + 1.0, None) == v.size
    assert calls[-1] == (2, 1)


def test_sturm_count_with_the_potential_below_sigma_outside_counts_the_full_grid(monkeypatch):
    # (3, 0) has V -> -infinity at the axis, so a block that trims the axis
    # side leaves V < sigma outside; here one that misses the well has no
    # eigenvalue below sigma of its own, and the well count, which keeps
    # every row down to the axis when k < 0, counts T's two
    params, grid = ModelParams(3, 0, 2.0), Grid(12.0, 240)
    diagonal, v, _ = _grid_matrix(params, grid)
    operator = _Operator(params, grid)
    values = oracles.dense_fiber_eigenvalues(params.k, 2.0, grid.radius, grid.intervals, 3)
    sigma = 0.5 * (values[1] + values[2])
    window = slice(int(np.searchsorted(grid.nodes, 8.0)), diagonal.size)
    coupling = np.full(diagonal[window].size - 1, -1.0 / grid.h**2)
    inner = np.linalg.eigvalsh(
        np.diag(diagonal[window]) + np.diag(coupling, 1) + np.diag(coupling, -1)
    )
    assert np.count_nonzero(inner < sigma) == 0 and np.min(v[: window.start]) < sigma
    rows = _record_count_rows(monkeypatch)
    assert operator.count_below(v, sigma, 2.0) == 2 == _dense_count(params, grid, sigma)
    assert rows == [_well_rows(params, grid, sigma)] and rows[0].start == 0


def test_sturm_count_extends_only_the_side_with_the_potential_below_sigma(monkeypatch):
    # (3, 0) has V -> -infinity at the axis: the axis side of the well count
    # reaches r = 0, while the wall side, where V >= sigma, stays trimmed
    params, grid = ModelParams(3, 0, 2.0), Grid(12.0, 240)
    _, v, _ = _grid_matrix(params, grid)
    operator = _Operator(params, grid)
    values = oracles.dense_fiber_eigenvalues(params.k, 2.0, grid.radius, grid.intervals, 3)
    sigma = 0.5 * (values[1] + values[2])
    well = _well_rows(params, grid, sigma)
    assert well.start == 0 and v[0] < sigma <= np.min(v[well.stop :])
    calls = _record_inertia_passes(monkeypatch)
    assert operator.count_below(v, sigma, 2.0) == 2 == _dense_count(params, grid, sigma)
    # the pass starts on rows [0, well.stop) and restarts past each of the
    # two rows it removes
    assert calls[0][0] == well.stop and len(calls) <= 3
    assert all(size == rows - info for (rows, info), (size, _) in zip(calls, calls[1:]))


@pytest.mark.parametrize("n,m,xi", [(5, 10, 6.0), (5, 40, 41.0), (4, 0, 3.0), (3, 0, 2.0)],
                         ids=["5-10-6.0", "5-40-41.0", "4-0-3.0", "3-0-2.0"])
def test_exact_inertia_matches_the_dense_count(n, m, xi):
    # mid-gap and 1e-9 on each side of each of the five lowest eigenvalues:
    # on the full grid both bounds are the dense count; on the well's rows
    # the plain block's count is its own dense count, at most T's, and the
    # corrected block's count is at least T's
    params = ModelParams(n, m, xi)
    grid = fixed_step_grid(xi, 12.0, 1.0 / 16.0)
    operator, v = _Operator(params, grid), potential(params, grid.nodes)
    full = oracles.dense_fiber_eigenvalues(
        params.k, xi, grid.radius, grid.intervals, grid.intervals - 1
    )
    lowest = full[:5]
    sigmas = [0.5 * (a + b) for a, b in zip(lowest, lowest[1:])]
    sigmas += [value + side for value in lowest for side in (-1e-9, 1e-9)]
    for sigma in sigmas:
        want = int(np.count_nonzero(full < sigma))
        for lower in (False, True):
            assert operator.count_below(v, sigma, None, lower) == want
        well = _well_rows(params, grid, sigma)
        plain = oracles.dense_window_eigenvalues(
            params.k, xi, grid.radius, grid.intervals, well.start, well.stop
        )
        count = operator.count_below(v, sigma, xi, True)
        assert count == np.count_nonzero(plain < sigma) <= want
        assert operator.count_below(v, sigma, xi) >= want


# fibers whose well counts are checked against the dense count, bands 1..6
WELL_FIBERS = [
    ModelParams(3, 0, -1.0),
    ModelParams(3, 0, 0.0),
    ModelParams(3, 0, 2.0),
    ModelParams(3, 0, 6.0),  # the well's rows leave the axis, but k < 0 keeps it
    ModelParams(4, 0, 1.0),
    ModelParams(5, 1, 2.0),
    ModelParams(5, 40, M40_CROSSING),
]


@pytest.mark.parametrize("params", WELL_FIBERS, ids=lambda p: f"{p.n}-{p.m}-{p.xi:g}")
def test_the_well_count_matches_the_dense_count(monkeypatch, params):
    # mid-gap between bands j and j + 1 both well counts are the dense count
    # j, and 1e-9 (relative) on each side of band j they bound it; every row
    # the upper count trims has V >= sigma, and at k = -1/4 the axis side is
    # kept
    grid = fixed_step_grid(params.xi, 36.0, 1.0 / 16.0)
    operator, v = _Operator(params, grid), potential(params, grid.nodes)
    full = oracles.dense_fiber_eigenvalues(
        params.k, params.xi, grid.radius, grid.intervals, grid.intervals - 1
    )
    rows = _record_count_rows(monkeypatch)
    for j in range(1, 7):
        sigma = 0.5 * (full[j - 1] + full[j])
        assert operator.count_below(v, sigma, params.xi) == j
        assert operator.count_below(v, sigma, params.xi, True) == j
        for side in (-1e-9, 1e-9):
            sigma = full[j - 1] * (1.0 + side)
            want = int(np.count_nonzero(full < sigma))
            assert operator.count_below(v, sigma, params.xi, True) <= want
            assert operator.count_below(v, sigma, params.xi) >= want
            trimmed = np.delete(v, np.arange(v.size)[rows[-1]])
            assert np.all(trimmed >= sigma)
            assert rows[-1].start == 0 or params.k >= 0.0
    assert rows[0] != slice(0, v.size)


def test_every_well_count_of_checks_02_and_09_is_the_oracle_count(monkeypatch):
    # a census: every count on the well's rows that check 02's sweep and
    # check 09's crossings make is the Sturm count of the whole grid matrix
    # (the oracle's, itself the dense count on small grids), so no verdict
    # of the certificate depends on the trimmed rows
    census, count_below = [], magband.solver._Operator.count_below

    def recorded(operator, v, sigma, xi, lower=False):
        count = count_below(operator, v, sigma, xi, lower)
        if xi is not None:
            grid = operator.grid
            census.append((operator.params.k, xi, grid.radius, grid.intervals, sigma, count))
        return count

    monkeypatch.setattr(magband.solver._Operator, "count_below", recorded)
    assert magband.acceptance.check_band_structure().passed
    assert magband.acceptance.check_agmon_uniformity().passed
    *fibers, counts = map(np.array, zip(*census))
    assert counts.size >= 1000 and np.max(fibers[3]) > 10000
    assert np.array_equal(oracles.sturm_counts_below(*fibers), counts)
    small = fibers[3] < 100  # the nested solves' coarsest grids
    assert np.any(small)
    for k, xi, radius, intervals, sigma in zip(*(column[small] for column in fibers)):
        dense = oracles.dense_fiber_eigenvalues(k, xi, radius, int(intervals), int(intervals) - 1)
        assert oracles.sturm_counts_below(k, xi, radius, intervals, sigma) == np.sum(dense < sigma)


def test_exact_inertia_continues_past_a_zero_pivot(monkeypatch):
    # diagonal 1 and off-diagonal 1 on 7 rows: the pivots run 1, 0, 1 + 1/pivmin,
    # 1, 0, ...; each zero pivot is taken as -pivmin and counted, and the
    # recurrence continues past it; the eigenvalues 1 + 2 cos(j pi/8) hold
    # two negatives
    calls = _record_inertia_passes(monkeypatch)
    values = 1.0 + 2.0 * np.cos(np.arange(1, 8) * np.pi / 8)
    assert _ldl(np.ones(7), np.ones(6))[0] == np.count_nonzero(values < 0.0) == 2
    assert calls == [(7, 2), (5, 3), (2, 0)]
    # a zero pivot on the fiber matrix: sigma is the first diagonal entry, so
    # the first pivot is exactly 0
    params, grid = ModelParams(5, 1, 2.0), Grid(8.0, 64)
    operator, v = _Operator(params, grid), potential(params, grid.nodes)
    full = slice(0, v.size)
    sigma = float(assemble(params, grid)[0][0])
    assert operator.block(v, full, sigma)[0][0] == 0.0
    values = oracles.dense_fiber_eigenvalues(params.k, 2.0, grid.radius, grid.intervals, 63)
    assert np.min(np.abs(values - sigma)) > 1e-6
    del calls[:]
    assert operator.count_below(v, sigma, None) == np.count_nonzero(values < sigma)
    assert calls[0] == (v.size, 1)


@pytest.mark.parametrize("size", [2, 3, 7, 40])
def test_ldl_counts_factors_and_solves_like_the_dense_matrix(size):
    # a random tridiagonal shifted to each gap of its spectrum has j pivots
    # <= 0: the count is the dense eigvalsh count, D and L written in place
    # give L D L^T = A - sigma to rounding, and dpttrs with those factors
    # solves A - sigma as np.linalg.solve does; the read-only off-diagonal
    # is copied, never written
    rng, eps = np.random.default_rng(size), np.finfo(float).eps
    for _ in range(10):
        diagonal, offdiagonal = rng.normal(size=size), rng.normal(size=size - 1)
        offdiagonal.flags.writeable = False
        dense = np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)
        values = np.linalg.eigvalsh(dense)
        for j in range(1, size):
            sigma = 0.5 * (values[j - 1] + values[j])
            shifted = dense - sigma * np.eye(size)
            pivots = diagonal - sigma
            negatives, multipliers = _ldl(pivots, offdiagonal)
            assert negatives == np.count_nonzero(values < sigma) == j
            lower = np.eye(size) + np.diag(multipliers, -1)
            scale = (np.abs(lower) * np.abs(pivots)) @ np.abs(lower.T)
            assert np.all(np.abs((lower * pivots) @ lower.T - shifted) <= 8.0 * eps * scale)
            b = rng.normal(size=size)
            x, info = lapack.dpttrs(pivots, multipliers, b)
            want = np.linalg.solve(shifted, b)
            assert info == 0 and np.allclose(x, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))
        assert np.all(offdiagonal == np.diag(dense, 1))


def test_a_rayleigh_step_at_a_zero_pivot_gives_none_or_a_certified_pair():
    # mu equal to T's first diagonal entry makes the first pivot exactly 0:
    # the count takes it as -pivmin, and a Rayleigh iteration from there
    # either refuses (None) or returns a quotient within tol of T's
    # spectrum whose vector has a full-grid residual within tol, with no
    # RuntimeWarning on the way
    params, grid = ModelParams(5, 1, 2.0), Grid(8.0, 64)
    operator, v = _Operator(params, grid), potential(params, grid.nodes)
    diagonal, _, norm = _grid_matrix(params, grid)
    mu, full = float(diagonal[0]), slice(0, v.size)
    block = operator.block(v, full)
    assert block[0][0] - mu == 0.0
    values = oracles.dense_fiber_eigenvalues(params.k, 2.0, grid.radius, grid.intervals, 63)
    assert _ldl(block[0] - mu, block[1])[0] == np.count_nonzero(values < mu)
    tol = 8.0 * np.finfo(float).eps * norm
    starts = [pair.vector for pair in _reference(params, grid, 3)] + [np.ones(v.size)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in starts:
            found = _rayleigh_iteration(operator, block, z.copy(), mu, tol)
            if found is not None:
                value, u = found
                assert np.min(np.abs(values - value)) <= tol
                assert _full_residual(diagonal, grid.h, EigenPair(value, u)) <= tol
                assert abs(grid.h * np.sum(u * u) - 1.0) <= 1e-12
        # a last pivot of exactly 0 is counted and kept: the solve is not
        # finite, and the step refuses
        two_rows = (np.ones(2), np.ones(1), (0.0, 0.0))
        assert _ldl(np.ones(2), np.ones(1))[0] == 1
        assert _rayleigh_iteration(operator, two_rows, np.ones(2), 0.0, tol) is None


def test_a_band_alone_is_certified_from_both_sides():
    # band 2 alone: its own pair is accepted, the pairs of bands 1 and 3
    # offered as band 2 are refused, and each of the two inertia bounds on its
    # own refuses them, as the dense spectra of T and of the well's block say
    for params, grid in CERTIFIED_FIBERS:
        operator, v, xi = _Operator(params, grid), potential(params, grid.nodes), params.xi
        pairs = _reference(params, grid, 3)
        window = _window(grid, [pair.vector for pair in pairs], 0.0)
        (got,) = _continue_fiber(operator, [pairs[1].vector], [pairs[1].value], v, window, xi, 2)
        assert abs(got.value - pairs[1].value) <= 1e-9
        assert np.max(np.abs(got.vector - pairs[1].vector)) <= 1e-7
        for j in (0, 2):
            offered = _continue_fiber(
                operator, [pairs[j].vector], [pairs[j].value], v, window, xi, 2
            )
            assert offered is None
        tol = 8.0 * np.finfo(float).eps * operator.one_norm(v)
        dense = _dense_spectrum(params, grid)
        lowers = [pairs[j].value - 2.0 * tol for j in (0, 1)]
        uppers = [pairs[j].value + 2.0 * tol for j in (1, 2)]
        # band 1's value as band 2: fewer than one eigenvalue below it; band
        # 2's own value: one
        for sigma, want in zip(lowers, (0, 1)):
            plain = _dense_spectrum(params, grid, _well_rows(params, grid, sigma))
            assert operator.count_below(v, sigma, xi, True) == want
            assert np.count_nonzero(plain < sigma) == want == np.count_nonzero(dense < sigma)
        # band 2's own value: two eigenvalues below it + 2 tol; band 3's
        # value as band 2: more than two
        for sigma, want in zip(uppers, (2, 3)):
            assert operator.count_below(v, sigma, xi) == want
            assert np.count_nonzero(dense < sigma) == want
