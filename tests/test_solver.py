"""Discrete fiber solver: eigenvalues, derivatives, refinement."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.optimize import brentq

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
    _admit,
    _bisect_fiber,
    _continue_fiber,
    _count_below,
    _follow,
    _harmonic,
    _reach,
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
    grid = Grid(12.0, 800)
    pairs = solve_fiber(ModelParams(5, 1, 1.0), grid, 3)
    for pair in pairs:
        assert grid.h * np.sum(pair.vector**2) == pytest.approx(1.0, rel=1e-12)
        lead = np.argmax(np.abs(pair.vector) > 1e-8 * np.max(np.abs(pair.vector)))
        assert pair.vector[lead] > 0


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
    grid = Grid(14.0, 336)
    for n, m, xi in [(5, 3, 2.5), (4, 0, -1.0), (6, 10, 9.0)]:
        params = ModelParams(n, m, xi)
        dense = oracles.dense_fiber_eigenvalues(params.k, xi, grid.radius, grid.intervals, 3)
        for pair, ref in zip(solve_fiber(params, grid, 3), dense):
            assert rayleigh_quotient(params, pair, grid) == pytest.approx(ref, abs=1e-10)


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
    """Record the row count of every tridiagonal bisection from now on."""
    sizes = []
    original = magband.solver.eigh_tridiagonal

    def recorded(diagonal, *args, **kwargs):
        sizes.append(diagonal.size)
        return original(diagonal, *args, **kwargs)

    monkeypatch.setattr(magband.solver, "eigh_tridiagonal", recorded)
    return sizes


def _first_significant(vector: np.ndarray) -> float:
    return vector[np.argmax(np.abs(vector) > 1e-8 * np.max(np.abs(vector)))]


NESTED_CASES = [
    # (n, m, xi, grid, count, dense oracle affordable)
    (3, 0, 1.0, Grid(12.0, 960), 4, True),  # k = -1/4
    (4, 0, -1.0, Grid(12.0, 960), 3, True),  # k = 0
    (5, 0, 2.0, Grid(14.0, 1120), 2, True),
    (5, 40, 45.0, fixed_step_grid(45.0, 16.0, 1.0 / 240.0), 4, False),
    (5, 128, 150.0, Grid(11499 / 60.0, 11499), 1, False),  # check 12's witness grid
]


def _assert_bisection_pairs(params: ModelParams, grid: Grid, pairs, dense: bool) -> None:
    """`pairs` are the bisection's: every value within a few ulps of ||T||_1
    of the bisection values (and of the dense oracle's, when `dense`), every
    vector within 1e-6 of the bisection vector, positive near the axis."""
    count = len(pairs)
    h, r = grid.h, grid.nodes
    norm = float(np.max(np.abs(2.0 / h**2 + params.k / r**2 + (r - params.xi) ** 2))) + 2.0 / h**2
    tol = 16.0 * np.finfo(float).eps * norm
    values = np.array([pair.value for pair in pairs])
    bisected = _bisect_fiber(params, grid, count)
    assert np.all(np.abs(values - [pair.value for pair in bisected]) <= tol)
    if dense:
        ref = oracles.dense_fiber_eigenvalues(
            params.k, params.xi, grid.radius, grid.intervals, count
        )
        assert np.all(np.abs(values - ref) <= tol)
    for got, want in zip(pairs, bisected):
        assert np.max(np.abs(got.vector - want.vector)) <= 1e-6 * np.max(np.abs(want.vector))
        assert _first_significant(got.vector) > 0 and _first_significant(want.vector) > 0
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

    def recorded(grid, *args):
        pairs = continue_(grid, *args)
        log.append((grid.intervals, pairs is not None))
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
        (want,) = _bisect_fiber(params, grid, 1)
        h, r = grid.h, grid.nodes
        norm = float(np.max(np.abs(2.0 / h**2 + params.k / r**2 + (r - x) ** 2))) + 2.0 / h**2
        assert abs(value - want.value) <= 16.0 * np.finfo(float).eps * norm


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("xi", [-3.0, 0.0, 1.0])
def test_a_closed_form_start_turned_away_still_gives_the_bisection_pairs(monkeypatch, m, xi):
    # the well touches the axis, and the Hermite functions' residual exceeds
    # w: the fiber is solved through the nested start instead
    params, grid = ModelParams(5, m, xi), Grid(20.0, 4800)
    assert _harmonic(grid, 3, potential(params, grid.nodes), _well(params)) is None
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
    assert _harmonic(grid, 3, potential(params, grid.nodes), _well(params)) is None
    _assert_bisection_pairs(params, grid, solve_fiber(params, grid, 3), True)


def test_closed_form_start_is_skipped_when_potential_minimum_fails(monkeypatch):
    def failing(params):
        raise ConvergenceError("potential_minimum: Newton residual above tolerance")

    monkeypatch.setattr(magband.solver, "potential_minimum", failing)
    params, grid = ModelParams(5, 10, 8.0), Grid(20.0, 1200)
    assert _harmonic(grid, 3, potential(params, grid.nodes), _well(params)) is None
    _assert_bisection_pairs(params, grid, solve_fiber(params, grid, 3), True)


def test_a_failed_previous_fiber_start_goes_straight_to_the_nested_solve(monkeypatch):
    # the samples before xi = 8 lie 5.95 away: their second-order start
    # fails, and the step retries neither it at first order nor the closed
    # form, which would pass its gate here, but solves the fiber on 150
    # intervals and continues from that
    grid, params = Grid(20.0, 1200), ModelParams(5, 10, 8.0)
    previous = _follow(ModelParams(5, 10, 2.0), grid, 3, None)
    previous = _follow(ModelParams(5, 10, 2.05), grid, 3, previous)
    assert _harmonic(grid, 3, potential(params, grid.nodes), _well(params)) is not None
    log = _record_continuations(monkeypatch)
    pairs = _follow(params, grid, 3, previous).pairs
    assert log[0] == (1200, False) and log[-1] == (1200, True)
    assert all(intervals == 150 for intervals, _ in log[1:-1])
    _assert_bisection_pairs(params, grid, pairs, True)


def test_nested_solve_without_continuation_is_the_bisection(monkeypatch):
    params, grid = ModelParams(5, 2, 1.5), Grid(16.0, 4096)
    want = _bisect_fiber(params, grid, 3)
    monkeypatch.setattr(magband.solver, "_continue_fiber", lambda *args: None)
    got = solve_fiber(params, grid, 3)
    for a, b in zip(got, want):
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)


@pytest.mark.parametrize("count", [0, 4096, 2.0])
def test_nested_solve_checks_the_count_before_any_solve(monkeypatch, count):
    calls = []
    monkeypatch.setattr(magband.solver, "eigh_tridiagonal", lambda *a, **k: calls.append(a))
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
def test_failed_bisection_names_its_fiber(monkeypatch, solve):
    def failing(*args, **kwargs):
        raise LinAlgError("eigenvalues failed to converge")

    monkeypatch.setattr(magband.solver, "eigh_tridiagonal", failing)
    for grid in (Grid(12.0, 480), Grid(12.0, 4800)):  # bisected directly, nested
        with pytest.raises(ConvergenceError, match=r"^fiber \(m=3, xi=1\.5\): tridiagonal"):
            solve(ModelParams(5, 3, 1.5), grid, 2)


def test_small_grid_is_bisected_directly(monkeypatch):
    sizes = _record_bisections(monkeypatch)
    solve_fiber(ModelParams(5, 1, 0.0), Grid(12.0, 480), 3)
    assert sizes == [479]


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


M40_CROSSING = 41.003025466444605  # band 1 of m = 40 meets E = 2 here (check 09)


@pytest.mark.parametrize("step, dense", [(1.0 / 240.0, False), (1.0 / 24.0, True)])
def test_windowed_continuation_at_m_40(monkeypatch, step, dense):
    params, grid = ModelParams(5, 40, M40_CROSSING), fixed_step_grid(M40_CROSSING, 2.0, step)
    windows = []
    continue_ = magband.solver._continue_fiber

    def recorded(grid, vectors, shifts, v, window):
        windows.append((grid.intervals, window))
        return continue_(grid, vectors, shifts, v, window)

    monkeypatch.setattr(magband.solver, "_continue_fiber", recorded)
    pairs = solve_fiber(params, grid, 2)
    intervals, window = windows[-1]
    rows = grid.intervals - 1
    assert intervals == grid.intervals and window.stop - window.start < rows / 2
    diagonal, _, norm = _grid_matrix(params, grid)
    tol = 8.0 * np.finfo(float).eps * norm
    values = np.array([pair.value for pair in pairs])
    bisected = [pair.value for pair in _bisect_fiber(params, grid, 2)]
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
    r = grid.nodes
    v = potential(params, r)
    (want,) = _bisect_fiber(params, grid, 1)
    tol = 8.0 * np.finfo(float).eps * _grid_matrix(params, grid)[2]
    outcomes = set()
    for center in (3.0, 10.0, 20.0, 30.0, 36.0, 46.5):
        for width in (0.5, 2.0):
            start = np.exp(-0.5 * ((r - center) / width) ** 2)
            for shift in (want.value, want.value + 0.5, 10.0):
                got = _continue_fiber(grid, [start], [shift], v, _window(grid, [start], 0.0))
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
    (want,) = _bisect_fiber(params, grid, 1)
    diagonal, v, norm = _grid_matrix(params, grid)
    tol = 8.0 * np.finfo(float).eps * norm
    rows = np.flatnonzero(np.abs(want.vector) > cut * np.max(np.abs(want.vector)))
    window = slice(int(rows[0]), int(rows[-1]) + 1)
    got = _continue_fiber(grid, [want.vector], [want.value], v, window)
    if cut > 1e-10:
        assert got is None
    if got is not None:
        assert abs(got[0].value - want.value) <= tol
        assert _full_residual(diagonal, grid.h, got[0]) <= tol


def _dense_count(params: ModelParams, grid: Grid, sigma: float) -> int:
    values = oracles.dense_fiber_eigenvalues(
        params.k, params.xi, grid.radius, grid.intervals, grid.intervals - 1
    )
    return int(np.count_nonzero(values < sigma))


@pytest.mark.parametrize("n,m,xi", [(5, 10, 6.0), (5, 40, 41.0), (4, 0, 3.0)])
def test_windowed_sturm_count_matches_the_dense_count(n, m, xi):
    params = ModelParams(n, m, xi)
    grid = fixed_step_grid(xi, 12.0, 1.0 / 16.0)
    diagonal, v, _ = _grid_matrix(params, grid)
    values = oracles.dense_fiber_eigenvalues(params.k, xi, grid.radius, grid.intervals, 5)
    for lower, upper in zip(values, values[1:]):
        sigma = 0.5 * (lower + upper)
        want = _dense_count(params, grid, sigma)
        # a window past the classically allowed rows: the count is exact
        rows = np.flatnonzero(v < sigma + 40.0)
        window = slice(int(rows[0]), int(rows[-1]) + 1)
        assert np.all(np.delete(v, np.arange(diagonal.size)[window]) >= sigma)
        assert _count_below(grid, v, sigma, window) == want
    for value in values:
        # just above an eigenvalue, on the allowed rows alone: the window
        # matrix without its end corrections has that eigenvalue above sigma,
        # and with them the count is still an upper bound
        sigma = value + 1e-6
        rows = np.flatnonzero(v < sigma)
        window = slice(int(rows[0]), int(rows[-1]) + 1)
        assert _count_below(grid, v, sigma, window) >= _dense_count(params, grid, sigma)


def test_sturm_count_with_the_potential_below_sigma_outside_counts_the_full_grid():
    # (3, 0) has V -> -infinity at the axis, so a window that trims the axis
    # side leaves V < sigma outside; here the window misses the well, and its
    # own matrix has no eigenvalue below sigma
    params, grid = ModelParams(3, 0, 2.0), Grid(12.0, 240)
    diagonal, v, _ = _grid_matrix(params, grid)
    values = oracles.dense_fiber_eigenvalues(params.k, 2.0, grid.radius, grid.intervals, 3)
    sigma = 0.5 * (values[1] + values[2])
    window = slice(int(np.searchsorted(grid.nodes, 8.0)), diagonal.size)
    coupling = np.full(diagonal[window].size - 1, -1.0 / grid.h**2)
    inner = np.linalg.eigvalsh(
        np.diag(diagonal[window]) + np.diag(coupling, 1) + np.diag(coupling, -1)
    )
    assert np.count_nonzero(inner < sigma) == 0 and np.min(v[: window.start]) < sigma
    assert _count_below(grid, v, sigma, window) == 2 == _dense_count(params, grid, sigma)


def test_sturm_count_extends_only_the_side_with_the_potential_below_sigma(monkeypatch):
    # (3, 0) has V -> -infinity at the axis: the axis side of the window
    # extends to r = 0, while the wall side, where V >= sigma, stays trimmed
    params, grid = ModelParams(3, 0, 2.0), Grid(12.0, 240)
    _, v, _ = _grid_matrix(params, grid)
    values = oracles.dense_fiber_eigenvalues(params.k, 2.0, grid.radius, grid.intervals, 3)
    sigma = 0.5 * (values[1] + values[2])
    window = slice(int(np.searchsorted(grid.nodes, 1.0)), int(np.searchsorted(grid.nodes, 8.0)))
    assert np.min(v[: window.start]) < sigma <= np.min(v[window.stop :])
    sizes = []
    original = magband.solver.lapack.dstebz

    def recorded(diagonal, *args):
        sizes.append(diagonal.size)
        return original(diagonal, *args)

    monkeypatch.setattr(magband.solver.lapack, "dstebz", recorded)
    assert _count_below(grid, v, sigma, window) == 2 == _dense_count(params, grid, sigma)
    assert sizes == [window.stop]
