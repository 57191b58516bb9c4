"""Discrete fiber solver: eigenvalues, derivatives, refinement."""

from __future__ import annotations

import numpy as np
import pytest

from magband import (
    Grid,
    ModelError,
    ModelParams,
    SignPatternError,
    boundary_exponent,
    derivative_boundary_form,
    derivative_feynman_hellmann,
    fiber_eigenvalues,
    lowest_eigenpairs,
    potential_minimum,
    refine,
    refined_values,
    solve_fiber,
)
from magband.solver import assemble, rayleigh_quotient

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


def test_assemble_accepts_hardy_boundary_case():
    # k_m = -1/4 at (n, m) = (3, 0) sits exactly on the Hardy threshold and
    # must be accepted (the model cannot produce anything below it)
    op = assemble(ModelParams(3, 0, 0.0), Grid(10.0, 200))
    assert op.diagonal.shape == (199,)


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
    pairs = lowest_eigenpairs(assemble(ModelParams(5, 1, 1.0), grid), grid, 3)
    for pair in pairs:
        assert grid.h * np.sum(pair.vector**2) == pytest.approx(1.0, rel=1e-12)
        lead = np.argmax(np.abs(pair.vector) > 1e-8 * np.max(np.abs(pair.vector)))
        assert pair.vector[lead] > 0


def test_xi_zero_closed_form_under_refinement():
    # at xi=0 the levels are known in closed form; refinement must converge to them
    grid = Grid(12.0, 1200)
    for n, m in [(4, 0), (5, 1)]:
        rows = refined_values(ModelParams(n, m, 0.0), grid, 2)
        for p, rv in enumerate(rows, start=1):
            assert rv.value == pytest.approx(oracles.exact_level(n, m, p), rel=2e-6)
            assert rv.error < 1e-3


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
    params = ModelParams(4, 0, 0.0)
    coarse = Grid(12.0, 600)
    rv = refine(params, coarse, coarse.refined(), 1)
    exact = 3.0
    assert abs(rv.value - exact) < abs(rv.fine - exact) < abs(rv.coarse - exact)
    assert abs(rv.fine - exact) < rv.error  # estimate is conservative here


def test_refine_rejects_mismatched_grids():
    params = ModelParams(4, 0, 0.0)
    with pytest.raises(ModelError):
        refine(params, Grid(12.0, 600), Grid(14.0, 1200), 1)
    with pytest.raises(ModelError):
        refine(params, Grid(12.0, 600), Grid(12.0, 600), 1)


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
