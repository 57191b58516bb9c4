"""Band sweeps, crossings, scaling laws, Agmon weights."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

import magband.solver
from magband import (
    BracketError,
    Grid,
    ModelError,
    ModelParams,
    agmon_norm,
    agmon_weight,
    crossing,
    fiber_eigenvalues,
    landau_level,
    potential,
    scaling_study,
    solve_fiber,
    sweep,
    turning_points,
)
from magband.bands import AgmonWeight

import oracles

SWEEP_GRID = Grid(16.0, 1200)


def test_sweep_structure_and_monotonicity():
    xi = np.linspace(-1.0, 4.0, 26)
    curves = sweep(5, [0, 2], [1, 2], xi, SWEEP_GRID)
    assert [(c.m, c.p) for c in curves] == [(0, 1), (0, 2), (2, 1), (2, 2)]
    for c in curves:
        assert c.n == 5
        assert np.array_equal(c.xi, xi)
        # strictly decreasing toward the Landau level, never below it
        assert np.all(np.diff(c.values) < 0)
        assert np.all(c.values > landau_level(c.p))
        assert np.all(c.slope_fh < 0)
        # independent derivative formulas agree along the whole curve
        assert np.allclose(c.slope_bd, c.slope_fh, rtol=2e-2, atol=1e-4)


def test_sweep_worker_count_does_not_change_results():
    xi = np.linspace(-1.0, 3.0, 9)
    serial = sweep(5, [0, 1], [1, 2], xi, SWEEP_GRID, workers=1)
    threaded = sweep(5, [0, 1], [1, 2], xi, SWEEP_GRID, workers=4)
    for a, b in zip(serial, threaded):
        assert (a.m, a.p) == (b.m, b.p)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.slope_fh, b.slope_fh)
        assert np.array_equal(a.slope_bd, b.slope_bd)


def test_sweep_validates_inputs():
    with pytest.raises(ModelError):
        sweep(5, [0], [1], np.array([1.0, 0.5]), SWEEP_GRID)  # not increasing
    with pytest.raises(ModelError):
        sweep(5, [0], [], np.array([0.0, 1.0]), SWEEP_GRID)
    with pytest.raises(ModelError):
        sweep(5, [0], [0], np.array([0.0, 1.0]), SWEEP_GRID)  # p >= 1


def test_sweep_high_frequency_regime():
    # far on the negative side the band rides the parabola: lambda ~ xi^2,
    # lambda' ~ 2 xi; at xi = -30 the relative corrections are a few percent
    xi = np.array([-30.0])
    curves = sweep(5, [0, 1], [1], xi, Grid(12.0, 1200))
    for c in curves:
        assert 1.0 <= c.values[0] / 900.0 <= 1.1
        assert abs(c.slope_fh[0] - 2 * (-30.0)) <= 0.1 * 60.0


def test_crossing_hits_requested_energy():
    res = crossing(5, 2, 1, 2.0)
    assert res.coupling == pytest.approx(8.75)
    assert res.residual <= 1e-8
    assert res.slope < 0
    # independent re-solve at the reported momentum
    grid = Grid(res.xi + 10.0, int((res.xi + 10.0) * 240))
    val = fiber_eigenvalues(ModelParams(5, 2, res.xi), grid, 1)[0]
    assert val == pytest.approx(2.0, abs=5e-7)
    # leading-order location sqrt(k/(E - E_1))
    assert res.xi == pytest.approx(np.sqrt(8.75), rel=0.1)


def _count_eigensolves(monkeypatch) -> list:
    """Record every tridiagonal eigensolve the package makes from now on."""
    calls = []
    original = magband.solver.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(magband.solver, "eigh_tridiagonal", counted)
    return calls


@pytest.mark.parametrize("n", [5, 6])
def test_crossing_seeded_newton_solve_count(monkeypatch, n):
    # seeded from xi_0 = sqrt(k/(E - E_p)), Newton needs few solves, near to
    # and far from the Landau level alike (E - E_p = 20 puts xi below 0)
    calls = _count_eigensolves(monkeypatch)
    for m in (0, 3, 10, 40, 80):
        for p in (1, 2, 3):
            for gap in (0.02, 1.0, 20.0):
                before = len(calls)
                res = crossing(n, m, p, landau_level(p) + gap)
                assert res.residual <= 1e-8
                assert len(calls) - before <= 8, (n, m, p, gap, len(calls) - before)


def test_crossing_flat_band_solve_count(monkeypatch):
    # k_m = 0 (n=4, m=0) has no leading law; the fixed seed still converges fast
    calls = _count_eigensolves(monkeypatch)
    for p in (1, 2, 3):
        for gap in (0.02, 1.0, 20.0):
            before = len(calls)
            res = crossing(4, 0, p, landau_level(p) + gap)
            assert res.coupling == 0.0
            assert res.residual <= 1e-8
            assert len(calls) - before <= 10, (p, gap, len(calls) - before)


def test_crossing_where_bisection_eigenvalue_scatters():
    # At m=40 on the default step the bisection eigenvalue scatters by up to
    # ~1e-8 from xi to xi near xi = 46.6 (k/h^2 dominates the matrix norm),
    # so a root finder on it saw the band jump; the Rayleigh quotient is
    # smooth there.
    res = crossing(5, 40, 1, 1.7744486609736805)
    assert res.residual <= 1e-8
    assert res.slope < 0
    assert res.xi == pytest.approx(np.sqrt(res.coupling / (1.7744486609736805 - 1.0)), rel=0.05)


@pytest.mark.parametrize(
    "n,m,p,energy",
    [
        (5, 2, 1, 2.0),
        (5, 0, 2, 3.02),  # just above E_2
        (5, 3, 3, 6.0),
        (4, 0, 1, 1.5),  # k_m = 0
        (5, 1, 1, 21.0),  # far above E_1: xi < 0
        (5, 40, 1, 1.7744486609736805),
    ],
)
def test_crossing_matches_dense_oracle(n, m, p, energy):
    step = 1.0 / 24.0
    res = crossing(n, m, p, energy, step=step)
    intervals = int(np.ceil(max(12.0, res.xi + 10.0) / step))
    value = oracles.dense_fiber_eigenvalues(
        res.coupling, res.xi, intervals * step, intervals, p
    )[p - 1]
    assert abs(value - energy) <= 1e-8 + 1e-10


def test_crossing_validation():
    with pytest.raises(ModelError):
        crossing(5, 1, 1, 0.5)  # below the Landau level
    with pytest.raises(ModelError):
        crossing(3, 0, 1, 2.0)  # negative coupling excluded
    with pytest.raises(ModelError):
        crossing(5, 1, 2, 2.0)  # E below the p=2 Landau level E_2 = 3


def test_crossing_state_mass_localization():
    # the crossing eigenfunction concentrates near xi_m:
    # mass within C(eps) = sqrt(E/eps) of xi_m is at least 1 - eps
    energy, eps = 2.0, 0.1
    res = crossing(5, 4, 1, energy)
    radius = res.xi + 10.0
    grid = Grid(radius, int(radius * 240))
    pair = solve_fiber(ModelParams(5, 4, res.xi), grid, 1)[0]
    r = grid.nodes
    u2 = pair.vector**2
    c_eps = np.sqrt(energy / eps)
    inside = np.abs(r - res.xi) <= c_eps
    assert grid.h * np.sum(u2[inside]) >= 1.0 - eps
    # inner-mass bound: below R_m = sqrt(k * atilde / E) at most atilde
    atilde = 0.5
    r_m = np.sqrt(res.coupling * atilde / energy)
    assert grid.h * np.sum(u2[r <= r_m]) <= atilde


def test_scaling_study_small():
    study = scaling_study(5, 1, 2.0, [5, 6, 8])
    assert np.all(np.diff(study.xi) > 0)  # xi_m grows with m
    assert np.all(study.slope < 0)
    # already close to the limit laws at these m
    assert study.xi_regression == pytest.approx(0.5, abs=0.1)
    assert study.slope_regression == pytest.approx(-0.5, abs=0.2)
    spread = np.max(study.xi_over_sqrtk) / np.min(study.xi_over_sqrtk)
    assert spread <= 2.0


def test_scaling_study_validation():
    with pytest.raises(ModelError):
        scaling_study(5, 1, 3.0, [5, 6])  # Landau level
    with pytest.raises(ModelError):
        scaling_study(5, 1, 2.0, [0, 1])  # m >= 1 and >= 2 fit points >= 5
    with pytest.raises(ModelError):
        scaling_study(5, 1, 2.0, [])


# ----------------------------------------------------------------- Agmon


def agmon_setup(n=4, m=1, energy=2.0, radius=40.0, intervals=2000, alpha=2.0):
    params_probe = ModelParams(n, m, 0.0)
    k = params_probe.k
    xi = float(np.sqrt(k / (energy - 1.0)))
    params = ModelParams(n, m, xi)
    grid = Grid(radius, intervals)
    return params, grid, agmon_weight(params, energy, grid, alpha)


def test_agmon_weight_vanishes_on_well():
    params, grid, w = agmon_setup()
    r_minus, r_plus = turning_points(params, w.energy)
    r = grid.nodes
    inside = (r >= r_minus) & (r <= r_plus)
    assert np.all(w.values[inside] == 0.0)
    assert np.all(w.values[~inside] > 0.0)
    # monotone growth away from the well on both sides
    left = r < r_minus
    assert np.all(np.diff(w.values[left]) < 0)
    right = r > r_plus
    assert np.all(np.diff(w.values[right]) > 0)


def test_agmon_weight_matches_adaptive_quadrature():
    # eikonal identity: Phi(r) = delta * integral of sqrt((V-E)+) from the well
    params, grid, w = agmon_setup()
    r_minus, r_plus = turning_points(params, w.energy)

    def g(r):
        return np.sqrt(max(potential(params, r) - w.energy, 0.0))

    r = grid.nodes
    for target in (0.2, r_plus + 1.0, r_plus + 10.0, 35.0):
        j = int(np.argmin(np.abs(r - target)))
        if r_minus <= r[j] <= r_plus:
            continue
        a, b = (r[j], r_minus) if r[j] < r_minus else (r_plus, r[j])
        ref = w.delta * quad(g, a, b, limit=200)[0]
        assert w.values[j] == pytest.approx(ref, rel=5e-4, abs=5e-4)


def test_agmon_weight_boundary_laws():
    params, grid, w = agmon_setup()
    r = grid.nodes
    # small r: Phi ~ -alpha ln r + O(1)
    j1, j2 = 2, 20
    growth = w.values[j1] - w.values[j2]
    assert growth == pytest.approx(w.alpha * np.log(r[j2] / r[j1]), rel=0.05)
    # large r: Phi / (delta r^2 / 2) -> 1 from below
    ratio = w.values[-1] / (w.delta * r[-1] ** 2 / 2.0)
    assert 0.85 <= ratio <= 1.0


def test_agmon_weight_validation():
    params = ModelParams(4, 1, 2.0)
    grid = Grid(20.0, 800)
    with pytest.raises(ModelError):
        agmon_weight(params, 2.0, grid, alpha=1.2)  # alpha must exceed 3/2
    with pytest.raises(ModelError):
        agmon_weight(ModelParams(4, 0, 2.0), 2.0, grid)  # k = 0
    with pytest.raises(ModelError):
        agmon_weight(params, -5.0, grid)  # below min V


def test_agmon_norm_matches_direct_sum():
    # m large enough that delta = alpha/sqrt(k) < 1 and e^Phi u decays
    params, grid, w = agmon_setup(m=6, radius=25.0, intervals=1500)
    pair = solve_fiber(params, grid, 1)[0]
    value = agmon_norm(pair, w, grid)
    direct = np.sqrt(grid.h * np.sum(np.exp(2 * w.values) * pair.vector**2))
    assert np.isfinite(value)
    assert value == pytest.approx(direct, rel=1e-10)


def test_agmon_norm_overflow_guard():
    from magband import AgmonOverflowError

    params, grid, w = agmon_setup(m=6, radius=25.0, intervals=1500)
    pair = solve_fiber(params, grid, 1)[0]
    huge = AgmonWeight(w.delta, w.alpha, w.energy,
                       np.full_like(w.values, 900.0), w.well)
    with pytest.raises(AgmonOverflowError):
        agmon_norm(pair, huge, grid)
