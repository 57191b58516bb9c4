"""Band sweeps, crossings, scaling laws, Agmon weights."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import LinAlgError

import magband.acceptance
import magband.bands
import magband.solver
from magband import (
    BracketError,
    ConvergenceError,
    Grid,
    ModelError,
    ModelParams,
    agmon_norm,
    agmon_weight,
    crossing,
    derivative_boundary_form,
    derivative_feynman_hellmann,
    landau_level,
    potential,
    refined_sweep,
    scaling_study,
    solve_fiber,
    sweep,
    turning_points,
)
from magband.solver import (
    REACH,
    _bisect_fiber,
    _continue_fiber,
    _follow,
    _window,
    rayleigh_quotient,
)

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


def test_sweep_validates_inputs():
    with pytest.raises(ModelError):
        sweep(5, [0], [1], np.array([1.0, 0.5]), SWEEP_GRID)  # not increasing
    with pytest.raises(ModelError):
        sweep(5, [0], [], np.array([0.0, 1.0]), SWEEP_GRID)
    with pytest.raises(ModelError):
        sweep(5, [0], [0], np.array([0.0, 1.0]), SWEEP_GRID)  # p >= 1


@pytest.mark.parametrize("xi", [[0.0, np.nan, -1.0, 1.0], [0.0, np.inf], [-np.inf, 0.0], [np.nan]])
def test_sweeps_refuse_non_finite_samples_before_any_fiber_step(monkeypatch, xi):
    # [0, nan, -1, 1] passed the ascending check, and its NaN was refused
    # only after the first sample's fiber step
    monkeypatch.setattr(magband.bands, "_follow", _no_fiber_step)
    for run in (sweep, refined_sweep):
        with pytest.raises(ModelError, match="xi_samples must be finite"):
            run(5, [1], [1], xi, SWEEP_GRID)


@pytest.mark.parametrize("xi", [["a"], [0.0, 1j], [[0.0], [1.0, 2.0]]])
def test_sweeps_refuse_non_numeric_samples_before_any_fiber_step(monkeypatch, xi):
    # np.asarray raised a plain ValueError or TypeError (exit 1 from the CLI)
    monkeypatch.setattr(magband.bands, "_follow", _no_fiber_step)
    for run in (sweep, refined_sweep):
        with pytest.raises(ModelError, match="xi_samples must be real numbers"):
            run(5, [1], [1], xi, SWEEP_GRID)


def test_sweep_refuses_a_grid_whose_wall_is_in_the_well(monkeypatch):
    # on Grid(20, 4800) the wall cuts the m=1 wells at xi = 19 and 25: the
    # values were 1.479 and 36.46 with positive slopes, for a band near 1.01.
    # The wall is too close even at value 0, so no sample is solved.
    monkeypatch.setattr(magband.bands, "_follow", None)
    with pytest.raises(ModelError, match=r"xi=25\.0\).* a radius of 30\.29\d* is admitted"):
        sweep(5, [1], [1, 2], [19.0, 25.0], Grid(20.0, 4800))


def test_sweep_refuses_a_band_the_grid_does_not_admit():
    # at xi = 14.2 on Grid(20, 4800) the wall lies 16.8 Agmon lengths past
    # the well of value 0, but fewer than REACH past that of band 2 (~3.0):
    # the sample is solved, then refused
    with pytest.raises(ModelError, match=r"xi=14\.2\).* past the well of lambda=3\.0"):
        sweep(5, [1], [1, 2], [13.0, 14.2], Grid(20.0, 4800))


def test_sweep_high_frequency_regime():
    # far on the negative side the band rides the parabola: lambda ~ xi^2,
    # lambda' ~ 2 xi; at xi = -30 the relative corrections are a few percent
    xi = np.array([-30.0])
    curves = sweep(5, [0, 1], [1], xi, Grid(12.0, 1200))
    for c in curves:
        assert 1.0 <= c.values[0] / 900.0 <= 1.1
        assert abs(c.slope_fh[0] - 2 * (-30.0)) <= 0.1 * 60.0


def test_sweep_continuation_matches_bisection_on_check_02(monkeypatch):
    # check 02's sweep: the continued samples agree with a per-sample
    # bisection solve, and nearly every sample is continued
    grid = Grid(20.0, 4800)
    xi = -1.0 + 0.05 * np.arange(141)
    calls = _count_eigensolves(monkeypatch)
    curves = sweep(5, range(7), (1, 2, 3), xi, grid)
    assert len(calls) <= 50
    for m in range(7):
        for i in range(0, xi.size, 7):
            params = ModelParams(5, m, xi[i])
            pairs = _bisect_fiber(params, grid, 3)
            for p in (1, 2, 3):
                (c,) = [c for c in curves if (c.m, c.p) == (m, p)]
                pair = pairs[p - 1]
                assert abs(c.values[i] - pair.value) <= 1e-9
                assert abs(c.slope_fh[i] - derivative_feynman_hellmann(params, pair, grid)) <= 1e-10
                assert abs(c.slope_bd[i] - derivative_boundary_form(params, pair, grid)) <= 1e-10


def test_sweep_value_depends_on_previous_sample_only_by_rounding():
    grid = Grid(16.0, 1200)
    alone = sweep(5, [3], (1, 2, 3), [1.0], grid)
    for xi in ([0.0, 0.5, 1.0], [0.9, 1.0]):
        continued = sweep(5, [3], (1, 2, 3), xi, grid)
        for a, c in zip(alone, continued):
            assert abs(c.values[-1] - a.values[0]) <= 1e-12 * a.values[0]
            assert abs(c.slope_fh[-1] - a.slope_fh[0]) <= 1e-11


def _assert_matches_fresh_solves(curve, grid: Grid):
    """Each sample of `curve` against a sweep of that xi alone, to rounding."""
    for i, x in enumerate(curve.xi):
        (alone,) = sweep(curve.n, [curve.m], [curve.p], [x], grid)
        assert abs(curve.values[i] - alone.values[0]) <= 1e-12 * alone.values[0], x
        assert abs(curve.slope_fh[i] - alone.slope_fh[0]) <= 1e-11, x


def test_dense_sweep_takes_one_rayleigh_step_per_sample(monkeypatch):
    # from the third sample on, the start extrapolated from the two samples
    # before it needs one tridiagonal LU factorization (two at first order)
    grid = Grid(15.0, 1800)
    xi = 0.5 + np.arange(201) / 80.0
    factorizations = []
    lapack = magband.solver.lapack

    def dgttrf(*args, **kwargs):
        factorizations[-1] += 1
        return lapack.dgttrf(*args, **kwargs)

    def sample(*args, _follow=magband.bands._follow):
        factorizations.append(0)
        return _follow(*args)

    monkeypatch.setattr(magband.solver, "lapack", SimpleNamespace(
        dgttrf=dgttrf, dgttrs=lapack.dgttrs, dstebz=lapack.dstebz
    ))
    monkeypatch.setattr(magband.bands, "_follow", sample)
    (curve,) = sweep(5, [1], [1], xi, grid)
    assert factorizations[2:] == [1] * (xi.size - 2)
    monkeypatch.undo()
    _assert_matches_fresh_solves(curve, grid)


@pytest.mark.parametrize("xi", [
    [0.5, 0.6, 0.7, 0.7, 0.8, 0.9, 1.0],  # a repeated xi (dxi = 0)
    [0.5, 0.51, 0.6, 0.61, 0.9, 0.95, 1.6, 1.61],  # uneven spacing
])
def test_second_order_start_keeps_values_to_rounding(xi):
    grid = Grid(15.0, 1800)
    (curve,) = sweep(5, [1], [1], xi, grid)
    _assert_matches_fresh_solves(curve, grid)


def test_followed_fibers_keep_no_chain():
    # each fiber keeps the sample before it as plain arrays, not as a fiber
    grid = Grid(15.0, 1800)
    f0 = _follow(ModelParams(5, 1, 0.5), grid, 2, None)
    f1 = _follow(ModelParams(5, 1, 0.55), grid, 2, f0)
    f2 = _follow(ModelParams(5, 1, 0.6), grid, 2, f1)
    assert f0.before is None and f1.before is not None and f2.before is not None
    refs = weakref.ref(f0), weakref.ref(f1)
    del f0
    gc.collect()
    assert refs[0]() is None
    del f1
    gc.collect()
    assert refs[1]() is None
    assert f2.before[0] == 0.55


def test_follow_evaluates_the_potential_once_per_fiber(monkeypatch):
    # one evaluation per followed sample serves its continuation and all three
    # Rayleigh quotients; the first sample's nested solve adds one per grid
    calls = []
    for module in (magband.bands, magband.solver):
        def counted(params, r, _original=module.potential):
            calls.append(r.size)
            return _original(params, r)

        monkeypatch.setattr(module, "potential", counted)
    xi = np.linspace(0.0, 2.0, 21)
    sweep(5, [2], (1, 2, 3), xi, SWEEP_GRID)
    assert len(calls) == xi.size + 2
    # and the quotients are the public one's, to the bit
    res = crossing(5, 2, 1, 2.0)
    quotient = rayleigh_quotient(ModelParams(5, 2, res.xi), res.pair, res.grid)
    assert abs(quotient - 2.0) == res.residual


def test_sweep_with_wide_steps_falls_back_to_bisection(monkeypatch):
    # dxi >= 2 leaves the predicted shifts far off: uncertified steps fall
    # back to a nested solve, bisected on its coarse grid, and the bands are
    # still the bisection bands
    grid = Grid(30.0, 3600)
    xi = np.arange(-1.0, 12.0, 2.0)
    log, _ = _record_fiber_solves(monkeypatch)
    fallbacks = 0
    for m in (0, 3, 6):
        before = len(log)
        curves = sweep(5, [m], (1, 2, 3), xi, grid)
        assert log[before] == ("bisect", grid.intervals // 8)
        fallbacks += [kind for kind, _ in log[before:]].count("bisect") - 1
        for i, x in enumerate(xi):
            pairs = _bisect_fiber(ModelParams(5, m, x), grid, 3)
            for c, pair in zip(curves, pairs):
                assert abs(c.values[i] - pair.value) <= 1e-9
    assert 1 <= fallbacks <= 3 * (xi.size - 1)


def _continuation_seed(m: int, grid: Grid):
    """Eigenpairs 1..4 at xi = 1 with their predicted shifts at xi = 1.05."""
    before = ModelParams(5, m, 1.0)
    pairs = _bisect_fiber(before, grid, 4)
    shifts = [
        rayleigh_quotient(before, pair, grid)
        + 0.05 * derivative_feynman_hellmann(before, pair, grid)
        for pair in pairs
    ]
    return ModelParams(5, m, 1.05), pairs, shifts


def _continue(params: ModelParams, grid: Grid, pairs, shifts):
    """`_continue_fiber` from the vectors of `pairs`, 0.05 away in xi on the
    same grid, on the window the fiber step would take."""
    vectors = [pair.vector for pair in pairs]
    return _continue_fiber(
        grid, vectors, shifts, potential(params, grid.nodes), _window(grid, vectors, 0.05)
    )


def test_continuation_certifies_a_good_seed():
    grid = Grid(20.0, 4800)
    params, pairs, shifts = _continuation_seed(2, grid)
    continued = _continue(params, grid, pairs[:3], shifts[:3])
    assert continued is not None
    for got, want in zip(continued, _bisect_fiber(params, grid, 3)):
        assert abs(got.value - want.value) <= 1e-9
        assert np.max(np.abs(got.vector - want.vector)) <= 1e-6 * np.max(np.abs(want.vector))


@pytest.mark.parametrize("seed", ["band 2 for band 1", "bands 1 and 2 swapped", "shift near lambda_4"])
def test_continuation_rejects_a_wrong_seed(seed):
    # each seed converges to eigenpairs that are not the lowest three in order
    grid = Grid(20.0, 4800)
    params, pairs, shifts = _continuation_seed(2, grid)
    order = {"band 2 for band 1": [1, 1, 2], "bands 1 and 2 swapped": [1, 0, 2]}.get(seed, [0, 1, 2])
    previous, shifts = [pairs[i] for i in order], [shifts[i] for i in order]
    if seed == "shift near lambda_4":
        shifts[2] = _bisect_fiber(params, grid, 4)[3].value + 1e-7
    assert _continue(params, grid, previous, shifts) is None


def test_continuation_above_the_blas_threading_size():
    # check 12's m = 128 witness grid: 11 498 rows, where BLAS dot products
    # run threaded; the continued value still matches bisection.  k/h^2 makes
    # the bisection value scatter by ~1e-8 here, so compare Rayleigh quotients.
    grid = Grid(11499 / 60.0, 11499)
    before = ModelParams(5, 128, 150.0)
    (pair,) = solve_fiber(before, grid, 1)
    shift = rayleigh_quotient(before, pair, grid) + 0.05 * derivative_feynman_hellmann(
        before, pair, grid
    )
    params = ModelParams(5, 128, 150.05)
    (got,) = _continue(params, grid, [pair], [shift])
    (want,) = _bisect_fiber(params, grid, 1)
    value = rayleigh_quotient(params, want, grid)
    assert abs(rayleigh_quotient(params, got, grid) - value) <= 1e-9
    assert abs(got.value - value) <= 1e-9


def test_crossing_hits_requested_energy():
    res = crossing(5, 2, 1, 2.0)
    assert res.coupling == pytest.approx(8.75)
    assert res.residual <= 1e-8
    assert res.slope < 0
    # independent re-solve at the reported momentum
    grid = Grid(res.xi + 10.0, int((res.xi + 10.0) * 240))
    val = _bisect_fiber(ModelParams(5, 2, res.xi), grid, 1)[0].value
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


def _record_fiber_solves(monkeypatch) -> tuple[list, dict]:
    """Record ("bisect" | "continue", grid intervals) for each solve of the
    fiber step, nested ones included, and count the rows of the
    continuations' LU factorizations and Sturm counts (through
    `magband.solver.lapack`): "lu" and "sturm", against "lu_grid" and
    "sturm_grid", the rows the same calls take on the whole grid."""
    log, rows = [], dict.fromkeys(("lu", "lu_grid", "sturm", "sturm_grid"), 0)
    bisect, continue_ = magband.solver._bisect_fiber, magband.solver._continue_fiber
    lapack = magband.solver.lapack

    def bisected(params, grid, count):
        log.append(("bisect", grid.intervals))
        return bisect(params, grid, count)

    def continued(grid, *args):
        log.append(("continue", grid.intervals))
        return continue_(grid, *args)

    def counted(routine, kind, diagonal_arg):
        def call(*args, **kwargs):
            rows[kind] += args[diagonal_arg].size
            rows[kind + "_grid"] += log[-1][1] - 1  # the continuation running now
            return routine(*args, **kwargs)

        return call

    monkeypatch.setattr(magband.solver, "_bisect_fiber", bisected)
    monkeypatch.setattr(magband.solver, "_continue_fiber", continued)
    monkeypatch.setattr(magband.solver, "lapack", SimpleNamespace(
        dgttrf=counted(lapack.dgttrf, "lu", 1),  # dgttrf(dl, d, du)
        dgttrs=lapack.dgttrs,
        dstebz=counted(lapack.dstebz, "sturm", 0),  # dstebz(d, e, ...)
    ))
    return log, rows


def test_check_09_continuations_work_on_the_rows_the_mode_occupies(monkeypatch):
    # m = 10..40 at E = 2: the wells sit far from the axis, and the window
    # leaves out the rows between the axis and the well
    log, rows = _record_fiber_solves(monkeypatch)
    assert magband.acceptance.check_agmon_uniformity().passed
    assert sum(kind == "continue" for kind, _ in log) >= 31
    assert 0 < rows["lu"] <= 0.6 * rows["lu_grid"]
    assert 0 < rows["sturm"] <= 0.6 * rows["sturm_grid"]


@pytest.mark.parametrize("n,m,p,energy", [(5, 20, 1, 2.0), (5, 40, 2, 3.6)])
def test_crossing_bisects_nothing_and_continues(monkeypatch, n, m, p, energy):
    # the first iterate continues from the closed-form start of its harmonic
    # well, and every later one from the iterates before it: no matrix is
    # bisected and no nested solve (a call of solver._follow) runs
    calls = _count_eigensolves(monkeypatch)
    log, _ = _record_fiber_solves(monkeypatch)
    monkeypatch.setattr(magband.solver, "_follow", None)
    res = crossing(n, m, p, energy)
    assert res.residual <= 1e-8
    assert len(calls) == 0
    assert len(log) >= 2 and all(kind == "continue" for kind, _ in log)


def test_crossing_continues_across_a_grown_grid(monkeypatch):
    # the seed xi_0 = 0 at k_m = 0 lies on the base grid; Newton heads out and
    # the grid grows between iterates, so the previous vectors continue
    # interpolated, with zeros past the old wall
    log, _ = _record_fiber_solves(monkeypatch)
    step = 1.0 / 24.0
    res = crossing(5, 0, 2, 3.1, step=step)
    sizes = [intervals for _, intervals in log]
    assert [kind for kind, _ in log] == ["bisect"] + ["continue"] * (len(log) - 1)
    assert any(b > a for a, b in zip(sizes, sizes[1:]))
    value = oracles.dense_fiber_eigenvalues(
        res.coupling, res.xi, sizes[-1] * step, sizes[-1], 2
    )[1]
    assert abs(value - 3.1) <= 1e-8 + 1e-10


@pytest.mark.parametrize("n,m,p,energy", [(5, 20, 1, 2.0), (5, 40, 2, 3.6)])
def test_crossing_without_continuation_bisects_every_iterate(monkeypatch, n, m, p, energy):
    continued = crossing(n, m, p, energy)
    log, _ = _record_fiber_solves(monkeypatch)
    monkeypatch.setattr(magband.solver, "_continue_fiber", lambda *args: None)
    bisected = crossing(n, m, p, energy)
    assert abs(bisected.xi - continued.xi) <= 1e-12
    assert abs(bisected.residual - continued.residual) <= 1e-12
    assert abs(bisected.slope - continued.slope) <= 1e-9 * abs(bisected.slope)
    assert len(log) >= 2 and all(kind == "bisect" for kind, _ in log)


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
    assert res.grid.h == pytest.approx(step, rel=1e-12)
    assert oracles.agmon_reach_reference(res.xi, energy, res.grid.radius) >= REACH
    # the same step with the wall 10 further out: the wall does not move the crossing
    value = oracles.dense_fiber_eigenvalues(
        res.coupling, res.xi, res.grid.radius + 240 * step, res.grid.intervals + 240, p
    )[p - 1]
    assert abs(value - energy) <= 1e-8 + 1e-10
    # the eigenpair handed back is the p-th one at xi, on that grid
    u = res.pair.vector
    assert u.size == res.grid.intervals - 1
    signs = np.signbit(u[np.abs(u) > 1e-8 * np.max(np.abs(u))])
    assert np.count_nonzero(signs[1:] != signs[:-1]) == p - 1
    quotient = rayleigh_quotient(ModelParams(n, m, res.xi), res.pair, res.grid)
    assert abs(quotient - value) <= 1e-8 + 1e-10


def test_crossing_names_the_fiber_when_its_bisection_fails(monkeypatch):
    def failing(*args, **kwargs):
        raise LinAlgError("eigenvalues failed to converge")

    monkeypatch.setattr(magband.solver, "eigh_tridiagonal", failing)
    with pytest.raises(ConvergenceError, match=r"\(m=2, xi=[-0-9.e]+\): tridiagonal"):
        crossing(5, 2, 1, 2.0)


def test_agmon_check_reads_the_crossing_pair(monkeypatch):
    # check 09 starts one fresh fiber for each of its 31 crossings and solves
    # nothing more: no bisection, no nested solve and no second solve of the
    # crossing pair (`solve_fiber` and the nested solve call solver._follow)
    calls = _count_eigensolves(monkeypatch)
    fresh = []

    def follow(params, grid, count, previous, _follow=magband.bands._follow):
        fresh.append(previous is None)
        return _follow(params, grid, count, previous)

    monkeypatch.setattr(magband.bands, "_follow", follow)
    monkeypatch.setattr(magband.solver, "_follow", None)
    assert magband.acceptance.check_agmon_uniformity().passed
    assert len(calls) == 0 and sum(fresh) == 31


def test_crossing_validation():
    with pytest.raises(ModelError):
        crossing(5, 1, 1, 0.5)  # below the Landau level
    with pytest.raises(ModelError):
        crossing(3, 0, 1, 2.0)  # negative coupling excluded
    with pytest.raises(ModelError):
        crossing(5, 1, 2, 2.0)  # E below the p=2 Landau level E_2 = 3


@pytest.mark.parametrize("gap", [1e-15, 1e-9])
def test_crossing_refuses_an_oversized_grid(monkeypatch, gap):
    # E - E_p this small seeds xi ~ sqrt(k/gap): the grid reaching it would
    # need far more than 2^22 intervals, so the request fails before a solve
    calls = []
    monkeypatch.setattr(magband.solver, "eigh_tridiagonal",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ModelError, match="intervals"):
        crossing(5, 3, 1, 1.0 + gap)
    assert calls == []


def test_crossing_state_mass_localization():
    # the crossing eigenfunction concentrates near xi_m:
    # mass within C(eps) = sqrt(E/eps) of xi_m is at least 1 - eps
    energy, eps = 2.0, 0.1
    res = crossing(5, 4, 1, energy)
    grid, pair = res.grid, res.pair
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


def test_scaling_study_validation(monkeypatch):
    # E = E_2 is a Landau level, but not band 1's: its crossings are crossing's
    study = scaling_study(5, 1, 3.0, [5, 6])
    assert study.xi[0] == crossing(5, 5, 1, 3.0).xi
    monkeypatch.setattr(magband.bands, "_follow", _no_fiber_step)
    with pytest.raises(ModelError):
        scaling_study(5, 1, 2.0, [0, 1])  # m >= 1 and >= 2 fit points >= 5
    with pytest.raises(ModelError, match="two entries with m >= 5"):
        scaling_study(5, 1, 2.0, [1, 2, 3, 4, 5])
    with pytest.raises(ModelError):
        scaling_study(5, 1, 2.0, [])
    with pytest.raises(ModelError, match="E_p=3.0"):
        scaling_study(5, 2, 3.0, [5, 6])  # E must exceed band 2's E_2


def _no_fiber_step(*args):
    raise AssertionError("a fiber step ran before the input was checked")


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
    huge = replace(w, values=np.full_like(w.values, 900.0))
    with pytest.raises(AgmonOverflowError):
        agmon_norm(pair, huge, grid)


def test_agmon_norm_refuses_a_weight_from_another_grid():
    # same node count would not catch it: the radii differ, so the weight's
    # values sit at other r than the pair's entries
    params = ModelParams(5, 10, 8.0)
    grid = Grid(30.0, 4800)
    pair = solve_fiber(params, grid, 1)[0]
    weight = agmon_weight(params, 2.0, Grid(20.0, 4800))
    with pytest.raises(ModelError, match="weight was built on"):
        agmon_norm(pair, weight, grid)


def test_agmon_norm_refuses_a_pair_from_another_grid():
    params = ModelParams(5, 10, 8.0)
    grid = Grid(20.0, 4800)
    pair = solve_fiber(params, Grid(20.0, 2400), 1)[0]
    weight = agmon_weight(params, 2.0, grid)
    with pytest.raises(ModelError, match="2399 entries"):
        agmon_norm(pair, weight, grid)


def test_refined_band_validates_samples():
    grid = Grid(12.0, 600)
    with pytest.raises(ModelError):
        refined_sweep(5, [1], [1], [], grid)
    with pytest.raises(ModelError):
        refined_sweep(5, [1], [1], [2.0, 1.0], grid)  # not increasing


def test_refined_band_is_richardson_of_two_sweeps(monkeypatch):
    # one sweep per grid: a bisection for each m's first sample, continuation
    # after; entries come in (m, p) order, each the fine curve with its
    # Richardson record
    grid = Grid(20.0, 400)
    xi = 1.0 + 0.5 * np.arange(15)
    calls = _count_eigensolves(monkeypatch)
    refined = refined_sweep(5, [2, 1], [2, 1], xi, grid)
    assert len(calls) == 2 * 2
    assert [(band.m, band.p) for band, _ in refined] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for m in (1, 2):
        k = float(oracles.coupling_reference(5, m))
        coarse, fine = (
            np.array([oracles.dense_fiber_eigenvalues(k, x, 20.0, g, 2) for x in xi]).T
            for g in (400, 800)
        )
        for band, rv in refined[2 * (m - 1):2 * m]:
            a, b = coarse[band.p - 1], fine[band.p - 1]
            assert np.array_equal(band.xi, xi) and np.array_equal(band.values, rv.fine)
            assert np.max(np.abs(rv.value - (4.0 * b - a) / 3.0)) <= 1e-9
            assert np.max(rv.error) == pytest.approx(np.max(np.abs(b - a)) / 3.0, rel=1e-6)


@pytest.mark.parametrize("n, m, xi, grid", [
    (5, 1, 8.0 + 0.5 * np.arange(15), Grid(30.0, 7200)),
    (4, 0, 2.5 + 0.1 * np.arange(11), Grid(12.0, 4800)),
], ids=["check-04", "check-10"])
def test_refined_band_continues_every_sample_on_the_acceptance_inputs(monkeypatch, n, m, xi, grid):
    # every sample is continued at its first attempt on both grids: the first
    # from its harmonic well or a nested solve, the later ones from the samples
    # before them; only a nested solve's coarse grid below 512 intervals is
    # bisected
    log, _ = _record_fiber_solves(monkeypatch)
    ((_, rv),) = refined_sweep(n, [m], [1], xi, grid)
    sizes = (grid.intervals, 2 * grid.intervals)
    assert [kind for kind, size in log if size in sizes] == ["continue"] * (2 * xi.size)
    assert all(size < 512 for kind, size in log if kind == "bisect")
    assert np.all(np.diff(rv.value) < 0) and 0 < np.max(rv.error) < 1e-6
