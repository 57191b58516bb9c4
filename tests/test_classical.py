"""Classical motion in the unit azimuthal field: invariants, drift, period."""

from __future__ import annotations

import os
import shutil
import stat
import tracemalloc
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from magband import (
    AxisApproachError,
    ClassicalState,
    ModelError,
    effective_velocity,
    integrate,
    radial_period,
)
from magband import classical
from magband.classical import TrajectoryResult

import oracles


STATE = ClassicalState(1.2, 0.0, 0.0, 0.1, 0.5, 0.3)


def test_invariants_conserved():
    traj = integrate(STATE, 50.0, 1e-3)
    assert traj.energy_drift < 1e-10
    assert traj.sigma_drift < 1e-10
    assert traj.c_drift < 1e-10


def test_against_adaptive_reference():
    t_max, dt = 20.0, 1e-3
    traj = integrate(STATE, t_max, dt)
    idx = np.arange(0, len(traj.times), 1000)
    ref = oracles.reference_trajectory(
        (STATE.x, STATE.y, STATE.z, STATE.vx, STATE.vy, STATE.vz),
        traj.times[idx],
    )
    ours = np.array([[s.x, s.y, s.z, s.vx, s.vy, s.vz]
                     for s in (traj.state(i) for i in idx)]).T
    assert np.max(np.abs(ours - ref)) < 1e-8


def test_rk4_error_order():
    # halving dt should shrink the endpoint error ~16x
    t_max = 10.0
    ref = oracles.reference_trajectory(
        (STATE.x, STATE.y, STATE.z, STATE.vx, STATE.vy, STATE.vz),
        np.array([0.0, t_max]),
    )[:, -1]

    def endpoint_error(dt):
        traj = integrate(STATE, t_max, dt)
        s = traj.state(len(traj.times) - 1)
        return np.max(np.abs(np.array([s.x, s.y, s.z, s.vx, s.vy, s.vz]) - ref))

    # steps coarse enough that the reference error (~1e-13) stays invisible
    e1, e2 = endpoint_error(1.6e-2), endpoint_error(8e-3)
    assert e1 / e2 == pytest.approx(16.0, rel=0.25)


def test_classical_mirror_identity():
    # rdot^2 + sigma^2/r^2 + (r - xi_c)^2 = E with xi_c = -(vz - r):
    # the classical twin of the quantum fiber potential
    traj = integrate(STATE, 30.0, 1e-3)
    xs = [traj.state(i) for i in range(0, len(traj.times), 500)]
    e0 = traj.energy[0]
    sigma0 = traj.sigma[0]
    xi_c = -(STATE.vz - STATE.r)
    for s in xs:
        rdot = (s.x * s.vx + s.y * s.vy) / s.r
        lhs = rdot**2 + sigma0**2 / s.r**2 + (s.r - xi_c) ** 2
        assert lhs == pytest.approx(e0, abs=1e-6)


def test_radial_period_against_quadrature():
    traj = integrate(STATE, 50.0, 1e-3)
    est = radial_period(traj)
    e0, sigma0 = traj.energy[0], traj.sigma[0]
    xi_c = -(STATE.vz - STATE.r)
    r_lo, r_hi = oracles.turning_points_reference(sigma0**2, xi_c, e0)

    ref = 2.0 * quad(
        lambda r: 1.0 / np.sqrt(max(e0 - sigma0**2 / r**2 - (r - xi_c) ** 2, 1e-300)),
        r_lo, r_hi, limit=400,
    )[0]
    assert est.value == pytest.approx(ref, rel=1e-4)
    assert est.spread < 1e-6 * est.value
    assert len(est.minima) >= 5


def test_effective_velocity_consistency():
    traj = integrate(STATE, 100.0, 1e-3)
    v = effective_velocity(traj)
    assert v.formula == pytest.approx(v.fit, rel=0.02)
    assert abs(v.fit) <= v.bound
    assert v.bound == pytest.approx(traj.energy[0] ** 1.5 / abs(traj.sigma[0]))


def _check_11_trajectories():
    """The five trajectories of acceptance check 11, one at a time."""
    rng = np.random.default_rng(1618)
    for _ in range(5):
        r0 = float(rng.uniform(0.8, 1.6))
        while True:
            vx, vy, vz = (float(v) for v in rng.uniform(-0.8, 0.8, size=3))
            if r0 * abs(vy) >= 0.2:
                break
        yield integrate(ClassicalState(r0, 0.0, 0.0, vx, vy, vz), 200.0, 1e-3)


def test_the_drift_fit_is_polyfit_on_check_11():
    # the closed-form line against np.polyfit's Vandermonde least squares
    for traj in _check_11_trajectories():
        fit = effective_velocity(traj).fit
        assert fit == pytest.approx(np.polyfit(traj.times, traj.states[:, 2], 1)[0], rel=1e-12)


def test_the_drift_analysis_holds_at_most_four_and_a_half_series():
    # tracemalloc's peak inside effective_velocity on a fresh trajectory of
    # `magband classical`'s default length, in series of N floats: three are
    # the radius, sigma and energy it keeps, and the z(t) line's two
    # temporaries are gone before sigma and energy are formed
    traj = integrate(STATE, 200.0, 1e-3)
    assert traj.times.size == 200_001
    fresh = TrajectoryResult(traj.times, traj.states, traj.dt)
    tracemalloc.start()
    try:
        effective_velocity(fresh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * traj.times.nbytes


def _loop_minima(traj):
    """The interpolated minima of r(t) by a scalar loop over the samples."""
    r, times = traj.radius, []
    for i in range(1, r.size - 1):
        if r[i] < r[i - 1] and r[i] < r[i + 1]:
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            if denom > 0.0:
                times.append(traj.times[i] + 0.5 * traj.dt * (r[i - 1] - r[i + 1]) / denom)
    return np.array(times)


def test_the_analysis_is_bit_identical_to_scalar_loops():
    traj = integrate(ClassicalState(0.9, 0.0, 0.0, -0.6, 0.35, 0.7), 30.0, 1e-3)
    assert np.array_equal(radial_period(traj).minima, _loop_minima(traj))
    s = traj.states
    assert np.array_equal(traj.sigma, s[:, 0] * s[:, 4] - s[:, 1] * s[:, 3])
    series = traj.c_invariant
    assert traj.c_drift == float(
        np.max(np.abs(series - series[0]))
        / max(abs(series[0]), max(traj.radius[0] + sqrt(traj.energy[0]), 1e-12))
    )


def test_axis_guard_at_every_stage(rk4_path):
    # one step toward the axis at vx = -1e-3 (no force: vz = 0): stage 2 sits
    # at x0 - dt/2, stage 4 at x0 - dt; from 1.8e-6 only the stage-4 guard
    # sees the floor
    for x0, reported in [(1.2e-6, "r=7.000e-07"), (1.8e-6, "r=8.000e-07")]:
        state = ClassicalState(x0, 0.0, 0.0, -1e-3, 0.0, 0.0)
        with pytest.raises(AxisApproachError, match=reported):
            integrate(state, 1e-3, 1e-3)


def _generator_rk4(initial, t_max, dt):
    """Reference RK4 loop written with per-stage generator expressions."""

    def rhs(x, y, z, vx, vy, vz):
        r = sqrt(x * x + y * y)
        return (vx, vy, vz, -vz * x / r, -vz * y / r, (vx * x + vy * y) / r)

    steps = int(round(t_max / dt))
    out = np.empty((steps + 1, 6))
    y = (initial.x, initial.y, initial.z, initial.vx, initial.vy, initial.vz)
    out[0] = y
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, steps + 1):
        k1 = rhs(*y)
        k2 = rhs(*(y[j] + half * k1[j] for j in range(6)))
        k3 = rhs(*(y[j] + half * k2[j] for j in range(6)))
        k4 = rhs(*(y[j] + dt * k3[j] for j in range(6)))
        y = tuple(
            y[j] + sixth * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]) for j in range(6)
        )
        out[i] = y
    return initial.t + dt * np.arange(steps + 1), out


@pytest.fixture
def kernel():
    """The admitted compiled stage loop; wherever a C compiler is found, the
    loader must admit it."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: integrate runs the Python loop")
    kernel = classical._rk4_kernel()
    assert kernel is not None
    return kernel


@pytest.fixture(params=["compiled", "python"])
def rk4_path(request, monkeypatch):
    """Run a test on the compiled kernel, then on the forced fallback."""
    if request.param == "python":
        monkeypatch.setattr(classical, "_rk4_kernel", lambda: None)
        yield request.param
        return
    kernel, calls = request.getfixturevalue("kernel"), []

    def counted(out, dt):
        calls.append(out.shape)
        return kernel(out, dt)

    monkeypatch.setattr(classical, "_KERNEL", counted)
    yield request.param
    assert calls, "integrate never ran the compiled kernel"


STATES = [
    ClassicalState(1.2, 0.0, 0.0, 0.1, 0.5, 0.3),
    ClassicalState(0.9, 0.0, 0.0, -0.6, 0.35, 0.7),
    ClassicalState(1.5, 0.0, 0.0, 0.45, -0.2, -0.55, t=3.0),
    ClassicalState(1.1, -0.4, 0.25, 0.3, 0.6, -0.45, t=-7.5),
]


@pytest.mark.parametrize("initial", STATES)
def test_integrate_is_bit_identical_to_the_generator_loop(initial, rk4_path):
    # one step, a t_max that rounds to 2000 steps, and the classical-drift
    # length, so a skipped or misplaced first or last row shows
    for t_max, steps in [(1e-3, 1), (2.0004, 2000), (20.0, 20000)]:
        times, states = _generator_rk4(initial, t_max, 1e-3)
        traj = integrate(initial, t_max, 1e-3)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.states.shape == (steps + 1, 6)
        assert traj.states.dtype == np.float64
        assert traj.states.flags.c_contiguous and traj.states.flags.writeable


@pytest.mark.parametrize("initial", STATES)
def test_the_kernel_is_bit_identical_to_the_python_loop_at_check_11_length(initial, kernel):
    compiled, python = np.empty((2, 200_001, 6))
    compiled[0] = python[0] = (initial.x, initial.y, initial.z, initial.vx, initial.vy, initial.vz)
    assert kernel(compiled, 1e-3) is None
    assert classical._python_rk4(python, 1e-3) is None
    assert np.array_equal(compiled, python)


def _flip_one_bit(rk4):
    def flipped(out, dt):
        radius = rk4(out, dt)
        out[17, 3:4].view(np.int64)[0] ^= 1  # the last mantissa bit of one vx
        return radius
    return flipped


def _resolve(monkeypatch, build):
    """The loader's answer, resolved afresh with `_compile` replaced by `build`."""
    monkeypatch.setattr(classical, "_compile", build)
    monkeypatch.setattr(classical, "_KERNEL", classical._UNRESOLVED)
    return classical._rk4_kernel()


def test_the_self_check_refuses_a_kernel_one_bit_off(kernel, monkeypatch):
    assert _resolve(monkeypatch, lambda: kernel) is kernel
    assert _resolve(monkeypatch, lambda: _flip_one_bit(kernel)) is None
    # refused, the Python loop runs: one bit off never reaches a trajectory
    _, states = _generator_rk4(STATE, 0.1, 1e-3)
    assert np.array_equal(integrate(STATE, 0.1, 1e-3).states, states)


@pytest.mark.parametrize("failure", [OSError("no such file"), AttributeError("magband_rk4")])
def test_a_failed_build_or_load_falls_back_to_the_python_loop(monkeypatch, failure):
    def fails():
        raise failure

    assert _resolve(monkeypatch, fails) is None
    _, states = _generator_rk4(STATE, 0.1, 1e-3)
    assert np.array_equal(integrate(STATE, 0.1, 1e-3).states, states)


def test_the_kernel_is_resolved_once_per_process(kernel, monkeypatch):
    calls = []

    def build():
        calls.append(1)
        return kernel

    assert _resolve(monkeypatch, build) is kernel
    assert classical._rk4_kernel() is kernel
    integrate(STATE, 0.1, 1e-3)
    assert calls == [1]


def _files(root: Path) -> dict:
    """Size and modification time of every file under root, .git aside."""
    found = {}
    for folder, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in names:
            info = os.stat(os.path.join(folder, name))
            found[os.path.join(folder, name)] = (info.st_size, info.st_mtime_ns)
    return found


def test_a_cold_build_writes_only_into_the_private_cache(kernel, monkeypatch, tmp_path):
    roots = [Path(classical.__file__).resolve().parent, Path(__file__).resolve().parent.parent]
    before = [_files(root) for root in roots]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cold = _resolve(monkeypatch, classical._compile)
    assert cold is not None and cold is not kernel
    assert [_files(root) for root in roots] == before
    cache = tmp_path / "cache" / "magband"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    (library,) = cache.iterdir()  # the temporary name is gone
    assert library.name.startswith("rk4-") and library.suffix == ".so"
    _, states = _generator_rk4(STATE, 0.1, 1e-3)
    assert np.array_equal(integrate(STATE, 0.1, 1e-3).states, states)


def test_a_cache_others_can_write_to_is_refused(monkeypatch, tmp_path):
    shared = tmp_path / "magband"
    shared.mkdir()
    shared.chmod(0o770)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert classical._cache_dir() is None
    assert _resolve(monkeypatch, classical._compile) is None
    assert list(shared.iterdir()) == []


def test_axis_crossing_detected(rk4_path):
    # creep toward the axis slowly enough that a sample must land inside the
    # guard radius (a fast crossing can step over it between samples)
    creeping = ClassicalState(2e-6, 0.0, 0.0, -9e-4, 0.0, 0.0)
    with pytest.raises(AxisApproachError, match=r"^trajectory reached r=6\.500e-07 < 1e-06; "):
        integrate(creeping, 0.01, 1e-3)


def test_integrate_validation():
    with pytest.raises(ModelError):
        integrate(STATE, -1.0, 1e-3)
    with pytest.raises(ModelError):
        integrate(STATE, 10.0, 0.0)
    with pytest.raises(ModelError):
        integrate(ClassicalState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0), 1.0, 1e-3)
    for t_max, dt in [(1e12, 1e-3), (2.0**25 * 1e-3, 1e-3), (1e300, 1e-300)]:
        with pytest.raises(ModelError, match="above the limit"):
            integrate(STATE, t_max, dt)  # past 2^25 samples, before allocating


def test_radial_period_needs_enough_minima():
    short = integrate(STATE, 2.0, 1e-3)  # less than one radial cycle
    with pytest.raises(ModelError):
        radial_period(short)
