"""Classical charge in the unit azimuthal field B = (-y/r, x/r, 0).

Fixed-step RK4 on the Newton-Lorentz equation with unit charge and mass.  The
motion conserves the speed (magnetic force does no work), the areal velocity
sigma = x vy - y vx, and c = vz - r; the last one mirrors the quantum fiber
potential: the radial coordinate obeys a 1-d motion in sigma^2/r^2 + (r +
c)^2, so r(t) oscillates and the guiding center drifts along the axis.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from pathlib import Path
from struct import Struct

import numpy as np

from .errors import AxisApproachError, ModelError
from .model import _real
from .solver import _line

R_FLOOR = 1e-6
_MAX_SAMPLES = 2**25  # largest trajectory integrate stores: 1.5 GiB of states
_ROW = Struct("6d")  # one sample x, y, z, vx, vy, vz as native doubles (float64)
_KERNEL_SOURCE = Path(__file__).with_name("_rk4.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")  # no fast-math: bit for bit
_UNRESOLVED = object()
_KERNEL = _UNRESOLVED  # `_rk4_kernel`'s answer once resolved: a kernel or None


@dataclass(frozen=True)
class ClassicalState:
    """Phase-space point (position, velocity) at time t."""

    x: float
    y: float
    z: float
    vx: float
    vy: float
    vz: float
    t: float = 0.0

    @property
    def r(self) -> float:
        return sqrt(self.x * self.x + self.y * self.y)


def _axis_error(r: float) -> AxisApproachError:
    return AxisApproachError(
        f"trajectory reached r={r:.3e} < {R_FLOOR}; the field model breaks down"
    )


@dataclass(frozen=True)
class TrajectoryResult:
    """Integrated trajectory with per-sample invariants and their drifts."""

    times: np.ndarray
    states: np.ndarray  # columns x, y, z, vx, vy, vz
    dt: float

    @cached_property
    def radius(self) -> np.ndarray:
        return np.hypot(self.states[:, 0], self.states[:, 1])

    @cached_property
    def energy(self) -> np.ndarray:
        """|v|^2 per sample."""
        v = self.states[:, 3:]
        return np.einsum("ij,ij->i", v, v)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Areal velocity x vy - y vx per sample."""
        s = self.states
        sigma = s[:, 0] * s[:, 4]
        sigma -= s[:, 1] * s[:, 3]
        return sigma

    @cached_property
    def c_invariant(self) -> np.ndarray:
        """vz - r per sample."""
        return self.states[:, 5] - self.radius

    def _drift(self, series: np.ndarray, scale: float) -> float:
        deviation = series - series[0]
        return float(np.abs(deviation, out=deviation).max() / max(abs(series[0]), scale))

    @cached_property
    def energy_drift(self) -> float:
        return self._drift(self.energy, 1e-12)

    @cached_property
    def sigma_drift(self) -> float:
        speed = sqrt(self.energy[0])
        return self._drift(self.sigma, max(self.radius[0] * speed, 1e-12))

    @cached_property
    def c_drift(self) -> float:
        speed = sqrt(self.energy[0])
        return self._drift(self.c_invariant, max(self.radius[0] + speed, 1e-12))

    def state(self, i: int) -> ClassicalState:
        return ClassicalState(*self.states[i], t=float(self.times[i]))


def _python_rk4(out: np.ndarray, dt: float) -> float | None:
    """Fill rows 1.. of the (steps + 1, 6) states `out` from its row 0 by RK4.

    The four stages are straight-line scalar code.  Each step is stored with
    one `struct.pack_into` of its six native doubles at its row's byte offset,
    about a quarter of the cost of a numpy row assignment.  A stage below
    r = R_FLOOR stops the loop and returns its radius; a full run returns
    None.  The reference of the compiled kernel (`_rk4.c`) and its fallback.
    """
    x, y, z, vx, vy, vz = out[0].tolist()
    half = 0.5 * dt
    sixth = dt / 6.0
    # Each stage evaluates the acceleration v x B with B = (-y/r, x/r, 0); its
    # z-component is r-dot, which is what makes vz - r an invariant.  The
    # velocity is the position derivative, and no force depends on z, so a
    # stage carries only x, y and the velocity.
    rows = out.data.cast("B")
    store = _ROW.pack_into
    for offset in range(_ROW.size, _ROW.size * out.shape[0], _ROW.size):
        r = sqrt(x * x + y * y)
        if r < R_FLOOR:
            return r
        ax1, ay1, az1 = -vz * x / r, -vz * y / r, (vx * x + vy * y) / r

        x2, y2 = x + half * vx, y + half * vy
        vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
        r = sqrt(x2 * x2 + y2 * y2)
        if r < R_FLOOR:
            return r
        ax2, ay2, az2 = -vz2 * x2 / r, -vz2 * y2 / r, (vx2 * x2 + vy2 * y2) / r

        x3, y3 = x + half * vx2, y + half * vy2
        vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
        r = sqrt(x3 * x3 + y3 * y3)
        if r < R_FLOOR:
            return r
        ax3, ay3, az3 = -vz3 * x3 / r, -vz3 * y3 / r, (vx3 * x3 + vy3 * y3) / r

        x4, y4 = x + dt * vx3, y + dt * vy3
        vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
        r = sqrt(x4 * x4 + y4 * y4)
        if r < R_FLOOR:
            return r
        ax4, ay4, az4 = -vz4 * x4 / r, -vz4 * y4 / r, (vx4 * x4 + vy4 * y4) / r

        x = x + sixth * (vx + 2.0 * (vx2 + vx3) + vx4)
        y = y + sixth * (vy + 2.0 * (vy2 + vy3) + vy4)
        z = z + sixth * (vz + 2.0 * (vz2 + vz3) + vz4)
        vx = vx + sixth * (ax1 + 2.0 * (ax2 + ax3) + ax4)
        vy = vy + sixth * (ay1 + 2.0 * (ay2 + ay3) + ay4)
        vz = vz + sixth * (az1 + 2.0 * (az2 + az3) + az4)
        store(rows, offset, x, y, z, vx, vy, vz)
    return None


def _cache_dir() -> Path | None:
    """The private per-user build cache, $XDG_CACHE_HOME/magband or
    ~/.cache/magband, created 0700; None unless this user owns it and no one
    else can write to it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG rule: a relative path is ignored
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base, "magband")
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        return None
    return path


def _compile():
    """Build `_rk4.c` into the cache (once per source, compiler and flags) and
    wrap it with `_python_rk4`'s signature; None without a compiler or cache."""
    compiler = shutil.which("cc")
    cache = _cache_dir() if compiler else None
    if cache is None:
        return None
    source = _KERNEL_SOURCE.read_bytes()
    version = subprocess.run([compiler, "--version"], capture_output=True, check=True,
                             timeout=60).stdout
    build = "\0".join([compiler, *_CFLAGS]).encode()
    key = hashlib.sha256(b"\0".join([source, build, version])).hexdigest()
    library = cache / f"rk4-{key[:24]}.so"
    if not library.exists():
        fd, built = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([compiler, *_CFLAGS, "-o", built, str(_KERNEL_SOURCE), "-lm"],
                           capture_output=True, check=True, timeout=120)
            os.replace(built, library)
        finally:
            if os.path.exists(built):
                os.remove(built)
    kernel = ctypes.CDLL(str(library)).magband_rk4
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_double,
                       ctypes.POINTER(ctypes.c_double))
    kernel.restype = ctypes.c_long

    def compiled_rk4(out: np.ndarray, dt: float) -> float | None:
        radius = ctypes.c_double()
        if kernel(out.ctypes.data, out.shape[0] - 1, dt, R_FLOOR, ctypes.byref(radius)):
            return radius.value
        return None

    return compiled_rk4


def _reproduces(kernel) -> bool:
    """Whether `kernel` gives `_python_rk4`'s rows bit for bit on a fixed
    64-step trajectory (FMA contraction, x87 precision or another libm would
    show here)."""
    rows, reference = np.empty((2, 65, 6))
    rows[0] = reference[0] = (1.2, 0.0, 0.0, 0.1, 0.5, 0.3)
    return kernel(rows, 0.05) == _python_rk4(reference, 0.05) and np.array_equal(rows, reference)


def _rk4_kernel():
    """The admitted compiled stage loop, or None: built on the first call,
    resolved once per process.  Any failure to build, load or reproduce
    `_python_rk4` leaves `integrate` on the Python loop."""
    global _KERNEL
    if _KERNEL is _UNRESOLVED:
        try:
            kernel = _compile()
        except (OSError, subprocess.SubprocessError, AttributeError):
            kernel = None
        _KERNEL = kernel if kernel is not None and _reproduces(kernel) else None
    return _KERNEL


def integrate(initial: ClassicalState, t_max: float, dt: float) -> TrajectoryResult:
    """Fixed-step RK4 from `initial`, sampling every step.

    The stage loop runs in the compiled kernel `_rk4.c` when `_rk4_kernel`
    admits one, and otherwise in `_python_rk4`; both give the same bits.
    Every stage rejects an excursion below r = 1e-6: the inverse-r force is
    unresolvable there and invariants would silently decay.  More than 2^25
    samples is a ModelError, raised before anything is allocated.
    """
    dt, t_max = _real(dt, "time step", above=0.0), _real(t_max, "t_max")
    if not t_max >= dt:
        raise ModelError(f"t_max must be at least one step, got {t_max!r}")
    if not t_max / dt <= _MAX_SAMPLES - 1:
        raise ModelError(
            f"t_max / dt = {t_max / dt:.6g} steps, above the limit of {_MAX_SAMPLES - 1}"
        )
    state = (initial.x, initial.y, initial.z, initial.vx, initial.vy, initial.vz)
    x, y, z, vx, vy, vz = (_real(c, "initial state (x, y, z, vx, vy, vz)") for c in state)
    t0 = _real(initial.t, "initial time t")
    r = sqrt(x * x + y * y)
    if r <= R_FLOOR:
        raise ModelError(f"initial radius {r:.3e} is at or below the floor {R_FLOOR}")

    steps = int(round(t_max / dt))
    out = np.empty((steps + 1, 6))
    out[0] = (x, y, z, vx, vy, vz)
    radius = (_rk4_kernel() or _python_rk4)(out, dt)
    if radius is not None:
        raise _axis_error(radius)
    times = t0 + dt * np.arange(steps + 1)
    return TrajectoryResult(times=times, states=out, dt=dt)


@dataclass(frozen=True)
class PeriodEstimate:
    """Radial period from the spacing of interpolated minima of r(t)."""

    value: float
    spread: float
    minima: np.ndarray


def radial_period(traj: TrajectoryResult) -> PeriodEstimate:
    """Mean spacing of successive strict minima of r(t).

    Each discrete minimum is sharpened by the vertex of the parabola through
    its three surrounding samples.  Needs at least three minima; a circular
    orbit (r constant) has none and errors out.
    """
    r = traj.radius
    idx = np.flatnonzero((r[1:-1] < r[:-2]) & (r[1:-1] < r[2:])) + 1
    before, at, after = r[idx - 1], r[idx], r[idx + 1]
    denom = before - 2.0 * at + after
    vertex = denom > 0.0
    times = traj.times[idx[vertex]] + 0.5 * traj.dt * (before - after)[vertex] / denom[vertex]
    if times.size < 3:
        raise ModelError(
            f"found {times.size} radial minima; period extraction needs at least 3"
        )
    spacings = np.diff(times)
    return PeriodEstimate(
        value=float(np.mean(spacings)),
        spread=float(np.std(spacings)),
        minima=times,
    )


@dataclass(frozen=True)
class EffectiveVelocity:
    """Axial drift: quadrature formula vs the fitted slope of z(t), and the radial period."""

    formula: float
    fit: float
    bound: float
    period: PeriodEstimate


def effective_velocity(traj: TrajectoryResult) -> EffectiveVelocity:
    """Drift velocity v_z two ways: sigma^2 <1/r^3> over whole periods, and
    the least-squares slope of z(t) over the full window (`solver._line`).

    The quadrature runs between the first and last detected radial minima so
    it averages an integer number of periods.  The kinematic bound
    E^{3/2}/|sigma| comes along for reporting.
    """
    period = radial_period(traj)
    # nearest sample indices to the first/last interpolated minima
    i0 = int(np.searchsorted(traj.times, period.minima[0]))
    i1 = int(np.searchsorted(traj.times, period.minima[-1]))
    i0 = min(max(i0, 0), traj.times.size - 2)
    i1 = min(max(i1, i0 + 1), traj.times.size - 1)
    window_t = traj.times[i0 : i1 + 1]
    integral = float(np.trapezoid(traj.radius[i0 : i1 + 1] ** -3.0, window_t))
    fit, _ = _line(traj.times, traj.states[:, 2])
    sigma0 = float(traj.sigma[0])
    formula = sigma0 * sigma0 * integral / (window_t[-1] - window_t[0])
    e0 = float(traj.energy[0])
    bound = e0**1.5 / abs(sigma0) if sigma0 != 0.0 else float("inf")
    return EffectiveVelocity(formula=formula, fit=fit, bound=bound, period=period)
