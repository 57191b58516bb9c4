"""Wave packets in the band representation and their axial current.

A state localized in energy decomposes over band modes (m, j, p); the current
functional is diagonal there, with density lambda'_{m,p}(xi) |phi(xi)|^2.  On
decreasing bands every contribution is negative, bounded away from zero for
low m (edge transport) and O(1/sqrt(k_m)) for high m (bulk suppression) —
both evaluated by 16-node Gauss-Legendre quadrature of the bump against
lambda' solved at the nodes (`current` and `edge_bound` take a caller's own
sweep).

Every entry works in the domain `_domain` states once: n >= 4, where no band
attains its threshold, and a window between two Landau levels; the
quadrature pipelines carry band 1 and need a window above E_1
(`_band_one_domain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .bands import CrossingResult, _seed, crossing, sweep
from .errors import ConvergenceError, MissingBandDataError, ModelError
from .model import (
    _integer, _integers, _interval, _real, coupling_constant, harmonic_multiplicity,
    landau_level,
)
from .solver import _loglog_slope, fixed_step_grid

_PROFILE_SAMPLES = 801  # samples per bump profile
_SUPPORT = 0.495  # bump half-width over preimage length: support stays inside
_WITNESS_MS = tuple(8 * 2**i for i in range(10))  # the witness's doubling search, 8..4096

TRANSPORT_STEP = 1.0 / 120.0  # default grid step of the transport pipelines
WITNESS_STEP = 1.0 / 60.0  # grid step of the witness's solves


def _bump_quadrature(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes t_i and weights w_i (1 - t_i^2)^4 of the bump density
    |phi|^2, summing to one (exact against lambda' of degree <= 2 count - 9).

    Golub-Welsch on the LAPACK the fiber solves use: numpy's leggauss would
    start numpy's own BLAS, for ~0.7 MiB more peak memory.
    """
    k = np.arange(1.0, count)
    nodes, vectors = eigh_tridiagonal(np.zeros(count), k / np.sqrt(4.0 * k**2 - 1.0))
    weights = vectors[0] ** 2 * (1.0 - nodes**2) ** 4
    return nodes, weights / weights.sum()


_NODES, _WEIGHTS = _bump_quadrature(16)


@dataclass(frozen=True)
class SpectralWindow:
    """Open energy interval whose closure avoids every Landau level."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lower, upper = _interval((self.lower, self.upper), "window")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        q_min = max(1, ceil((self.lower + 1.0) / 2.0))
        q_max = floor((self.upper + 1.0) / 2.0)
        if q_max >= q_min:
            raise ModelError(
                f"window [{self.lower}, {self.upper}] touches the Landau level "
                f"{landau_level(q_min)}; the current bounds require a gap"
            )

    def contains(self, value) -> np.ndarray:
        return (np.asarray(value) > self.lower) & (np.asarray(value) < self.upper)

    @property
    def band_indices(self) -> list[int]:
        """P_I: bands whose range meets the window, i.e. E_p < sup."""
        return list(range(1, ceil((self.upper + 1.0) / 2.0)))


def _domain(n, window) -> SpectralWindow:
    """The one statement of the transport domain: a dimension n >= 4, where
    no band attains its threshold, and a window, given as a SpectralWindow
    or as the pair of its ends."""
    if not isinstance(window, SpectralWindow):
        window = SpectralWindow(*_interval(window, "window"))
    _integer(n, "dimension n", 4)
    return window


def _band_one_domain(n, window) -> SpectralWindow:
    """`_domain` for the quadrature pipelines, which carry band 1 = min P_I:
    the bands fall from +inf to E_p, so band 1 meets every window above E_1;
    a window below E_1 carries no current and is an error."""
    win = _domain(n, window)
    if not win.upper > landau_level(1):
        raise ModelError(
            f"no band meets the window ({win.lower}, {win.upper}); there is no current"
        )
    return win


@dataclass(frozen=True)
class WindowBands:
    """For each band p meeting the window, the preimage intervals per m."""

    n: int
    window: SpectralWindow
    band_indices: list[int]
    preimages: dict  # (m, p) -> (xi_low, xi_high)


def _preimage(n, m, p, win, step) -> tuple[CrossingResult, CrossingResult]:
    """The crossings at the upper and the lower edge of a decreasing band."""
    return tuple(crossing(n, m, p, e, step=step) for e in (win.upper, win.lower))


def bands_meeting_window(
    n: int,
    window,
    m_max: int,
    *,
    step: float = TRANSPORT_STEP,
) -> WindowBands:
    """Preimages lambda_{m,p}^{-1}(I) for all p meeting I and m <= m_max.

    On a decreasing band the preimage of (a, b) is the interval between the
    crossing at b (left end) and the crossing at a (right end).
    """
    win = _domain(n, window)
    m_max = _integer(m_max, "m_max", 0)
    return WindowBands(
        n=n,
        window=win,
        band_indices=win.band_indices,
        preimages={
            (m, p): tuple(end.xi for end in _preimage(n, m, p, win, step))
            for p in win.band_indices
            for m in range(m_max + 1)
        },
    )


@dataclass(frozen=True)
class Profile:
    """One sampled coefficient profile phi_{m,j,p}(xi)."""

    xi: np.ndarray
    values: np.ndarray

    @property
    def norm_squared(self) -> float:
        return float(np.trapezoid(self.values**2, self.xi))


@dataclass(frozen=True)
class WavePacket:
    """Entries (m, j, p) -> profile; norm^2 is the sum of entry norms."""

    n: int
    window: SpectralWindow
    entries: dict

    @property
    def norm_squared(self) -> float:
        return float(sum(prof.norm_squared for prof in self.entries.values()))


def synthesize_state(
    n: int,
    window,
    mode_set,
    *,
    step: float = TRANSPORT_STEP,
) -> WavePacket:
    """Unit-norm packet of polynomial bumps, one per requested (m, j, p) mode.

    Each bump (1 - t^2)^2 is centered in its band's preimage interval and
    shrunk slightly inside it, so the support condition holds sample by
    sample; entries share the total norm equally.
    """
    win = _domain(n, window)
    try:
        triples = [(m, j, p) for m, j, p in mode_set]
    except (TypeError, ValueError):  # not iterable, or a mode that is not a triple
        raise ModelError(f"mode set must hold (m, j, p) triples, got {mode_set!r}") from None
    modes = [
        (_integer(m, "angular number m", 0), _integer(j, "multiplicity index j", 1),
         _integer(p, "band index p", 1))
        for m, j, p in triples
    ]
    if not modes:
        raise ModelError("mode set must be non-empty")
    if len(set(modes)) != len(modes):
        raise ModelError("duplicate (m, j, p) entries in mode set")
    for m, j, p in modes:
        if not landau_level(p) < win.upper:  # p is in P_I
            raise ModelError(
                f"band p={p} does not meet the window: E_p = {landau_level(p)} >= {win.upper}"
            )
        n_m = harmonic_multiplicity(n, m)
        if not 1 <= j <= n_m:
            raise ModelError(
                f"multiplicity index j={j} outside 1..{n_m} for (n={n}, m={m})"
            )

    entries = {}
    share = 1.0 / len(modes)
    for m, j, p in modes:
        lo, hi = (end.xi for end in _preimage(n, m, p, win, step))
        if not lo < hi:
            raise ModelError(f"degenerate preimage for (m={m}, p={p})")
        center = 0.5 * (lo + hi)
        half = _SUPPORT * (hi - lo)
        xi = np.linspace(center - half, center + half, _PROFILE_SAMPLES)
        t = (xi - center) / half
        values = (1.0 - t**2) ** 2
        values *= np.sqrt(share / np.trapezoid(values**2, xi))
        entries[(m, j, p)] = Profile(xi=xi, values=values)
    return WavePacket(n=n, window=win, entries=entries)


@dataclass(frozen=True)
class CurrentReport:
    """Current functional of a packet, entrywise and total."""

    total: float
    contributions: dict
    norm_squared: float

    @property
    def normalized(self) -> float:
        return self.total / self.norm_squared


def _curves(packet: WavePacket, bands, keys):
    """The caller's curve of each band (m, p) of `keys` at the packet's n, in
    turn; the first one it lacks is a MissingBandDataError."""
    by_key = {(curve.m, curve.p): curve for curve in bands if curve.n == packet.n}
    for m, p in keys:
        curve = by_key.get((m, p))
        if curve is None:
            raise MissingBandDataError(f"no band data for (m={m}, p={p}) at n={packet.n}")
        yield curve


def current(packet: WavePacket, bands) -> CurrentReport:
    """Quadrature of lambda' |phi|^2 per entry against sampled band data.

    Band derivatives are linearly interpolated onto each profile's grid; a
    band that is absent or does not cover a profile's support is a hard error
    naming the hole.
    """
    contributions = {}
    curves = _curves(packet, bands, [(m, p) for m, _, p in packet.entries])
    for ((m, j, p), prof), curve in zip(packet.entries.items(), curves):
        if curve.xi[0] > prof.xi[0] or curve.xi[-1] < prof.xi[-1]:
            raise MissingBandDataError(
                f"band (m={m}, p={p}) covers xi in [{curve.xi[0]:.4g}, "
                f"{curve.xi[-1]:.4g}] but the profile needs "
                f"[{prof.xi[0]:.4g}, {prof.xi[-1]:.4g}]"
            )
        slope = np.interp(prof.xi, curve.xi, curve.slope_fh)
        contributions[(m, j, p)] = float(
            np.trapezoid(slope * prof.values**2, prof.xi)
        )
    total = float(sum(contributions.values()))
    return CurrentReport(
        total=total, contributions=contributions, norm_squared=packet.norm_squared
    )


def edge_bound(packet: WavePacket, bands) -> float:
    """C^- = min over the packet's bands of min |lambda'| inside the window.

    Evaluated directly on the caller's sampled sweep data, so it is a floor
    at the sweep's resolution; |normalized current| of any unit packet
    supported on these bands is at least this value.  `current_dichotomy`
    does not sample: it takes the floor from the Gauss-Legendre nodes and
    the crossing slopes at both window edges.
    """
    win = packet.window
    used = sorted(set((m, p) for (m, _, p) in packet.entries))
    bounds = []
    for (m, p), curve in zip(used, _curves(packet, bands, used)):
        mask = win.contains(curve.values)
        if not np.any(mask):
            raise MissingBandDataError(
                f"band (m={m}, p={p}) has no sweep samples with lambda in "
                f"({win.lower}, {win.upper})"
            )
        bounds.append(float(np.min(np.abs(curve.slope_fh[mask]))))
    return min(bounds)


def _check_largest_mode(n: int, win: SpectralWindow, m: int, step: float) -> None:
    """Refuse, before any solve, the largest mode m a band-one pipeline
    reaches: its coupling past the float range (`coupling_constant`), or its
    lower-edge crossing seeded (`bands._seed`) where `fixed_step_grid` is past
    `Grid`'s interval limit.  That crossing lies farthest out, since the seed
    grows with k_m and falls with the energy."""
    level = landau_level(1)
    seed = _seed(float(coupling_constant(n, m)), level, win.lower - level)
    try:
        fixed_step_grid(seed, win.lower, step)
    except ModelError as error:
        raise ModelError(
            f"mode m={m} crosses the window's lower edge {win.lower} near xi={seed:.6g}, "
            f"too far out: {error}"
        ) from None


def _bump_current(n: int, win: SpectralWindow, m: int, step: float) -> tuple[float, float]:
    """Normalized current of the unit `synthesize_state` bump on the window
    preimage of (m, 1), and the least |lambda'| over its Gauss-Legendre nodes
    (one sweep of them) and the crossing slopes at both window edges.
    """
    ends = _preimage(n, m, 1, win, step)
    lo, hi = (end.xi for end in ends)
    xi = 0.5 * (lo + hi) + _SUPPORT * (hi - lo) * _NODES
    (curve,) = sweep(n, [m], [1], xi, fixed_step_grid(xi[-1], win.upper, step))
    floor = np.min(np.abs([*curve.slope_fh, *(end.slope for end in ends)]))
    return float(_WEIGHTS @ curve.slope_fh), float(floor)


@dataclass(frozen=True)
class BulkDecayStudy:
    """Single-mode currents at m = M + 1 across M, with the log-log fit."""

    n: int
    window: SpectralWindow
    p: int
    m_cut: np.ndarray
    coupling: np.ndarray
    normalized_current: np.ndarray
    slope: float
    slope_err: float


def bulk_decay_study(
    n: int,
    window,
    m_cut_list,
    *,
    step: float = TRANSPORT_STEP,
) -> BulkDecayStudy:
    """Current of the first band beyond each cutoff M, across the distinct
    integers M >= 0 of m_cut_list in ascending order.

    The mode is (m = M + 1, j = 1, p = 1 = min P_I): the lowest bulk band a
    cutoff at M lets through.  The regression slope of |current| against
    k_{M+1} quantifies the 1/sqrt(k) suppression.
    """
    win = _band_one_domain(n, window)
    cuts = _integers(m_cut_list, "cutoff", 0)
    _check_largest_mode(n, win, cuts[-1] + 1, step)
    coupling = np.array([float(coupling_constant(n, M + 1)) for M in cuts])
    cur = np.array([_bump_current(n, win, M + 1, step)[0] for M in cuts])
    slope, err = (
        _loglog_slope(coupling, np.abs(cur)) if len(cuts) >= 2 else (float("nan"),) * 2
    )
    return BulkDecayStudy(
        n=n,
        window=win,
        p=1,
        m_cut=np.array(cuts, dtype=int),
        coupling=coupling,
        normalized_current=cur,
        slope=slope,
        slope_err=err,
    )


def witness_small_current(n: int, window, epsilon: float) -> tuple[int, float]:
    """Exhibit a unit packet whose |normalized current| <= epsilon.

    Doubles the angular momentum of a single-mode packet from m = 8, up to
    m = 4096, until the current drops below epsilon; returns (m, normalized
    current).  Its solves use the grid step WITNESS_STEP.  The 1/sqrt(k_m)
    law guarantees termination for any positive epsilon.
    """
    win = _band_one_domain(n, window)
    epsilon = _real(epsilon, "epsilon", above=0.0)
    for m in _WITNESS_MS:
        value, _ = _bump_current(n, win, m, WITNESS_STEP)
        if abs(value) <= epsilon:
            return m, value
    raise ConvergenceError(
        f"no packet with |current| <= {epsilon} found for m up to {_WITNESS_MS[-1]}"
    )


def edge_current(
    n: int,
    window,
    m_max: int,
    *,
    step: float = TRANSPORT_STEP,
) -> tuple[CurrentReport, float]:
    """The edge packet's current and its floor C^-, for one window.

    The packet puts one bump on each (m, 1, 1), m = 0..m_max, of band 1, the
    lowest band meeting the window, on its window preimage (no higher band is
    solved); its current is the mean of their Gauss-Legendre single-mode
    currents, and C^- the least |lambda'| over the nodes and the crossing
    slopes at both window edges.  Every input is checked before the first
    eigensolve, m_max's mode included (`_check_largest_mode`).
    """
    win = _band_one_domain(n, window)
    m_max = _integer(m_max, "m_max", 0)
    _check_largest_mode(n, win, m_max, step)
    bumps = [_bump_current(n, win, m, step) for m in range(m_max + 1)]
    share = 1.0 / len(bumps)
    contributions = {(m, 1, 1): share * value for m, (value, _) in enumerate(bumps)}
    edge = CurrentReport(
        total=float(sum(contributions.values())), contributions=contributions, norm_squared=1.0
    )
    return edge, min(floor for _, floor in bumps)


@dataclass(frozen=True)
class CurrentDichotomy:
    """Edge current with its floor C^-, bulk decay, and a small-current witness."""

    edge: CurrentReport
    c_minus: float
    bulk: BulkDecayStudy
    witness: tuple[int, float]  # (m, normalized current)


def current_dichotomy(
    n: int,
    window,
    edge_m_max: int,
    cutoffs,
    epsilon: float,
    *,
    step: float = TRANSPORT_STEP,
) -> CurrentDichotomy:
    """The edge/bulk current dichotomy for one window, end to end.

    The edge current and its floor C^- are `edge_current`'s on
    m = 0..edge_m_max.  The bulk study runs over `cutoffs` at the same step
    and needs at least two of them for its slope; the witness, at
    WITNESS_STEP, has |current| <= epsilon.  Every input is checked before the
    first eigensolve.
    """
    win = _band_one_domain(n, window)
    cuts = _integers(cutoffs, "cutoff", 0)
    if len(cuts) < 2:
        raise ModelError(f"the bulk decay slope needs at least two cutoffs, got {cuts}")
    _check_largest_mode(n, win, cuts[-1] + 1, step)  # the largest cutoff's mode
    epsilon = _real(epsilon, "epsilon", above=0.0)
    edge, c_minus = edge_current(n, win, _integer(edge_m_max, "edge_m_max", 0), step=step)
    return CurrentDichotomy(
        edge=edge,
        c_minus=c_minus,
        bulk=bulk_decay_study(n, win, cuts, step=step),
        witness=witness_small_current(n, win, epsilon),
    )
