"""Spectral windows, wave packets, and the edge/bulk current dichotomy."""

from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest

import magband.bands
import magband.solver
import magband.transport
from magband import (
    MissingBandDataError,
    ModelError,
    SpectralWindow,
    bands_meeting_window,
    bulk_decay_study,
    crossing,
    current,
    current_dichotomy,
    edge_bound,
    edge_current,
    landau_level,
    sweep,
    synthesize_state,
    witness_small_current,
)
from magband.solver import fixed_step_grid
from magband.transport import TRANSPORT_STEP, WITNESS_STEP

import oracles

WINDOW = (1.5, 2.5)
STEP = 1.0 / 120.0


@pytest.fixture(scope="module")
def meeting():
    return bands_meeting_window(5, WINDOW, 2, step=STEP)


@pytest.fixture(scope="module")
def check12():
    """current_dichotomy on check 12's input, and the fiber solves it made:
    its continuations (`solver._continue_fiber`), bisection starts' and
    nested solves' included."""
    calls = []
    original = magband.solver._continue_fiber

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magband.solver, "_continue_fiber", counted)
        result = current_dichotomy(5, WINDOW, 3, [10, 20, 30], 1e-2)
    return result, len(calls)


def _sampled_current(m, step):
    """Single-mode current by the sampled rule on the public API: the default
    bump profile, a 1201-sample sweep over its support plus 5 %, trapezoid."""
    packet = synthesize_state(5, WINDOW, [(m, 1, 1)], step=step)
    prof = packet.entries[(m, 1, 1)]
    pad = 0.05 * (prof.xi[-1] - prof.xi[0])
    xi = np.linspace(prof.xi[0] - pad, prof.xi[-1] + pad, 1201)
    grid = fixed_step_grid(xi[-1], WINDOW[1], step)
    return current(packet, sweep(5, [m], [1], xi, grid)).normalized


@pytest.fixture(scope="module")
def edge_packet():
    return synthesize_state(5, WINDOW, [(0, 1, 1), (1, 1, 1), (2, 1, 1)], step=STEP)


@pytest.fixture(scope="module")
def edge_bands(meeting):
    spans = [meeting.preimages[(m, 1)] for m in (0, 1, 2)]
    lo = min(s[0] for s in spans) - 0.5
    hi = max(s[1] for s in spans) + 0.5
    grid = fixed_step_grid(hi, WINDOW[1], STEP)
    return sweep(5, [0, 1, 2], [1], np.linspace(lo, hi, 240), grid)


def test_window_validation_and_membership():
    w = SpectralWindow(1.5, 2.5)
    assert w.band_indices == [1]
    assert w.contains(2.0) and not w.contains(2.5)  # open interval
    with pytest.raises(ModelError):
        SpectralWindow(2.5, 1.5)
    with pytest.raises(ModelError):
        SpectralWindow(2.0, 4.0)  # contains E_2 = 3
    with pytest.raises(ModelError):
        SpectralWindow(3.0, 3.5)  # E_2 on the boundary
    wide = SpectralWindow(3.2, 4.8)
    assert wide.band_indices == [1, 2]


def test_band_indices_are_the_bands_below_the_upper_end():
    # P_I = {p : E_p = 2p - 1 < upper}, for windows between every two levels
    # up to 59, from just above the lower level to just below the upper one
    for level in range(-1, 58, 2):
        for lo, hi in ((1e-12, 2.0 - 1e-12), (0.25, 0.5), (1.5, 1.75), (1.0, 1.0 + 1e-9)):
            win = SpectralWindow(level + lo, level + hi)
            assert win.band_indices == [p for p in range(1, 60) if 2 * p - 1 < win.upper]


def test_bands_meeting_window_preimages(meeting):
    assert meeting.band_indices == [1]
    assert set(meeting.preimages) == {(0, 1), (1, 1), (2, 1)}
    for (m, p), (lo, hi) in meeting.preimages.items():
        assert 0.0 < lo < hi
        k = ((2 * m + 2) ** 2 - 1) / 4.0
        # leading-order check: lambda = E with lambda ~ 1 + k/xi^2
        assert lo == pytest.approx(np.sqrt(k / 1.5), rel=0.35)
        assert hi == pytest.approx(np.sqrt(k / 0.5), rel=0.35)


def test_window_monotonicity(meeting):
    wider = bands_meeting_window(5, (1.4, 2.6), 2, step=STEP)
    for key, (lo, hi) in meeting.preimages.items():
        wlo, whi = wider.preimages[key]
        assert wlo < lo and whi > hi  # larger window, larger preimage


def test_bands_meeting_window_requires_transport_dimension():
    with pytest.raises(ModelError):
        bands_meeting_window(3, WINDOW, 2, step=STEP)
    # "5" < 4 raised TypeError
    with pytest.raises(ModelError, match=r"dimension n must be an integer >= 4, got '5'$"):
        bulk_decay_study("5", WINDOW, [10, 20])


# Each public entry of transport, called with a dimension n and a window.
DOMAIN_CALLS = {
    "bands_meeting_window": lambda n, window: bands_meeting_window(n, window, 1),
    "synthesize_state": lambda n, window: synthesize_state(n, window, [(0, 1, 1)]),
    "edge_current": lambda n, window: edge_current(n, window, 1),
    "bulk_decay_study": lambda n, window: bulk_decay_study(n, window, [10, 20]),
    "witness_small_current": lambda n, window: witness_small_current(n, window, 1e-2),
    "current_dichotomy": lambda n, window: current_dichotomy(n, window, 1, [10, 20], 1e-2),
}
QUADRATURE_PIPELINES = ["edge_current", "bulk_decay_study", "witness_small_current",
                        "current_dichotomy"]


@pytest.fixture
def no_fiber_step(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a fiber step ran before the domain was checked")

    monkeypatch.setattr(magband.solver, "_follow", refused)
    monkeypatch.setattr(magband.bands, "_follow", refused)


@pytest.mark.parametrize("call", DOMAIN_CALLS)
def test_every_entry_refuses_dimension_three_before_any_fiber_step(no_fiber_step, call):
    with pytest.raises(ModelError, match=r"^dimension n must be an integer >= 4, got 3$"):
        DOMAIN_CALLS[call](3, WINDOW)


@pytest.mark.parametrize("call", QUADRATURE_PIPELINES)
def test_every_quadrature_pipeline_refuses_a_window_below_band_one(no_fiber_step, call):
    # (0.2, 0.8) lies below E_1 = 1, where no band reaches
    refused = r"^no band meets the window \(0\.2, 0\.8\); there is no current$"
    with pytest.raises(ModelError, match=refused):
        DOMAIN_CALLS[call](5, (0.2, 0.8))


# m = 10^160 has a coupling past the float range; m = 100000 crosses the
# lower edge 1.5 near xi = 1.4e5, on a grid of 1.7e7 intervals: the edge
# packet solved mode after mode (or never ended), and the bulk study solved
# its smaller cutoffs, before the largest mode was refused
LARGEST_MODE_CALLS = {
    "edge_current": lambda m: edge_current(5, WINDOW, m),
    "current_dichotomy-edge_m_max": lambda m: current_dichotomy(5, WINDOW, m, [10, 20], 1e-2),
    "current_dichotomy-cutoff": lambda m: current_dichotomy(5, WINDOW, 1, [10, m - 1], 1e-2),
    "bulk_decay_study": lambda m: bulk_decay_study(5, WINDOW, [10, m - 1]),
}


@pytest.mark.parametrize("m, refused", [
    (10**160, r"gives a coupling k_m = .* past the float range$"),
    (100_000, r"^mode m=100000 crosses the window's lower edge 1\.5 near xi=141423, too far "
              r"out: a grid of \d+ intervals is above the limit of 4194304$"),
], ids=["coupling", "grid"])
@pytest.mark.parametrize("call", LARGEST_MODE_CALLS)
def test_an_unsolvable_largest_mode_is_refused_before_any_fiber_step(no_fiber_step, call, m,
                                                                    refused):
    with pytest.raises(ModelError, match=refused):
        LARGEST_MODE_CALLS[call](m)


def test_a_band_above_a_high_window_is_refused_in_constant_memory():
    # the refusal built (and printed) the list of the 10^6 bands below the
    # window: 86 MiB at its peak
    window = SpectralWindow(2e6 + 1.2, 2e6 + 2.8)
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=r"band p=1000002 does not meet the window"):
            synthesize_state(5, window, [(0, 1, 1_000_002)])
        assert magband.transport._band_one_domain(5, window) is window  # band 1 meets it
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_packet_parseval(edge_packet, meeting):
    assert edge_packet.norm_squared == pytest.approx(1.0, abs=1e-10)
    assert len(edge_packet.entries) == 3
    for (m, j, p), prof in edge_packet.entries.items():
        assert prof.norm_squared == pytest.approx(1.0 / 3.0, abs=1e-10)
        lo, hi = meeting.preimages[(m, p)]
        assert prof.xi[0] >= lo and prof.xi[-1] <= hi  # support in preimage
        assert np.all(prof.values >= 0.0)


def test_synthesize_validation():
    with pytest.raises(ModelError):
        synthesize_state(5, WINDOW, [(0, 1, 1), (0, 1, 1)], step=STEP)  # dup
    with pytest.raises(ModelError):
        synthesize_state(5, WINDOW, [(0, 1, 2)], step=STEP)  # p not in P_I
    with pytest.raises(ModelError):
        synthesize_state(5, WINDOW, [(1, 5, 1)], step=STEP)  # j > N_1 = 4
    with pytest.raises(ModelError):
        synthesize_state(5, WINDOW, [], step=STEP)


def test_current_is_negative_and_bounded_below(edge_packet, edge_bands):
    report = current(edge_packet, edge_bands)
    assert report.norm_squared == pytest.approx(1.0, abs=1e-10)
    assert report.total < 0  # every band decreases through the window
    c_minus = edge_bound(edge_packet, edge_bands)
    assert c_minus > 0
    assert abs(report.normalized) >= c_minus


def test_current_additivity(edge_packet, edge_bands, meeting):
    # entry contributions recombine linearly under packet splitting
    report = current(edge_packet, edge_bands)
    for (m, j, p) in edge_packet.entries:
        single = synthesize_state(5, WINDOW, [(m, j, p)], step=STEP)
        alone = current(single, edge_bands)
        assert alone.total == pytest.approx(3.0 * report.contributions[(m, j, p)],
                                            rel=1e-9)


def test_current_multiplicity_neutrality(edge_bands):
    # two harmonic labels of the same (m, p) carry identical contributions
    packet = synthesize_state(5, WINDOW, [(1, 1, 1), (1, 2, 1)], step=STEP)
    report = current(packet, edge_bands)
    a = report.contributions[(1, 1, 1)]
    b = report.contributions[(1, 2, 1)]
    assert a == pytest.approx(b, rel=1e-12)


def test_current_missing_band_errors(edge_packet, edge_bands):
    with pytest.raises(MissingBandDataError):
        current(edge_packet, edge_bands[:2])  # m=2 band withheld
    # covering grid that stops short of the m=2 profile support
    clipped = [c for c in edge_bands[:2]]
    packet = edge_packet
    short = synthesize_state(5, WINDOW, [(0, 1, 1)], step=STEP)
    tiny = [c for c in edge_bands if c.m == 0]
    trimmed = tiny[0]
    cut = type(trimmed)(trimmed.n, trimmed.m, trimmed.p,
                        trimmed.xi[:10], trimmed.values[:10],
                        trimmed.slope_fh[:10], trimmed.slope_bd[:10])
    with pytest.raises(MissingBandDataError):
        current(short, [cut])


def test_bulk_decay(meeting):
    study = bulk_decay_study(5, WINDOW, [4, 8], step=STEP)
    # Gauss-Legendre at the nodes agrees with the densely sampled rule
    assert study.normalized_current[0] == pytest.approx(_sampled_current(5, STEP), rel=1e-5)
    mags = np.abs(study.normalized_current)
    assert np.all(np.diff(mags) < 0)
    # ~ 2 (E - E_p)^{3/2}-ish magnitude scaled by 1/sqrt(k); just the law
    for M, val in zip(study.m_cut, mags):
        k = ((2 * (M + 1) + 2) ** 2 - 1) / 4.0
        assert val == pytest.approx(2.0 / np.sqrt(k), rel=0.5)
    assert study.slope == pytest.approx(-0.5, abs=0.2)


def test_bulk_current_grid_reaches_past_the_well():
    # Far above E_1 the band-1 preimage lies near xi = -9 (m=1) and -7.5
    # (m=5), where a node grid of radius xi + 10 ends inside the well
    # (r_+ = 1.03 at xi ~ -9) and the currents came out 1.7 % too small.
    window = (101.2, 102.8)
    study = bulk_decay_study(5, window, [0, 4])
    for m, value in zip((1, 5), study.normalized_current):
        upper, lower = (crossing(5, m, 1, e, step=TRANSPORT_STEP) for e in window[::-1])
        want = oracles.bump_current_reference(upper.coupling, upper.xi, lower.xi, 1, 12.0, 360)
        assert value == pytest.approx(want, rel=1e-3), m


def test_witness_terminates_quickly_for_loose_epsilon():
    m, value = witness_small_current(5, WINDOW, 0.5)
    assert m == 8
    assert abs(value) <= 0.5
    assert value < 0
    assert value == pytest.approx(_sampled_current(8, WITNESS_STEP), rel=1e-5)


@pytest.fixture
def crossing_keys(monkeypatch):
    """(n, m, p, energy, step) of every crossing transport solves."""
    keys = []
    solve = magband.transport.crossing
    signature = inspect.signature(solve)

    def recording(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        keys.append(tuple(call.arguments[k] for k in ("n", "m", "p", "energy", "step")))
        return solve(*args, **kwargs)

    monkeypatch.setattr(magband.transport, "crossing", recording)
    return keys


def test_current_dichotomy_never_repeats_a_crossing(crossing_keys):
    # each edge mode's two crossings feed both its bump current and C^-
    result = current_dichotomy(5, WINDOW, 1, [10, 20], 0.1)
    assert len(crossing_keys) == len(set(crossing_keys))
    assert {(m, p) for (_, m, p, _, _) in crossing_keys} >= {(0, 1), (1, 1)}
    assert abs(result.edge.normalized) >= result.c_minus > 0
    assert abs(result.witness[1]) <= 0.1


def test_current_dichotomy_solves_only_the_lowest_band(crossing_keys):
    # (3.2, 3.8) meets bands 1 and 2; only band 1 carries the edge packet
    window = SpectralWindow(3.2, 3.8)
    assert window.band_indices == [1, 2]
    result = current_dichotomy(5, window, 1, [10, 20], 0.1)
    assert crossing_keys
    assert {p for (_, _, p, _, _) in crossing_keys} == {1}
    assert abs(result.edge.normalized) >= result.c_minus > 0


def test_bump_quadrature_is_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    weights = weights * (1.0 - nodes**2) ** 4
    assert np.allclose(magband.transport._NODES, nodes, rtol=0, atol=1e-14)
    assert np.allclose(magband.transport._WEIGHTS, weights / weights.sum(), rtol=1e-12, atol=0)


def test_current_dichotomy_solve_budget(check12):
    # check 12's input: 16 Gauss-Legendre nodes per mode, no band sweeps
    result, solves = check12
    assert solves <= 400
    assert abs(result.edge.normalized) >= result.c_minus > 0


def test_edge_current_is_the_dichotomys_edge(check12):
    # the same numbers, bit for bit, as the pipeline's edge report and C^-
    result, _ = check12
    edge, c_minus = edge_current(5, WINDOW, 3)
    assert edge.contributions == result.edge.contributions
    assert (edge.total, edge.norm_squared, c_minus) == (
        result.edge.total, result.edge.norm_squared, result.c_minus
    )


def test_c_minus_is_a_tight_floor_of_a_dense_sweep(check12):
    # 400 samples per edge mode over its window preimage, at Chebyshev points
    # that crowd toward both ends, where |lambda'| is least and greatest
    result, _ = check12
    meeting = bands_meeting_window(5, WINDOW, 3, step=STEP)
    t = np.cos(np.pi * (np.arange(400) + 0.5) / 400)[::-1]
    floor = np.inf
    for m in range(4):
        lo, hi = meeting.preimages[(m, 1)]
        xi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        (band,) = sweep(5, [m], [1], xi, fixed_step_grid(hi, WINDOW[1], STEP))
        assert np.all(meeting.window.contains(band.values))
        floor = min(floor, float(np.min(np.abs(band.slope_fh))))
    assert (1.0 - 1e-3) * floor <= result.c_minus <= floor
