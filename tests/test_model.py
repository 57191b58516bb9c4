"""Model layer: coupling constants, potential geometry, multiplicities."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from magband import (
    ConvergenceError,
    Grid,
    ModelParams,
    ModelError,
    agmon_weight,
    coupling_constant,
    crossing,
    current_dichotomy,
    harmonic_multiplicity,
    landau_level,
    potential,
    potential_minimum,
    scaling_study,
    sweep,
    turning_points,
)

from magband.model import _integer, _integers, _real

import oracles


dims = st.integers(min_value=3, max_value=40)
momenta = st.integers(min_value=0, max_value=200)


@given(dims, momenta)
def test_coupling_two_closed_forms_agree(n, m):
    # ((2m+n-3)^2 - 1)/4 versus m(m+n-3) + nu(nu-1), exactly over Q
    assert coupling_constant(n, m) == oracles.coupling_reference(n, m)


@given(dims, momenta)
def test_coupling_exact_fraction(n, m):
    k = coupling_constant(n, m)
    assert isinstance(k, Fraction)
    assert 4 * k == (2 * m + n - 3) ** 2 - 1


def test_coupling_sign_boundary():
    assert coupling_constant(4, 0) == 0  # |2m+n-3| = 1
    assert coupling_constant(3, 0) == Fraction(-1, 4)
    assert coupling_constant(3, 1) > 0
    assert coupling_constant(5, 0) == Fraction(3, 4)


@pytest.mark.parametrize("call", [
    lambda: ModelParams(5, 10**160, 0.0).k,
    lambda: ModelParams(10**160, 0, 0.0).k,
    lambda: coupling_constant(5, 10**160),
    lambda: crossing(5, 10**160, 1, 2.0),
    lambda: sweep(5, [10**160], [1], [0.0], Grid(20.0, 480)),
    lambda: scaling_study(5, 1, 3.0, [5, 6, 10**160]),
    lambda: current_dichotomy(5, (1.5, 2.5), 3, [10, 10**160], 1e-2),
])
def test_a_coupling_past_the_float_range_is_refused_before_any_solve(call, monkeypatch):
    # float(coupling) raised a bare OverflowError; (n, m) is refused where
    # it is stated, and the pipelines over many m check the largest first
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._follow", no_solve)
    monkeypatch.setattr("magband.bands._follow", no_solve)
    with pytest.raises(ModelError, match=r"gives a coupling k_m = .* past the float range$"):
        call()


def test_the_largest_couplings_in_the_float_range_are_admitted():
    assert ModelParams(5, 10**153, 0.0).k == pytest.approx(1e306, rel=1e-15)
    # k = ((2m + 2)^2 - 1)/4 rounds to the largest float, or past it
    m = math.isqrt(4 * int(np.finfo(float).max)) // 2 - 1
    assert ModelParams(5, m, 0.0).k == np.finfo(float).max
    with pytest.raises(ModelError, match="past the float range"):
        ModelParams(5, 2 * m, 0.0)


@given(st.integers(min_value=1, max_value=50))
def test_landau_levels_odd_integers(p):
    assert landau_level(p) == 2 * p - 1


def test_integer_rule():
    for value in (3, np.int64(3), np.uint8(3)):
        assert type(_integer(value, "count", 1, 4)) is int and _integer(value, "count", 1, 4) == 3
    for value in (1.5, np.float64(2.0), "2", None, 0, 5):
        with pytest.raises(ModelError, match=r"at least 1 widgets and at most 4, got "):
            _integer(value, "widgets", 1, 4)
    with pytest.raises(ModelError, match=r"^band index p must be an integer >= 1, got 2\.0$"):
        _integer(2.0, "band index p", 1)
    assert _integers(np.array([3, 1, 3, 2]), "m", 0) == [1, 2, 3]
    for values in ([], 3, [1, 2.5], np.arange(3.0)):
        with pytest.raises(ModelError, match=r"\bm\b"):
            _integers(values, "m", 0)


def test_real_rule():
    for value in (2.5, np.float64(2.5), np.float32(2.5), Fraction(5, 2)):
        assert type(_real(value, "width")) is float and _real(value, "width", above=0) == 2.5
    assert _real(3, "width", above=2.5) == 3.0 and _real(True, "width") == 1.0
    for value in (np.nan, np.inf, -np.inf, 10**400, "2.0", None, 1 + 0j):
        with pytest.raises(ModelError, match=r"^width must be finite, got "):
            _real(value, "width")
    with pytest.raises(ModelError, match=r"^width must be positive and finite, got 0\.0$"):
        _real(0.0, "width", above=0.0)
    with pytest.raises(ModelError, match=r"^width must be finite and above 1\.5, got 1\.5$"):
        _real(1.5, "width", above=1.5)
    # a validated dataclass field is stored as the float the rule returns
    assert type(ModelParams(5, 1, Fraction(1, 2)).xi) is float


def test_params_validation():
    with pytest.raises(ModelError):
        ModelParams(2, 0, 0.0)
    with pytest.raises(ModelError):
        ModelParams(5, -1, 0.0)
    with pytest.raises(ModelError, match="angular number m must be an integer >= 0, got 1.7"):
        ModelParams(5, 1.7, 0.0)
    p = ModelParams(5, 2, 1.5)
    assert p.k == float(p.coupling) == 35.0 / 4.0


def test_params_k_is_computed_once_and_leaves_identity_alone(monkeypatch):
    import magband.model

    made = []
    original = magband.model.coupling_constant
    monkeypatch.setattr(magband.model, "coupling_constant",
                        lambda n, m: made.append((n, m)) or original(n, m))
    for n, m in [(3, 0), (4, 0), (5, 2), (7, 40), (5, 4096)]:
        read, fresh = ModelParams(n, m, 1.5), ModelParams(n, m, 1.5)
        before = len(made)
        assert read.k == read.k == float(Fraction((2 * m + n - 3) ** 2 - 1, 4))
        # once per instance
        assert len(made) - before == 1
        assert fresh.k == read.k and ModelParams(n, m, 2.5).k == read.k
        assert len(made) - before == 3
        # the cached float changes neither equality nor hash
        assert read == fresh and hash(read) == hash(fresh)
        assert read != ModelParams(n, m, 2.5)
        assert {read: 1}[fresh] == 1


def test_potential_values_and_domain():
    params = ModelParams(5, 1, 2.0)
    r = np.array([0.5, 1.0, 2.0])
    expected = params.k / r**2 + (r - 2.0) ** 2
    assert np.allclose(potential(params, r), expected, rtol=0, atol=0)
    with pytest.raises(ModelError):
        potential(params, 0.0)
    with pytest.raises(ModelError):
        potential(params, np.array([1.0, -0.5]))
    # NaN passed the r <= 0 test and came back as a value
    for r in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ModelError, match="radius r must be positive and finite, got nan$"):
            potential(params, r)
    # a string reached numpy's ValueError
    with pytest.raises(ModelError, match=r"radius r must be positive and finite, got 'a'$"):
        potential(params, "a")


@pytest.mark.parametrize("n,m,xi", [(5, 1, 0.0), (5, 1, 4.0), (4, 2, -3.0),
                                    (3, 1, 1.7), (6, 7, 10.0)])
def test_potential_minimum_against_scalar_search(n, m, xi):
    params = ModelParams(n, m, xi)
    prof = potential_minimum(params)
    r_ref, v_ref = oracles.potential_minimum_reference(params.k, xi)
    # bounded search only localizes the flat minimum to ~sqrt(eps)
    assert prof.r_min == pytest.approx(r_ref, rel=1e-6)
    assert prof.v_min == pytest.approx(v_ref, rel=1e-10)


@pytest.mark.parametrize("n,m,xi", [(3, 1, -2.0), (5, 1, 0.0), (5, 20, 46.6), (6, 128, 3.7),
                                    (4, 0, 3.0)])
def test_potential_minimum_value_is_the_bits_of_potential(n, m, xi):
    params = ModelParams(n, m, xi)
    prof = potential_minimum(params)
    assert prof.v_min == potential(params, prof.r_min)


def test_potential_minimum_k_zero():
    prof = potential_minimum(ModelParams(4, 0, 3.0))
    assert prof.r_min == 3.0 and prof.v_min == 0.0
    with pytest.raises(ModelError):
        potential_minimum(ModelParams(4, 0, -1.0))  # no interior minimum


@pytest.mark.parametrize("n,m,xi,energy", [(5, 1, 4.0, 6.0), (5, 3, 0.0, 12.0),
                                           (4, 1, 2.0, 5.0), (3, 1, 5.0, 2.0),
                                           (5, 4096, 0.0, None), (5, 4096, 50.0, None),
                                           (5, 4096, 100.0, None)])
def test_turning_points_against_quartic_roots(n, m, xi, energy):
    params = ModelParams(n, m, xi)
    if energy is None:  # a narrow well, 1e-6 above min V
        energy = potential_minimum(params).v_min + 1e-6
    r_minus, r_plus = turning_points(params, energy)
    ref_minus, ref_plus = oracles.turning_points_reference(params.k, xi, energy)
    assert r_minus == pytest.approx(ref_minus, abs=1e-9)
    assert r_plus == pytest.approx(ref_plus, abs=1e-9)
    # and they really solve V = E
    assert potential(params, r_minus) == pytest.approx(energy, rel=1e-9)
    assert potential(params, r_plus) == pytest.approx(energy, rel=1e-9)


def _turning_points_through_potential(params, energy):
    """turning_points' Newton from its two starts, evaluating V with `potential`."""
    k, xi = params.k, params.xi

    def newton(r):
        for _ in range(100):
            excess = potential(params, r) - energy
            if abs(excess) < 1e-12:
                break
            step = excess / (2.0 * (r * (r - xi) - k / (r * r)) / r)
            if abs(step) <= 4.0 * np.finfo(float).eps * abs(r):
                break
            r -= step
        return r

    return newton(math.sqrt(k / energy)), newton(xi + math.sqrt(energy))


@pytest.mark.parametrize("n,m", [(3, 1), (5, 1), (5, 20), (6, 128)])
@pytest.mark.parametrize("xi", [-2.0, 3.7, 46.6])
@pytest.mark.parametrize("gap", [1e-6, 0.4, 25.0])
def test_turning_points_are_the_bits_of_a_potential_newton(n, m, xi, gap):
    # turning_points evaluates V in plain floats; its roots are those of the
    # same Newton run on `potential`, bit for bit
    params = ModelParams(n, m, xi)
    energy = potential_minimum(params).v_min + gap
    roots = turning_points(params, energy)
    assert roots == _turning_points_through_potential(params, energy)
    for root in roots:
        assert abs(potential(params, root) - energy) <= 1e-10 * max(1.0, energy)


def _solves_v_equals_e(params, energy, r) -> bool:
    """|V(r) - E| <= 1e-12 max(1, E, |r V'(r)|) in exact rational arithmetic."""
    k, xi, r, e = params.coupling, Fraction(params.xi), Fraction(r), Fraction(energy)
    excess = k / r**2 + (r - xi) ** 2 - e
    r_slope = -2 * k / r**2 + 2 * r * (r - xi)
    return abs(excess) <= Fraction(1e-12) * max(1, e, abs(r_slope))


@pytest.mark.parametrize("m,xi,energy", [(1, 1.0, 1e120), (1, 1.0, 1e300), (1, 1e8, 1.000000001),
                                         (4096, 0.0, None), (4096, 50.0, None),
                                         (4096, 100.0, None)])
def test_turning_points_of_a_huge_energy_or_momentum_or_a_narrow_well(m, xi, energy):
    # the bracketed bisection raised ConvergenceError on the first three, whose
    # roots it could not reach to an absolute 1e-10 max(1, E); in the narrow
    # wells, 1e-9 above min V, the rounding of V moves a root by up to 4e-9
    params = ModelParams(5, m, xi)
    if energy is None:
        energy = potential_minimum(params).v_min + 1e-9
    r_minus, r_plus = turning_points(params, energy)
    assert r_minus < potential_minimum(params).r_min < r_plus
    assert _solves_v_equals_e(params, energy, r_minus)
    assert _solves_v_equals_e(params, energy, r_plus)
    if energy == 1e120:  # and the Agmon weight at that energy is built
        weight = agmon_weight(params, energy, Grid(20.0, 800))
        assert weight.well == (r_minus, r_plus) and np.all(weight.values == 0.0)


@pytest.mark.parametrize("call", [
    lambda: potential_minimum(ModelParams(5, 1, 1e78)),
    lambda: turning_points(ModelParams(5, 1, 1e103), 1e206),
    lambda: agmon_weight(ModelParams(5, 1, 1e103), 1e206, Grid(20.0, 200)),
], ids=["potential_minimum", "turning_points", "agmon_weight"])
def test_a_minimum_whose_terms_overflow_is_a_convergence_error(call):
    # start**4 (xi = 1e78) and r**3 (xi = 1e103) raised a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="a term overflows the float range$"):
            call()


def test_the_largest_minimum_in_range_keeps_its_bits():
    # xi = 1e77 is the last decade whose start**4 is a float
    profile = potential_minimum(ModelParams(5, 1, 1e77))
    assert (profile.r_min, profile.v_min) == (1e77, 3.75e-154)


@pytest.mark.parametrize("xi", [1e4, 1e5, 1e6, 3e6, 1e7, 1e8, 1e15])
def test_an_inner_turning_point_is_resolved_or_refused(xi):
    # at E = xi^2 the inner root r ~ (k/2xi)^(1/3) carries eps E / |r V'(r)|
    # of rounding; at xi = 1e15, where that is 4.5, r_minus was 3.88e-7 for a
    # root at 4.34e-7.  Up to xi = 1e6 the bound is at most 3e-9; from
    # xi = 3e6 on it is above 1e-8 and the root is refused
    params, energy = ModelParams(5, 1, xi), xi * xi
    if xi >= 3e6:
        with pytest.raises(ConvergenceError, match=r"floats resolve r=.* only to .* of it$"):
            turning_points(params, energy)
        return
    r_minus, r_plus = turning_points(params, energy)
    ref_minus, ref_plus = oracles.turning_points_reference(params.k, xi, energy)
    assert r_minus == pytest.approx(ref_minus, rel=1e-8)
    assert r_plus == pytest.approx(ref_plus, rel=1e-15)


def test_turning_points_empty_well():
    params = ModelParams(5, 2, 1.0)
    v_min = potential_minimum(params).v_min
    with pytest.raises(ModelError):
        turning_points(params, v_min - 0.1)


@pytest.mark.parametrize("energy", [np.inf, -np.inf, np.nan])
def test_turning_points_refuse_a_non_finite_energy(energy):
    # inf raised ZeroDivisionError: the inner bracket halved r until r*r was 0
    params = ModelParams(5, 2, 1.0)
    with pytest.raises(ModelError, match="energy must be finite"):
        turning_points(params, energy)
    with pytest.raises(ModelError, match="energy must be finite"):
        agmon_weight(params, energy, Grid(20.0, 800))


def test_harmonic_multiplicity_low_dimensions():
    # degree-m harmonics on S^(n-2): 2m+1 on the 2-sphere, (m+1)^2 on S^3
    assert [harmonic_multiplicity(4, m) for m in range(4)] == [1, 3, 5, 7]
    assert [harmonic_multiplicity(5, m) for m in range(4)] == [1, 4, 9, 16]
    with pytest.raises(ModelError):
        harmonic_multiplicity(3, 1)


@given(st.integers(min_value=4, max_value=12), st.integers(min_value=1, max_value=30))
def test_harmonic_multiplicity_positive_increasing(n, m):
    assert harmonic_multiplicity(n, m) >= 1
    if n >= 5:
        assert harmonic_multiplicity(n, m + 1) > harmonic_multiplicity(n, m)
