"""Hermite-ladder recursion and large-momentum expansion checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magband import (
    ModelError,
    coupling_constant,
    evaluate_expansion,
    expansion_coefficients,
    exponential_gap_check,
    landau_level,
    remainder_rate,
)
from magband.asymptotics import apply_A, apply_s
from magband.bands import BandCurve

import oracles


# ------------------------------------------------------------- ladder algebra

def test_apply_s_matches_quadrature_elements():
    size = 10
    for j in range(1, 7):
        image = apply_s(np.eye(size)[j - 1])
        for i in range(1, size + 1):
            expected = oracles.ladder_matrix_element(i, j)
            assert image[i - 1] == pytest.approx(expected, abs=1e-12)


coeff_arrays = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=3, max_size=12
).map(np.array)


@given(coeff_arrays, coeff_arrays)
@settings(max_examples=50)
def test_apply_s_is_symmetric(u, v):
    if u.size != v.size:
        return
    # <u, s v> = <s u, v>: the truncated ladder matrix is symmetric
    assert u @ apply_s(v) == pytest.approx(apply_s(u) @ v, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=2, max_value=6))
def test_apply_A_matches_dense_power(q):
    size = 14
    s = np.zeros((size, size))
    for idx in range(1, size):
        s[idx - 1, idx] = s[idx, idx - 1] = np.sqrt(idx / 2.0)
    dense = (q - 1) * np.linalg.matrix_power(-s, q - 2)
    for j in (1, 3, 5):
        image = apply_A(q, np.eye(size)[j - 1])
        assert np.allclose(image, dense[:, j - 1], atol=1e-12)


def test_apply_A_first_operator_vanishes():
    image = apply_A(1, np.eye(8)[1])
    assert np.all(image == 0.0)


# --------------------------------------------------------- expansion recursion

@pytest.mark.parametrize("p,k", [(1, 0.75), (1, 8.75), (2, 2.0), (3, 15.75),
                                 (4, -0.25), (2, 1e4)])
def test_expansion_matches_dense_recursion(p, k):
    # the dense oracle's basis is 8 larger than the recursion's p + 2N
    for order in range(9):
        coeffs = expansion_coefficients(p, k, order)
        dense = oracles.dense_alphas(p, k, order, p + 2 * order + 8)
        assert np.allclose(coeffs.alphas, dense, rtol=1e-12, atol=1e-12), order


def test_expansion_analytic_leading_orders():
    for p in (1, 2, 4):
        coeffs = expansion_coefficients(p, 3.0, 4)
        assert coeffs.alphas[0] == 0.0
        assert coeffs.alphas[1] == pytest.approx(1.0, abs=1e-14)
        assert coeffs.alphas[2] == pytest.approx(0.0, abs=1e-14)
        # alpha_4 = 3 E_p / 2, independent of the coupling
        assert coeffs.alphas[3] == pytest.approx(1.5 * landau_level(p), rel=1e-13)


def test_expansion_modes_banded_and_orthogonal():
    p, order = 2, 5
    coeffs = expansion_coefficients(p, 4.0, order)
    g0 = coeffs.modes[0]
    for q, g in enumerate(coeffs.modes):
        support = np.nonzero(g)[0] + 1
        assert np.all(np.abs(support - p) <= q)  # ladder bandedness
        if q >= 1:
            assert abs(g @ g0) < 1e-14


def test_expansion_coupling_dependence_enters_late():
    # first four coefficients are coupling-free; the k-linear correctors
    # first feed back into alpha at order 6
    a = expansion_coefficients(1, 1.0, 6)
    b = expansion_coefficients(1, 2.0, 6)
    assert np.allclose(a.alphas[:5], b.alphas[:5], atol=1e-13)
    assert abs(a.alphas[5] - b.alphas[5]) > 1e-3


def test_expansion_order_zero():
    coeffs = expansion_coefficients(2, 5.0, 0)
    assert coeffs.alphas.size == 0
    assert evaluate_expansion(coeffs, 7.0) == landau_level(2)


def test_evaluate_expansion_values():
    coeffs = expansion_coefficients(1, 2.0, 2)
    assert evaluate_expansion(coeffs, 10.0) == pytest.approx(1.0 + 2.0 / 100.0)
    with pytest.raises(ModelError):
        evaluate_expansion(coeffs, 0.0)
    with pytest.raises(ModelError):
        evaluate_expansion(coeffs, -3.0)
    # xi^-2 overflows to inf and alpha_1 = 0 makes 0 * inf: the sum was NaN,
    # with only a RuntimeWarning
    with pytest.raises(ModelError, match="partial sum at xi=1e-300 is not finite"):
        evaluate_expansion(expansion_coefficients(1, 0.75, 4), 1e-300)


def test_expansion_takes_the_exact_coupling():
    # the library's own Fraction coupling raised TypeError
    exact, rounded = (expansion_coefficients(1, k, 4) for k in (coupling_constant(5, 1), 3.75))
    assert exact.coupling == rounded.coupling and type(exact.coupling) is float
    assert np.array_equal(exact.alphas, rounded.alphas)
    assert all(np.array_equal(a, b) for a, b in zip(exact.modes, rounded.modes, strict=True))


# -------------------------------------------------------- remainder diagnostics

def synthetic_band(n, m, p, k, xi, extra):
    """Band samples = partial sum + known contamination, for rate tests."""
    coeffs = expansion_coefficients(p, k, 2)
    values = np.array([evaluate_expansion(coeffs, x) for x in xi]) + extra(xi)
    return BandCurve(n, m, p, xi, values,
                     np.zeros_like(values), np.zeros_like(values)), coeffs


def test_remainder_rate_recovers_power():
    # contaminate with c / xi^4 (the true next term: alpha_3 = 0);
    # k = 110 puts the asymptotic onset at 2 sqrt(k) = 21
    xi = np.linspace(22.0, 44.0, 12)
    band, coeffs = synthetic_band(5, 8, 1, float((21**2 - 1) / 4), xi,
                                  lambda x: 2.7 / x**4)
    report = remainder_rate(band, coeffs, (22.0, 44.0))
    assert not report.indeterminate
    assert report.slope == pytest.approx(-4.0, abs=0.01)


def test_remainder_rate_noise_floor_indeterminate():
    xi = np.linspace(22.0, 44.0, 12)
    band, coeffs = synthetic_band(5, 8, 1, float((21**2 - 1) / 4), xi,
                                  lambda x: 2.7 / x**4)
    report = remainder_rate(band, coeffs, (22.0, 44.0), noise_floor=1.0)
    assert report.indeterminate
    assert report.slope is None


def test_remainder_rate_window_onset_guard():
    # window must start past max(5, 2 sqrt(k)); k = 110 -> onset ~ 21
    xi = np.linspace(8.0, 15.0, 8)
    band, coeffs = synthetic_band(5, 8, 1, float((21**2 - 1) / 4), xi,
                                  lambda x: 1.0 / x**4)
    with pytest.raises(ModelError):
        remainder_rate(band, coeffs, (8.0, 15.0))


def test_exponential_gap_profile():
    # gap g = c xi^(2p-1) e^{-xi^2}: the compensated profile is flat
    xi = np.linspace(2.5, 3.5, 11)
    gap = 2.3 * xi * np.exp(-(xi**2))
    values = 1.0 + gap
    band = BandCurve(4, 0, 1, xi, values, np.zeros_like(xi), np.zeros_like(xi))
    prof = exponential_gap_check(band, (2.5, 3.5))
    assert prof.positive and not prof.indeterminate
    assert prof.ratio == pytest.approx(1.0, abs=1e-9)

    noisy = exponential_gap_check(band, (2.5, 3.5), error_estimate=1.0)
    assert noisy.indeterminate


def test_exponential_gap_requires_zero_coupling_pair():
    xi = np.linspace(2.5, 3.5, 5)
    band = BandCurve(5, 1, 1, xi, 1.0 + np.exp(-(xi**2)),
                     np.zeros_like(xi), np.zeros_like(xi))
    with pytest.raises(ModelError):
        exponential_gap_check(band, (2.5, 3.5))
