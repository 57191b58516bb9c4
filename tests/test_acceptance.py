"""Acceptance battery: one test per shipped criterion.

Each check prints its one-line verdict so the log doubles as the acceptance
report.  Criterion 07 fails by design: at xi = -10 the high-frequency
asymptotics has not set in for every (m, p) in the stated range, and the
measured ratio honestly exceeds the stated envelope.  The check reports the
measured range; see the module docstring of magband.acceptance.
"""

from __future__ import annotations

import pytest

from magband import AgmonOverflowError
from magband.acceptance import ALL_CHECKS


@pytest.mark.parametrize("name,check", ALL_CHECKS, ids=[n for n, _ in ALL_CHECKS])
def test_acceptance(name, check):
    result = check()
    print(f"[{name}] {result.line()}")
    assert result.passed, result.line()


def test_high_frequency_failure_reports_its_variational_floor():
    # lambda >= min V, and min V / xi^2 already exceeds the envelope's 1.1
    result = dict(ALL_CHECKS)["07-high-frequency"]()
    assert not result.passed
    assert "variational floor min V/xi^2 = 1.1283 at m=0" in result.detail
    # the verdict lists its criteria, and names the one that failed
    assert result.bound == "lowest >= 1.0; highest <= 1.1"
    assert result.detail.endswith("; failed: highest")


def test_exponential_regime_explains_its_profile():
    # the compensated profile e^(xi^2)(lambda - 1)/xi rises toward the p = 1
    # gap law's limit 2/sqrt(pi), and stays below it over the window
    result = dict(ALL_CHECKS)["10-exponential-regime"]()
    assert (result.passed, result.value) == (True, 1.057331112342419)
    assert result.detail == (
        "gap range [1.804e-05, 4.918e-03]; profile e^(xi^2)(lambda - 1)/xi in "
        "[1.0190, 1.0774], approaching the gap law's limit 2/sqrt(pi) = 1.1284 "
        "like 1 - O(xi^-2)"
    )


def test_agmon_overflow_fails_check_09_with_its_message(monkeypatch):
    def overflow(*args):
        raise AgmonOverflowError("weight overflows")

    monkeypatch.setattr("magband.acceptance.agmon_norm", overflow)
    result = dict(ALL_CHECKS)["09-agmon-uniformity"]()
    assert (result.passed, result.value) == (False, float("inf"))
    assert result.detail == "weight overflows; failed: max-norm, max/median"
