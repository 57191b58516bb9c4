"""Command-line layer: parsing, config merge, schemas, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import magband.solver

from magband import Grid, ModelError, ModelParams, integrate, ClassicalState, radial_period
from magband.acceptance import ALL_CHECKS
from magband.cli import _OPTIONS, _float, _float_grid, _int_list, _pair, _read_config, main
from magband.tables import (
    CONVERGENCE_HEADER,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    format_value,
    render_csv,
    trajectory_rows,
)


# ------------------------------------------------------------------ parsers

def test_int_list_forms():
    assert _int_list("3") == [3]
    assert _int_list("0,2,5") == [0, 2, 5]
    assert _int_list("2..5") == [2, 3, 4, 5]
    with pytest.raises(ModelError):
        _int_list("5..2")
    with pytest.raises(ModelError):
        _int_list("a,b")


@given(st.integers(-50, 50), st.integers(0, 30))
def test_int_list_range_roundtrip(lo, span):
    assert _int_list(f"{lo}..{lo + span}") == list(range(lo, lo + span + 1))


def test_float_grid_forms():
    assert np.allclose(_float_grid("-1:1:0.5"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(_float_grid("2.5"), [2.5])
    assert np.allclose(_float_grid("1,4,9"), [1.0, 4.0, 9.0])
    with pytest.raises(ModelError):
        _float_grid("0:1:0.3")  # step does not divide
    with pytest.raises(ModelError):
        _float_grid("0:1:-0.5")
    for text in ("0:inf:1", "nan:1:0.5", "-inf:0:1", "0:1:inf"):
        with pytest.raises(ModelError, match="finite"):
            _float_grid(text)  # refused before the count is rounded


def test_pair_forms():
    assert _pair("1.5:2.5") == (1.5, 2.5)
    assert _pair("1.5,2.5") == (1.5, 2.5)
    with pytest.raises(ModelError):
        _pair("1:2:3")
    for text in ("8:inf", "-inf,1", "nan:2"):
        with pytest.raises(ModelError, match="finite"):
            _pair(text)


def test_read_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 0..2   # comment\nxi=0:1:0.5\n\n# full-line comment\n")
    assert _read_config(str(cfg)) == {"m": "0..2", "xi": "0:1:0.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ModelError):
        _read_config(str(bad))


# ------------------------------------------------------------------- tables

def test_format_value_lossless():
    for x in (1.0 / 3.0, 1e-17, -2.5, np.float64(np.pi), 0.1 + 0.2):
        assert float(format_value(float(x))) == float(x)
    assert format_value(3) == "3"


def test_trajectory_rows_columns():
    traj = integrate(ClassicalState(1.2, 0.0, 0.0, 0.1, 0.5, 0.3), 0.01, 1e-3)
    rows = trajectory_rows(traj)
    assert len(rows) == 11
    first = rows[0]
    assert first[0] == 0.0 and first[1] == 1.2 and first[8] == 1.2 * 0.5
    text = render_csv(("t", "x"), [(0.0, 1.2)])
    assert text.startswith("t,x\n")


@pytest.mark.parametrize("stride", [0, 2.5, -1], ids=["0", "2.5", "-1"])
def test_trajectory_rows_take_the_stride_by_the_integer_rule(stride):
    traj = integrate(ClassicalState(1.2, 0.0, 0.0, 0.1, 0.5, 0.3), 0.01, 1e-3)
    with pytest.raises(ModelError, match=rf"^stride must be an integer >= 1, got {stride}$"):
        trajectory_rows(traj, stride)
    assert trajectory_rows(traj, np.int64(3)) == trajectory_rows(traj)[::3]


# -------------------------------------------------------------- subcommands

def run_cli(*argv):
    return main(list(argv))


def test_sweep_stdout_schema(capsys):
    assert run_cli("sweep", "--n", "5", "--m", "0..1", "--p", "1..2",
                   "--xi", "0:1:0.5", "--radius", "12", "--intervals", "600") == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 1 + 2 * 2 * 3
    # sorted by (m, p, xi); lambda > 2p - 1 in every row
    keys = []
    for line in lines[1:]:
        n, m, p, xi, lam, fh, bd = line.split(",")
        assert (int(n), float(lam) > 2 * int(p) - 1) == (5, True)
        keys.append((int(m), int(p), float(xi)))
    assert keys == sorted(keys)
    # 17 significant digits: values round-trip through text exactly
    val = lines[1].split(",")[4]
    assert format_value(float(val)) == val


def test_sweep_output_file_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--m", "0..1", "--p", "1", "--xi", "0:1:0.25",
            "--radius", "12", "--intervals", "600")
    assert run_cli(*args, "--output", str(out1)) == 0
    assert run_cli(*args, "--output", str(out2)) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["sweep", "current"])
def test_workers_option_is_refused(command, tmp_path, capsys):
    # fibers are solved serially; there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--workers", "4")
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers=4\n")
    assert run_cli(command, "--config", str(cfg)) == 2
    assert "workers" in capsys.readouterr().err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=0..3\np=1\nxi=0:1:1\nradius=12\nintervals=600\n")
    assert run_cli("sweep", "--config", str(cfg), "--m", "0") == 0
    out = capsys.readouterr().out
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2  # --m overrode the file's 0..3
    assert all(row.split(",")[1] == "0" for row in rows)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radiuss=12\n")
    assert run_cli("sweep", "--config", str(cfg)) == 2
    assert "radiuss" in capsys.readouterr().err


def test_invalid_value_exits_2(capsys):
    assert run_cli("sweep", "--m", "zebra") == 2
    capsys.readouterr()


def test_no_partial_output_on_failure(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    code = run_cli("sweep", "--m", "0", "--p", "0", "--output", str(target))
    capsys.readouterr()
    assert code == 2
    assert not target.exists()


def test_scaling_below_landau_exits_2(capsys):
    assert run_cli("scaling", "--energy", "0.5", "--m", "5..6") == 2
    capsys.readouterr()


def test_current_window_containing_landau_exits_2(capsys):
    assert run_cli("current", "--window", "2.5:3.5") == 2
    capsys.readouterr()


def test_current_window_below_first_band_exits_2(capsys):
    # a valid window below E_1 = 1: no band meets it
    assert run_cli("current", "--window", "0.2:0.8") == 2
    assert "no band meets the window" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--cutoffs=10", "at least two cutoffs"),  # the bulk decay slope needs two
    ("--epsilon=-1", "epsilon must be positive"),
    (f"--edge-m-max={10**160}", "past the float range"),  # never ended
    ("--edge-m-max=100000", "above the limit of 4194304"),  # solved for minutes
    ("--cutoffs=10,100000", "above the limit of 4194304"),  # after the edge solves
])
def test_current_invalid_input_exits_2_before_solving(flag, message, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    assert run_cli("current", flag) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command_line, message", [
    ("scaling --m 5,6 --step=0", "grid step must be positive"),
    ("scaling --m 5,6 --step=-0.01", "grid step must be positive"),
    ("scaling --m 5,6 --step=nan", "grid step must be positive"),
    ("current --step=0", "grid step must be positive"),
    ("current --step=-0.01", "grid step must be positive"),
    ("current --step=nan", "grid step must be positive"),
    ("asym --samples=0", "at least 3 samples"),
    ("asym --samples=-2", "at least 3 samples"),
    ("scaling --energy=inf", "energy must be finite"),
    ("classical --vx=-inf", "initial state (x, y, z, vx, vy, vz) must be finite"),
    ("convergence --bound=-1", "bound must be positive"),
    ("convergence --bound=0", "bound must be positive"),
    ("sweep --xi 0:inf:1", "grid start and stop must be finite, got '0:inf:1'"),
    ("sweep --xi nan:1:0.5", "grid start and stop must be finite, got 'nan:1:0.5'"),
    ("asym --window 8:inf", "expected two finite numbers 'a:b', got '8:inf'"),
    ("current --window=-inf:2", "expected two finite numbers 'a:b', got '-inf:2'"),
    ("sweep --m 0 --p 1 --xi 0 --intervals 1000000000000", "above the limit of 4194304"),
    ("convergence --m 0 --p 1 --intervals 1000000000000", "above the limit of 4194304"),
    # solved a 4194303-row fiber before it refused the refinement
    ("convergence --m 0 --p 1 --intervals 4194304", "a grid of 8388608 intervals"),
    ("asym --intervals 1000000000000", "above the limit of 4194304"),
    ("asym --intervals 4194304", "a grid of 8388608 intervals"),  # its refinement
    ("classical --t-max 1e12", "steps, above the limit of 33554431"),
    ("sweep --xi=0:1e13:1", "has 10000000000001 entries, above the limit of 4194304"),
    ("asym --samples 10000000000000", "at most 4194304, got 10000000000000"),
    ("scaling --m 5..10000000000000", "has 9999999999996 entries, above the limit of 4194304"),
    ("convergence --m 0..10000000000000",
     "has 10000000000001 entries, above the limit of 4194304"),
    # 2/h^2 overflowed (OverflowError) or divided by zero (ZeroDivisionError), exit 1
    ("sweep --m 0 --p 1 --xi 0 --radius 1e308 --intervals 16", "outside the float range"),
    ("sweep --m 0 --p 1 --xi 0 --radius 1e-300 --intervals 16", "outside the float range"),
    # the wall too close at value 0 (exit 3 from a failed solve)
    ("sweep --m 0 --p 1 --xi 0 --radius 1e-150 --intervals 16",
     "Agmon lengths past the well of lambda=0, fewer than 14; a radius of 5.2915 is admitted"),
    # k_m = 1e320: OverflowError from float(coupling), exit 1
    ("sweep --m 1" + "0" * 160 + " --p 1 --xi 0 --radius 20 --intervals 480",
     "gives a coupling k_m = ((2m + n - 3)^2 - 1)/4 past the float range"),
    # (R - xi)^2 = 1e400: OverflowError from the bisection start, exit 1
    ("sweep --m 1 --p 1 --xi=-1e200", "the potential (r - xi)^2 on Grid(radius=20.0, "
     "intervals=4800) is past the float range"),
])
def test_bad_grid_input_exits_2_before_solving(command_line, message, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    monkeypatch.setattr("magband.solver._follow", no_solve)
    monkeypatch.setattr("magband.bands._follow", no_solve)
    assert run_cli(*command_line.split()) == 2
    assert message in capsys.readouterr().err


def test_a_sweep_whose_potential_minimum_overflows_answers(capsys):
    # potential_minimum's OverflowError escaped the fiber step: exit 1
    assert run_cli("sweep", "--m", "1", "--p", "1", "--xi=1e78", "--radius", "2e78",
                   "--intervals", "200") == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1].startswith("5,1,1,1e+78,")


def test_convergence_refuses_an_empty_m_range(tmp_path, monkeypatch, capsys):
    # convergence exited 0 with no entries and no checks, then stated its own
    # rule; it and sweep now refuse with the library's one message, before
    # any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    monkeypatch.setattr("magband.bands._follow", no_solve)
    config = tmp_path / "empty.cfg"
    config.write_text("m=\n", encoding="utf-8")
    for command in ("convergence", "sweep"):
        for argv in ((command, "--m", ","), (command, "--config", str(config))):
            assert run_cli(*argv) == 2
            assert "need at least one angular number m, got none" in capsys.readouterr().err


@pytest.mark.parametrize("command_line, message", [
    # each exited 0 with wrong numbers: positive slopes for a decreasing band,
    # a PASS for 63.07 against the true 1.0021, a remainder slope of +24.17;
    # each wall is too close even at value 0, so each is refused before any
    # solve, naming the radius xi + sqrt(2 REACH) at the largest xi
    ("sweep --m 1 --p 1..2 --xi 19,25", "a radius of 30.29"),
    ("convergence --m 0 --p 1 --xi 19 --radius 12 --intervals 48000", "a radius of 24.29"),
    ("asym --radius 12 --intervals 2880 --window 8:15", "a radius of 20.29"),
])
def test_inadmissible_grid_exits_2_naming_the_radius(command_line, message, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the grid was admitted")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    monkeypatch.setattr("magband.solver._continue_fiber", no_solve)
    assert run_cli(*command_line.split()) == 2
    err = capsys.readouterr().err
    assert "Agmon lengths past the well" in err and message in err, err


@pytest.mark.parametrize("command_line, code, message", [
    ("asym --order -1", 2, "expansion order must be an integer >= 0"),
    ("asym --n 4 --m 0 --window 2.5:3.5 --order -1", 2,
     "expansion order must be an integer >= 0"),
    ("asym --m 3 --window 5:8", 2, "inside the pre-asymptotic region"),
    ("asym --window 8:8", 2, "empty xi window [8.0, 8.0]"),
    ("asym --window 15:8", 2, "empty xi window [15.0, 8.0]"),
    ("asym --n 4 --m 0 --window 0:1", 2, "window must satisfy 0 < lo < hi"),
])
def test_asym_bad_input_refused_before_solving(command_line, code, message,
                                               monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    assert run_cli(*command_line.split()) == code
    assert message in capsys.readouterr().err


def test_asym_defaults_start_two_fibers(monkeypatch, capsys):
    # one sweep on the grid and one on its refinement, each starting one fresh
    # fiber, from its harmonic well, and bisecting nothing
    calls, fresh = [], []
    original = magband.solver._bisection

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def follow(operator, xi, count, previous, _follow=magband.bands._follow, **kwargs):
        fresh.append(previous is None)
        return _follow(operator, xi, count, previous, **kwargs)

    monkeypatch.setattr(magband.solver, "_bisection", counted)
    monkeypatch.setattr(magband.bands, "_follow", follow)
    assert run_cli("asym") == 0
    capsys.readouterr()
    assert len(calls) == 0 and sum(fresh) == 2


_NUMBER_OPTIONS = [
    (command, name, convert, default)
    for command, table in _OPTIONS.items()
    for name, (convert, default, _help) in table.items()
    if convert in (_float, _pair, _float_grid)
]


@pytest.mark.parametrize(
    "command, name, convert, default", _NUMBER_OPTIONS,
    ids=[f"{command}-{name}" for command, name, _c, _d in _NUMBER_OPTIONS],
)
def test_nan_number_option_exits_2_naming_it(command, name, convert, default,
                                              monkeypatch, capsys):
    # an error line that names the value shows it was refused up front
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    value = "nan" if convert is _float else "nan:" + default.split(":", 1)[1]
    assert run_cli(command, f"--{name.replace('_', '-')}={value}") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("error:") and "nan" in line for line in err.splitlines()), err


def test_classical_finds_the_radial_period_once(capsys):
    # the report takes the period effective_velocity already found
    code = radial_period.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    sys.setprofile(profile)
    try:
        assert run_cli("classical", "--t-max", "30") == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert len(calls) == 1


def test_classical_summary_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = run_cli("classical", "--t-max", "30", "--dt", "1e-3",
                   "--stride", "200", "--output", str(csv_path))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["t_max"] == 30.0
    res = report["results"]
    assert res["energy_drift"] <= 1e-10
    assert abs(res["vz_formula"]) <= res["vz_bound"]
    assert {c["name"] for c in report["checks"]} >= {"invariant-drift", "vz-agreement"}
    assert all(c["pass"] for c in report["checks"])
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,z,vx,vy,vz,E,sigma,c"
    assert len(lines) == 1 + 151  # 30001 samples, stride 200, plus header


@pytest.mark.parametrize("stride", [1, 7, 100])
def test_classical_csv_matches_format_then_stride(stride, tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    assert run_cli("classical", "--t-max", "20", f"--stride={stride}",
                   "--output", str(csv_path)) == 0
    capsys.readouterr()
    traj = integrate(ClassicalState(1.2, 0.0, 0.0, 0.1, 0.5, 0.3), 20.0, 1e-3)
    expected = render_csv(TRAJECTORY_HEADER, trajectory_rows(traj)[::stride])
    assert csv_path.read_text() == expected


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_classical_stride_below_1_exits_2_before_integrating(stride, tmp_path,
                                                             monkeypatch, capsys):
    def no_integrate(*args, **kwargs):
        raise AssertionError("integration before the stride was checked")

    monkeypatch.setattr("magband.cli.integrate", no_integrate)
    assert run_cli("classical", "--t-max", "20", f"--stride={stride}",
                   "--output", str(tmp_path / "traj.csv")) == 2
    assert "stride must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_convergence_summary(tmp_path, capsys):
    csv_path = tmp_path / "conv.csv"
    code = run_cli("convergence", "--m", "0..1", "--p", "1..2",
                   "--radius", "12", "--intervals", "600",
                   "--bound", "1e-3", "--output", str(csv_path))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in report["checks"])
    entries = report["results"]["entries"]
    assert len(entries) == 4
    for e in entries:
        # Richardson estimate brackets reality: fine closer than coarse
        assert e["error_estimate"] < 1e-3
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CONVERGENCE_HEADER)
    assert len(lines) == 5


def test_default_convergence_exits_1_naming_its_failing_bands(capsys):
    # the default grid does not reach the default bound on the upper bands
    assert run_cli("convergence") == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    assert len(checks) == 12
    assert failed == [f"error(m={m},p={p})" for m, p in
                      [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]]


@pytest.mark.parametrize("bands", ["0,1", "-1,3"])
def test_convergence_band_index_below_1_exits_2(bands, monkeypatch, capsys):
    # convergence stated its own rule ("band indices must be integers >= 1");
    # it and sweep now refuse with the library's one message, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the input was checked")

    monkeypatch.setattr("magband.solver._ldl", no_solve)
    message = f"band index p must be an integer >= 1, got {bands.split(',')[0]}"
    for command in ("convergence", "sweep"):
        assert run_cli(command, "--m", "0", f"--p={bands}") == 2
        assert message in capsys.readouterr().err


def test_scaling_summary(capsys, tmp_path):
    csv_path = tmp_path / "scaling.csv"
    code = run_cli("scaling", "--m", "5,6,8", "--output", str(csv_path))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["results"]["xi_slope"] - 0.5) < 0.1
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "m,k_m,xi_m,lambda_prime,xi_over_sqrtk,prime_times_sqrtk"
    assert len(lines) == 4


def test_asym_inverse_power_route(capsys):
    code = run_cli("asym", "--n", "5", "--m", "2", "--p", "1", "--order", "4",
                   "--window", "8:14", "--samples", "7",
                   "--radius", "20", "--intervals", "2400")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    res = report["results"]
    assert res["regime"] == "inverse-power"
    alphas = res["alphas"]
    assert alphas[0] == pytest.approx(0.0, abs=1e-14)
    assert alphas[1] == pytest.approx(1.0, abs=1e-12)
    assert alphas[3] == pytest.approx(1.5, abs=1e-12)
    assert res["coupling_sensitive_orders"] == []


def test_asym_exponential_route(capsys):
    code = run_cli("asym", "--n", "4", "--m", "0", "--window", "2.5:3.5",
                   "--samples", "9", "--radius", "12", "--intervals", "4800")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    res = report["results"]
    assert res["regime"] == "exponential"
    assert min(res["gap"]) > 0
    names = {c["name"]: c["pass"] for c in report["checks"]}
    assert names["gap-positive"]


def test_asym_reports_the_numbers_of_checks_04_and_10(capsys):
    # the CLI and the acceptance battery run one pipeline, band_asymptotics
    checks = dict(ALL_CHECKS)
    assert run_cli("asym", "--n", "5", "--m", "1", "--p", "1", "--order", "2",
                   "--window", "8:15", "--samples", "15",
                   "--radius", "30", "--intervals", "7200") == 0
    slope = json.loads(capsys.readouterr().out)["results"]["remainder_slope"]
    assert slope == pytest.approx(-3.99685941541, abs=1e-10)
    assert checks["04-leading-asymptotics"]().detail == f"remainder slope {slope}"

    assert run_cli("asym", "--n", "4", "--m", "0", "--p", "1", "--order", "0",
                   "--window", "2.5:3.5",
                   "--samples", "11", "--radius", "12", "--intervals", "4800") == 0
    spread = {c["name"]: c["value"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert spread["profile-spread"] == pytest.approx(1.05733, abs=1e-5)
    assert checks["10-exponential-regime"]().value == spread["profile-spread"]


def test_asym_indeterminate_remainder_fails_as_in_check_04(capsys):
    # the residuals sit in the noise, so no rate is witnessed: the remainder
    # criterion is listed with a NaN slope and fails, and the run exits 1;
    # the report stays strict JSON, with the NaN written as null
    assert run_cli("asym", "--order", "6", "--window", "12:15", "--samples", "5",
                   "--radius", "30", "--intervals", "2400") == 1

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["results"]["remainder_indeterminate"]
    checks = {c["name"]: c for c in report["checks"]}
    assert list(checks) == ["alpha1", "alpha2", "remainder-slope"]
    assert checks["remainder-slope"]["value"] is None
    assert not checks["remainder-slope"]["pass"]


@pytest.mark.parametrize("command_line, code, nulls", [
    # two fit points leave no degrees of freedom for a standard error
    ("scaling --m 5,6", 0,
     [("results", "xi_slope_stderr"), ("results", "derivative_slope_stderr")]),
    ("current --cutoffs 10,20", 0, [("results", "bulk", "slope_stderr")]),
    # e^{xi^2} overflows past xi ~ 26.6, so the gap profile is inf
    ("asym --n 4 --m 0 --order 0 --window 27:28 --samples 3 --radius 40 --intervals 2000", 1,
     [("results", "profile", 0), ("results", "profile", 1), ("results", "profile", 2),
      ("checks", 1, "value")]),
], ids=["scaling", "current", "asym"])
def test_every_report_is_strict_json(command_line, code, nulls, capsys):
    # every non-finite value in a report, not only a criterion's, is null
    assert run_cli(*command_line.split()) == code

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    for path in nulls:
        entry = report
        for key in path:
            entry = entry[key]
        assert entry is None


def test_gap_positive_fails_on_an_indeterminate_profile(capsys):
    # past xi ~ 26.6 the true gap (~e^{-729}) lies far below the grid's
    # error, so the report is indeterminate and the computed gap is noise:
    # gap-positive fails with a null value, as profile-spread does
    command = "asym --n 4 --m 0 --order 0 --window 27:28 --samples 3 --radius 40 --intervals 2000"
    assert run_cli(*command.split()) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["indeterminate"] is True
    checks = {c["name"]: c for c in report["checks"]}
    failed = {name for name, c in checks.items() if not c["pass"]}
    assert {"gap-positive", "profile-spread"} <= failed
    assert checks["gap-positive"]["value"] is None
    assert checks["gap-positive"]["bound"] == "> 0.0"
    # check 10's resolved gap keeps its value and verdict
    check = magband.acceptance.check_exponential_regime()
    assert check.passed and check.value == 1.057331112342419


def test_asym_order_1_lists_alpha1(capsys):
    assert run_cli("asym", "--order", "1") == 0
    checks = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert checks == ["alpha1", "remainder-slope"]


def test_acceptance_single_check(capsys, tmp_path):
    summary = tmp_path / "acceptance.json"
    code = run_cli("acceptance", "--only", "01", "--summary", str(summary))
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 1
    assert "01-exact-spectrum" in lines[0]
    assert code == (0 if "PASS" in lines[0] else 1)
    (check,) = json.loads(summary.read_text())["checks"]
    assert check["name"] == "01-exact-spectrum"
    assert check["pass"] == (code == 0)
    assert check["detail"] in lines[0]


def test_console_script_entry():
    # the subprocess finds the package on its PYTHONPATH, not on pytest's path
    src = str(Path(magband.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "magband.cli", "sweep", "--m", "0", "--p", "1",
         "--xi", "0:0:1", "--radius", "12", "--intervals", "600"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(SWEEP_HEADER))
