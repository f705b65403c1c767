import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pairsim
from pairsim import qpm
from pairsim.cli import Output, _emit, cmd_spectrum, cmd_tune
from pairsim.errors import ConfigError, NoSolutionError, SolverError, ValidityRangeError
from pairsim.qpm import (HALF_MAX_ARG, CrystalSpec, PhaseMatchPoint, _brentq, _sinc2,
                         calibrate_period, fwhm_bandwidth, idler_from_energy,
                         phase_mismatch, pm_spectrum, solve_signal,
                         tuning_coefficient, tuning_curve)

PUMP_NM = 532.1
OVEN_C = 142.0

# Frozen hand arithmetic: 1/(1/532 - 1/808) and 1/(1/532.2 - 1/808).
IDLER_532_808 = 1557.4492753623192
IDLER_5322_808 = 1559.1646120377088


def test_idler_from_energy_goldens():
    assert idler_from_energy(532.0, 808.0) == pytest.approx(IDLER_532_808, rel=1e-14)
    li = idler_from_energy(532.2, 808.0)
    assert li == pytest.approx(IDLER_5322_808, rel=1e-14)
    # quoted operating pair is 808 / 1559 to instrument rounding
    assert abs(li - 1559.0) < 0.5


def test_idler_from_energy_degeneracy_point():
    assert idler_from_energy(532.0, 1064.0) == 1064.0


def test_idler_from_energy_rejects_degenerate_input():
    with pytest.raises(ConfigError):
        idler_from_energy(532.0, 532.0)
    with pytest.raises(ConfigError):
        idler_from_energy(532.0, 500.0)
    with pytest.raises(ConfigError, match=r"^signal \(500.0 nm\)"):
        idler_from_energy(532.0, np.array([808.0, 500.0, 400.0]))


def test_phase_match_point_invariants():
    with pytest.raises(ConfigError, match="energy"):
        PhaseMatchPoint(532.1, 808.0, 1500.0, 142.0, 0.0)
    idler = idler_from_energy(1600.0, 3000.0)
    with pytest.raises(ConfigError, match="signal"):
        # labels swapped: signal must be the short-wavelength output
        PhaseMatchPoint(1600.0, idler, 3000.0, 142.0, 0.0)


def test_solver_solution_satisfies_root_property(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    dk = phase_mismatch(crystal, point.pump_nm, point.signal_nm, point.idler_nm,
                        OVEN_C, model=sellmeier)
    assert abs(dk) < qpm.RESIDUAL_TOL_RAD_PER_M
    assert abs(dk) * crystal.length_mm * 1e-3 / 2 < 1e-6  # rad at the crystal scale


def test_solver_hits_reference_operating_point(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    assert abs(point.signal_nm - 808.0) < 5.0
    assert abs(point.idler_nm - 1559.0) < 15.0


def test_solver_refuses_to_fabricate_root(crystal, sellmeier):
    with pytest.raises(NoSolutionError) as excinfo:
        solve_signal(crystal, PUMP_NM, OVEN_C, bracket_nm=(760.0, 790.0),
                     model=sellmeier)
    f_lo, f_hi = excinfo.value.endpoint_values
    assert f_lo * f_hi > 0


def test_exact_grating_term_zeroes_mismatch(crystal, sellmeier):
    # with the period referred to the operating temperature itself, the
    # calibrated grating term equals the index bracket exactly
    period = calibrate_period(crystal, PUMP_NM, 808.0, OVEN_C, model=sellmeier)
    pinned = dataclasses.replace(crystal, poling_period_um=period)
    idler = idler_from_energy(PUMP_NM, 808.0)
    dk = phase_mismatch(pinned, PUMP_NM, 808.0, idler, OVEN_C, model=sellmeier)
    assert abs(dk) < 1e-6


def test_mismatch_symmetric_under_label_exchange(crystal, sellmeier):
    idler = idler_from_energy(PUMP_NM, 808.0)
    a = phase_mismatch(crystal, PUMP_NM, 808.0, idler, OVEN_C, model=sellmeier)
    b = phase_mismatch(crystal, PUMP_NM, idler, 808.0, OVEN_C, model=sellmeier)
    assert a == pytest.approx(b, abs=1e-6)


def test_half_fwhm_perturbation_reaches_half_max_arg(crystal, sellmeier):
    # the spectrum is very slightly asymmetric in wavelength, so a +FWHM/2
    # offset reaches the half-maximum argument only to first order
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    width_nm, _ = fwhm_bandwidth(crystal, point, model=sellmeier)
    idler = point.idler_nm + width_nm / 2.0
    signal = 1.0 / (1.0 / PUMP_NM - 1.0 / idler)
    dk = phase_mismatch(crystal, PUMP_NM, signal, idler, OVEN_C, model=sellmeier)
    x = abs(dk) * crystal.length_mm * 1e-3 / 2.0
    assert x == pytest.approx(HALF_MAX_ARG, rel=1e-3)
    assert _sinc2(x) == pytest.approx(0.5, abs=1e-4)


def test_calibrate_period_matches_specified_grating(crystal, sellmeier):
    period = calibrate_period(crystal, PUMP_NM, 808.0, OVEN_C, model=sellmeier)
    assert abs(period - 21.6) < 0.5


def test_calibrated_period_is_pinned_in_shipped_config(crystal, sellmeier):
    period = calibrate_period(crystal, PUMP_NM, 808.0, OVEN_C, model=sellmeier)
    assert period == pytest.approx(crystal.poling_period_um, abs=1e-9)


def test_calibration_round_trip(crystal, sellmeier):
    period = calibrate_period(crystal, PUMP_NM, 808.0, OVEN_C, model=sellmeier)
    pinned = dataclasses.replace(crystal, poling_period_um=period)
    point = solve_signal(pinned, PUMP_NM, OVEN_C, model=sellmeier)
    assert abs(point.signal_nm - 808.0) < 0.01


def test_calibration_stable_across_nearby_temperatures(crystal, sellmeier):
    p1 = calibrate_period(crystal, PUMP_NM, 808.0, 142.0, model=sellmeier)
    p2 = calibrate_period(crystal, PUMP_NM, 808.0, 143.0, model=sellmeier)
    assert abs(p1 - p2) < 0.05


def test_tuning_curve_reference_range(crystal, sellmeier):
    curve = tuning_curve(crystal, PUMP_NM, (140.0, 185.0), 5.0, model=sellmeier)
    assert len(curve) == 10
    assert not curve.failures
    temps, signals, idlers = (col.tolist() for col in (
        curve.temperature_c, curve.signal_nm, curve.idler_nm))
    assert temps == sorted(temps)
    assert all(b < a for a, b in zip(signals, signals[1:]))  # signal walks down
    assert all(b > a for a, b in zip(idlers, idlers[1:]))    # idler walks up


def test_tuning_coefficient_near_160(crystal, sellmeier):
    curve = tuning_curve(crystal, PUMP_NM, (140.0, 185.0), 5.0, model=sellmeier)
    d_signal, d_idler = tuning_coefficient(curve, 160.0)
    assert abs(abs(d_idler) - 1.3) < 0.65
    assert d_signal < 0 < d_idler


def test_tuning_curve_single_temperature_matches_solver(crystal, sellmeier):
    curve = tuning_curve(crystal, PUMP_NM, (OVEN_C, OVEN_C), 5.0, model=sellmeier)
    assert len(curve) == 1
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    t, s, i = (col.item() for col in (curve.temperature_c, curve.signal_nm, curve.idler_nm))
    assert (t, s, i) == (OVEN_C, point.signal_nm, point.idler_nm)


def test_tuning_curve_rejects_bad_ranges(crystal, sellmeier):
    with pytest.raises(ConfigError):
        tuning_curve(crystal, PUMP_NM, (185.0, 140.0), 5.0, model=sellmeier)
    with pytest.raises(ConfigError):
        tuning_curve(crystal, PUMP_NM, (140.0, 185.0), 0.0, model=sellmeier)


def test_tuning_curve_reports_failures_and_raises_when_empty(crystal, sellmeier):
    with pytest.raises(NoSolutionError):
        tuning_curve(crystal, PUMP_NM, (140.0, 150.0), 5.0,
                     bracket_nm=(760.0, 780.0), model=sellmeier)


def _solve_alone(crystal, temperature_c, bracket_nm, model):
    """(T, signal, idler), or (T, reason) when solve_signal raises there."""
    try:
        point = solve_signal(crystal, PUMP_NM, temperature_c, bracket_nm, model)
    except (ConfigError, NoSolutionError) as exc:
        return temperature_c, str(exc)
    return temperature_c, point.signal_nm, point.idler_nm


@settings(derandomize=True, max_examples=25, deadline=None)
@given(lo=st.floats(-10.0, 20.0, exclude_max=True), hi=st.floats(250.0, 300.0, exclude_min=True),
       step=st.floats(5.0, 40.0),
       bracket_nm=st.sampled_from([qpm.DEFAULT_SIGNAL_BRACKET_NM, (800.0, 860.0)]))
def test_tuning_curve_equals_solve_signal_at_each_temperature(crystal, sellmeier, lo, hi,
                                                              step, bracket_nm):
    # grids that straddle the model's 20-250 C, against one scalar solve per
    # temperature: each row equal, each failure with its reason, in order
    temps = [lo + k * step for k in range(qpm.grid_size(lo, hi, step))]
    alone = [_solve_alone(crystal, t, bracket_nm, sellmeier) for t in temps]
    curve = tuning_curve(crystal, PUMP_NM, (lo, hi), step, bracket_nm, sellmeier)
    rows = list(zip(*(col.tolist() for col in (curve.temperature_c, curve.signal_nm,
                                               curve.idler_nm))))
    assert rows == [r for r in alone if len(r) == 3]
    assert curve.failures == [r for r in alone if len(r) == 2]
    assert curve.failures


def test_energy_conservation_on_random_solver_outputs(crystal, sellmeier):
    rng = np.random.default_rng(20240901)
    for _ in range(1000):
        temp = rng.uniform(135.0, 190.0)
        pump = rng.uniform(531.5, 532.7)
        point = solve_signal(crystal, pump, temp, model=sellmeier)
        residual = abs(1.0 / point.pump_nm - 1.0 / point.signal_nm
                       - 1.0 / point.idler_nm) * point.pump_nm
        assert residual <= 1e-9
        assert abs(point.mismatch_rad_per_m) < qpm.RESIDUAL_TOL_RAD_PER_M


def test_spectrum_peaks_at_solution(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    rows = pm_spectrum(crystal, point, idler_span_nm=8.0, n_points=201,
                       model=sellmeier)
    assert len(rows) == 201
    center = rows[100]
    assert center[0] == pytest.approx(point.idler_nm, abs=1e-9)
    assert center[1] == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 <= eff <= 1.0 for _, eff in rows)


def test_spectrum_first_zero_at_pi(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    half_l = crystal.length_mm * 1e-3 / 2.0

    def arg_minus_pi(idler_nm):
        signal_nm = 1.0 / (1.0 / PUMP_NM - 1.0 / idler_nm)
        dk = phase_mismatch(crystal, PUMP_NM, signal_nm, idler_nm, OVEN_C,
                            model=sellmeier)
        return abs(dk) * half_l - math.pi

    zero_idler = brentq(arg_minus_pi, point.idler_nm + 1e-4, point.idler_nm + 5.0,
                        xtol=1e-12)
    signal_nm = 1.0 / (1.0 / PUMP_NM - 1.0 / zero_idler)
    dk = phase_mismatch(crystal, PUMP_NM, signal_nm, zero_idler, OVEN_C,
                        model=sellmeier)
    assert _sinc2(dk * half_l) < 1e-12


def test_sinc2_symmetry_and_bounds():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 30.0, 200):
        assert abs(_sinc2(x) - _sinc2(-x)) <= 1e-12
        assert 0.0 <= _sinc2(x) <= 1.0
    assert _sinc2(0.0) == 1.0


def test_half_max_arg_matches_bisection_oracle():
    # frozen from an independent bisection of sinc^2(x) = 1/2
    assert HALF_MAX_ARG == pytest.approx(1.3915573782515103, abs=1e-12)
    assert abs(HALF_MAX_ARG - 1.39156) < 1e-4
    assert _sinc2(HALF_MAX_ARG) == pytest.approx(0.5, abs=1e-12)


def test_bandwidth_matches_reference(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    width_nm, width_ghz = fwhm_bandwidth(crystal, point, model=sellmeier)
    assert abs(width_nm - 1.26) / 1.26 < 0.20
    expected_ghz = 299792458.0 * (width_nm * 1e-9) / (point.idler_nm * 1e-9) ** 2 / 1e9
    assert width_ghz == pytest.approx(expected_ghz, rel=1e-12)
    assert abs(width_ghz - 150.0) / 150.0 < 0.20


def test_bandwidth_halves_when_length_doubles(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    w20, _ = fwhm_bandwidth(crystal, point, model=sellmeier)
    doubled = dataclasses.replace(crystal, length_mm=2 * crystal.length_mm)
    w40, _ = fwhm_bandwidth(doubled, point, model=sellmeier)
    assert abs(w20 / w40 - 2.0) < 0.02 * 2.0


def test_bandwidth_length_product_constant(crystal, sellmeier):
    point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    products = []
    for length in (10.0, 20.0, 40.0):
        resized = dataclasses.replace(crystal, length_mm=length)
        width_nm, _ = fwhm_bandwidth(resized, point, model=sellmeier)
        products.append(width_nm * length)
    ref = products[1]
    assert all(abs(p - ref) / ref < 0.02 for p in products)


def test_crystal_spec_invariants():
    with pytest.raises(ConfigError):
        CrystalSpec(length_mm=0.0, poling_period_um=21.6)
    with pytest.raises(ConfigError):
        CrystalSpec(length_mm=20.0, poling_period_um=21.6, qpm_order=2)


def test_csv_writers_round_trip(tmp_path, run_config):
    output = Output(tmp_path)
    curve = cmd_tune(run_config, (140.0, 150.0, 5.0), output)
    cmd_spectrum(run_config, OVEN_C, output)
    _emit(output)
    lines = (tmp_path / "tuning_curve.csv").read_text("utf-8").splitlines()
    assert lines[0] == "T_C,lambda_s_nm,lambda_i_nm"
    assert len(lines) == 1 + len(curve)
    t, s, i = (float(tok) for tok in lines[1].split(","))
    assert (t, s, i) == (140.0, float(f"{curve.signal_nm[0]:.6g}"),
                         float(f"{curve.idler_nm[0]:.6g}"))

    lines = (tmp_path / "pm_spectrum.csv").read_text("utf-8").splitlines()
    assert lines[0] == "lambda_i_nm,rel_eff"
    assert len(lines) == 1 + 401


@pytest.fixture
def brentq_calls(monkeypatch):
    """Records (f, a, b, f_a, f_b, xtol, maxiter, (root, f(root))) of every
    qpm._brentq call; all but f and the tolerances are arrays."""
    calls = []

    def spy(f, a, b, f_a, f_b, xtol, maxiter):
        result = _brentq(f, a, b, f_a, f_b, xtol, maxiter)
        calls.append((f, a, b, f_a, f_b, xtol, maxiter, result))
        return result

    monkeypatch.setattr(qpm, "_brentq", spy)
    return calls


def _one_element(f, k):
    """Element k of the array function f(x, live), as a function of a float
    evaluated on a one-element array."""
    return lambda x: f(np.array([x]), np.array([k]))[0]


def _assert_same_as_scipy(calls):
    """Every element's root is scipy's brentq root of that element alone."""
    for f, a, b, f_a, f_b, xtol, maxiter, (root, f_root) in calls:
        for k in range(a.size):
            g = _one_element(f, k)
            assert (f_a[k], f_b[k], f_root[k]) == (g(a[k]), g(b[k]), g(root[k]))
            assert root[k] == brentq(g, a[k], b[k], xtol=xtol, maxiter=maxiter)


def test_solver_roots_equal_scipy_brentq(crystal, sellmeier, brentq_calls):
    temps = [20.0 + 0.5 * k for k in range(461)]
    curve = tuning_curve(crystal, PUMP_NM, (20.0, 250.0), 0.5, model=sellmeier)
    assert curve.temperature_c.tolist() == temps
    (call,) = brentq_calls                       # one solve for the whole grid
    assert call[1].size == len(temps)
    assert (call[5], call[6]) == (1e-6, 200)
    assert call[7][0].tolist() == curve.signal_nm.tolist()
    _assert_same_as_scipy(brentq_calls)


@pytest.mark.parametrize("temperature_c", [140.0, 142.0, 160.0, 184.0])
def test_fwhm_half_points_equal_scipy_brentq(crystal, sellmeier, brentq_calls,
                                             temperature_c):
    point = solve_signal(crystal, PUMP_NM, temperature_c, model=sellmeier)
    width_nm, _ = fwhm_bandwidth(crystal, point, model=sellmeier)
    half_points = brentq_calls[1:]
    assert [(c[1].size, c[5]) for c in half_points] == [(1, 1e-9), (1, 1e-9)]
    assert width_nm == half_points[0][7][0][0] - half_points[1][7][0][0]
    _assert_same_as_scipy(brentq_calls)


def test_solver_evaluation_equals_phase_mismatch(crystal, sellmeier, brentq_calls):
    # the function the Brent loop evaluates, with its temperature terms
    # computed once per block, against phase_mismatch on a seeded grid that
    # spans the model's temperature range and keeps both outputs inside
    # its wavelength range
    (t_lo, t_hi), step = sellmeier.temperature_range_c, 0.25
    tuning_curve(crystal, PUMP_NM, (t_lo, t_hi), step, model=sellmeier)
    (call,) = brentq_calls
    f, temps = call[0], t_lo + np.arange(call[1].size) * step
    assert temps[-1] == t_hi
    rng = np.random.default_rng(14)
    live = np.sort(rng.choice(temps.size, 5000))
    signal = rng.uniform(600.0, 4400.0, live.size)
    expected = phase_mismatch(crystal, PUMP_NM, signal, idler_from_energy(PUMP_NM, signal),
                              temps[live], model=sellmeier)
    assert np.array_equal(f(signal, live).view(np.int64), expected.view(np.int64))
    for k in range(0, live.size, 250):
        assert expected[k] == phase_mismatch(crystal, PUMP_NM, signal[k].item(),
                                             idler_from_energy(PUMP_NM, signal[k].item()),
                                             temps[live[k]].item(), model=sellmeier)
    # every evaluation keeps the wavelength check and the signal-above-pump check
    with pytest.raises(ValidityRangeError, match="^wavelength 5.4"):
        f(np.array([800.0, 590.0]), np.array([0, 1]))
    with pytest.raises(ConfigError, match="must exceed the pump"):
        f(np.array([800.0, PUMP_NM - 1.0]), np.array([0, 1]))


def _per_element(fn):
    """math.fn applied to each element of an array."""
    return lambda x: np.array([fn(v) for v in x.tolist()])


def _cube(x):
    return x * x * x


@pytest.mark.parametrize("f,a,b", [
    (lambda x: _cube(x) - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: _per_element(math.cos)(x) - x, 0.0, 1.0),
    (lambda x: _per_element(math.cos)(x) - x, 1.0, -2.0),
    (lambda x: _cube(x - 1.0), 0.0, 3.0),
    (lambda x: _cube(x - 1.0), -7.0, 1.5),
    (lambda x: _per_element(math.tanh)(50.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: np.copysign(np.sqrt(np.abs(x - 0.2)), x - 0.2), -1.0, 3.0),
    (lambda x: _cube(x - 1.0), 1.0, 2.0),    # exact zero at the lower end
    (lambda x: _cube(x - 1.0), -2.0, 1.0),   # exact zero at the upper end
], ids=["cubic", "cos", "cos_reversed", "triple", "triple_wide", "tanh_step",
        "sqrt_cusp", "zero_at_a", "zero_at_b"])
@pytest.mark.parametrize("xtol", [1e-6, 1e-9, 2e-12, 1e-15])
def test_brentq_equals_scipy_on_toy_functions(f, a, b, xtol):
    g = _one_element(lambda x, live: f(x), 0)
    root, f_root = _brentq(lambda x, live: f(x), np.array([a]), np.array([b]),
                           np.array([g(a)]), np.array([g(b)]), xtol, 200)
    assert root[0] == brentq(g, a, b, xtol=xtol, maxiter=200)
    assert f_root[0] == g(root[0])


def test_brentq_elements_converge_on_their_own():
    # x^3 - c over [0, 10]: one call, each element retiring at its own
    # iteration and f evaluated only on the elements still live
    c = np.array([2.0, 1000.0, 0.001, 27.0, 5.5, 999.0, 1e-9, 0.0])
    lives = []

    def f(x, live):
        lives.append(live)
        return _cube(x) - c[live]
    a, b = np.zeros(c.size), np.full(c.size, 10.0)
    root, f_root = _brentq(f, a, b, -c, 1000.0 - c, 1e-12, 200)
    evaluations = [sum(k in live for live in lives) for k in range(c.size)]
    assert evaluations[1] == evaluations[-1] == 0    # f(b) = 0 at c = 1000, f(a) = 0 at c = 0
    assert len(set(evaluations)) > 3
    for k in range(c.size):
        g = _one_element(lambda x, live: _cube(x) - c[live], k)
        assert root[k] == brentq(g, a[k], b[k], xtol=1e-12, maxiter=200)
        assert f_root[k] == g(root[k])


def test_brentq_raises_solver_error_at_maxiter():
    f = lambda x: _per_element(math.cos)(x) - x  # noqa: E731
    g = _one_element(lambda x, live: f(x), 0)
    with pytest.raises(RuntimeError):
        brentq(g, 0.0, 1.0, xtol=1e-12, maxiter=3)
    with pytest.raises(SolverError, match="did not converge in 3 iterations"):
        _brentq(lambda x, live: f(x), np.array([0.0]), np.array([1.0]),
                np.array([g(0.0)]), np.array([g(1.0)]), 1e-12, 3)


@pytest.mark.parametrize("residual,raises", [
    (qpm.RESIDUAL_TOL_RAD_PER_M, True),
    (-qpm.RESIDUAL_TOL_RAD_PER_M, True),
    (math.nan, True),
    (math.nextafter(qpm.RESIDUAL_TOL_RAD_PER_M, 0.0), False),
])
def test_solve_signal_enforces_residual_contract(crystal, sellmeier, monkeypatch,
                                                 residual, raises):
    real = qpm._brentq

    def leaves_residual(*args):
        root, _ = real(*args)
        return root, np.full_like(root, residual)
    monkeypatch.setattr(qpm, "_brentq", leaves_residual)
    if raises:
        with pytest.raises(SolverError, match="rad/m, not below"):
            solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
    else:
        point = solve_signal(crystal, PUMP_NM, OVEN_C, model=sellmeier)
        assert point.mismatch_rad_per_m == residual


def test_cli_import_does_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(pairsim.__file__).parents[1])}
    code = ("import sys, pairsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout == "[]\n"
