import dataclasses
import math

import numpy as np
import pytest

from pairsim.cli import main
from pairsim.config import load_apd
from pairsim.detector import (GatedApdModel, SpcmModel, detect_in_gate_batch,
                              effective_efficiency, qe_at_overbias)
from pairsim.errors import ConfigError


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _simple_apd(qe=1.0, dark=0.0, jitter=0.0, gate=20.0, **kwargs):
    return GatedApdModel(
        qe_curve=((0.5, qe), (4.0, qe)),
        dark_prob_per_gate=dark,
        gate_length_ns=gate,
        jitter_sigma_ns=jitter,
        **kwargs,
    )


def test_default_curve_hits_operating_point(apd):
    assert qe_at_overbias(apd, 3.7) == pytest.approx(0.20, abs=1e-12)


def test_interpolation_reproduces_knots(apd):
    for volt, eff in apd.qe_curve:
        assert qe_at_overbias(apd, volt) == eff


def test_interpolation_midpoint_is_mean(apd):
    (v0, e0), (v1, e1) = apd.qe_curve[0], apd.qe_curve[1]
    mid = qe_at_overbias(apd, 0.5 * (v0 + v1))
    assert mid == pytest.approx(0.5 * (e0 + e1), rel=1e-12)


def test_interpolation_monotone_when_curve_monotone(apd):
    volts = np.linspace(*apd.overbias_span, 101)
    values = [qe_at_overbias(apd, v) for v in volts]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_out_of_span_clamps_with_warning(apd):
    with pytest.warns(UserWarning, match="clamping"):
        low = qe_at_overbias(apd, 0.1)
    assert low == apd.qe_curve[0][1]
    with pytest.warns(UserWarning, match="clamping"):
        high = qe_at_overbias(apd, 5.0)
    assert high == apd.qe_curve[-1][1]


@pytest.mark.parametrize("overbias", [math.nan, math.inf, -math.inf])
def test_non_finite_overbias_is_config_error(apd, overbias):
    with pytest.raises(ConfigError, match="finite"):
        qe_at_overbias(apd, overbias)


def test_curve_invariants_enforced():
    with pytest.raises(ConfigError, match="knots"):
        GatedApdModel(qe_curve=(), dark_prob_per_gate=0.001, gate_length_ns=20.0)
    with pytest.raises(ConfigError, match="increasing"):
        GatedApdModel(qe_curve=((1.0, 0.1), (1.0, 0.2)),
                      dark_prob_per_gate=0.001, gate_length_ns=20.0)
    with pytest.raises(ConfigError, match="nondecreasing"):
        GatedApdModel(qe_curve=((1.0, 0.2), (2.0, 0.1)),
                      dark_prob_per_gate=0.001, gate_length_ns=20.0)
    with pytest.raises(ConfigError):
        GatedApdModel(qe_curve=((1.0, 1.2),), dark_prob_per_gate=0.001, gate_length_ns=20.0)
    with pytest.raises(ConfigError):
        GatedApdModel(qe_curve=((1.0, 0.2),), dark_prob_per_gate=1.0, gate_length_ns=20.0)


def test_detect_deterministic_limit():
    model = _simple_apd(qe=1.0, dark=0.0, jitter=0.0)
    rng = _rng(42)
    for _ in range(10):
        clicked, t = detect_in_gate_batch(model, np.array([5.0]), 1.0, rng)
        assert clicked[0] and t[0] == 5.0


def test_detect_never_clicks_when_dead():
    model = _simple_apd(qe=0.0, dark=0.0)
    rng = _rng(43)
    clicked, times = detect_in_gate_batch(model, np.full(1000, 5.0), 1.0, rng)
    assert not clicked.any()
    assert np.isnan(times).all()


def test_detect_click_time_tracks_arrival_with_jitter():
    model = _simple_apd(qe=1.0, dark=0.0, jitter=1.0)
    rng = _rng(44)
    clicked, times = detect_in_gate_batch(model, np.full(20000, 5.0), 1.0, rng)
    assert clicked.all()
    assert abs(times.mean() - 5.0) < 0.05
    assert abs(times.std() - 1.0) < 0.05


def test_detect_combined_click_rate(apd):
    # photon present every gate at the operating overbias: expect
    # 1 - (1 - 0.20)(1 - 1.1e-3) = 0.20088
    rng = _rng(45)
    n = 1_000_000
    clicked, _ = detect_in_gate_batch(apd, np.full(n, 8.0), 3.7, rng)
    p = 1.0 - (1.0 - 0.20) * (1.0 - 1.1e-3)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(clicked.mean() - p) < 3 * sigma


@pytest.mark.parametrize("qe,dark,photon,seed", [
    (0.20, 1.1e-3, True, 101),
    (0.05, 1.1e-3, True, 102),
    (0.20, 0.0, True, 103),
    (0.00, 5.0e-3, True, 104),
    (0.20, 1.1e-3, False, 105),
])
def test_click_rate_matches_analytic_combination(qe, dark, photon, seed):
    model = _simple_apd(qe=qe, dark=dark, jitter=1.0)
    rng = _rng(seed)
    n = 100_000
    offsets = np.full(n, 8.0) if photon else np.full(n, np.nan)
    clicked, _ = detect_in_gate_batch(model, offsets, 1.0, rng)
    p = 1.0 - (1.0 - (qe if photon else 0.0)) * (1.0 - dark)
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
    assert abs(clicked.mean() - p) <= 3 * sigma


def test_detect_seeded_stream_is_bit_reproducible(apd):
    offsets = np.full(5000, 8.0)
    c1, t1 = detect_in_gate_batch(apd, offsets, 3.7, _rng(77))
    c2, t2 = detect_in_gate_batch(apd, offsets, 3.7, _rng(77))
    assert np.array_equal(c1, c2)
    assert np.array_equal(t1, t2, equal_nan=True)


def test_detect_validates_arrival_offsets(apd):
    with pytest.raises(ConfigError):
        detect_in_gate_batch(apd, np.array([25.0]), 3.7, _rng(1))
    with pytest.raises(ConfigError):
        detect_in_gate_batch(apd, np.array([-1.0]), 3.7, _rng(1))


def test_no_photon_gate_only_darks(apd):
    rng = _rng(46)
    n = 200_000
    clicked, times = detect_in_gate_batch(apd, np.full(n, np.nan), 3.7, rng)
    p = apd.dark_prob_per_gate
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(clicked.mean() - p) < 3 * sigma
    assert np.all(times[clicked] >= 0.0) and np.all(times[clicked] < 20.0)


def test_edge_mask_ramps_efficiency():
    model = _simple_apd(qe=0.8, dark=0.0, jitter=0.0,
                        edge_mask_ns=3.0, edge_mask_enabled=True)
    assert effective_efficiency(model, [1.5], 1.0)[0] == pytest.approx(0.4)
    assert effective_efficiency(model, [10.0], 1.0)[0] == pytest.approx(0.8)
    assert effective_efficiency(model, [18.5], 1.0)[0] == pytest.approx(0.4)
    rng = _rng(47)
    n = 100_000
    clicked, _ = detect_in_gate_batch(model, np.full(n, 1.5), 1.0, rng)
    sigma = math.sqrt(0.4 * 0.6 / n)
    assert abs(clicked.mean() - 0.4) < 3 * sigma


def test_edge_mask_disabled_by_default(apd):
    assert not apd.edge_mask_enabled
    assert effective_efficiency(apd, [1.5], 3.7)[0] == pytest.approx(0.20)


def test_builtin_model_loads(apd):
    again = load_apd("builtin:apd_ingaas")
    assert again == apd
    assert again.gate_length_ns == 20.0
    assert again.dark_prob_per_gate == 1.1e-3


def test_loader_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        load_apd(str(tmp_path / "nope.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[apd]\ngate_length_ns = 20\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_apd(str(bad))


def test_spcm_model_invariants():
    spcm = SpcmModel(efficiency=0.54)
    assert spcm.efficiency == 0.54
    with pytest.raises(ConfigError):
        SpcmModel(efficiency=1.5)


def test_detector_csv_marks_clamped_rows(tmp_path):
    # 0.2, 3.7 and 7.2 V: below, inside and above the reference curve's span
    assert main(["detector-curve", "--overbias", "0.2:7.2:3.5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "detector_curve.csv").read_text("utf-8").splitlines()
    assert len(lines) == 4
    assert lines[0] == "overbias_v,qe,dark_prob_per_gate,clamped"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][3] == "1" and rows[2][3] == "1"
    assert rows[1][3] == "0"
    assert float(rows[1][1]) == pytest.approx(0.20)
    # dark column is constant by construction
    assert len({r[2] for r in rows}) == 1


def test_replace_for_variant_models(apd):
    dark_free = dataclasses.replace(apd, dark_prob_per_gate=0.0)
    assert dark_free.dark_prob_per_gate == 0.0
    assert dark_free.qe_curve == apd.qe_curve
