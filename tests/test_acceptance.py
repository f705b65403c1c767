"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Statistical criteria use fixed seeds, so a green run is reproducible.
"""

import dataclasses
import time
from statistics import NormalDist

import numpy as np
import pytest

from pairsim import montecarlo as mc
from pairsim import qpm, source
from pairsim.cli import main
from pairsim.detector import qe_at_overbias
from pairsim.dispersion import C_M_PER_S
from pairsim.source import LossChain


def _report(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status}: {label} ({detail})")
    assert ok, f"criterion {number} failed: {label}: {detail}"


# Family-wise false-alarm rate of each fixed-seed statistical criterion: m
# z-scores are each held to z* = Phi^-1(1 - FAMILY_ALPHA / 2m) (Bonferroni).
FAMILY_ALPHA = 1e-3


def _z_star(m):
    return NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * m))


def _zmax(sim, expected):
    sigma = np.sqrt(expected.conditional_prob * (1 - expected.conditional_prob)
                    / sim.n_triggers)
    return float((np.abs(sim.conditional_prob - expected.conditional_prob) / sigma).max())


def test_criterion_1_qpm_operating_point(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    code = main(["tune", "--temp-range", "142", "--out", str(out)])
    elapsed = time.perf_counter() - start
    lines = (out / "tuning_curve.csv").read_text("utf-8").splitlines()
    _, signal, idler = (float(tok) for tok in lines[1].split(","))
    ok = (code == 0 and abs(signal - 808.0) <= 5.0 and abs(idler - 1559.0) <= 15.0
          and elapsed < 1.0)
    _report(1, "tune at 142 C hits 808/1559 nm",
            ok, f"signal {signal:.2f} nm, idler {idler:.2f} nm, {elapsed:.2f} s")


def test_criterion_2_grating_period(run_config):
    start = time.perf_counter()
    period = qpm.calibrate_period(run_config.crystal, run_config.pump_wavelength_nm,
                                  808.0, 142.0, model=run_config.sellmeier)
    elapsed = time.perf_counter() - start
    ok = abs(period - 21.6) <= 0.5 and elapsed < 1.0
    _report(2, "calibrated grating period within 21.6 +/- 0.5 um",
            ok, f"{period:.4f} um, {elapsed:.3f} s")


def test_criterion_3_tuning_coefficient(run_config):
    start = time.perf_counter()
    curve = qpm.tuning_curve(run_config.crystal, run_config.pump_wavelength_nm,
                             (140.0, 185.0), 5.0, model=run_config.sellmeier)
    _, d_idler = qpm.tuning_coefficient(curve, 160.0)
    elapsed = time.perf_counter() - start
    ok = abs(abs(d_idler) - 1.3) <= 0.65 and elapsed < 2.0
    _report(3, "idler tuning near 160 C within 1.3 +/- 0.65 nm/C",
            ok, f"{abs(d_idler):.3f} nm/C, {elapsed:.2f} s")


def test_criterion_4_bandwidth(run_config):
    start = time.perf_counter()
    point = qpm.solve_signal(run_config.crystal, run_config.pump_wavelength_nm,
                             142.0, model=run_config.sellmeier)
    width_nm, width_ghz = qpm.fwhm_bandwidth(run_config.crystal, point,
                                             model=run_config.sellmeier)
    elapsed = time.perf_counter() - start
    converted_ghz = C_M_PER_S * (width_nm * 1e-9) / (point.idler_nm * 1e-9) ** 2 / 1e9
    ok = (abs(width_nm - 1.26) / 1.26 <= 0.20
          and width_ghz == pytest.approx(converted_ghz, rel=1e-9)
          and abs(width_ghz - 150.0) / 150.0 <= 0.20
          and elapsed < 1.0)
    _report(4, "FWHM 1.26 nm +/- 20% with consistent ~150 GHz",
            ok, f"{width_nm:.3f} nm / {width_ghz:.1f} GHz, {elapsed:.2f} s")


def test_criterion_5_budget():
    start = time.perf_counter()
    eta = source.chain_efficiency(LossChain(stages=(
        ("apd_qe", 0.20), ("propagation", 0.85), ("coupling_matching", 0.18))))
    matching = source.mode_matching_ratio(0.18, 0.50)
    inferred = source.infer_generation_rate(3.0e4, LossChain(stages=(
        ("propagation", 0.85), ("spcm_qe", 0.54), ("fiber_coupling", 0.50))))
    brightness = source.spectral_brightness(1.4e7, 150.0)
    elapsed = time.perf_counter() - start
    ok = (eta == pytest.approx(0.0306, rel=1e-12)
          and matching == pytest.approx(0.36, rel=1e-12)
          and inferred == pytest.approx(3.0e4 / (0.85 * 0.54 * 0.50), rel=1e-12)
          and abs(inferred - 1.31e5) / 1.31e5 < 0.005
          and brightness == pytest.approx(1.4e7 / 150.0, rel=1e-12)
          and abs(brightness - 9.33e4) / 9.33e4 < 0.001
          and elapsed < 1.0)
    _report(5, "budget arithmetic: 3.06%, 0.36, 1.31e5, 9.33e4",
            ok, f"eta {eta:.6f}, matching {matching:.4f}, inferred {inferred:.0f}, "
                f"brightness {brightness:.0f}")


def test_criterion_6_monte_carlo_vs_oracle(run_config):
    start = time.perf_counter()
    spcm = run_config.spcm
    apd = run_config.apd
    reference = run_config.experiment
    # 120 z-scores; 2.5e6 >= 1e6 (z*/3)^2 triggers per run keeps the detectable bias
    gated = dataclasses.replace(reference, n_triggers=2_500_000)

    variants = [
        (gated, apd, 3.7, (1, 2, 3)),
        (dataclasses.replace(gated, gate_open_lead_ns=10.0), apd, 3.0, (1, 2, 3)),
        (dataclasses.replace(gated, bin_width_ns=1.0),
         dataclasses.replace(apd, jitter_sigma_ns=1.5), 2.5, (5, 6, 7)),
    ]
    worst, m = 0.0, 0
    for config, model, overbias, seeds in variants:
        expected = mc.analytic_expectation(config, model, spcm, overbias)
        for seed in seeds:
            sim = mc.simulate(config, model, spcm, overbias, seed)
            worst = max(worst, _zmax(sim, expected))
            m += config.n_bins

    eta = mc.simulate(reference, apd, spcm, 3.7, seed=1).eta_c_total
    elapsed = time.perf_counter() - start
    ok = worst < _z_star(m) and 0.0290 <= eta <= 0.0322 and elapsed < 30.0
    _report(6, f"simulation matches the exact oracle per bin within z* = {_z_star(m):.2f} "
               f"({m} bins); eta_c in band",
            ok, f"worst |z| {worst:.2f}, eta_c {eta:.5f}, {elapsed:.1f} s")


def test_criterion_7_accidental_floor(run_config):
    start = time.perf_counter()
    # 30 z-scores; 2e6 >= 1e6 (z*/3)^2 triggers per seed
    config = dataclasses.replace(run_config.experiment, pump_power_mw=0.0,
                                 n_triggers=2_000_000)
    apd = run_config.apd
    expected = mc.analytic_expectation(config, apd, run_config.spcm, 3.7)
    worst = 0.0
    for seed in (1, 2, 3):
        sim = mc.simulate(config, apd, run_config.spcm, 3.7, seed)
        worst = max(worst, _zmax(sim, expected))
    elapsed = time.perf_counter() - start
    ok = worst < _z_star(3 * config.n_bins) and elapsed < 30.0
    _report(7, "pairs-disabled bins sit on the 1.1e-4 dark floor",
            ok, f"worst |z| {worst:.2f} across 3 seeds, {elapsed:.1f} s")


def test_criterion_8_coincidence_window(run_config):
    start = time.perf_counter()
    config = dataclasses.replace(run_config.experiment, n_triggers=2_000_000)
    dark_free = dataclasses.replace(run_config.apd, dark_prob_per_gate=0.0)
    sim = mc.simulate(config, dark_free, run_config.spcm, 3.7, seed=1)
    fraction = mc.coincidence_window_sum(sim, 4.0) / sim.eta_c_total

    expected = mc.analytic_expectation(config, dark_free, run_config.spcm, 3.7)
    analytic_fraction = (mc.coincidence_window_sum(expected, 4.0)
                         / expected.eta_c_total)
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.95 and analytic_fraction >= 0.95 and elapsed < 30.0
    _report(8, ">= 95% of pair mass inside the best 4-ns window",
            ok, f"simulated {fraction:.4f}, analytic {analytic_fraction:.4f}, "
                f"{elapsed:.1f} s")


def test_criterion_9_property_suites(run_config, tmp_path):
    crystal = run_config.crystal
    model = run_config.sellmeier
    apd = run_config.apd

    # energy conservation on 1000 random solver outputs
    rng = np.random.default_rng(20240901)
    worst_energy = 0.0
    for _ in range(1000):
        point = qpm.solve_signal(crystal, rng.uniform(531.5, 532.7),
                                 rng.uniform(135.0, 190.0), model=model)
        worst_energy = max(worst_energy, abs(
            1.0 / point.pump_nm - 1.0 / point.signal_nm - 1.0 / point.idler_nm
        ) * point.pump_nm)
    energy_ok = worst_energy <= 1e-9

    # sinc^2 symmetry and bounds
    xs = np.random.default_rng(3).uniform(0.0, 40.0, 500)
    sinc_ok = all(abs(qpm._sinc2(x) - qpm._sinc2(-x)) <= 1e-12
                  and 0.0 <= qpm._sinc2(x) <= 1.0 for x in xs)

    # chain permutation invariance
    chain = LossChain(stages=(("a", 0.2), ("b", 0.85), ("c", 0.18), ("d", 0.5)))
    flipped = LossChain(stages=tuple(reversed(chain.stages)))
    chain_ok = source.chain_efficiency(chain) == pytest.approx(
        source.chain_efficiency(flipped), rel=1e-12)

    # determinism: byte-identical rerun of the simulate CLI
    args = ["simulate", "--seed", "13", "--triggers", "100000"]
    main(args + ["--out", str(tmp_path / "r1")])
    main(args + ["--out", str(tmp_path / "r2")])
    determinism_ok = ((tmp_path / "r1" / "histogram.csv").read_bytes()
                      == (tmp_path / "r2" / "histogram.csv").read_bytes())

    # QE interpolation knot identity and monotonicity
    knots_ok = all(qe_at_overbias(apd, v) == e for v, e in apd.qe_curve)
    sweep = [qe_at_overbias(apd, v) for v in np.linspace(0.5, 4.0, 71)]
    monotone_ok = all(b >= a for a, b in zip(sweep, sweep[1:]))

    checks = {
        "energy conservation 1e-9": energy_ok,
        "sinc^2 symmetry/bounds": sinc_ok,
        "chain permutation invariance": chain_ok,
        "byte-identical rerun": determinism_ok,
        "QE knot identity + monotone": knots_ok and monotone_ok,
    }
    detail = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    _report(9, "property suites", all(checks.values()), detail)
