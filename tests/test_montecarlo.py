import dataclasses
import math

import numpy as np
import pytest

from pairsim import montecarlo
from pairsim.detector import dark_prob, detect_in_gate_batch
from pairsim.errors import ConfigError
from pairsim.montecarlo import (CHUNK, CoincidenceHistogram, ExperimentConfig,
                                analytic_expectation, coincidence_window_sum,
                                pair_survival_probability, simulate,
                                trigger_budget, write_histogram_csv)
from pairsim.source import LossChain


def _config(**overrides):
    base = dict(
        pump_power_mw=1.0,
        singlemode_pair_rate_per_mw=1.31e5,
        signal_chain=LossChain(stages=(("propagation", 0.85), ("fiber_coupling", 0.50))),
        idler_chain=LossChain(stages=(("propagation", 0.85), ("coupling_matching", 0.18))),
        n_triggers=200_000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _zscores(sim, expected):
    sigma = np.sqrt(expected.conditional_prob * (1 - expected.conditional_prob)
                    / sim.n_triggers)
    return np.abs(sim.conditional_prob - expected.conditional_prob) / sigma


def test_config_invariants():
    with pytest.raises(ConfigError, match="divide"):
        _config(bin_width_ns=3.0)
    with pytest.raises(ConfigError, match="exactly one"):
        _config(duration_s=1.0)
    with pytest.raises(ConfigError, match="exactly one"):
        _config(n_triggers=None)
    with pytest.raises(ConfigError):
        _config(pump_power_mw=-1.0)
    with pytest.raises(ConfigError):
        _config(max_trigger_rate_hz=0.0)
    with pytest.raises(ConfigError):
        _config(n_triggers=0)


def test_pair_survival_probability():
    assert pair_survival_probability(_config()) == pytest.approx(0.153, rel=1e-12)
    assert pair_survival_probability(_config(pump_power_mw=0.0)) == 0.0


def test_trigger_budget_reference_point(run_config):
    raw, capped, discard = trigger_budget(_config(), run_config.spcm)
    assert raw == pytest.approx(1.31e5 * 0.85 * 0.50 * 0.54, rel=1e-12)
    assert capped == 1.0e4
    assert discard == pytest.approx(1.0 - 1.0e4 / raw, rel=1e-12)


def test_trigger_budget_uncapped(run_config):
    config = _config(singlemode_pair_rate_per_mw=1.0e4)
    raw, capped, discard = trigger_budget(config, run_config.spcm)
    assert capped == raw
    assert discard == 0.0


def test_duration_resolves_to_capped_triggers(run_config, apd):
    config = _config(n_triggers=None, duration_s=10.0)
    hist = analytic_expectation(config, apd, run_config.spcm, 3.7)
    assert hist.n_triggers == 100_000  # 10 s at the 10-kHz cap


def test_analytic_conservation(run_config, apd):
    config = _config()
    hist = analytic_expectation(config, apd, run_config.spcm, 3.7)
    pair_term = hist.conditional_prob - hist.accidental_level
    # jitter mass fully inside the window: pair term sums to the chain product
    assert pair_term.sum() == pytest.approx(0.153 * 0.20, abs=1e-12)
    assert hist.eta_c_total == pytest.approx(hist.conditional_prob.sum(), abs=0.0)
    assert np.all(hist.accidental_level == dark_prob(apd, config.bin_width_ns))


def test_analytic_zero_jitter_is_single_bin(run_config, apd):
    sharp = dataclasses.replace(apd, jitter_sigma_ns=0.0)
    config = _config(gate_open_lead_ns=9.0)
    hist = analytic_expectation(config, sharp, run_config.spcm, 3.7)
    pair_term = hist.conditional_prob - hist.accidental_level
    nonzero = np.nonzero(pair_term > 1e-15)[0]
    assert list(nonzero) == [4]  # 9 ns falls in the [8, 10) ns bin
    assert pair_term[4] == pytest.approx(0.153 * 0.20, abs=1e-12)


def test_simulate_matches_analytic_within_three_sigma(run_config, apd):
    config = _config()
    expected = analytic_expectation(config, apd, run_config.spcm, 3.7)
    for seed in (1, 3, 4):
        sim = simulate(config, apd, run_config.spcm, 3.7, seed)
        assert _zscores(sim, expected).max() < 3.0


def test_simulate_zero_pump_gives_accidentals_only(run_config, apd):
    config = _config(pump_power_mw=0.0)
    sim = simulate(config, apd, run_config.spcm, 3.7, seed=11)
    level = dark_prob(apd, config.bin_width_ns)
    sigma = math.sqrt(level * (1 - level) / sim.n_triggers)
    assert np.all(np.abs(sim.conditional_prob - level) < 3 * sigma)
    # no coincidence-window excess above the uniform floor
    window = coincidence_window_sum(sim, 4.0)
    assert window - 2 * level < 6 * sigma


def test_simulate_deterministic_for_fixed_seed(run_config, apd):
    config = _config(n_triggers=50_000)
    a = simulate(config, apd, run_config.spcm, 3.7, seed=9)
    b = simulate(config, apd, run_config.spcm, 3.7, seed=9)
    assert np.array_equal(a.conditional_prob, b.conditional_prob)
    assert a.eta_c_total == b.eta_c_total
    c = simulate(config, apd, run_config.spcm, 3.7, seed=10)
    assert not np.array_equal(a.conditional_prob, c.conditional_prob)


def test_shard_invariance_statistical_contract(run_config, apd):
    # one stream, read at two lengths: both honour the expectation
    for n in (300_000, 75_000):
        config = _config(n_triggers=n)
        expected = analytic_expectation(config, apd, run_config.spcm, 3.7)
        sim = simulate(config, apd, run_config.spcm, 3.7, seed=21)
        assert sim.n_triggers == n
        assert _zscores(sim, expected).max() < 3.0


def test_eta_monotone_in_overbias(run_config, apd):
    config = _config()
    totals = [analytic_expectation(config, apd, run_config.spcm, v).eta_c_total
              for v in np.linspace(0.5, 4.0, 15)]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_window_sum_uniform_and_single_bin():
    edges = np.arange(0.0, 22.0, 2.0)
    uniform = CoincidenceHistogram(
        bin_edges_ns=edges, conditional_prob=np.full(10, 0.01), n_triggers=100,
        eta_c_total=0.1, accidental_level=np.zeros(10))
    assert coincidence_window_sum(uniform, 20.0) == pytest.approx(0.1, rel=1e-12)

    single = CoincidenceHistogram(
        bin_edges_ns=np.array([0.0, 2.0]), conditional_prob=np.array([0.42]),
        n_triggers=100, eta_c_total=0.42, accidental_level=np.zeros(1))
    assert coincidence_window_sum(single, 2.0) == pytest.approx(0.42)


def test_window_sum_picks_highest_mass_window():
    edges = np.arange(0.0, 22.0, 2.0)
    probs = np.zeros(10)
    probs[3], probs[4] = 0.3, 0.4
    hist = CoincidenceHistogram(bin_edges_ns=edges, conditional_prob=probs,
                                n_triggers=100, eta_c_total=0.7,
                                accidental_level=np.zeros(10))
    assert coincidence_window_sum(hist, 4.0) == pytest.approx(0.7)


def test_window_sum_equals_loop_over_windows():
    rng = np.random.default_rng(5)
    for n in (1, 2, 9, 10, 40, 300):
        probs = rng.random(n) * 1e-2
        hist = CoincidenceHistogram(bin_edges_ns=np.arange(n + 1) * 2.0,
                                    conditional_prob=probs, n_triggers=1,
                                    eta_c_total=float(probs.sum()),
                                    accidental_level=np.zeros(n))
        for k in range(1, n + 1):
            loop = max(float(probs[i:i + k].sum()) for i in range(n - k + 1))
            assert coincidence_window_sum(hist, 2.0 * k) == loop


def test_window_sum_validation():
    edges = np.arange(0.0, 22.0, 2.0)
    hist = CoincidenceHistogram(bin_edges_ns=edges, conditional_prob=np.zeros(10),
                                n_triggers=1, eta_c_total=0.0,
                                accidental_level=np.zeros(10))
    with pytest.raises(ConfigError):
        coincidence_window_sum(hist, 3.0)  # not bin aligned
    with pytest.raises(ConfigError):
        coincidence_window_sum(hist, 24.0)  # wider than the histogram


def test_histogram_csv_round_trip(tmp_path, run_config, apd):
    config = _config(n_triggers=50_000)
    sim = simulate(config, apd, run_config.spcm, 3.7, seed=33)
    expected = analytic_expectation(config, apd, run_config.spcm, 3.7)
    path = tmp_path / "hist.csv"
    write_histogram_csv(sim, expected, path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "bin_start_ns,bin_end_ns,conditional_prob,expected_prob,accidental_level"
    data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(data) == 10
    for i, row in enumerate(data):
        assert float(row[0]) == sim.bin_edges_ns[i]
        assert float(row[1]) == sim.bin_edges_ns[i + 1]
        # values survive the printed precision round trip
        assert float(row[2]) == float(f"{sim.conditional_prob[i]:.6g}") or \
            float(row[2]) == float(f"{sim.conditional_prob[i]:.5e}")
    summary = [line for line in lines if line.startswith("#")]
    assert any("eta_c_total" in line for line in summary)
    assert any("discard_fraction" in line for line in summary)

    # byte-identical rewrite for the same seed
    again = simulate(config, apd, run_config.spcm, 3.7, seed=33)
    path2 = tmp_path / "hist2.csv"
    write_histogram_csv(again, expected, path2)
    assert path.read_bytes() == path2.read_bytes()


def _dense_counts(config, apd, overbias_v, seed):
    """Reference for ``simulate``: the whole run drawn from one generator,
    pair uniforms first, then the detector batch."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    offsets = np.where(rng.random(config.n_triggers) < pair_survival_probability(config),
                       config.gate_open_lead_ns, np.nan)
    clicked, times = detect_in_gate_batch(apd, offsets, overbias_v, rng)
    return np.histogram(times[clicked], bins=config.bin_edges())[0]


def _assert_matches_dense(config, apd, spcm, seed):
    sim = simulate(config, apd, spcm, 3.7, seed)
    counts = np.rint(sim.conditional_prob * sim.n_triggers).astype(np.int64)
    dense = _dense_counts(config, apd, 3.7, seed)
    assert np.array_equal(counts, dense)
    assert np.array_equal(sim.conditional_prob, dense / config.n_triggers)


def _noisy(apd):
    return dataclasses.replace(apd, dark_prob_per_gate=0.3, jitter_sigma_ns=6.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_simulate_equals_dense_reference_at_chunk_boundaries(run_config, apd, n):
    for seed in (1, 2, 3):
        _assert_matches_dense(_config(n_triggers=n), apd, run_config.spcm, seed)
        _assert_matches_dense(_config(n_triggers=n), _noisy(apd), run_config.spcm, seed)


@pytest.mark.parametrize("config_kw,apd_kw", [
    ({}, {"jitter_sigma_ns": 0.0}),
    ({"gate_open_lead_ns": 1.0}, {"edge_mask_enabled": True}),
    ({}, {"dark_prob_per_gate": 0.0}),
    ({}, {"dark_prob_per_gate": 0.3, "jitter_sigma_ns": 6.0}),
    ({"gate_open_lead_ns": 0.0}, {}),
    ({"gate_open_lead_ns": 1.0}, {}),
    ({"gate_open_lead_ns": 19.5}, {}),
    ({"pump_power_mw": 0.0}, {}),
], ids=["sigma0", "edge_mask", "no_dark", "noisy", "lead0", "lead1", "lead19.5",
        "zero_pump"])
def test_simulate_equals_dense_reference(run_config, apd, config_kw, apd_kw):
    config = _config(n_triggers=2 * CHUNK + 11, **config_kw)
    _assert_matches_dense(config, dataclasses.replace(apd, **apd_kw), run_config.spcm,
                          seed=17)


def test_simulate_counts_do_not_depend_on_chunk_size(run_config, apd, monkeypatch):
    monkeypatch.setattr(montecarlo, "CHUNK", 7)
    for n in (1, 6, 7, 8, 50, 1001):
        _assert_matches_dense(_config(n_triggers=n), _noisy(apd), run_config.spcm, seed=n)


def test_lead_past_gate_raises_exactly_when_a_photon_is_drawn(run_config, apd, monkeypatch):
    monkeypatch.setattr(montecarlo, "CHUNK", 2)
    config = _config(n_triggers=4, gate_open_lead_ns=apd.gate_length_ns)
    drawn = []
    for seed in range(40):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
        drawn.append(bool(np.any(rng.random(4) < pair_survival_probability(config))))
        try:
            simulate(config, apd, run_config.spcm, 3.7, seed)
            raised = False
        except ConfigError as exc:
            assert "arrival offsets" in str(exc)
            raised = True
        assert raised == drawn[-1], seed
    assert any(drawn) and not all(drawn)
    dark_only = dataclasses.replace(config, pump_power_mw=0.0, n_triggers=1000)
    simulate(dark_only, apd, run_config.spcm, 3.7, seed=1)
