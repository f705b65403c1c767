import dataclasses
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from pairsim import montecarlo
from pairsim.cli import Output, _emit, cmd_simulate
from pairsim.detector import GatedApdModel, detect_in_gate_batch, effective_efficiency
from pairsim.errors import ConfigError
from pairsim.montecarlo import (CHUNK, CoincidenceHistogram, ExperimentConfig,
                                analytic_expectation, coincidence_window_sum,
                                pair_survival_probability, simulate, trigger_budget)
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


# Family-wise false-alarm rate of each fixed-seed statistical gate: m
# z-scores are each held to z* = Phi^-1(1 - FAMILY_ALPHA / 2m) (Bonferroni).
FAMILY_ALPHA = 1e-3


def _z_star(m):
    return NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * m))


def _zscores(observed, n, expected):
    """|z| of observed per-bin probabilities over n triggers; a bin the
    oracle puts at exactly 0 must stay empty (z = inf otherwise)."""
    diff = np.abs(observed - expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / np.sqrt(expected * (1 - expected) / n)
    return np.where(expected > 0, z, np.where(diff > 0, np.inf, 0.0))


def _sim_zscores(sim, expected):
    return _zscores(sim.conditional_prob, sim.n_triggers, expected.conditional_prob)


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


def _noisy(apd):
    return dataclasses.replace(apd, dark_prob_per_gate=0.3, jitter_sigma_ns=6.0)


# q = 0.5 and p_d = 0.5: a quarter of the gates hold both a candidate and a
# dark count, so the collision draw and the earliest-click merge carry weight.
HEAVY_CONFIG = {"idler_chain": LossChain(stages=(("propagation", 0.5),))}
HEAVY_APD = {"qe_curve": ((0.5, 1.0), (4.0, 1.0)), "dark_prob_per_gate": 0.5,
             "jitter_sigma_ns": 2.0}


def test_analytic_conservation(run_config, apd):
    # 0.20 is the reference APD's QE at 3.7 V, so q = 0.153 x 0.20
    q = 0.153 * 0.20
    spcm = run_config.spcm
    config = _config()
    width, gate = config.bin_width_ns, apd.gate_length_ns

    dark_free = analytic_expectation(config, dataclasses.replace(apd, dark_prob_per_gate=0.0),
                                     spcm, 3.7)
    jitter = NormalDist(config.gate_open_lead_ns, apd.jitter_sigma_ns)
    mass = np.diff([jitter.cdf(t) for t in config.bin_edges()])
    assert dark_free.conditional_prob == pytest.approx(q * mass, abs=1e-15)

    for model in (apd, _noisy(apd)):
        dark_only = analytic_expectation(_config(pump_power_mw=0.0), model, spcm, 3.7)
        assert dark_only.conditional_prob == pytest.approx(
            np.full(config.n_bins, model.dark_prob_per_gate * width / gate), abs=1e-18)

    # window = gate: eta is the probability of any click, 1 - (1 - q m)(1 - p_d)
    for lead, model in ((8.0, apd), (8.0, _noisy(apd)), (19.5, apd), (0.0, _noisy(apd))):
        hist = analytic_expectation(_config(gate_open_lead_ns=lead), model, spcm, 3.7)
        jitter = NormalDist(lead, model.jitter_sigma_ns)
        m = jitter.cdf(gate) - jitter.cdf(0.0)
        p_d = model.dark_prob_per_gate
        assert hist.eta_c_total == pytest.approx(1 - (1 - q * m) * (1 - p_d), abs=1e-15)
        assert hist.eta_c_total == pytest.approx(hist.conditional_prob.sum(), abs=0.0)


def test_analytic_zero_jitter_is_single_bin(run_config, apd):
    q = 0.153 * 0.20
    for model in (dataclasses.replace(apd, jitter_sigma_ns=0.0),
                  dataclasses.replace(apd, jitter_sigma_ns=0.0, dark_prob_per_gate=0.3)):
        rate = model.dark_prob_per_gate / model.gate_length_ns
        # lead 9 ns falls in the [8, 10) ns bin, lead 0 in the [0, 2) ns bin
        for lead, photon_bin in ((9.0, 4), (0.0, 0)):
            config = _config(gate_open_lead_ns=lead)
            hist = analytic_expectation(config, model, run_config.spcm, 3.7)
            edges = config.bin_edges()
            # the dark floor, less the part of each bin after the photon's click
            after_photon = np.maximum(edges[1:], lead) - np.maximum(edges[:-1], lead)
            floor = rate * (np.diff(edges) - q * after_photon)
            photon = np.zeros(config.n_bins)
            photon[photon_bin] = q * (1 - rate * lead)
            assert hist.conditional_prob == pytest.approx(floor + photon, abs=1e-16)


def test_simulate_matches_analytic_within_three_sigma(run_config, apd):
    # 30 z-scores; 400 000 triggers >= 200 000 (z*/3)^2 keeps the detectable bias
    config = _config(n_triggers=400_000)
    expected = analytic_expectation(config, apd, run_config.spcm, 3.7)
    for seed in (1, 3, 4):
        sim = simulate(config, apd, run_config.spcm, 3.7, seed)
        assert _sim_zscores(sim, expected).max() < _z_star(30)


def test_simulate_zero_pump_gives_accidentals_only(run_config, apd):
    # 10 z-scores; 400 000 >= 200 000 (z*/3)^2 triggers
    config = _config(pump_power_mw=0.0, n_triggers=400_000)
    sim = simulate(config, apd, run_config.spcm, 3.7, seed=11)
    expected = analytic_expectation(config, apd, run_config.spcm, 3.7)
    assert _sim_zscores(sim, expected).max() < _z_star(10)
    # no coincidence-window excess above the uniform floor
    level = expected.conditional_prob[0]
    sigma = np.sqrt(level * (1 - level) / sim.n_triggers)
    window = coincidence_window_sum(sim, 4.0)
    assert window - 2 * level < 6 * sigma


def test_simulate_deterministic_for_fixed_seed(run_config, apd):
    config = _config(n_triggers=2 * CHUNK + 11)
    a = simulate(config, apd, run_config.spcm, 3.7, seed=9)
    b = simulate(config, apd, run_config.spcm, 3.7, seed=9)
    assert np.array_equal(a.conditional_prob, b.conditional_prob)
    assert a.eta_c_total == b.eta_c_total
    c = simulate(config, apd, run_config.spcm, 3.7, seed=10)
    assert not np.array_equal(a.conditional_prob, c.conditional_prob)


def test_shard_invariance_statistical_contract(run_config, apd):
    # one stream, read at two lengths: both honour the expectation.
    # 20 z-scores; 600 000 and 150 000 are the old 300 000 and 75 000 x (z*/3)^2
    for n in (600_000, 150_000):
        config = _config(n_triggers=n)
        expected = analytic_expectation(config, apd, run_config.spcm, 3.7)
        sim = simulate(config, apd, run_config.spcm, 3.7, seed=21)
        assert sim.n_triggers == n
        assert _sim_zscores(sim, expected).max() < _z_star(20)


def test_eta_monotone_in_overbias(run_config, apd):
    config = _config()
    totals = [analytic_expectation(config, apd, run_config.spcm, v).eta_c_total
              for v in np.linspace(0.5, 4.0, 15)]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_window_sum_uniform_and_single_bin():
    edges = np.arange(0.0, 22.0, 2.0)
    uniform = CoincidenceHistogram(
        bin_edges_ns=edges, conditional_prob=np.full(10, 0.01), n_triggers=100,
        eta_c_total=0.1)
    assert coincidence_window_sum(uniform, 20.0) == pytest.approx(0.1, rel=1e-12)

    single = CoincidenceHistogram(
        bin_edges_ns=np.array([0.0, 2.0]), conditional_prob=np.array([0.42]),
        n_triggers=100, eta_c_total=0.42)
    assert coincidence_window_sum(single, 2.0) == pytest.approx(0.42)


def test_window_sum_picks_highest_mass_window():
    edges = np.arange(0.0, 22.0, 2.0)
    probs = np.zeros(10)
    probs[3], probs[4] = 0.3, 0.4
    hist = CoincidenceHistogram(bin_edges_ns=edges, conditional_prob=probs,
                                n_triggers=100, eta_c_total=0.7)
    assert coincidence_window_sum(hist, 4.0) == pytest.approx(0.7)


def test_window_sum_equals_loop_over_windows():
    rng = np.random.default_rng(5)
    for n in (1, 2, 9, 10, 40, 300):
        probs = rng.random(n) * 1e-2
        hist = CoincidenceHistogram(bin_edges_ns=np.arange(n + 1) * 2.0,
                                    conditional_prob=probs, n_triggers=1,
                                    eta_c_total=float(probs.sum()))
        for k in range(1, n + 1):
            loop = max(float(probs[i:i + k].sum()) for i in range(n - k + 1))
            assert coincidence_window_sum(hist, 2.0 * k) == loop


def test_window_sum_validation():
    edges = np.arange(0.0, 22.0, 2.0)
    hist = CoincidenceHistogram(bin_edges_ns=edges, conditional_prob=np.zeros(10),
                                n_triggers=1, eta_c_total=0.0)
    with pytest.raises(ConfigError):
        coincidence_window_sum(hist, 3.0)  # not bin aligned
    with pytest.raises(ConfigError):
        coincidence_window_sum(hist, 24.0)  # wider than the histogram


def _histogram_csv(run_config, config, out, seed):
    """Write ``simulate``'s histogram.csv for ``config`` into ``out`` as the
    CLI does; returns the simulated histogram and the file's path."""
    output = Output(out)
    cfg = dataclasses.replace(run_config, experiment=config, overbias_v=3.7)
    sim = cmd_simulate(cfg, output, seed, None, False, None)
    _emit(output)
    return sim, out / "histogram.csv"


def test_histogram_csv_round_trip(tmp_path, run_config):
    config = _config(n_triggers=50_000)
    sim, path = _histogram_csv(run_config, config, tmp_path / "first", 33)
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
    _, path2 = _histogram_csv(run_config, config, tmp_path / "again", 33)
    assert path.read_bytes() == path2.read_bytes()


def _dense_counts(config, apd, overbias_v, seed):
    """Per-gate reference for ``simulate``: the whole run drawn from one
    generator, pair uniforms first, then the detector batch."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    offsets = np.where(rng.random(config.n_triggers) < pair_survival_probability(config),
                       config.gate_open_lead_ns, np.nan)
    clicked, times = detect_in_gate_batch(apd, offsets, overbias_v, rng)
    return np.histogram(times[clicked], bins=config.bin_edges())[0]


def _dense_stream_counts(config, apd, overbias_v, seed, chunk):
    """Reference for ``simulate``'s documented stream: per chunk, the same
    K1, K2, C, normals and dark uniforms, laid out as one click time per gate
    of the whole run (photons in gates [0, K1), dark counts in [0, C) and
    [K1, K1 + K2 - C)); the earliest avalanche in each gate wins and the bins
    are half open."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    lead, gate = config.gate_open_lead_ns, apd.gate_length_ns
    q = pair_survival_probability(config) * float(
        effective_efficiency(apd, [lead], overbias_v)[0])
    times = []
    for start in range(0, config.n_triggers, chunk):
        size = min(chunk, config.n_triggers - start)
        n_photon = rng.binomial(size, q)
        n_dark = rng.binomial(size, apd.dark_prob_per_gate)
        both = rng.hypergeometric(n_photon, size - n_photon, n_dark)
        photon = lead + apd.jitter_sigma_ns * rng.standard_normal(n_photon)
        dark = rng.random(n_dark) * gate
        per_gate = np.full(size, np.inf)
        per_gate[:n_photon] = np.where((photon >= 0.0) & (photon < gate), photon, np.inf)
        dark_gates = np.r_[0:both, n_photon:n_photon + n_dark - both]
        per_gate[dark_gates] = np.minimum(per_gate[dark_gates], dark)
        times.append(per_gate)
    times = np.concatenate(times)
    edges = config.bin_edges()
    return np.histogram(times[times < edges[-1]], bins=edges)[0]


# Chunks of 2**16 keep the boundary runs small; n straddles 1, 2 and 4 chunks.
BOUNDARY_CHUNK = 1 << 16


@pytest.mark.parametrize("n", [1, 2, 3, 5, BOUNDARY_CHUNK - 1, BOUNDARY_CHUNK,
                               BOUNDARY_CHUNK + 1, 3 * BOUNDARY_CHUNK + 7])
def test_simulate_equals_dense_reference_at_chunk_boundaries(run_config, apd, monkeypatch, n):
    monkeypatch.setattr(montecarlo, "CHUNK", BOUNDARY_CHUNK)
    heavy = dataclasses.replace(apd, **HEAVY_APD)
    for seed in (1, 2, 3):
        for config, model in ((_config(n_triggers=n), apd),
                              (_config(n_triggers=n), _noisy(apd)),
                              (_config(n_triggers=n, **HEAVY_CONFIG), heavy)):
            sim = simulate(config, model, run_config.spcm, 3.7, seed)
            dense = _dense_stream_counts(config, model, 3.7, seed, BOUNDARY_CHUNK)
            assert dense.sum() <= n
            assert np.array_equal(sim.conditional_prob, dense / n)


@pytest.mark.parametrize("config_kw,apd_kw", [
    ({}, {"jitter_sigma_ns": 0.0}),
    ({"gate_open_lead_ns": 1.0}, {"edge_mask_enabled": True}),
    ({}, {"dark_prob_per_gate": 0.0}),
    ({}, {"dark_prob_per_gate": 0.3, "jitter_sigma_ns": 6.0}),
    ({"gate_open_lead_ns": 0.0}, {}),
    ({"gate_open_lead_ns": 1.0}, {}),
    ({"gate_open_lead_ns": 19.5}, {}),
    ({"pump_power_mw": 0.0}, {}),
    (HEAVY_CONFIG, HEAVY_APD),
], ids=["sigma0", "edge_mask", "no_dark", "noisy", "lead0", "lead1", "lead19.5",
        "zero_pump", "heavy"])
def test_simulate_and_dense_reference_match_oracle(run_config, apd, config_kw, apd_kw):
    # 20 z-scores: 10 bins each of simulate and the per-gate reference
    config = _config(n_triggers=500_000, **config_kw)
    model = dataclasses.replace(apd, **apd_kw)
    expected = analytic_expectation(config, model, run_config.spcm, 3.7)
    sim = simulate(config, model, run_config.spcm, 3.7, seed=17)
    dense = _dense_counts(config, model, 3.7, seed=17) / config.n_triggers
    worst = max(_sim_zscores(sim, expected).max(),
                _zscores(dense, config.n_triggers, expected.conditional_prob).max())
    assert worst < _z_star(20)


def test_small_chunks_match_oracle(run_config, apd, monkeypatch):
    # chunks of 7: nearly every chunk holds collisions
    monkeypatch.setattr(montecarlo, "CHUNK", 7)
    config = _config(n_triggers=70_000, **HEAVY_CONFIG)
    heavy = dataclasses.replace(apd, **HEAVY_APD)
    expected = analytic_expectation(config, heavy, run_config.spcm, 3.7)
    sim = simulate(config, heavy, run_config.spcm, 3.7, seed=5)
    assert _sim_zscores(sim, expected).max() < _z_star(10)


def test_simulate_counts_do_not_depend_on_chunk_size(run_config, monkeypatch):
    monkeypatch.setattr(montecarlo, "CHUNK", 7)
    sure = GatedApdModel(qe_curve=((0.5, 1.0), (4.0, 1.0)), dark_prob_per_gate=0.0,
                         gate_length_ns=20.0, jitter_sigma_ns=0.0)
    lossless = LossChain(stages=(("propagation", 1.0),))
    for n in (1, 6, 7, 8, 50, 1001):
        config = _config(n_triggers=n, idler_chain=lossless, gate_open_lead_ns=9.0)
        sim = simulate(config, sure, run_config.spcm, 3.7, seed=n)
        counts = np.rint(sim.conditional_prob * n).astype(np.int64)
        assert list(counts) == [0, 0, 0, 0, n, 0, 0, 0, 0, 0]


def test_photon_on_the_last_bin_edge_is_not_counted(run_config, apd):
    # bins are half open: a zero-jitter photon at exactly window_ns is past them
    sharp = dataclasses.replace(apd, jitter_sigma_ns=0.0, dark_prob_per_gate=0.0)
    config = _config(gate_open_lead_ns=12.0, window_ns=12.0, n_triggers=10_000)
    expected = analytic_expectation(config, sharp, run_config.spcm, 3.7)
    sim = simulate(config, sharp, run_config.spcm, 3.7, seed=1)
    assert not expected.conditional_prob.any()
    assert not sim.conditional_prob.any()


@pytest.mark.parametrize("lead", [20.0, 25.0])
def test_lead_outside_gate_raises_before_sampling(run_config, apd, lead):
    for pump in (1.0, 0.0):
        config = _config(gate_open_lead_ns=lead, pump_power_mw=pump)
        with pytest.raises(ConfigError, match="gate-open lead"):
            analytic_expectation(config, apd, run_config.spcm, 3.7)
        with pytest.raises(ConfigError, match="gate-open lead"):
            simulate(config, apd, run_config.spcm, 3.7, seed=1)


@pytest.mark.parametrize("path", ["simulate", "analytic_expectation"])
def test_window_past_gate_raises_on_every_path(run_config, apd, path):
    # the loader is not the only way in: the API must refuse it too, or the
    # oracle puts probability in bins the sampler leaves empty
    config = _config(window_ns=24.0)
    with pytest.raises(ConfigError, match="window_ns = 24 exceeds the 20-ns APD gate"):
        if path == "simulate":
            simulate(config, apd, run_config.spcm, 3.7, seed=1)
        else:
            analytic_expectation(config, apd, run_config.spcm, 3.7)


def test_simulate_memory_is_flat_in_triggers(run_config, apd):
    config = _config(n_triggers=100_000_000)
    tracemalloc.start()
    try:
        simulate(config, apd, run_config.spcm, 3.7, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
