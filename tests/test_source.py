import numpy as np
import pytest

from pairsim.errors import ConfigError
from pairsim.formatting import csv_lines
from pairsim.source import (LossChain, budget_rows, chain_efficiency, infer_generation_rate,
                            mode_matching_ratio, render_budget_text, spectral_brightness)

REFERENCE_CHAIN = LossChain(stages=(
    ("apd_qe", 0.20), ("propagation", 0.85), ("coupling_matching", 0.18)))

SIGNAL_CHAIN = LossChain(stages=(
    ("propagation", 0.85), ("spcm_qe", 0.54), ("fiber_coupling", 0.50)))


def test_reference_chain_efficiency():
    assert chain_efficiency(REFERENCE_CHAIN) == pytest.approx(0.0306, rel=1e-12)


def test_empty_chain_is_unity():
    assert chain_efficiency(LossChain(stages=())) == 1.0


def test_zero_stage_annihilates():
    chain = LossChain(stages=(("a", 0.5), ("b", 0.0), ("c", 0.9)))
    assert chain_efficiency(chain) == 0.0


def test_chain_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        effs = rng.uniform(0.01, 1.0, size=rng.integers(2, 7))
        names = [f"s{i}" for i in range(len(effs))]
        chain = LossChain(stages=tuple(zip(names, effs)))
        perm = rng.permutation(len(effs))
        shuffled = LossChain(stages=tuple((names[i], effs[i]) for i in perm))
        assert chain_efficiency(shuffled) == pytest.approx(
            chain_efficiency(chain), rel=1e-12)


def test_chain_concatenation_multiplies():
    a = LossChain(stages=(("p", 0.85), ("q", 0.54)))
    b = LossChain(stages=(("r", 0.5), ("s", 0.3)))
    combined = LossChain(stages=a.stages + b.stages)
    assert chain_efficiency(combined) == pytest.approx(
        chain_efficiency(a) * chain_efficiency(b), rel=1e-12)


def test_chain_invariants():
    with pytest.raises(ConfigError):
        LossChain(stages=(("a", 0.5), ("a", 0.6)))
    with pytest.raises(ConfigError):
        LossChain(stages=(("a", 1.5),))


def test_inferred_single_mode_rate():
    # frozen hand value 3e4 / (0.85 * 0.54 * 0.50)
    rate = infer_generation_rate(3.0e4, SIGNAL_CHAIN)
    assert rate == pytest.approx(130718.954248366, rel=1e-12)
    assert abs(rate - 1.3e5) / 1.3e5 < 0.01


def test_infer_identity_through_unity_chain():
    unity = LossChain(stages=(("a", 1.0), ("b", 1.0)))
    assert infer_generation_rate(123.456, unity) == 123.456


def test_infer_round_trips_with_forward_attenuation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        effs = rng.uniform(0.05, 1.0, 4)
        chain = LossChain(stages=tuple((f"s{i}", e) for i, e in enumerate(effs)))
        rate = rng.uniform(1.0, 1e8)
        detected = rate * chain_efficiency(chain)
        assert infer_generation_rate(detected, chain) == pytest.approx(rate, rel=1e-12)


def test_infer_guards_zero_chain():
    with pytest.raises(ConfigError):
        infer_generation_rate(1.0, LossChain(stages=(("dead", 0.0),)))


def test_spectral_brightness_reference():
    assert spectral_brightness(1.4e7, 150.0) == pytest.approx(93333.3333333333, rel=1e-12)
    assert abs(spectral_brightness(1.4e7, 150.0) - 9.3e4) / 9.3e4 < 0.01


def test_spectral_brightness_zero_and_linearity():
    assert spectral_brightness(0.0, 10.0) == 0.0
    assert spectral_brightness(2.8e7, 150.0) == pytest.approx(
        2.0 * spectral_brightness(1.4e7, 150.0), rel=1e-12)


def test_spectral_brightness_rejects_nonpositive_bandwidth():
    with pytest.raises(ConfigError):
        spectral_brightness(1.0, 0.0)


def test_mode_matching_reference():
    assert mode_matching_ratio(0.18, 0.50) == pytest.approx(0.36, rel=1e-12)


def test_mode_matching_edge_cases():
    assert mode_matching_ratio(0.42, 1.0) == 0.42
    assert mode_matching_ratio(0.0, 0.5) == 0.0
    with pytest.raises(ConfigError):
        mode_matching_ratio(0.2, 0.0)


def test_mode_matching_warns_when_inconsistent():
    with pytest.warns(UserWarning, match="exceeds 1"):
        ratio = mode_matching_ratio(0.6, 0.5)
    assert ratio == pytest.approx(1.2)


def test_budget_rows_cumulative_column():
    rows = budget_rows(REFERENCE_CHAIN)
    assert [name for name, _, _ in rows] == ["apd_qe", "propagation", "coupling_matching"]
    assert rows[-1][2] == pytest.approx(0.0306, rel=1e-12)
    running = 1.0
    for _, eff, cum in rows:
        running *= eff
        assert cum == pytest.approx(running, rel=1e-15)


def test_budget_render_and_csv():
    text = render_budget_text(REFERENCE_CHAIN)
    assert "total" in text[-1] and "0.0306" in text[-1]
    empty = render_budget_text(LossChain(stages=()))
    assert "1.0000" in empty[-1]

    names, effs, cumulative = zip(*budget_rows(REFERENCE_CHAIN))
    lines = list(csv_lines("stage,efficiency,cumulative", np.array([effs, cumulative]),
                           labels=names))
    assert lines[0] == "stage,efficiency,cumulative"
    assert lines[-1].startswith("coupling_matching,")
    assert float(lines[-1].split(",")[2]) == pytest.approx(0.0306, rel=1e-6)
