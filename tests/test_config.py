import pytest

from pairsim.config import load_run_config
from pairsim.errors import ConfigError

MINIMAL = """\
[run]
seed = 7
out_dir = out

[dispersion]
model_file = builtin:lithium_niobate_e

[crystal]
length_mm = 20.0
poling_period_um = 21.6
qpm_order = 3
thermal_expansion_per_c = 1.5e-5
reference_temp_c = 25.0

[qpm]
pump_wavelength_nm = 532.1
temperature_c = 142.0

[apd]
model_file = builtin:apd_ingaas
overbias_v = 3.7

[spcm]
efficiency = 0.54

[experiment]
pump_power_mw = 1.0
singlemode_pair_rate_per_mw = 1.31e5
signal_chain = propagation: 0.85, fiber_coupling: 0.50
idler_chain = propagation: 0.85, coupling_matching: 0.18
n_triggers = 1000

[budget]
detected_signal_rate_per_mw = 3.0e4
freespace_pair_rate_per_mw = 1.4e7
signal_bandwidth_ghz = 150.0
"""


def test_shipped_reference_config_loads(run_config):
    assert run_config.pump_wavelength_nm == 532.1
    assert run_config.temperature_c == 142.0
    assert run_config.crystal.length_mm == 20.0
    assert run_config.crystal.qpm_order == 3
    assert run_config.overbias_v == 3.7
    assert run_config.spcm.efficiency == 0.54
    assert run_config.experiment.n_triggers == 1_000_000
    assert run_config.seed == 1
    assert run_config.signal_bracket_nm == (760.0, 860.0)
    assert run_config.budget.signal_bandwidth_ghz == 150.0


def test_chain_stage_names_from_file(run_config):
    assert run_config.experiment.idler_chain.get("coupling_matching") == 0.18
    assert run_config.experiment.signal_chain.get("fiber_coupling") == 0.50


def test_minimal_config_with_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    cfg = load_run_config(str(path))
    assert cfg.seed == 7
    assert cfg.experiment.gate_open_lead_ns == 8.0
    assert cfg.experiment.bin_width_ns == 2.0


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(str(tmp_path / "missing.ini"))


def test_missing_section_is_config_error(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text(MINIMAL.replace("[budget]", "[not_budget]"), encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        load_run_config(str(path))


def test_bad_chain_syntax_is_config_error(tmp_path):
    path = tmp_path / "badchain.ini"
    path.write_text(MINIMAL.replace("propagation: 0.85, fiber_coupling: 0.50",
                                    "propagation 0.85"), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(str(path))


def test_unresolvable_model_file_is_config_error(tmp_path):
    path = tmp_path / "badmodel.ini"
    path.write_text(MINIMAL.replace("builtin:apd_ingaas", "/does/not/exist.ini"),
                    encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(str(path))


@pytest.mark.parametrize("old,new,message", [
    ("length_mm = 20.0\n", "", r"\[crystal\] length_mm: missing required key"),
    ("qpm_order = 3", "qpm_order = three", r"\[crystal\] qpm_order = 'three'"),
    ("seed = 7", "seed = 7\nsede = 8", r"\[run\] sede: unknown key"),
])
def test_strict_parsing_names_file_section_and_key(tmp_path, old, new, message):
    path = tmp_path / "strict.ini"
    path.write_text(MINIMAL.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as excinfo:
        load_run_config(str(path))
    assert str(path) in str(excinfo.value)


def test_empty_values_mean_unset(tmp_path):
    path = tmp_path / "unset.ini"
    path.write_text(MINIMAL.replace("seed = 7", "seed =")
                    .replace("n_triggers = 1000", "n_triggers =\nduration_s = 2.0"),
                    encoding="utf-8")
    cfg = load_run_config(str(path))
    assert cfg.seed is None
    assert cfg.experiment.n_triggers is None and cfg.experiment.duration_s == 2.0
