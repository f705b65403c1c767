import dataclasses
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import pairsim
from pairsim import dispersion, montecarlo, qpm
from pairsim.cli import Output, cmd_repro, main


def _builtin_ini(name: str) -> str:
    return resources.files("pairsim.data").joinpath(f"{name}.ini").read_text("utf-8")


def _variant_config(tmp_path, **replacements):
    text = _builtin_ini("reference_setup")
    for old, new in replacements.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "variant.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_tune_reference_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["tune", "--temp-range", "140:185:5", "--out", str(out)]) == 0
    lines = (out / "tuning_curve.csv").read_text("utf-8").splitlines()
    assert lines[0] == "T_C,lambda_s_nm,lambda_i_nm"
    assert len(lines) == 11
    stdout = capsys.readouterr().out
    assert "tuning coefficient" in stdout
    idler_coeff = float(stdout.split("idler ")[1].split(" nm/C")[0])
    assert abs(abs(idler_coeff) - 1.3) < 0.65


def test_tune_single_temperature(tmp_path):
    out = tmp_path / "out"
    assert main(["tune", "--temp-range", "142", "--out", str(out)]) == 0
    lines = (out / "tuning_curve.csv").read_text("utf-8").splitlines()
    assert len(lines) == 2


def test_tune_inverted_range_exits_1(tmp_path, capsys):
    assert main(["tune", "--temp-range", "185:140:5", "--out", str(tmp_path)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_tune_without_root_exits_2(tmp_path, capsys):
    cfg = _variant_config(tmp_path, **{"signal_bracket_nm = 760, 860":
                                       "signal_bracket_nm = 760, 780"})
    code = main(["tune", "--config", cfg, "--temp-range", "140:145:5",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("temp_range,first", [("300", "300"), ("19.5", "19.5"),
                                              ("0:10:5", "0")])
def test_tune_without_temperature_in_model_exits_1_like_spectrum(tmp_path, capsys,
                                                                 temp_range, first):
    out = tmp_path / "out"
    assert main(["spectrum", "--temp-range", first, "--out", str(out)]) == 1
    spectrum_err = capsys.readouterr().err
    assert main(["tune", "--temp-range", temp_range, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == spectrum_err
    assert captured.err.startswith(f"pairsim: configuration error: temperature {first} C outside")
    assert captured.out == "" and not out.exists()


# A bracket or pump the model cannot take fails every temperature alike.
BAD_QPM_INPUTS = {
    "inverted-bracket": ("signal_bracket_nm = 760, 860", "signal_bracket_nm = 860, 760",
                         "bad signal bracket (860.0, 760.0)"),
    "bracket-below-pump": ("signal_bracket_nm = 760, 860", "signal_bracket_nm = 500, 860",
                           "signal (500.0 nm) must exceed the pump (532.1 nm)"),
    "pump-outside-model": ("pump_wavelength_nm = 532.1", "pump_wavelength_nm = 380",
                           "wavelength 0.38 um outside model"),
}


@pytest.mark.parametrize("bad", BAD_QPM_INPUTS)
def test_bad_bracket_or_pump_exits_1_in_every_qpm_command(tmp_path, capsys, bad):
    old, new, reason = BAD_QPM_INPUTS[bad]
    cfg = _variant_config(tmp_path, **{old: new})
    out = tmp_path / "out"
    errs = []
    for command in (["tune"], ["spectrum"], ["repro", "--seed", "1"]):
        assert main(command + ["--config", cfg, "--out", str(out)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        errs.append(captured.err)
    assert errs[0] == errs[1] == errs[2]
    assert errs[0].startswith(f"pairsim: configuration error: {reason}")
    assert errs[0].count("\n") == 1


def test_spectrum_reports_bandwidth(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    fwhm_nm = float(stdout.split("FWHM: ")[1].split(" nm")[0])
    assert abs(fwhm_nm - 1.26) / 1.26 < 0.20
    lines = (out / "pm_spectrum.csv").read_text("utf-8").splitlines()
    assert lines[0] == "lambda_i_nm,rel_eff"
    peaks = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(peaks) == 1.0


def test_spectrum_doubling_length_halves_fwhm(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    fwhm_ref = float(capsys.readouterr().out.split("FWHM: ")[1].split(" nm")[0])
    cfg = _variant_config(tmp_path, **{"length_mm = 20.0": "length_mm = 40.0"})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    fwhm_double = float(capsys.readouterr().out.split("FWHM: ")[1].split(" nm")[0])
    assert abs(fwhm_ref / fwhm_double - 2.0) < 0.02 * 2.0


def test_spectrum_temperature_override(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--temp-range", "160", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "operating point at 160 C" in stdout
    idler = float(stdout.split("idler ")[1].split(" nm")[0])
    assert idler > 1570.0  # tuned well above the 142 C point


def test_budget_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["budget", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "0.0306" in stdout
    assert "mode matching: 0.3600" in stdout
    assert "130719" in stdout
    assert "93333.3" in stdout
    csv_lines = (out / "budget.csv").read_text("utf-8").splitlines()
    assert csv_lines[0] == "stage,efficiency,cumulative"
    assert float(csv_lines[-1].split(",")[2]) == pytest.approx(0.0306, rel=1e-6)


def test_detector_curve(tmp_path):
    out = tmp_path / "out"
    assert main(["detector-curve", "--overbias", "0.5:4.0:0.1", "--out", str(out)]) == 0
    lines = (out / "detector_curve.csv").read_text("utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    qes = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(qes, qes[1:]))
    at_3p7 = [r for r in rows if abs(float(r[0]) - 3.7) < 1e-9]
    assert at_3p7 and float(at_3p7[0][1]) == pytest.approx(0.20)
    assert len({r[2] for r in rows}) == 1  # dark column constant
    assert all(r[3] == "0" for r in rows)


def test_detector_curve_flags_clamped_rows(tmp_path):
    out = tmp_path / "out"
    assert main(["detector-curve", "--overbias", "0.2:4.4:0.2", "--out", str(out)]) == 0
    lines = (out / "detector_curve.csv").read_text("utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][3] == "1"
    assert rows[-1][3] == "1"
    assert any(r[3] == "0" for r in rows)


@pytest.mark.parametrize("sweep,n_points", [("0.5:4.0:0.3", 12), ("0.5:4.0:0.1", 36),
                                             ("1:2:0.5", 3), ("1:1:0.5", 1)])
def test_detector_curve_never_passes_the_sweep_end(tmp_path, sweep, n_points):
    out = tmp_path / "out"
    assert main(["detector-curve", "--overbias", sweep, "--out", str(out)]) == 0
    volts = [float(line.split(",")[0])
             for line in (out / "detector_curve.csv").read_text("utf-8").splitlines()[1:]]
    lo, hi, step = (float(v) for v in sweep.split(":"))
    assert len(volts) == n_points == qpm.grid_size(lo, hi, step)
    assert max(volts) <= hi


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = _variant_config(tmp_path, **{"seed = 1": "seed ="})
    code = main(["simulate", "--config", cfg, "--triggers", "1000",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv,ini_seed", [
    (["simulate", "--seed", "-1", "--triggers", "1000"], None),
    (["repro", "--seed", "-3"], None),
    (["simulate", "--triggers", "1000"], "-4"),
], ids=["simulate", "repro", "ini"])
def test_negative_seed_exits_1(tmp_path, capsys, argv, ini_seed):
    if ini_seed is not None:
        argv = argv + ["--config", _variant_config(tmp_path, **{"seed = 1": f"seed = {ini_seed}"})]
    seed = ini_seed or argv[argv.index("--seed") + 1]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"configuration error: seed must be a non-negative integer, got {seed}" in captured.err
    assert captured.out == "" and not out.exists()


def test_simulate_byte_identical_for_same_seed(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--seed", "5", "--triggers", "100000"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()


@pytest.mark.parametrize("overbias", ["nan", "inf"])
def test_simulate_non_finite_overbias_exits_1(tmp_path, capsys, overbias):
    out = tmp_path / "out"
    code = main(["simulate", "--seed", "1", "--triggers", "1000",
                 "--overbias", overbias, "--out", str(out)])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "histogram.csv").exists()


@pytest.mark.parametrize("overbias", ["-inf", "-nan"])
def test_simulate_negative_non_finite_overbias_is_a_value(tmp_path, capsys, overbias):
    # argparse would take "-inf" for an option; it must reach the finite check
    out = tmp_path / "out"
    code = main(["simulate", "--seed", "1", "--triggers", "1000",
                 "--overbias", overbias, "--out", str(out)])
    assert code == 1
    assert (capsys.readouterr().err == "pairsim: configuration error: overbias must be "
            f"a finite voltage, got {float(overbias)}\n")
    assert not (out / "histogram.csv").exists()


def test_warning_is_one_line_without_source_path(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(pairsim.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "pairsim.cli", "simulate", "--seed", "1", "--triggers",
         "1000", "--overbias", "9", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stderr == ("pairsim: warning: overbias 9 V outside curve span "
                             "[0.5, 4] V; clamping\n")


def test_simulate_analytic_mode_is_noise_free(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--analytic", "--triggers", "1000",
                 "--out", str(out)]) == 0
    lines = (out / "histogram.csv").read_text("utf-8").splitlines()
    data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert all(row[2] == row[3] for row in data)


@pytest.mark.parametrize("mode", [["--analytic"], ["--seed", "1"]], ids=["analytic", "seeded"])
def test_simulate_lead_past_gate_exits_1(tmp_path, capsys, mode):
    cfg = _variant_config(tmp_path, **{"gate_open_lead_ns = 8.0": "gate_open_lead_ns = 25.0"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--triggers", "1000", "--out", str(out)]
                + mode) == 1
    assert "gate-open lead 25 ns" in capsys.readouterr().err
    assert not (out / "histogram.csv").exists()


def test_accidental_level_is_the_zero_pump_expectation(tmp_path):
    # p_d w / G, what the model puts in a bin no photon reaches: bin by bin
    # the expected_prob column of an analytic run without pump
    cfg = _variant_config(tmp_path, **{"pump_power_mw = 1.0": "pump_power_mw = 0.0"})
    out = tmp_path / "out"
    assert main(["simulate", "--analytic", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "histogram.csv").read_text("utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 10
    assert [row[4] for row in rows] == [row[3] for row in rows] == ["1.10000e-04"] * 10


def test_simulate_eta_in_reference_band(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    eta = float(stdout.split("eta_c_total = ")[1].split()[0])
    assert 0.0290 <= eta <= 0.0322


def test_repro_manifest_all_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["repro", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    names = {fig["name"] for fig in manifest["figures"]}
    assert {"signal_nm", "idler_nm", "grating_period_um", "fwhm_nm",
            "eta_c_total_simulated", "pair_fraction_best_4ns"} <= names
    assert manifest["all_pass"] is True
    for name in ("tuning_curve.csv", "pm_spectrum.csv", "budget.csv",
                 "detector_curve.csv", "histogram.csv"):
        assert (out / name).exists()


def test_installed_entry_point(tmp_path):
    exe = shutil.which("pairsim")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "budget", "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "0.0306" in result.stdout


def test_usage_error_exit_code_is_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tune", "--bogus"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("temp_range", ["20:30:1", "160:160:1", "abc"])
def test_spectrum_refuses_anything_but_one_temperature(tmp_path, capsys, temp_range):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--temp-range", temp_range, "--out", str(out)])
    assert excinfo.value.code == 1
    assert f"invalid float value: '{temp_range}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("temp_range", ["nan", "inf", "-inf", "19.5"])
def test_spectrum_temperature_outside_model_exits_1(tmp_path, capsys, temp_range):
    out = tmp_path / "out"
    assert main(["spectrum", "--temp-range", temp_range, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"configuration error: temperature {float(temp_range):g} C outside" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("temp_range", ["abc", "140:nan:5"])
def test_tune_non_numeric_range_exits_1(tmp_path, capsys, temp_range):
    assert main(["tune", "--temp-range", temp_range, "--out", str(tmp_path)]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kind,old,new,named", [
    ("run", "bin_width_ns = 2.0", "bin_width = 1.0", "bin_width"),
    ("run", "[budget]", "[budgets]", "[budgets]"),
    ("lithium_niobate_e", "wavelength_range_um = 0.40", "wavelength_um = 0.40", "wavelength_um"),
    ("lithium_niobate_e", "[model]", "[model]\nversion = 1", "version"),   # the dropped key
    ("apd_ingaas", "jitter_sigma_ns = 1.0", "jitter_ns = 1.0", "jitter_ns"),
])
def test_unknown_key_or_section_exits_1(tmp_path, capsys, kind, old, new, named):
    replacements = {old: new}
    if kind != "run":
        model = tmp_path / f"{kind}.ini"
        text = _builtin_ini(kind)
        assert old in text, old
        model.write_text(text.replace(old, new), encoding="utf-8")
        replacements = {f"builtin:{kind}": str(model)}
    cfg = _variant_config(tmp_path, **replacements)
    assert main(["budget", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert named in err and ("unknown key" in err or "unknown section" in err)


@pytest.mark.parametrize("old,new", [
    ("window_ns = 20.0", "window_ns = 24.0"),        # past the 20-ns gate
    ("bin_width_ns = 2.0\nwindow_ns = 20.0",          # 4 ns is not whole 3-ns bins
     "bin_width_ns = 3.0\nwindow_ns = 18.0"),
    ("window_ns = 20.0", "window_ns = 2.0"),          # 4 ns is wider than the window
])
def test_unrepresentable_experiment_exits_1_before_sampling(tmp_path, capsys, monkeypatch,
                                                            old, new):
    def no_sampling(*args, **kwargs):
        raise AssertionError("simulate ran")
    monkeypatch.setattr(montecarlo, "simulate", no_sampling)
    cfg = _variant_config(tmp_path, **{old: new})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_repro_simulates_twice(tmp_path, monkeypatch):
    calls = []
    real = montecarlo.simulate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(montecarlo, "simulate", counting)
    cfg = _variant_config(tmp_path, **{"n_triggers = 1000000": "n_triggers = 10000"})
    assert main(["repro", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2


def test_repro_manifest_without_mode_matching_stages_is_valid_json(tmp_path):
    cfg = _variant_config(tmp_path, **{
        "n_triggers = 1000000": "n_triggers = 10000",
        "coupling_matching: 0.18": "coupling: 0.18"})
    out = tmp_path / "out"
    assert main(["repro", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text("utf-8"),
                          parse_constant=lambda name: pytest.fail(f"bare {name}"))
    assert manifest["all_pass"] is False
    (fig,) = [f for f in manifest["figures"] if f["name"] == "mode_matching"]
    assert fig["achieved"] is None and fig["pass"] is False and fig["reason"]


def test_public_scalars_are_python_floats(tmp_path, run_config):
    # a numpy scalar leaking out of the array solver turns a manifest "pass"
    # into np.bool_, which json cannot write
    cfg = dataclasses.replace(run_config, experiment=dataclasses.replace(
        run_config.experiment, n_triggers=10_000, duration_s=None))
    crystal, pump, model = cfg.crystal, cfg.pump_wavelength_nm, cfg.sellmeier
    point = qpm.solve_signal(crystal, pump, 142.0, model=model)
    curve = qpm.tuning_curve(crystal, pump, (0.0, 300.0), 25.0, model=model)
    assert curve.failures
    scalars = [
        *(getattr(point, f.name) for f in dataclasses.fields(point)),
        *qpm.tuning_coefficient(curve, 160.0),
        *qpm.fwhm_bandwidth(crystal, point, model=model),
        *(t for t, _ in curve.failures),
        *(v for row in qpm.pm_spectrum(crystal, point, 8.0, 11, model=model) for v in row),
        qpm.calibrate_period(crystal, pump, 808.0, 142.0, model=model),
        qpm.idler_from_energy(pump, 808.0),
        qpm.phase_mismatch(crystal, pump, 808.0, 1558.0, 142.0, model=model),
        dispersion.refractive_index(model, 0.808, 142.0),
    ]
    assert [type(x) for x in scalars] == [float] * len(scalars)

    output = Output(tmp_path / "out")
    manifest = cmd_repro(cfg, output, 1)
    assert not output.directory.exists()  # written only by the emit step
    json.dumps(manifest, allow_nan=False)
    assert type(manifest["all_pass"]) is bool
    for fig in manifest["figures"]:
        assert type(fig["pass"]) is bool
        assert {type(fig[key]) for key in ("achieved", "lo", "hi")} == {float}


@pytest.mark.parametrize("kind,old,new,named", [
    ("apd_ingaas", "jitter_sigma_ns = 1.0", "jitter_sigma_ns = nan", "[apd] jitter_sigma_ns"),
    ("run", "pump_power_mw = 1.0", "pump_power_mw = nan", "[experiment] pump_power_mw"),
    ("run", "max_trigger_rate_hz = 1.0e4", "max_trigger_rate_hz = nan",
     "[experiment] max_trigger_rate_hz"),
    ("run", "thermal_expansion_per_c = 1.5e-5", "thermal_expansion_per_c = nan",
     "[crystal] thermal_expansion_per_c"),
    ("lithium_niobate_e", "5.35583", "-inf", "[model] coefficients"),
])
def test_non_finite_ini_number_exits_1(tmp_path, capsys, kind, old, new, named):
    path = tmp_path / f"{kind}.ini"
    text = _builtin_ini("reference_setup" if kind == "run" else kind)
    assert old in text, old
    path.write_text(text.replace(old, new), encoding="utf-8")
    cfg = (str(path) if kind == "run"
           else _variant_config(tmp_path, **{f"builtin:{kind}": str(path)}))
    out = tmp_path / "out"
    assert main(["simulate", "--analytic", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert str(path) in captured.err and named in captured.err
    assert "not a finite number" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", [["budget"], ["repro", "--seed", "1"]])
def test_late_config_error_writes_nothing(tmp_path, capsys, command):
    # the bandwidth is checked after the budget table is computed
    cfg = _variant_config(tmp_path, **{"signal_bandwidth_ghz = 150.0":
                                       "signal_bandwidth_ghz = 0"})
    out = tmp_path / "out"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "bandwidth must be > 0 GHz" in captured.err
    assert captured.out == "" and not out.exists()
