"""Byte identity of the CLI outputs, Monte Carlo files included.

Each command writes to ``--out <command>`` relative to the working
directory, so the paths in stdout are fixed too.  A change that alters any
of these bytes on purpose updates its digest here.  The Monte Carlo files
(histogram.csv, manifest.json) and ``repro``'s and ``simulate``'s stdout
depend on the seed-to-stream mapping of ``montecarlo.simulate``: a change
of that mapping updates exactly those digests, on purpose, and says so.
"""

import hashlib
from importlib import resources

from pairsim.cli import main

RUNS = {
    "repro": ["repro", "--seed", "1"],
    "simulate": ["simulate", "--seed", "1", "--triggers", "200000"],
    "tune": ["tune"],
    "tune-dense": ["tune", "--temp-range", "20:250:0.01"],
    "spectrum": ["spectrum"],
    "budget": ["budget"],
    "detector-curve": ["detector-curve"],
}

DIGESTS = {
    ("repro", "stdout"): "d28f0b96c34a29dfbef8d825a635aca75cd9750ac10d9ba8dfe906afa4019ef0",
    ("repro", "tuning_curve.csv"): "67a2dbae0af7d5205e2196b9229927cd0fe69f4a2c81a5a9084a275bac2eedce",
    ("repro", "pm_spectrum.csv"): "10841c8b193828baa89e8efebf25d6fc2a45f50621fb1d75b6c1b1a1501e94de",
    ("repro", "budget.csv"): "0ea35f660f41a91d3e73eef04990bc8e067d109e27fbcd1bc86f7d11bc442887",
    ("repro", "budget.txt"): "6d999e97cda63600e40c9fb0924dd037c14bb725fbc1b1e0609f0d31c9d67dcb",
    ("repro", "detector_curve.csv"): "753c0b12c34dc3621a06ba3ef869b4114f48dd1c3a82f23367eaee1bc744ecc1",
    ("repro", "histogram.csv"): "e11bb9b9230af11116f6b5472bd41ebb511e8b8771731389d101ba538f71e188",
    ("repro", "manifest.json"): "e87592270b5aafc043f22be69713ce8994530d4fd3db837eacfc66a6c942864b",
    ("simulate", "stdout"): "f223a706bb33d162c917e7d924478cdecfacad4c43fae21b44874369c0c81030",
    ("simulate", "histogram.csv"): "859120be36e2eb2fd5b9340e8a12ec45e9de1f8e7aae9e6c105105078c6815d4",
    ("tune", "stdout"): "6fda8c024d39e436332d8c54aa8cbb700a52480cb689abd27944242b3a9db538",
    ("tune", "tuning_curve.csv"): "67a2dbae0af7d5205e2196b9229927cd0fe69f4a2c81a5a9084a275bac2eedce",
    ("tune-dense", "stdout"):
        "29bd34e5b845e8b9df498f90cf85bb8559b73ccb911524b2949bec5158b9aee5",
    ("tune-dense", "tuning_curve.csv"):
        "6a93c0d47c74727d716fc8dfdeefc726ce56e63ce72dd4cd6ec546c35d50d678",
    ("spectrum", "stdout"): "56afa563b419c0b77dbc6cec4a78ded4f8e5c9f996a564c5bdd96a5f6f790550",
    ("spectrum", "pm_spectrum.csv"): "10841c8b193828baa89e8efebf25d6fc2a45f50621fb1d75b6c1b1a1501e94de",
    ("budget", "stdout"): "6d999e97cda63600e40c9fb0924dd037c14bb725fbc1b1e0609f0d31c9d67dcb",
    ("budget", "budget.csv"): "0ea35f660f41a91d3e73eef04990bc8e067d109e27fbcd1bc86f7d11bc442887",
    ("budget", "budget.txt"): "6d999e97cda63600e40c9fb0924dd037c14bb725fbc1b1e0609f0d31c9d67dcb",
    ("detector-curve", "stdout"): "b984e51ae222ca1c0ee3368bd17978e6940bc83dae55809923840f81a15f57a3",
    ("detector-curve", "detector_curve.csv"):
        "753c0b12c34dc3621a06ba3ef869b4114f48dd1c3a82f23367eaee1bc744ecc1",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_deterministic_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in RUNS.items():
        assert main(argv + ["--out", name]) == 0
        got[(name, "stdout")] = _sha256(capsys.readouterr().out.encode("utf-8"))
        for run, filename in DIGESTS:
            if run == name and filename != "stdout":
                got[(name, filename)] = _sha256((tmp_path / name / filename).read_bytes())
    assert got == DIGESTS


# Tuning runs in which temperatures fail: (signal bracket or None for the
# shipped one, temperature range) -> (exit code, SHA-256 of stdout, of stderr
# and of tuning_curve.csv, None when it is not written).  Recorded from the
# scalar solver, one solve_signal call per temperature, so each failing
# temperature keeps its reason, with the same text, in the same order.  A
# bracket that fails at every temperature is a configuration error (exit 1).
FAILURE_RUNS = {
    "outside-model": (None, "0:300:25"),
    "no-root-from-170": ("800, 860", "100:200:10"),
    "signal-below-pump": ("500, 860", "140:185:5"),
    "no-root-anywhere": ("760, 780", "140:145:5"),
    "inverted-bracket": ("860, 760", "140:150:5"),
    "mixed": ("800, 860", "0:300:25"),
}
FAILURE_DIGESTS = {
    "outside-model": (
        0, "b88799b2c0a6e650d872429322dbcd7016f6345060bb564cc1ac09d70395bfc0",
        "6b4582e1c475405e7173c9d602e7db84204741de48a3e86cd9cc24a2111077df",
        "36f05f2a440a4f8f7dd3816b4d10a5c3d6b9f7a210a39b2f72d4eed4bc6de728"),
    "no-root-from-170": (
        0, "f7063443768ef352db9c8a400ce642efda182186d407a36eb24bcf281a733445",
        "498e58714f285d163fcb65c0d0d9dc02e56fae28c7d3e237b848160368d6c8bc",
        "dc19d640d03fd8da68edb2d69e094e8b9ecd6a791449bed9035438b4f7ba5180"),
    "signal-below-pump": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8a86f060a2486fa431f75d02e7ddd98349efc96eaca2e69978c938cb32e2acd4", None),
    "no-root-anywhere": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1b6413ae1bca4789b0a1f78dc774c68d097cc6e1ed3baab867694f84a33ee50f", None),
    "inverted-bracket": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bf6f1ce935b09452369c4d987b5da71bd8fba9f71d0cffa03a43317c459d7295", None),
    "mixed": (
        0, "ff21e030572dd936862674b3f333cde8b0ec460033b65bfbf5593299fe9fa627",
        "c75f672eb4ff71822beb9c9067fdf96a452eb29c29c16aef72332f7d42f7ab38",
        "aa7532fd4941ccb73672d8e101da6dfe1afd7666dc3a3ff9dce25f7e88f28e66"),
}


def test_tuning_failures_keep_their_reasons(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    reference = resources.files("pairsim.data").joinpath("reference_setup.ini")
    got = {}
    for name, (bracket, temp_range) in FAILURE_RUNS.items():
        argv = ["tune", "--temp-range", temp_range, "--out", name]
        if bracket is not None:
            text = reference.read_text("utf-8").replace(
                "signal_bracket_nm = 760, 860", f"signal_bracket_nm = {bracket}")
            (tmp_path / f"{name}.ini").write_text(text, encoding="utf-8")
            argv += ["--config", f"{name}.ini"]
        code = main(argv)
        captured = capsys.readouterr()
        csv = tmp_path / name / "tuning_curve.csv"
        got[name] = (code, _sha256(captured.out.encode("utf-8")),
                     _sha256(captured.err.encode("utf-8")),
                     _sha256(csv.read_bytes()) if csv.exists() else None)
    assert got == FAILURE_DIGESTS
