"""Byte identity of the CLI outputs, Monte Carlo files included.

Each command writes to ``--out <command>`` relative to the working
directory, so the paths in stdout are fixed too.  A change that alters any
of these bytes on purpose updates its digest here.  The Monte Carlo files
(histogram.csv, manifest.json) and ``repro``'s and ``simulate``'s stdout
depend on the seed-to-stream mapping of ``montecarlo.simulate``: a change
of that mapping updates exactly those digests, on purpose, and says so.
"""

import hashlib

from pairsim.cli import main

RUNS = {
    "repro": ["repro", "--seed", "1"],
    "simulate": ["simulate", "--seed", "1", "--triggers", "200000"],
    "tune": ["tune"],
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
    ("repro", "histogram.csv"): "2f4245a7a0312304f3f0336bcae25a3764b587ca60e2320f39be18c0710298b6",
    ("repro", "manifest.json"): "e87592270b5aafc043f22be69713ce8994530d4fd3db837eacfc66a6c942864b",
    ("simulate", "stdout"): "f223a706bb33d162c917e7d924478cdecfacad4c43fae21b44874369c0c81030",
    ("simulate", "histogram.csv"): "123d853c0b3bee7de04e0691f67854f6b030e06758541c3555c3734753b5e704",
    ("tune", "stdout"): "6fda8c024d39e436332d8c54aa8cbb700a52480cb689abd27944242b3a9db538",
    ("tune", "tuning_curve.csv"): "67a2dbae0af7d5205e2196b9229927cd0fe69f4a2c81a5a9084a275bac2eedce",
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
