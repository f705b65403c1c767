"""Benchmark workloads: the pairsim command each one runs, the inputs it
derives from the workload seed, and the checks every invocation's outputs
must pass.  Also the helper that runs one pairsim child process and
measures it.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A child that has not exited by then is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

# Acceptance band of the simulated conditional efficiency (repro manifest).
ETA_C_BAND = (0.0290, 0.0322)

# SHA-256 of the deterministic outputs, recorded from the first benchmarked
# commit.  The Monte Carlo outputs (histogram.csv, manifest.json) are not
# digested: the seed -> random stream mapping is allowed to change once.
REPRO_DIGESTS = {
    "budget.csv": "0ea35f660f41a91d3e73eef04990bc8e067d109e27fbcd1bc86f7d11bc442887",
    "budget.txt": "6d999e97cda63600e40c9fb0924dd037c14bb725fbc1b1e0609f0d31c9d67dcb",
    "detector_curve.csv": "753c0b12c34dc3621a06ba3ef869b4114f48dd1c3a82f23367eaee1bc744ecc1",
    "pm_spectrum.csv": "10841c8b193828baa89e8efebf25d6fc2a45f50621fb1d75b6c1b1a1501e94de",
    "tuning_curve.csv": "67a2dbae0af7d5205e2196b9229927cd0fe69f4a2c81a5a9084a275bac2eedce",
}
TUNE_DENSE_DIGESTS = {
    "tuning_curve.csv": "6a93c0d47c74727d716fc8dfdeefc726ce56e63ce72dd4cd6ec546c35d50d678",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``args`` are the pairsim arguments before ``--out``; ``seeded`` says
    whether the command takes ``--seed``.  ``work`` is the number of work
    items one invocation completes (Monte Carlo triggers or solved
    temperatures), from which throughput is computed.  ``triggers`` and
    ``temp_range`` size the traced run's layer probes.  ``histogram`` and
    ``manifest`` say which Monte Carlo outputs the command writes.
    """

    name: str
    args: tuple[str, ...]
    seeded: bool
    work: int
    work_unit: str
    triggers: int
    temp_range: tuple[float, float, float]
    digests: dict[str, str] = field(default_factory=dict)
    histogram: bool = False
    manifest: bool = False

    def argv(self, seed: int) -> list[str]:
        return [*self.args, *(["--seed", str(seed)] if self.seeded else [])]


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="repro",
        args=("repro",), seeded=True,
        work=1_000_000, work_unit="histogram triggers",
        triggers=1_000_000, temp_range=(140.0, 185.0, 5.0),
        digests=REPRO_DIGESTS, histogram=True, manifest=True,
    ),
    Workload(
        name="mc-bulk",
        args=("simulate", "--triggers", "10000000"), seeded=True,
        work=10_000_000, work_unit="triggers",
        triggers=10_000_000, temp_range=(140.0, 185.0, 5.0), histogram=True,
    ),
    Workload(
        name="tune-dense",
        args=("tune", "--temp-range", "20:250:0.01"), seeded=False,
        work=23_001, work_unit="solved temperatures",
        triggers=1_000_000, temp_range=(20.0, 250.0, 0.01),
        digests=TUNE_DENSE_DIGESTS,
    ),
)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _histogram_summary(path: Path) -> dict[str, str]:
    """The '# key,value' summary block at the end of histogram.csv."""
    summary = {}
    for line in path.read_text("utf-8").splitlines():
        if line.startswith("# ") and "," in line:
            key, _, value = line[2:].partition(",")
            summary[key] = value
    return summary


def _check_histogram(path: Path, n_triggers: int) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    summary = _histogram_summary(path)
    problems = []
    if summary.get("n_triggers") != str(n_triggers):
        problems.append(f"n_triggers {summary.get('n_triggers')} != {n_triggers}")
    eta = float(summary.get("eta_c_total", "nan"))
    lo, hi = ETA_C_BAND
    if not lo <= eta <= hi:
        problems.append(f"eta_c_total {eta} outside [{lo}, {hi}]")
    return problems


def check_outputs(wl: Workload, out: Path) -> list[str]:
    """Problems found in one invocation's output directory (empty if none)."""
    problems = []
    for name, digest in wl.digests.items():
        path = out / name
        if not path.is_file():
            problems.append(f"missing {name}")
        elif _sha256(path) != digest:
            problems.append(f"{name} differs from its recorded digest")
    if wl.manifest:
        manifest = out / "manifest.json"
        if not manifest.is_file():
            problems.append("missing manifest.json")
        elif json.loads(manifest.read_text("utf-8")).get("all_pass") is not True:
            problems.append("manifest.json: all_pass is not true")
    if wl.histogram:
        problems += _check_histogram(out / "histogram.csv", wl.work)
    return problems


def compare_outputs(first: Path, second: Path) -> list[str]:
    """Byte-level differences between two same-seed output directories."""
    names_a = sorted(p.name for p in first.iterdir())
    names_b = sorted(p.name for p in second.iterdir())
    if names_a != names_b:
        return [f"same-seed runs wrote different files: {names_a} vs {names_b}"]
    _, mismatch, errors = filecmp.cmpfiles(first, second, names_a, shallow=False)
    return [f"same-seed runs differ in {name}" for name in mismatch + errors]


class Tally:
    """Invocations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:3]]


def child_env() -> dict[str, str]:
    """Environment for pairsim children: the checkout's sources, uninstalled."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], log_dir: Path) -> ChildRun:
    """Run ``python <argv>`` with the checkout's sources and wait for it.

    Wall time covers interpreter start to exit.  Peak RSS comes from this
    child's own rusage (``wait4``); the cumulative RUSAGE_CHILDREN figure
    would only report the largest child so far.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                    exit_code=proc.returncode)
