"""pairsim benchmark.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's pairsim command in fresh
processes, one at a time (a closed loop with one client), checks every
invocation's outputs, and reports the end-to-end metrics.  With
``--trace 1`` it instead runs the layers in this process, records spans
around every call into a pairsim module, and reports the per-layer metrics
(see traced.py).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full report, with the
static facts of the checkout, is written under ``perfbench/out/``.

The workload seed only derives the ``--seed`` of each invocation; pairsim
never sees it.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (ROOT, SRC, WORKLOADS, ChildRun, Tally, Workload,  # noqa: E402
                       check_outputs, compare_outputs, run_child)

OUT = ROOT / "perfbench" / "out"

# Set-up (scratch directory plus one untimed warm-up invocation) is repeated
# this many times and its median reported, so a single slow start does not
# decide setup_s.
SETUP_REPEATS = 3

# The tail percentile needs at least ten samples beyond it, hence at least
# eleven samples; the count is kept even so every invocation has a same-seed
# twin to be compared with.
MIN_INVOCATIONS = 12


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile level) of the highest percentile that has at least
    ten samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10          # 1-based rank of the tail sample
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def invoke(wl: Workload, seed: int, inv_dir: Path) -> tuple[ChildRun, list[str]]:
    """One pairsim invocation in a fresh process; returns (run, problems)."""
    out = inv_dir / "out"
    run = run_child(["-m", "pairsim.cli", *wl.argv(seed), "--out", str(out)], inv_dir)
    if run.exit_code != 0:
        stderr = (inv_dir / "stderr.txt").read_text("utf-8", "replace").strip()
        return run, [f"exit code {run.exit_code}: {stderr[-300:]}"]
    return run, check_outputs(wl, out)


def run_untraced(wl: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    rng = random.Random(f"{wl.name}:{seed}")
    tally = Tally()

    setup_times = []
    for k in range(SETUP_REPEATS):
        start = perf_counter()
        inv_dir = run_dir / f"setup{k}"
        inv_dir.mkdir(parents=True)
        _, problems = invoke(wl, rng.randrange(1, 2**31), inv_dir)
        tally.record(f"warm-up {k}", problems)
        shutil.rmtree(inv_dir)
        setup_times.append(perf_counter() - start)

    # Invocations come in pairs sharing one seed; the second one's outputs
    # must be byte-identical to the first one's.
    walls, rss = [], []
    start = perf_counter()
    while (len(walls) < MIN_INVOCATIONS or len(walls) % 2
           or perf_counter() - start < seconds):
        i = len(walls)
        inv_dir = run_dir / f"inv{i}"
        if i % 2 == 0:
            pair_seed = rng.randrange(1, 2**31)
            first = inv_dir
            run, problems = invoke(wl, pair_seed, inv_dir)
            first_ok = run.exit_code == 0
        else:
            run, problems = invoke(wl, pair_seed, inv_dir)
            if first_ok and run.exit_code == 0:
                problems += compare_outputs(first / "out", inv_dir / "out")
            shutil.rmtree(first)
            shutil.rmtree(inv_dir)
        tally.record(f"invocation {i} (seed {pair_seed})", problems)
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)

    tail_s, tail_level = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cmd_wall_s.p50": statistics.median(walls),
        "cmd_wall_s.tail": tail_s,
        "peak_rss_mb": max(rss),
        "throughput_per_s": statistics.median(wl.work / w for w in walls),
    }
    return {
        "metrics": metrics,
        "tally": tally,
        "lines": [f"cmd_wall_s.tail is the p{tail_level:.0f} of {len(walls)} timed invocations "
                  f"(10 beyond it); throughput_per_s counts {wl.work_unit}"],
        "details": {
            "invocations": len(walls),
            "tail_percentile": tail_level,
            "tail_samples_beyond": 10,
            "throughput_unit": f"{wl.work_unit}/s",
            "failed_frac": tally.failed / tally.attempted,
            "setup_s_samples": setup_times,
            "cmd_wall_s_samples": walls,
            "peak_rss_mb_samples": rss,
        },
    }


def static_facts() -> dict:
    """Facts about the checkout and machine, recorded beside the metrics."""
    sha = None  # exported trees have no .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            deps = len(tomllib.load(fh)["project"]["dependencies"])
    except (ImportError, OSError, KeyError):
        deps = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((SRC / "pairsim").rglob("*.py"))),
        "runtime_dependencies": deps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairsim" / "cli.py").is_file():
        print(f"perfbench: no pairsim sources under {SRC}", file=sys.stderr)
        return 2

    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if args.trace:
        import traced
        result = traced.run_traced(wl, args.seed, args.seconds, run_dir)
    else:
        result = run_untraced(wl, args.seed, args.seconds, run_dir)
    tally = result["tally"]

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": static_facts(),
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
        "details": result["details"],
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", "utf-8")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} attempted, {tally.failed} failed "
          f"(failed_frac {tally.failed / tally.attempted:.4g})")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for line in result["lines"]:
        print(f"  {line}")
    print(f"  facts: {json.dumps(report['facts'])}")
    print(f"  report: {run_dir.relative_to(ROOT) / 'report.json'}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
