"""Traced run: per-layer metrics of pairsim, measured in this process.

The layers are the package modules named in LAYERS.  Each round of the run

* runs the workload's command in process (``cli.main``) untraced, then again
  with every public function of every layer replaced by a wrapper that
  records a span (name, start, end, parent) around each call into a layer
  from outside it; calls within one layer are not spans.  The spans give
  each layer's self time, and traced minus untraced wall time is the
  tracing overhead;
* times each layer's public functions directly (untraced) on the
  workload's inputs: the layer probes.

Spans are kept in memory, up to MAX_KEPT_SPANS, and written to
``spans.jsonl`` when the run ends; self times and call counts are
accumulated over every span, kept or not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import json
import random
import shutil
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from workloads import SRC, Tally, Workload, check_outputs, compare_outputs, run_child

LAYERS = ("cli", "config", "dispersion", "qpm", "source", "detector", "montecarlo")

# Spans written to spans.jsonl; a dense tuning curve makes ~10^6 of them.
MAX_KEPT_SPANS = 50_000

IMPORT_REPEATS = 5
MIN_ROUNDS = 3


class Tracer:
    """Spans around calls into layers, for one traced command."""

    def __init__(self, trace_id: int, keep: int):
        self.trace_id = trace_id
        self.keep = keep
        self.spans: list[tuple] = []
        self.count = 0
        self.self_ns: Counter = Counter()     # per layer
        self.total_ns: Counter = Counter()    # per function, inclusive
        self.calls: Counter = Counter()       # per function
        self._stack: list[list] = []          # [span id, layer, child ns]

    def call(self, layer: str, name: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        span_id = self.count
        self.count += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, layer, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[2]
            self.total_ns[name] += duration
            self.calls[name] += 1
            if stack:
                stack[-1][2] += duration
            if span_id < self.keep:
                self.spans.append((self.trace_id, span_id, parent, name, start, end))


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer, modules: dict):
    """Replace every layer's public functions, wherever a layer module holds
    a reference to them, by span-recording wrappers; restore on exit."""
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, _wrap(tracer, layer, f"{layer}.{name}", fn))
    patched = []
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
                patched.append((module, name, obj))
    try:
        yield tracer
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)


def _mean_time(fn, repeats: int) -> float:
    start = perf_counter()
    for _ in range(repeats):
        fn()
    return (perf_counter() - start) / repeats


def _timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def probe_layers(wl: Workload, m: dict, cfg, seed: int) -> dict[str, float]:
    """One untraced pass over each layer's public functions."""
    config, dispersion, qpm, source, detector, montecarlo = (
        m["config"], m["dispersion"], m["qpm"], m["source"], m["detector"], m["montecarlo"])
    out: dict[str, float] = {}

    out["config.load_s"] = _mean_time(config.load_run_config, 5)

    waves_um = (cfg.pump_wavelength_nm * 1e-3, 0.808, 1.558)
    reps = 3000
    start = perf_counter()
    for _ in range(reps):
        for lam in waves_um:
            dispersion.refractive_index(cfg.sellmeier, lam, cfg.temperature_c)
    out["dispersion.index_ns"] = (perf_counter() - start) / (3 * reps) * 1e9

    def solve():
        return qpm.solve_signal(cfg.crystal, cfg.pump_wavelength_nm, cfg.temperature_c,
                                bracket_nm=cfg.signal_bracket_nm, model=cfg.sellmeier)
    out["qpm.solve_s"] = _mean_time(solve, 20)
    solution = solve()

    lo, hi, step = wl.temp_range
    out["qpm.tuning_curve_s"], curve = _timed(lambda: qpm.tuning_curve(
        cfg.crystal, cfg.pump_wavelength_nm, (lo, hi), step,
        bracket_nm=cfg.signal_bracket_nm, model=cfg.sellmeier))
    out["qpm.tuning_failures"] = len(curve.failures)

    width_nm, _ = qpm.fwhm_bandwidth(cfg.crystal, solution, model=cfg.sellmeier)
    out["qpm.fwhm_s"] = _mean_time(
        lambda: qpm.fwhm_bandwidth(cfg.crystal, solution, model=cfg.sellmeier), 10)
    out["qpm.spectrum_s"] = _mean_time(lambda: qpm.pm_spectrum(
        cfg.crystal, solution, idler_span_nm=6.0 * width_nm, n_points=401,
        model=cfg.sellmeier), 5)

    exp = cfg.experiment

    def budget():
        chain = source.LossChain(stages=exp.idler_chain.stages + (
            ("apd_qe", detector.qe_at_overbias(cfg.apd, cfg.overbias_v)),))
        source.render_budget_text(chain)
        source.mode_matching_ratio(exp.idler_chain.get("coupling_matching"),
                                   exp.signal_chain.get("fiber_coupling"))
        signal = source.LossChain(stages=exp.signal_chain.stages
                                  + (("spcm_qe", cfg.spcm.efficiency),))
        source.infer_generation_rate(cfg.budget.detected_signal_rate_per_mw, signal)
        source.spectral_brightness(cfg.budget.freespace_pair_rate_per_mw,
                                   cfg.budget.signal_bandwidth_ghz)
    out["source.budget_s"] = _mean_time(budget, 200)

    n = wl.triggers
    rng = np.random.Generator(np.random.Philox(seed))
    p_pair = montecarlo.pair_survival_probability(exp)
    offsets = np.where(rng.random(n) < p_pair, exp.gate_open_lead_ns, np.nan)
    elapsed, (clicked, _) = _timed(lambda: detector.detect_in_gate_batch(
        cfg.apd, offsets, cfg.overbias_v, rng))
    del offsets
    out["detector.ns_per_gate"] = elapsed / n * 1e9
    out["detector.click_ratio"] = float(clicked.sum()) / n
    del clicked

    run_exp = dataclasses.replace(exp, n_triggers=n, duration_s=None)
    elapsed, _ = _timed(lambda: montecarlo.simulate(
        run_exp, cfg.apd, cfg.spcm, cfg.overbias_v, seed))
    out["montecarlo.ns_per_trigger"] = elapsed / n * 1e9
    out["montecarlo.analytic_s"] = _mean_time(lambda: montecarlo.analytic_expectation(
        run_exp, cfg.apd, cfg.spcm, cfg.overbias_v), 20)
    return out


def _simulate_peak_alloc_mb(wl: Workload, m: dict, cfg, seed: int) -> float:
    """tracemalloc peak of one simulate call at the workload's trigger count."""
    run_exp = dataclasses.replace(cfg.experiment, n_triggers=wl.triggers, duration_s=None)
    tracemalloc.start()
    try:
        m["montecarlo"].simulate(run_exp, cfg.apd, cfg.spcm, cfg.overbias_v, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _run_cli(cli, wl: Workload, seed: int, out: Path) -> tuple[float, list[str]]:
    """cli.main on the workload's arguments: (wall time, output problems)."""
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([*wl.argv(seed), "--out", str(out)])
    elapsed = perf_counter() - start
    return elapsed, [f"exit code {code}"] if code != 0 else check_outputs(wl, out)


def run_traced(wl: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"pairsim.{name}") for name in LAYERS}
    cli = modules["cli"]
    cfg = modules["config"].load_run_config()
    rng = random.Random(f"{wl.name}:{seed}:trace")
    tally = Tally()

    # Warm-up: first-use costs (lazy imports, caches) are not layer time.
    tally.record("warm-up", _run_cli(cli, wl, rng.randrange(1, 2**31), run_dir / "warmup")[1])
    shutil.rmtree(run_dir / "warmup")

    import_s = []
    for k in range(IMPORT_REPEATS):
        run = run_child(["-c", "import pairsim.cli"], run_dir / "import")
        tally.record(f"import {k}", [] if run.exit_code == 0 else [f"exit code {run.exit_code}"])
        import_s.append(run.wall_s)
    shutil.rmtree(run_dir / "import")
    peak_alloc_mb = _simulate_peak_alloc_mb(wl, modules, cfg, rng.randrange(1, 2**31))

    samples: dict[str, list[float]] = {}
    layer_self_s: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    spans: list[tuple] = []
    tracer = None
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        round_seed = rng.randrange(1, 2**31)
        plain_out, traced_out = run_dir / f"r{rounds}-plain", run_dir / f"r{rounds}-traced"
        plain_s, problems = _run_cli(cli, wl, round_seed, plain_out)
        tally.record(f"round {rounds} untraced", problems)
        plain_ok = not problems
        tracer = Tracer(trace_id=rounds, keep=MAX_KEPT_SPANS - len(spans))
        with traced(tracer, modules):
            traced_s, problems = _run_cli(cli, wl, round_seed, traced_out)
        if plain_ok and not problems:
            problems = compare_outputs(plain_out, traced_out)
        tally.record(f"round {rounds} traced, same seed", problems)
        shutil.rmtree(plain_out)
        shutil.rmtree(traced_out)
        spans += tracer.spans

        values = probe_layers(wl, modules, cfg, round_seed)
        values["cli.cmd_s"] = plain_s
        values["trace.cmd_s"] = traced_s
        values["trace.overhead_s"] = traced_s - plain_s
        values["cli.write_s"] = sum(ns for name, ns in tracer.total_ns.items()
                                    if ".write_" in name) / 1e9
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        for layer in LAYERS:
            layer_self_s[layer].append(tracer.self_ns[layer] / 1e9)
        rounds += 1

    with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for trace_id, span_id, parent, name, t0, t1 in spans:
            fh.write(json.dumps({"trace": trace_id, "id": span_id, "parent": parent,
                                 "name": name, "start_ns": t0, "end_ns": t1}) + "\n")

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["montecarlo.peak_alloc_mb"] = peak_alloc_mb
    metrics["trace.spans"] = tracer.count
    summary = {
        "rounds": rounds,
        "layer_self_s": {layer: statistics.median(v) for layer, v in layer_self_s.items()},
        "traced_cmd_s": metrics["trace.cmd_s"],
        "spans_per_cmd": tracer.count,
        "spans_kept": len(spans),
        "calls_per_cmd": dict(tracer.calls.most_common()),
        "inclusive_s_per_cmd": {name: ns / 1e9 for name, ns in tracer.total_ns.most_common()},
        "import_s_samples": import_s,
    }
    (run_dir / "trace.json").write_text(json.dumps(summary, indent=2) + "\n", "utf-8")
    self_times = ", ".join(f"{layer} {s:.4g}" for layer, s in summary["layer_self_s"].items())
    return {
        "metrics": metrics,
        "tally": tally,
        "lines": [
            f"self time per layer in the traced command, s (median of {rounds} rounds): "
            + self_times,
            f"traced command {summary['traced_cmd_s']:.4g} s, untraced {metrics['cli.cmd_s']:.4g} s; "
            f"{tracer.count} spans per command, {len(spans)} kept in spans.jsonl",
        ],
        "details": summary,
    }
