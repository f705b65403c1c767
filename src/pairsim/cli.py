"""Config-driven command line: regenerates the tuning curve, conversion
spectrum, efficiency budget, detector curve, and coincidence histogram as
CSV/text, plus a ``repro`` meta-command that runs everything against the
shipped reference setup and writes an achieved-vs-target manifest.

Exit codes: 0 success, 1 configuration/validation problem, 2 numerical
(solver/bracketing) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import detector, montecarlo, qpm, source
from .config import DEFAULT_CONFIG, RunConfig, load_run_config
from .errors import ConfigError, SolverError
from .formatting import csv_lines, format_number

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with exit code 2; the exit-code
    contract reserves 2 for numerical failures, so remap to 1.  A number
    such as -inf or -1e3 is a value, not an option."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _parse_range(text: str) -> tuple[float, float, float]:
    """'A:B:STEP' -> (A, B, STEP); a bare 'A' means the single point A."""
    try:
        values = [float(tok) for tok in text.split(":")]
    except ValueError:
        raise ConfigError(f"expected numbers A:B:STEP, got '{text}'") from None
    if len(values) not in (1, 3) or not all(isfinite(v) for v in values):
        raise ConfigError(f"expected finite A:B:STEP, got '{text}'")
    if len(values) == 1:
        return values[0], values[0], 1.0
    return values[0], values[1], values[2]


def _require_seed(cfg: RunConfig, override: int | None) -> int:
    seed = override if override is not None else cfg.seed
    if seed is None:
        raise ConfigError("stochastic run requires an explicit seed (--seed or [run] seed)")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


class Output:
    """What one command writes, held back until it has computed all of its
    results: files in ``directory`` (name -> an iterator of text lines),
    then stdout lines, then stderr lines.  A command that raises leaves it
    unwritten."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.files: dict[str, Iterator[str]] = {}
        self.stdout: list[str] = []
        self.stderr: list[str] = []

    def file(self, name: str, lines) -> Path:
        """Queue a file of text lines; returns the path it will be written to."""
        self.files[name] = iter(lines)
        return self.directory / name


def _emit(output: Output) -> None:
    """Write the files (UTF-8, LF endings), one string per 256 lines, then
    print stdout and stderr: the package's only output apart from warnings."""
    for name, lines in output.files.items():
        output.directory.mkdir(parents=True, exist_ok=True)
        with open(output.directory / name, "w", encoding="utf-8", newline="\n") as fh:
            while block := list(islice(lines, 256)):
                fh.write("\n".join(block) + "\n")
    sys.stdout.writelines(f"{line}\n" for line in output.stdout)
    sys.stderr.writelines(f"{line}\n" for line in output.stderr)


def cmd_tune(cfg: RunConfig, temp_range: tuple[float, float, float],
             output: Output) -> qpm.TuningCurve:
    lo, hi, step = temp_range
    curve = qpm.tuning_curve(cfg.crystal, cfg.pump_wavelength_nm, (lo, hi), step,
                             bracket_nm=cfg.signal_bracket_nm, model=cfg.sellmeier)
    mid = 0.5 * (lo + hi)
    slopes = qpm.tuning_coefficient(curve, mid) if len(curve) >= 2 else None

    path = output.file("tuning_curve.csv", csv_lines(
        "T_C,lambda_s_nm,lambda_i_nm", (curve.temperature_c, curve.signal_nm, curve.idler_nm)))
    output.stdout.append(f"tuning curve: {len(curve)} rows over {lo}..{hi} C "
                         f"({len(curve.failures)} failed solves) -> {path}")
    if slopes is not None:
        output.stdout.append(f"tuning coefficient near {mid:g} C: signal {slopes[0]:+.4f} "
                             f"nm/C, idler {slopes[1]:+.4f} nm/C")
    output.stderr += [f"  skipped T={t:g} C: {reason}" for t, reason in curve.failures]
    return curve


def cmd_spectrum(cfg: RunConfig, temperature_c: float,
                 output: Output) -> tuple[qpm.PhaseMatchPoint, tuple[float, float]]:
    """Spectrum around the operating point: (solution, (FWHM nm, FWHM GHz))."""
    solution = qpm.solve_signal(cfg.crystal, cfg.pump_wavelength_nm, temperature_c,
                                bracket_nm=cfg.signal_bracket_nm, model=cfg.sellmeier)
    width_nm, width_ghz = qpm.fwhm_bandwidth(cfg.crystal, solution, model=cfg.sellmeier)
    rows = qpm.pm_spectrum(cfg.crystal, solution, idler_span_nm=6.0 * width_nm,
                           n_points=401, model=cfg.sellmeier)

    path = output.file("pm_spectrum.csv", csv_lines("lambda_i_nm,rel_eff", np.array(rows).T))
    output.stdout.append(f"operating point at {temperature_c:g} C: signal "
                         f"{solution.signal_nm:.3f} nm, idler {solution.idler_nm:.3f} nm")
    output.stdout.append(f"FWHM: {width_nm:.4f} nm ({width_ghz:.2f} GHz) in the idler -> {path}")
    return solution, (width_nm, width_ghz)


class BudgetFigures(NamedTuple):
    chain_efficiency: float
    mode_matching: float | None  # None when a chain lacks the stages it splits
    inferred_rate_per_mw: float
    brightness: float


def cmd_budget(cfg: RunConfig, output: Output) -> BudgetFigures:
    # the idler chain, with the APD quantum efficiency appended
    qe = detector.qe_at_overbias(cfg.apd, cfg.overbias_v)
    chain = source.LossChain(stages=cfg.experiment.idler_chain.stages + (("apd_qe", qe),))
    coupling = cfg.experiment.idler_chain.get("coupling_matching")
    fiber = cfg.experiment.signal_chain.get("fiber_coupling")
    mode_match = None
    if coupling is not None and fiber is not None:
        mode_match = source.mode_matching_ratio(coupling, fiber)
    signal_detection = source.LossChain(
        stages=cfg.experiment.signal_chain.stages + (("spcm_qe", cfg.spcm.efficiency),))
    inferred = source.infer_generation_rate(
        cfg.budget.detected_signal_rate_per_mw, signal_detection)
    brightness = source.spectral_brightness(
        cfg.budget.freespace_pair_rate_per_mw, cfg.budget.signal_bandwidth_ghz)

    lines = source.render_budget_text(chain)
    if mode_match is not None:
        lines.append(f"signal-idler mode matching: {mode_match:.4f}")
    lines += [f"inferred single-mode generation rate: {inferred:.6g} /s/mW",
              f"free-space spectral brightness: {brightness:.6g} pairs/s/GHz/mW"]
    names, effs, cumulative = zip(*source.budget_rows(chain))
    output.file("budget.csv", csv_lines("stage,efficiency,cumulative",
                                        np.array([effs, cumulative]), labels=names))
    output.file("budget.txt", lines)
    output.stdout += lines
    return BudgetFigures(source.chain_efficiency(chain), mode_match, inferred, brightness)


def cmd_detector(cfg: RunConfig, sweep: tuple[float, float, float], output: Output) -> None:
    """Detector curve over an overbias sweep."""
    lo, hi, step = sweep
    if hi < lo or step <= 0:
        raise ConfigError(f"bad overbias sweep {lo}:{hi}:{step}")
    volts = [lo + k * step for k in range(qpm.grid_size(lo, hi, step))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamped column marks them
        qe = [detector.qe_at_overbias(cfg.apd, v) for v in volts]
    span_lo, span_hi = cfg.apd.overbias_span
    clamped = [int(v < span_lo or v > span_hi) for v in volts]

    path = output.file("detector_curve.csv", csv_lines(
        "overbias_v,qe,dark_prob_per_gate,clamped",
        np.array([volts, qe, [cfg.apd.dark_prob_per_gate] * len(volts), clamped])))
    output.stdout.append(f"detector curve: {len(volts)} points over {lo}..{hi} V -> {path}")


def cmd_simulate(cfg: RunConfig, output: Output, seed: int | None, triggers: int | None,
                 analytic: bool, overbias: float | None) -> montecarlo.CoincidenceHistogram:
    experiment = cfg.experiment
    if triggers is not None:
        experiment = dataclasses.replace(experiment, n_triggers=triggers, duration_s=None)
    overbias_v = overbias if overbias is not None else cfg.overbias_v

    expected = montecarlo.analytic_expectation(experiment, cfg.apd, cfg.spcm, overbias_v)
    if analytic:
        hist = expected
    else:
        run_seed = _require_seed(cfg, seed)
        hist = montecarlo.simulate(experiment, cfg.apd, cfg.spcm, overbias_v, run_seed)
    window_ns = montecarlo.DEFAULT_COINCIDENCE_WINDOW_NS
    window = montecarlo.coincidence_window_sum(hist, window_ns)
    edges = hist.bin_edges_ns
    # p_d w / G: what the model, and so analytic_expectation, puts in a bin
    # that no photon reaches.
    accidental = cfg.apd.dark_prob_per_gate / cfg.apd.gate_length_ns * np.diff(edges)

    path = output.file("histogram.csv", [
        *csv_lines("bin_start_ns,bin_end_ns,conditional_prob,expected_prob,accidental_level",
                   (edges[:-1], edges[1:], hist.conditional_prob, expected.conditional_prob,
                    accidental)),
        "# summary",
        f"# n_triggers,{hist.n_triggers}",
        f"# eta_c_total,{format_number(hist.eta_c_total)}",
        f"# coincidence_window_ns,{format_number(window_ns)}",
        f"# coincidence_window_sum,{format_number(window)}",
        f"# trigger_rate_hz,{format_number(hist.trigger_rate_hz)}",
        f"# discard_fraction,{format_number(hist.discard_fraction)}",
    ])
    output.stdout.append(f"{'analytic expectation' if analytic else 'simulated'} histogram "
                         f"({hist.n_triggers} triggers) -> {path}")
    output.stdout.append(f"eta_c_total = {format_number(hist.eta_c_total)}  "
                         f"(best 4-ns window sum {format_number(window)})")
    output.stdout.append(f"trigger rate {format_number(hist.trigger_rate_hz)} /s, "
                         f"discard fraction {format_number(hist.discard_fraction)}")
    return hist


def _repro_figures(cfg: RunConfig, seed: int, curve: qpm.TuningCurve,
                   solution: qpm.PhaseMatchPoint, fwhm: tuple[float, float],
                   budget: BudgetFigures,
                   sim: montecarlo.CoincidenceHistogram) -> list[dict]:
    """Every reference figure with its acceptance band, from the subcommands'
    results plus the two computations only repro needs."""
    period = qpm.calibrate_period(cfg.crystal, cfg.pump_wavelength_nm,
                                  solution.signal_nm, cfg.temperature_c,
                                  model=cfg.sellmeier)
    _, d_idler = qpm.tuning_coefficient(curve, 160.0)
    width_nm, width_ghz = fwhm
    dark_free = dataclasses.replace(cfg.apd, dark_prob_per_gate=0.0)
    sim_pairs = montecarlo.simulate(cfg.experiment, dark_free, cfg.spcm,
                                    cfg.overbias_v, seed)
    pair_fraction = (montecarlo.coincidence_window_sum(sim_pairs, 4.0)
                     / sim_pairs.eta_c_total) if sim_pairs.eta_c_total > 0 else 0.0

    mode_matching = {"name": "mode_matching", "achieved": budget.mode_matching,
                     "lo": 0.35, "hi": 0.37}
    if budget.mode_matching is None:
        mode_matching["reason"] = ("the chains lack a coupling_matching or "
                                   "fiber_coupling stage")
    return [
        {"name": "signal_nm", "achieved": solution.signal_nm, "lo": 803.0, "hi": 813.0},
        {"name": "idler_nm", "achieved": solution.idler_nm, "lo": 1544.0, "hi": 1574.0},
        {"name": "grating_period_um", "achieved": period, "lo": 21.1, "hi": 22.1},
        {"name": "idler_tuning_nm_per_c", "achieved": abs(d_idler), "lo": 0.65, "hi": 1.95},
        {"name": "fwhm_nm", "achieved": width_nm, "lo": 1.008, "hi": 1.512},
        {"name": "fwhm_ghz", "achieved": width_ghz, "lo": 120.0, "hi": 180.0},
        {"name": "conditional_chain_efficiency", "achieved": budget.chain_efficiency,
         "lo": 0.0290, "hi": 0.0322},
        mode_matching,
        {"name": "inferred_singlemode_rate_per_mw", "achieved": budget.inferred_rate_per_mw,
         "lo": 1.17e5, "hi": 1.44e5},
        {"name": "spectral_brightness", "achieved": budget.brightness,
         "lo": 8.8e4, "hi": 9.8e4},
        {"name": "eta_c_total_simulated", "achieved": sim.eta_c_total,
         "lo": 0.0290, "hi": 0.0322},
        {"name": "pair_fraction_best_4ns", "achieved": pair_fraction,
         "lo": 0.95, "hi": 1.0},
    ]


def cmd_repro(cfg: RunConfig, output: Output, seed: int | None) -> dict:
    """Run every subcommand, then build the achieved-vs-target manifest."""
    run_seed = _require_seed(cfg, seed)
    curve = cmd_tune(cfg, (140.0, 185.0, 5.0), output)
    solution, fwhm = cmd_spectrum(cfg, cfg.temperature_c, output)
    budget = cmd_budget(cfg, output)
    cmd_detector(cfg, (0.5, 4.0, 0.1), output)
    sim = cmd_simulate(cfg, output, run_seed, None, False, None)

    figures = _repro_figures(cfg, run_seed, curve, solution, fwhm, budget, sim)
    for fig in figures:
        fig["pass"] = fig["achieved"] is not None and fig["lo"] <= fig["achieved"] <= fig["hi"]
    manifest = {"figures": figures, "all_pass": all(f["pass"] for f in figures)}

    path = output.file("manifest.json", [json.dumps(manifest, indent=2, allow_nan=False)])
    for fig in figures:
        status = "PASS" if fig["pass"] else "FAIL"
        achieved = (f"{fig['achieved']:.6g}" if fig["achieved"] is not None
                    else f"n/a, {fig['reason']}")
        output.stdout.append(f"{status} {fig['name']}: {achieved} "
                             f"(target {fig['lo']:.6g} .. {fig['hi']:.6g})")
    output.stdout.append(f"manifest -> {path}")
    return manifest


def build_parser() -> _Parser:
    parser = _Parser(prog="pairsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=DEFAULT_CONFIG,
                       help="run configuration INI (default: shipped reference setup)")
        p.add_argument("--out", default=None, help="output directory")

    p_tune = sub.add_parser("tune", help="temperature tuning curve CSV + coefficient report")
    common(p_tune)
    p_tune.add_argument("--temp-range", default="140:185:5", metavar="A:B:STEP")

    p_spec = sub.add_parser("spectrum", help="conversion spectrum CSV + FWHM report")
    common(p_spec)
    p_spec.add_argument("--temp-range", type=float, default=None, metavar="T",
                        help="operating temperature (defaults to the configured one)")

    p_budget = sub.add_parser("budget", help="efficiency budget table")
    common(p_budget)

    p_det = sub.add_parser("detector-curve", help="QE/dark vs overbias CSV")
    common(p_det)
    p_det.add_argument("--overbias", default="0.5:4.0:0.1", metavar="A:B:STEP")

    p_sim = sub.add_parser("simulate", help="coincidence histogram CSV + summary")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--triggers", type=int, default=None)
    p_sim.add_argument("--analytic", action="store_true",
                       help="write the expectation histogram (no sampling)")
    p_sim.add_argument("--overbias", type=float, default=None, metavar="V")

    p_repro = sub.add_parser("repro", help="run all subcommands and write the manifest")
    common(p_repro)
    p_repro.add_argument("--seed", type=int, default=None)

    return parser


def _show_warning(message, *_args, **_kwargs):
    """One stderr line per warning, without the path and line that raised it."""
    print(f"pairsim: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            cfg = load_run_config(args.config)
            output = Output(Path(args.out if args.out is not None else cfg.out_dir))
            if args.command == "tune":
                cmd_tune(cfg, _parse_range(args.temp_range), output)
            elif args.command == "spectrum":
                temp = args.temp_range if args.temp_range is not None else cfg.temperature_c
                cmd_spectrum(cfg, temp, output)
            elif args.command == "budget":
                cmd_budget(cfg, output)
            elif args.command == "detector-curve":
                cmd_detector(cfg, _parse_range(args.overbias), output)
            elif args.command == "simulate":
                cmd_simulate(cfg, output, args.seed, args.triggers, args.analytic, args.overbias)
            elif args.command == "repro":
                cmd_repro(cfg, output, args.seed)
            _emit(output)
        except ConfigError as exc:
            print(f"pairsim: configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SolverError as exc:
            print(f"pairsim: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
