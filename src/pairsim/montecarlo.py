"""Discrete-event simulation of the triggered coincidence measurement.

The measurement is conditioned on signal detections, so the simulator
generates triggers directly: per trigger the conjugate idler survives its
loss chain with the chain-product probability, arrives at a fixed gate
offset, and the gated APD decides whether and when it clicks.  Absolute
trigger rates enter only through the rate cap.  Multi-pair events per gate
are neglected (double-pair probability is far below the statistical
resolution at the kHz trigger rates this models).

Randomness: one counter-based Philox stream, keyed by
SeedSequence(entropy=seed, spawn_key=(0,)).  A run of n triggers reads it
as five consecutive blocks, one value per trigger each; positions count
the stream's 64-bit words:

* pair-survival uniforms at [0, n);
* photon-efficiency uniforms at [n, 2n);
* jitter normals from 2n.  The ziggurat takes a variable number of words,
  so this block ends at 2n + m, with m known only once it is drawn;
* dark-count uniforms at [2n + m, 3n + m);
* dark-time uniforms at [3n + m, 4n + m).

Philox is counter based, so a generator can be started at any of these
positions (``Philox.advance`` plus the remainder of a four-word block).  The
run is walked in CHUNK-sized steps twice.  The first walk reads from
generators at 0, n and 2n and keeps only the photon clicks, as (trigger
index, time) per chunk.  The normals generator has then reached 2n + m, so
the second walk reads the dark counts from generators at 2n + m and
3n + m, merges each chunk's clicks (the earliest wins) and histograms
them.  Memory is O(CHUNK + photon clicks): a few MB of chunk arrays plus
16 bytes per photon click, whatever n is.  The counts do not depend on
CHUNK.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, sqrt

import numpy as np

from .detector import (GatedApdModel, SpcmModel, dark_clicks, dark_prob, earliest_clicks,
                       effective_efficiency, photon_clicks)
from .errors import ConfigError
from .formatting import format_number, write_lines
from .source import LossChain, chain_efficiency

DEFAULT_COINCIDENCE_WINDOW_NS = 4.0

# Triggers per step of the walk; each step holds a few float64
# arrays of this length.
CHUNK = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Geometry-free description of one coincidence run.

    ``signal_chain`` carries the optical losses up to the SPCM (the SPCM
    efficiency itself lives in SpcmModel); ``idler_chain`` carries the
    idler losses up to the APD, excluding the APD quantum efficiency.
    Exactly one of ``n_triggers`` / ``duration_s`` is set.  The histogram
    summary sums the best DEFAULT_COINCIDENCE_WINDOW_NS window, so that
    window must be a whole number of bins and fit in ``window_ns``.
    """

    pump_power_mw: float
    singlemode_pair_rate_per_mw: float
    signal_chain: LossChain
    idler_chain: LossChain
    gate_open_lead_ns: float = 8.0
    max_trigger_rate_hz: float = 1.0e4
    bin_width_ns: float = 2.0
    window_ns: float = 20.0
    n_triggers: int | None = None
    duration_s: float | None = None

    def __post_init__(self):
        if self.pump_power_mw < 0:
            raise ConfigError(f"pump power must be >= 0 mW, got {self.pump_power_mw}")
        if self.singlemode_pair_rate_per_mw < 0:
            raise ConfigError("single-mode pair rate must be >= 0")
        if self.gate_open_lead_ns < 0:
            raise ConfigError("gate-open lead must be >= 0 ns")
        if self.max_trigger_rate_hz <= 0:
            raise ConfigError("max trigger rate must be > 0")
        if self.bin_width_ns <= 0 or self.window_ns <= 0:
            raise ConfigError("bin width and window must be > 0 ns")
        ratio = self.window_ns / self.bin_width_ns
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                f"bin width {self.bin_width_ns} ns must divide the window "
                f"{self.window_ns} ns exactly")
        coincidence_bins = DEFAULT_COINCIDENCE_WINDOW_NS / self.bin_width_ns
        if (abs(coincidence_bins - round(coincidence_bins)) > 1e-9
                or DEFAULT_COINCIDENCE_WINDOW_NS > self.window_ns):
            raise ConfigError(
                f"the {DEFAULT_COINCIDENCE_WINDOW_NS:g}-ns coincidence window must be a "
                f"whole number of {self.bin_width_ns:g}-ns bins within the "
                f"{self.window_ns:g}-ns window")
        if (self.n_triggers is None) == (self.duration_s is None):
            raise ConfigError("set exactly one of n_triggers / duration_s")
        if self.n_triggers is not None and self.n_triggers < 1:
            raise ConfigError(f"n_triggers must be >= 1, got {self.n_triggers}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigError(f"duration must be > 0 s, got {self.duration_s}")

    @property
    def n_bins(self) -> int:
        return int(round(self.window_ns / self.bin_width_ns))

    def bin_edges(self) -> np.ndarray:
        return np.arange(self.n_bins + 1) * self.bin_width_ns


@dataclass
class CoincidenceHistogram:
    """Per-gate conditional click probability in fixed time bins."""

    bin_edges_ns: np.ndarray
    conditional_prob: np.ndarray
    n_triggers: int
    eta_c_total: float
    accidental_level: np.ndarray
    trigger_rate_hz: float = 0.0
    discard_fraction: float = 0.0

    @property
    def bin_width_ns(self) -> float:
        return float(self.bin_edges_ns[1] - self.bin_edges_ns[0])


def pair_survival_probability(config: ExperimentConfig) -> float:
    """Probability that a trigger's conjugate idler reaches the APD."""
    if config.pump_power_mw == 0:
        return 0.0
    return chain_efficiency(config.idler_chain)


def trigger_budget(config: ExperimentConfig, spcm: SpcmModel) -> tuple[float, float, float]:
    """(raw trigger rate, capped rate, discard fraction) in Hz.

    The raw rate is pump power times the single-mode pair rate times the
    signal-chain and SPCM efficiencies.
    """
    raw = (config.pump_power_mw * config.singlemode_pair_rate_per_mw
           * chain_efficiency(config.signal_chain) * spcm.efficiency)
    capped = min(raw, config.max_trigger_rate_hz)
    discard = 0.0 if raw <= capped or raw == 0 else 1.0 - capped / raw
    return raw, capped, discard


def _resolve_triggers(config: ExperimentConfig, capped_rate_hz: float) -> int:
    if config.n_triggers is not None:
        return config.n_triggers
    n = int(round(config.duration_s * capped_rate_hz))
    if n < 1:
        raise ConfigError(
            f"duration {config.duration_s} s at {capped_rate_hz:g} triggers/s "
            "yields no triggers")
    return n


def _gaussian_bin_mass(edges_ns: np.ndarray, mean_ns: float, sigma_ns: float) -> np.ndarray:
    """Probability mass of N(mean, sigma) in each bin (point mass if sigma=0)."""
    if sigma_ns == 0.0:
        mass = np.zeros(len(edges_ns) - 1)
        idx = np.searchsorted(edges_ns, mean_ns, side="right") - 1
        if 0 <= idx < len(mass):
            mass[idx] = 1.0
        return mass
    z = (edges_ns - mean_ns) / (sigma_ns * sqrt(2.0))
    cdf = np.array([0.5 * (1.0 + erf(v)) for v in z])
    return np.diff(cdf)


def analytic_expectation(config: ExperimentConfig, apd: GatedApdModel,
                         spcm: SpcmModel, overbias_v: float) -> CoincidenceHistogram:
    """Exact expected histogram under the simulation model, no sampling.

    Per bin: pair term = survival probability x detection efficiency x
    jitter mass in the bin, plus the thinned dark floor.
    """
    edges = config.bin_edges()
    p_pair = pair_survival_probability(config)
    eff = float(effective_efficiency(apd, [config.gate_open_lead_ns], overbias_v)[0])
    mass = _gaussian_bin_mass(edges, config.gate_open_lead_ns, apd.jitter_sigma_ns)
    accidental = np.full(config.n_bins, dark_prob(apd, config.bin_width_ns))
    expected = p_pair * eff * mass + accidental

    raw, capped, discard = trigger_budget(config, spcm)
    n_triggers = _resolve_triggers(config, capped)
    return CoincidenceHistogram(
        bin_edges_ns=edges,
        conditional_prob=expected,
        n_triggers=n_triggers,
        eta_c_total=float(expected.sum()),
        accidental_level=accidental,
        trigger_rate_hz=capped,
        discard_fraction=discard,
    )


def simulate(config: ExperimentConfig, apd: GatedApdModel, spcm: SpcmModel,
             overbias_v: float, seed: int) -> CoincidenceHistogram:
    """Monte Carlo coincidence histogram; deterministic for a fixed seed."""
    edges = config.bin_edges()
    raw, capped, discard = trigger_budget(config, spcm)
    n_triggers = _resolve_triggers(config, capped)

    counts = _counts(config, apd, overbias_v, edges, seed, n_triggers)
    conditional = counts / n_triggers
    accidental = np.full(config.n_bins, dark_prob(apd, config.bin_width_ns))
    return CoincidenceHistogram(
        bin_edges_ns=edges,
        conditional_prob=conditional,
        n_triggers=n_triggers,
        eta_c_total=float(conditional.sum()),
        accidental_level=accidental,
        trigger_rate_hz=capped,
        discard_fraction=discard,
    )


def _stream(seed: int, position: int) -> np.random.Generator:
    """Generator on the run's Philox stream, ``position`` words in."""
    bit_gen = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    bit_gen.advance(position // 4)        # whole four-word blocks
    bit_gen.random_raw(position % 4)
    return np.random.Generator(bit_gen)


def _position(rng: np.random.Generator) -> int:
    """Words of its stream a Philox-backed generator has consumed."""
    state = rng.bit_generator.state
    counter = sum(int(limb) << (64 * i) for i, limb in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"])


def _chunk_sizes(n: int) -> list[int]:
    return [min(CHUNK, n - start) for start in range(0, n, CHUNK)]


def _counts(config: ExperimentConfig, apd: GatedApdModel, overbias_v: float,
            edges: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Histogram counts of n triggers, walked as the module docstring says."""
    p_pair = pair_survival_probability(config)
    u_pair, u_qe, normals = _stream(seed, 0), _stream(seed, n), _stream(seed, 2 * n)
    photon = []                         # per chunk: (indices in chunk, times)
    for size in _chunk_sizes(n):
        pair = np.flatnonzero(u_pair.random(size) < p_pair)
        u = u_qe.random(size)
        z = normals.normal(0.0, 1.0, size)
        hit, times = photon_clicks(apd, np.full(pair.size, config.gate_open_lead_ns),
                                   overbias_v, u[pair], z[pair])
        photon.append((pair[hit], times))

    end = _position(normals)
    u_dark, u_time = _stream(seed, end), _stream(seed, end + n)
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for size, clicks in zip(_chunk_sizes(n), photon):
        t = earliest_clicks(size, clicks,
                            dark_clicks(apd, u_dark.random(size), u_time.random(size)))
        counts += np.histogram(t[np.isfinite(t)], bins=edges)[0]
    return counts


def coincidence_window_sum(hist: CoincidenceHistogram, window_ns: float) -> float:
    """Largest sum of conditional probability over a contiguous window of
    the given width (window must be a whole number of bins)."""
    bin_w = hist.bin_width_ns
    ratio = window_ns / bin_w
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 or k < 1:
        raise ConfigError(
            f"window {window_ns} ns must be a positive multiple of the "
            f"{bin_w} ns bin width")
    if k > len(hist.conditional_prob):
        raise ConfigError(f"window {window_ns} ns exceeds the histogram span")
    windows = np.lib.stride_tricks.sliding_window_view(hist.conditional_prob, k)
    return float(windows.sum(axis=1).max())


def write_histogram_csv(hist: CoincidenceHistogram, expected: CoincidenceHistogram,
                        path, coincidence_window_ns: float = DEFAULT_COINCIDENCE_WINDOW_NS) -> None:
    """Histogram CSV plus a commented summary block."""
    lines = ["bin_start_ns,bin_end_ns,conditional_prob,expected_prob,accidental_level"]
    for i in range(len(hist.conditional_prob)):
        lines.append(",".join([
            format_number(float(hist.bin_edges_ns[i])),
            format_number(float(hist.bin_edges_ns[i + 1])),
            format_number(float(hist.conditional_prob[i])),
            format_number(float(expected.conditional_prob[i])),
            format_number(float(hist.accidental_level[i])),
        ]))
    window_sum = coincidence_window_sum(hist, coincidence_window_ns)
    lines += [
        "# summary",
        f"# n_triggers,{hist.n_triggers}",
        f"# eta_c_total,{format_number(hist.eta_c_total)}",
        f"# coincidence_window_ns,{format_number(coincidence_window_ns)}",
        f"# coincidence_window_sum,{format_number(window_sum)}",
        f"# trigger_rate_hz,{format_number(hist.trigger_rate_hz)}",
        f"# discard_fraction,{format_number(hist.discard_fraction)}",
    ]
    write_lines(path, lines)
