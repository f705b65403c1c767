"""Discrete-event simulation of the triggered coincidence measurement.

The measurement is conditioned on signal detections, so the simulator
generates triggers directly: per trigger the conjugate idler survives its
loss chain with the chain-product probability, arrives at a fixed gate
offset, and the gated APD decides whether and when it clicks.  Absolute
trigger rates enter only through the rate cap.  Multi-pair events per gate
are neglected (double-pair probability is far below the statistical
resolution at the kHz trigger rates this models).

Every gate sees the same arrival offset t0, so an idler is a click
candidate with one probability q (pair survival times detection efficiency
at t0), and each gate holds two independent competing risks: the candidate
at the jittered time t0 + sigma z, which clicks only inside the gate [0, G),
and a dark count (probability p_d) at a uniform time in [0, G).  The earlier
avalanche wins.  ``analytic_expectation`` integrates these risks in closed
form; ``simulate`` samples them at the level of counts, exact in
distribution (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X).

Randomness: one counter-based Philox stream, keyed by
SeedSequence(entropy=seed, spawn_key=(0,)).  The run is cut into chunks of
CHUNK triggers; per chunk of ``size`` triggers it draws, in this order:

1. K1 = binomial(size, q) photon candidates;
2. K2 = binomial(size, p_d) dark gates;
3. C = hypergeometric(K1, size - K1, K2) gates that hold both;
4. K1 standard normals, the candidates' times (inf outside the gate or bins);
5. K2 uniforms times G, the dark times.

The first C candidates share their gates with the first C dark counts and
keep the earlier time.  Memory is O(CHUNK (q + p_d)) whatever the number of
triggers.

This module only computes: ``cli`` formats and writes the histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, pi, sqrt

import numpy as np

from .detector import GatedApdModel, SpcmModel, effective_efficiency
from .errors import ConfigError
from .source import LossChain, chain_efficiency

DEFAULT_COINCIDENCE_WINDOW_NS = 4.0

# Triggers per chunk.  A fixed size makes the counts independent of how the
# run is split, and keeps the hypergeometric's counts far below numpy's 1e9.
CHUNK = 1 << 20


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


def _click_probability(config: ExperimentConfig, apd: GatedApdModel,
                       overbias_v: float) -> float:
    """q: probability that a trigger's idler is a click candidate (survives
    and is detected at the gate-open lead, before jitter and dark counts).
    A lead outside [0, gate length) or a window past the gate is a
    ConfigError, whatever the pump: neither the sampler nor the oracle
    counts past the gate."""
    lead = config.gate_open_lead_ns
    if not 0.0 <= lead < apd.gate_length_ns:
        raise ConfigError(f"gate-open lead {lead:g} ns must lie in [0, gate length "
                          f"{apd.gate_length_ns:g} ns)")
    if config.window_ns > apd.gate_length_ns:
        raise ConfigError(f"window_ns = {config.window_ns:g} exceeds the "
                          f"{apd.gate_length_ns:g}-ns APD gate")
    eff = float(effective_efficiency(apd, [lead], overbias_v)[0])
    return pair_survival_probability(config) * eff


def _jitter_cdf_pdf(t_ns: np.ndarray, mean_ns: float,
                    sigma_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """P(T < t) and the density of T ~ N(mean, sigma^2) at each t; sigma = 0
    is a point mass at the mean, with density 0 everywhere else."""
    if sigma_ns == 0.0:
        return (t_ns > mean_ns).astype(float), np.zeros_like(t_ns)
    z = (t_ns - mean_ns) / sigma_ns
    cdf = np.array([0.5 * (1.0 + erf(v / sqrt(2.0))) for v in z])
    return cdf, np.exp(-0.5 * z * z) / (sigma_ns * sqrt(2.0 * pi))


def analytic_expectation(config: ExperimentConfig, apd: GatedApdModel,
                         spcm: SpcmModel, overbias_v: float) -> CoincidenceHistogram:
    """Exact expected histogram under the simulation model, no sampling.

    With the candidate time T ~ N(t0, sigma^2), Phi0(t) = P(0 <= T < t) and
    the dark rate r = p_d / G, bin [a, b) holds the photon clicks no earlier
    dark count pre-empted plus the dark clicks no earlier photon pre-empted:
    q int phi(t) (1 - r t) dt + r int (1 - q Phi0(t)) dt over [a, b).  Both
    integrals are closed forms in the CDF and density at the bin edges:
    int t phi = t0 [Phi] - sigma^2 [phi] and int Phi = [(t - t0) Phi + sigma^2 phi].
    """
    edges = config.bin_edges()
    q = _click_probability(config, apd, overbias_v)
    t0, sigma = config.gate_open_lead_ns, apd.jitter_sigma_ns
    rate = apd.dark_prob_per_gate / apd.gate_length_ns
    cdf, pdf = _jitter_cdf_pdf(edges, t0, sigma)
    mass = np.diff(cdf)
    first_moment = t0 * mass - sigma ** 2 * np.diff(pdf)
    width = np.diff(edges)
    cdf_integral = np.diff((edges - t0) * cdf + sigma ** 2 * pdf) - cdf[0] * width
    expected = q * (mass - rate * first_moment) + rate * (width - q * cdf_integral)

    raw, capped, discard = trigger_budget(config, spcm)
    n_triggers = _resolve_triggers(config, capped)
    return CoincidenceHistogram(
        bin_edges_ns=edges,
        conditional_prob=expected,
        n_triggers=n_triggers,
        eta_c_total=float(expected.sum()),
        trigger_rate_hz=capped,
        discard_fraction=discard,
    )


def simulate(config: ExperimentConfig, apd: GatedApdModel, spcm: SpcmModel,
             overbias_v: float, seed: int) -> CoincidenceHistogram:
    """Monte Carlo coincidence histogram, drawn chunk by chunk as the module
    docstring says; deterministic for a fixed seed."""
    edges = config.bin_edges()
    q = _click_probability(config, apd, overbias_v)
    raw, capped, discard = trigger_budget(config, spcm)
    n_triggers = _resolve_triggers(config, capped)

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    lead, gate = config.gate_open_lead_ns, apd.gate_length_ns
    counts = np.zeros(config.n_bins, dtype=np.int64)
    for start in range(0, n_triggers, CHUNK):
        size = min(CHUNK, n_triggers - start)
        n_photon = rng.binomial(size, q)
        n_dark = rng.binomial(size, apd.dark_prob_per_gate)
        both = rng.hypergeometric(n_photon, size - n_photon, n_dark)
        photon = lead + apd.jitter_sigma_ns * rng.standard_normal(n_photon)
        photon[(photon < 0.0) | (photon >= min(gate, edges[-1]))] = np.inf
        dark = rng.random(n_dark) * gate
        photon[:both] = np.minimum(photon[:both], dark[:both])
        counts += np.histogram(photon[np.isfinite(photon)], bins=edges)[0]
        counts += np.histogram(dark[both:], bins=edges)[0]

    conditional = counts / n_triggers
    return CoincidenceHistogram(
        bin_edges_ns=edges,
        conditional_prob=conditional,
        n_triggers=n_triggers,
        eta_c_total=float(conditional.sum()),
        trigger_rate_hz=capped,
        discard_fraction=discard,
    )


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
