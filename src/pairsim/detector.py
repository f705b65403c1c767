"""Statistical models of the gated InGaAs APD counter and the Si SPCM.

The APD model is data-driven: a piecewise-linear quantum-efficiency curve
over overbias voltage plus per-gate dark probability and Gaussian
click-time jitter.  Detection is split into two steps that take their
random numbers as arrays, so a caller decides how they are drawn:
``photon_clicks`` (photon-efficiency uniform and jitter normal per gate) and
``dark_clicks`` (dark-count uniform and dark-time uniform per gate);
``earliest_clicks`` merges them.  ``detect_in_gate_batch`` wraps the three
around one ``numpy.random.Generator``, drawing per batch of n gates, in this
order regardless of outcomes: (1) n photon-efficiency uniforms, (2) n jitter
normals, (3) n dark-count uniforms, (4) n dark-time uniforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .formatting import format_number, write_lines


@dataclass(frozen=True)
class GatedApdModel:
    """Gated Geiger-mode APD: QE vs overbias, darks, timing."""

    qe_curve: tuple[tuple[float, float], ...]
    dark_prob_per_gate: float
    gate_length_ns: float
    jitter_sigma_ns: float = 1.0
    edge_mask_ns: float = 3.0
    edge_mask_enabled: bool = False

    def __post_init__(self):
        if not self.qe_curve:
            raise ConfigError("APD quantum-efficiency curve has no knots")
        volts = [v for v, _ in self.qe_curve]
        effs = [e for _, e in self.qe_curve]
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise ConfigError("QE curve overbias values must be strictly increasing")
        if any(not 0.0 <= e <= 1.0 for e in effs):
            raise ConfigError("QE curve efficiencies must lie in [0, 1]")
        if any(b < a for a, b in zip(effs, effs[1:])):
            raise ConfigError("QE curve efficiencies must be nondecreasing")
        if not 0.0 <= self.dark_prob_per_gate < 1.0:
            raise ConfigError(
                f"dark probability per gate must lie in [0, 1), got {self.dark_prob_per_gate}")
        if self.gate_length_ns <= 0:
            raise ConfigError(f"gate length must be > 0 ns, got {self.gate_length_ns}")
        if self.jitter_sigma_ns < 0:
            raise ConfigError(f"jitter sigma must be >= 0 ns, got {self.jitter_sigma_ns}")

    @property
    def overbias_span(self) -> tuple[float, float]:
        return self.qe_curve[0][0], self.qe_curve[-1][0]


@dataclass(frozen=True)
class SpcmModel:
    """Free-running Si single-photon counting module."""

    efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError(f"SPCM efficiency must lie in [0, 1], got {self.efficiency}")


def qe_at_overbias(model: GatedApdModel, overbias_v: float) -> float:
    """Piecewise-linear interpolation of the QE curve, clamped at the ends
    (with a warning when clamping); a non-finite overbias is a ConfigError."""
    if not math.isfinite(overbias_v):
        raise ConfigError(f"overbias must be a finite voltage, got {overbias_v}")
    lo, hi = model.overbias_span
    if overbias_v < lo or overbias_v > hi:
        warnings.warn(
            f"overbias {overbias_v:g} V outside curve span [{lo:g}, {hi:g}] V; clamping",
            stacklevel=2,
        )
    volts = np.array([v for v, _ in model.qe_curve])
    effs = np.array([e for _, e in model.qe_curve])
    return float(np.interp(overbias_v, volts, effs))


def dark_prob(model: GatedApdModel, window_ns: float) -> float:
    """Dark-count probability in a sub-window of the gate.

    Homogeneous-in-time thinning of the per-gate figure:
    1 - (1 - p_gate)^(window / gate).
    """
    if not 0 < window_ns <= model.gate_length_ns:
        raise ConfigError(
            f"window {window_ns:g} ns must lie in (0, gate length {model.gate_length_ns:g} ns]")
    return 1.0 - (1.0 - model.dark_prob_per_gate) ** (window_ns / model.gate_length_ns)


def _edge_factor(model: GatedApdModel, offsets_ns: np.ndarray) -> np.ndarray:
    """Linear efficiency ramp inside the gate rise/fall windows (optional)."""
    if not model.edge_mask_enabled or model.edge_mask_ns <= 0:
        return np.ones_like(offsets_ns)
    rise = np.clip(offsets_ns / model.edge_mask_ns, 0.0, 1.0)
    fall = np.clip((model.gate_length_ns - offsets_ns) / model.edge_mask_ns, 0.0, 1.0)
    return rise * fall


def effective_efficiency(model: GatedApdModel, arrival_offsets_ns,
                         overbias_v: float) -> np.ndarray:
    """Photon detection probability at the given arrival offsets: curve QE
    times the (optional) gate-edge ramp."""
    offsets = np.asarray(arrival_offsets_ns, dtype=float)
    return qe_at_overbias(model, overbias_v) * _edge_factor(model, offsets)


def photon_clicks(model: GatedApdModel, arrival_offsets_ns: np.ndarray,
                  overbias_v: float, u_qe: np.ndarray,
                  normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Photon avalanches of a batch of gates; NaN offsets mark gates with no
    photon.  ``u_qe`` holds one uniform and ``normals`` one standard normal
    per gate.  Returns (gate indices, click times ns) of the gates where the
    photon is detected and its jittered time falls inside the gate.
    """
    offsets = np.asarray(arrival_offsets_ns, dtype=float)
    gate = model.gate_length_ns
    has_photon = ~np.isnan(offsets)
    if np.any((offsets[has_photon] < 0) | (offsets[has_photon] >= gate)):
        raise ConfigError("photon arrival offsets must lie in [0, gate length)")

    eff = np.where(has_photon,
                   effective_efficiency(model, np.nan_to_num(offsets), overbias_v),
                   0.0)
    photon_time = offsets + normals * model.jitter_sigma_ns
    hit = np.flatnonzero(has_photon & (u_qe < eff)
                         & (photon_time >= 0.0) & (photon_time < gate))
    return hit, photon_time[hit]


def dark_clicks(model: GatedApdModel, u_dark: np.ndarray,
                u_time: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dark avalanches of a batch of gates from one dark-count uniform and one
    dark-time uniform per gate: (gate indices, click times ns)."""
    hit = np.flatnonzero(u_dark < model.dark_prob_per_gate)
    return hit, u_time[hit] * model.gate_length_ns


def earliest_clicks(n: int, photon: tuple[np.ndarray, np.ndarray],
                    dark: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-gate click time over n gates from the (indices, times) of the two
    steps; the earliest avalanche wins, inf marks a gate without a click."""
    times = np.full(n, np.inf)
    times[photon[0]] = photon[1]
    times[dark[0]] = np.minimum(times[dark[0]], dark[1])
    return times


def detect_in_gate_batch(model: GatedApdModel, arrival_offsets_ns: np.ndarray,
                         overbias_v: float,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-gate detection; NaN offsets mark gates with no photon.

    Returns (clicked, click_times_ns); click times are NaN where no click
    occurred.  Earliest avalanche wins when both the photon and a dark
    count fire in the same gate.
    """
    offsets = np.asarray(arrival_offsets_ns, dtype=float)
    n = offsets.shape[0]
    u_qe = rng.random(n)
    normals = rng.normal(0.0, 1.0, n)
    u_dark = rng.random(n)
    u_time = rng.random(n)
    times = earliest_clicks(n, photon_clicks(model, offsets, overbias_v, u_qe, normals),
                            dark_clicks(model, u_dark, u_time))
    clicked = np.isfinite(times)
    return clicked, np.where(clicked, times, np.nan)


def write_detector_csv(model: GatedApdModel, sweep_v: list[float], path) -> None:
    """(overbias, QE, dark-per-gate, clamped) CSV over an overbias sweep."""
    lo, hi = model.overbias_span
    lines = ["overbias_v,qe,dark_prob_per_gate,clamped"]
    for v in sweep_v:
        clamped = v < lo or v > hi
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            qe = qe_at_overbias(model, v)
        lines.append(
            f"{format_number(v)},{format_number(qe)},"
            f"{format_number(model.dark_prob_per_gate)},{int(clamped)}"
        )
    write_lines(path, lines)
