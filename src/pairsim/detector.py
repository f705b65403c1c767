"""Statistical models of the gated InGaAs APD counter and the Si SPCM.

The APD model is data-driven: a piecewise-linear quantum-efficiency curve
over overbias voltage plus per-gate dark probability and Gaussian
click-time jitter.  ``detect_in_gate_batch`` samples it gate by gate from one
``numpy.random.Generator``, drawing per batch of n gates, in this order
regardless of outcomes: (1) n photon-efficiency uniforms, (2) n jitter
normals, (3) n dark-count uniforms, (4) n dark-time uniforms.  It is the
per-gate reference that the count-level sampler of ``montecarlo`` is
checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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
        volts, effs = zip(*self.qe_curve)
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
    volts, effs = np.array(model.qe_curve).T
    return float(np.interp(overbias_v, volts, effs))


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


def detect_in_gate_batch(model: GatedApdModel, arrival_offsets_ns: np.ndarray,
                         overbias_v: float,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-gate detection; NaN offsets mark gates with no photon.

    Returns (clicked, click_times_ns); click times are NaN where no click
    occurred.  A photon clicks only when its jittered time falls inside the
    gate.  Earliest avalanche wins when both the photon and a dark count fire
    in the same gate.
    """
    offsets = np.asarray(arrival_offsets_ns, dtype=float)
    n = offsets.shape[0]
    gate = model.gate_length_ns
    has_photon = ~np.isnan(offsets)
    if np.any((offsets[has_photon] < 0) | (offsets[has_photon] >= gate)):
        raise ConfigError("photon arrival offsets must lie in [0, gate length)")

    eff = np.where(has_photon,
                   effective_efficiency(model, np.nan_to_num(offsets), overbias_v),
                   0.0)
    detected = rng.random(n) < eff
    times = offsets + rng.normal(0.0, 1.0, n) * model.jitter_sigma_ns
    times = np.where(detected & (times >= 0.0) & (times < gate), times, np.inf)
    dark = rng.random(n) < model.dark_prob_per_gate
    times = np.where(dark, np.minimum(times, rng.random(n) * gate), times)
    clicked = np.isfinite(times)
    return clicked, np.where(clicked, times, np.nan)
