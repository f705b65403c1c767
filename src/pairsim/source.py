"""Rate, brightness and efficiency-budget arithmetic for the pair source.

Everything here is exact bookkeeping on measured figures: efficiencies are
dimensionless fractions, rates are per second per mW of pump, bandwidths in
GHz.  Percent formatting belongs to the presentation layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod

from .errors import ConfigError


@dataclass(frozen=True)
class LossChain:
    """Ordered named efficiency stages whose product is the chain efficiency."""

    stages: tuple[tuple[str, float], ...]

    def __post_init__(self):
        names = [name for name, _ in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate stage names in loss chain: {names}")
        for name, eff in self.stages:
            if not 0.0 <= eff <= 1.0:
                raise ConfigError(f"stage '{name}' efficiency must lie in [0, 1], got {eff}")

    def get(self, name: str) -> float | None:
        return dict(self.stages).get(name)


def chain_efficiency(chain: LossChain) -> float:
    """Product of all stage efficiencies (1.0 for an empty chain)."""
    return prod((eff for _, eff in chain.stages), start=1.0)


def infer_generation_rate(detected_rate_per_mw: float, chain: LossChain) -> float:
    """Back out the generated rate from a detected rate and its loss chain."""
    eff = chain_efficiency(chain)
    if eff == 0.0:
        raise ConfigError("cannot infer a generation rate through a zero-efficiency chain")
    return detected_rate_per_mw / eff


def spectral_brightness(pair_rate_per_mw: float, bandwidth_ghz: float) -> float:
    """Pairs per second per GHz per mW."""
    if bandwidth_ghz <= 0:
        raise ConfigError(f"bandwidth must be > 0 GHz, got {bandwidth_ghz}")
    return pair_rate_per_mw / bandwidth_ghz


def mode_matching_ratio(coupling_and_matching: float, fiber_coupling: float) -> float:
    """Split the combined coupling+matching figure by the probe-laser fiber
    coupling to isolate the signal-idler mode matching."""
    if fiber_coupling <= 0:
        raise ConfigError(f"fiber coupling must be > 0, got {fiber_coupling}")
    ratio = coupling_and_matching / fiber_coupling
    if ratio > 1.0:
        warnings.warn(
            f"mode-matching ratio {ratio:.3g} exceeds 1; the combined figure is "
            "inconsistent with the stated fiber coupling",
            stacklevel=2,
        )
    return ratio


def budget_rows(chain: LossChain) -> list[tuple[str, float, float]]:
    """(name, efficiency, cumulative product) per stage."""
    rows = []
    running = 1.0
    for name, eff in chain.stages:
        running *= eff
        rows.append((name, eff, running))
    return rows


def render_budget_text(chain: LossChain) -> list[str]:
    """Plain-text budget table with a cumulative column."""
    lines = [f"{'stage':<24}{'efficiency':>12}{'cumulative':>12}"]
    for name, eff, cum in budget_rows(chain):
        lines.append(f"{name:<24}{eff:>12.4f}{cum:>12.4f}")
    lines.append(f"{'total':<24}{'':>12}{chain_efficiency(chain):>12.4f}")
    return lines
