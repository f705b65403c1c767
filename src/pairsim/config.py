"""Configuration files: the one INI loader and the three kinds of file it reads.

A run configuration has one section per subsystem; its ``model_file`` keys
name a Sellmeier coefficient file and an APD model file (a path, or
``builtin:<name>`` for shipped data).  Each kind of file is a schema, a table
of sections whose fields are (key, parser, default) entries; that table is
the only place an INI key is named.  Unknown sections or keys, missing
required keys, values that do not parse and numbers that are not finite are
a ConfigError naming the file, the section and the key.  Command-line flags
override file values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from math import isfinite
from pathlib import Path

from .detector import GatedApdModel, SpcmModel
from .dispersion import SellmeierModel
from .errors import ConfigError
from .montecarlo import ExperimentConfig
from .qpm import DEFAULT_SIGNAL_BRACKET_NM, CrystalSpec
from .source import LossChain

DEFAULT_CONFIG = "builtin:reference_setup"

# Default of a key that the file must set.
_REQUIRED = object()


@dataclass(frozen=True)
class BudgetInputs:
    """Measured rate figures consumed by the budget report.

    The free-space (multimode) rate and the detected single-mode rate are
    independent inputs by design; the two are never derived from each other.
    """

    detected_signal_rate_per_mw: float
    freespace_pair_rate_per_mw: float
    signal_bandwidth_ghz: float


@dataclass(frozen=True)
class RunConfig:
    sellmeier: SellmeierModel
    crystal: CrystalSpec
    pump_wavelength_nm: float
    temperature_c: float
    signal_bracket_nm: tuple[float, float]
    apd: GatedApdModel
    overbias_v: float
    spcm: SpcmModel
    experiment: ExperimentConfig
    budget: BudgetInputs
    seed: int | None
    out_dir: str


def _optional(parse):
    """Parser for a value whose empty form means unset (None)."""
    return lambda text: parse(text) if text else None


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ConfigError(f"not a boolean: '{text}'")
    return states[text.lower()]


def _number(text: str) -> float:
    """The parser of every float in a file: nan and +-inf are refused, as no
    model can represent them."""
    value = float(text)
    if not isfinite(value):
        raise ConfigError(f"not a finite number: '{text.strip()}'")
    return value


def _floats(text: str) -> tuple[float, ...]:
    """Comma-separated numbers, possibly continued over several lines."""
    return tuple(_number(tok) for tok in text.split(","))


def _pair(text: str) -> tuple[float, float]:
    values = _floats(text)
    if len(values) != 2:
        raise ConfigError(f"expected two comma-separated numbers, got '{text}'")
    return values


def _chain(text: str) -> LossChain:
    """Parse 'name: eff, name: eff' into a LossChain."""
    stages = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition(":")
        if not value:
            raise ConfigError(f"bad loss-chain stage '{item}' (want 'name: efficiency')")
        stages.append((name.strip(), _number(value)))
    return LossChain(stages=tuple(stages))


def _knots(text: str) -> tuple[tuple[float, float], ...]:
    """One 'overbias_V: efficiency' pair per line."""
    pairs = (line.split(":") for line in text.strip().splitlines())
    return tuple((_number(volt), _number(eff)) for volt, eff in pairs)


def _read_ini(source: str, kind: str, schema: dict) -> dict[str, dict]:
    """Parse one INI file (a path, or ``builtin:<name>``) against its schema.

    ``schema`` maps each section to its (key, parser, default) fields; every
    section is required.  Returns {section: {key: value}} with defaults
    filled in.
    """
    path = (resources.files("pairsim.data").joinpath(f"{source.split(':', 1)[1]}.ini")
            if source.startswith("builtin:") else Path(source))
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} {source}: {exc}") from exc

    def malformed(problem: str) -> ConfigError:
        return ConfigError(f"malformed {kind} {source}: {problem}")

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=source)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise malformed(str(exc)) from exc

    for name in sections:
        if name not in schema:
            raise malformed(f"[{name}]: unknown section")
    values: dict[str, dict] = {}
    for section, fields in schema.items():
        if section not in sections:
            raise malformed(f"[{section}]: missing section")
        raw = sections[section]
        known = {key for key, _, _ in fields}
        for key in raw:
            if key not in known:
                raise malformed(f"[{section}] {key}: unknown key")
        values[section] = {}
        for key, parse, default in fields:
            if key not in raw:
                if default is _REQUIRED:
                    raise malformed(f"[{section}] {key}: missing required key")
                values[section][key] = default
                continue
            try:
                values[section][key] = parse(raw[key])
            except (ValueError, ConfigError) as exc:
                raise malformed(f"[{section}] {key} = '{raw[key]}': {exc}") from exc
    return values


_SELLMEIER_SCHEMA = {
    "model": (
        ("name", str, _REQUIRED),
        ("version", int, 1),
        ("coefficients", _floats, _REQUIRED),
        ("wavelength_range_um", _pair, _REQUIRED),
        ("temperature_range_c", _pair, _REQUIRED),
    ),
}


def load_sellmeier(source: str) -> SellmeierModel:
    """Load a Sellmeier coefficient file (e.g. ``builtin:lithium_niobate_e``)."""
    return SellmeierModel(**_read_ini(source, "Sellmeier file", _SELLMEIER_SCHEMA)["model"])


_APD_SCHEMA = {
    "apd": (
        ("gate_length_ns", _number, _REQUIRED),
        ("dark_prob_per_gate", _number, _REQUIRED),
        ("jitter_sigma_ns", _number, 1.0),
        ("edge_mask_ns", _number, 3.0),
        ("edge_mask_enabled", _boolean, False),
    ),
    "qe_curve": (("knots", _knots, _REQUIRED),),
}


def load_apd(source: str) -> GatedApdModel:
    """Load an APD model file (e.g. ``builtin:apd_ingaas``)."""
    sections = _read_ini(source, "APD model file", _APD_SCHEMA)
    return GatedApdModel(qe_curve=sections["qe_curve"]["knots"], **sections["apd"])


_RUN_SCHEMA = {
    "run": (
        ("seed", _optional(int), None),
        ("out_dir", str, "out"),
    ),
    "dispersion": (("model_file", load_sellmeier, _REQUIRED),),
    "crystal": (
        ("length_mm", _number, _REQUIRED),
        ("poling_period_um", _number, _REQUIRED),
        ("qpm_order", int, _REQUIRED),
        ("thermal_expansion_per_c", _number, _REQUIRED),
        ("reference_temp_c", _number, _REQUIRED),
    ),
    "qpm": (
        ("pump_wavelength_nm", _number, _REQUIRED),
        ("temperature_c", _number, _REQUIRED),
        ("signal_bracket_nm", _pair, DEFAULT_SIGNAL_BRACKET_NM),
    ),
    "apd": (
        ("model_file", load_apd, _REQUIRED),
        ("overbias_v", _number, _REQUIRED),
    ),
    "spcm": (("efficiency", _number, _REQUIRED),),
    "experiment": (
        ("pump_power_mw", _number, _REQUIRED),
        ("singlemode_pair_rate_per_mw", _number, _REQUIRED),
        ("signal_chain", _chain, _REQUIRED),
        ("idler_chain", _chain, _REQUIRED),
        ("gate_open_lead_ns", _number, 8.0),
        ("max_trigger_rate_hz", _number, 1.0e4),
        ("bin_width_ns", _number, 2.0),
        ("window_ns", _number, 20.0),
        ("n_triggers", _optional(int), None),
        ("duration_s", _optional(_number), None),
    ),
    "budget": (
        ("detected_signal_rate_per_mw", _number, _REQUIRED),
        ("freespace_pair_rate_per_mw", _number, _REQUIRED),
        ("signal_bandwidth_ghz", _number, _REQUIRED),
    ),
}


def load_run_config(source: str = DEFAULT_CONFIG) -> RunConfig:
    """Load a run configuration (path, or ``builtin:<name>`` for shipped data)."""
    sections = _read_ini(source, "run config", _RUN_SCHEMA)
    qpm, apd = sections["qpm"], sections["apd"]["model_file"]
    return RunConfig(
        sellmeier=sections["dispersion"]["model_file"],
        crystal=CrystalSpec(**sections["crystal"]),
        pump_wavelength_nm=qpm["pump_wavelength_nm"],
        temperature_c=qpm["temperature_c"],
        signal_bracket_nm=qpm["signal_bracket_nm"],
        apd=apd,
        overbias_v=sections["apd"]["overbias_v"],
        spcm=SpcmModel(**sections["spcm"]),
        experiment=ExperimentConfig(**sections["experiment"]),
        budget=BudgetInputs(**sections["budget"]),
        seed=sections["run"]["seed"],
        out_dir=sections["run"]["out_dir"],
    )
