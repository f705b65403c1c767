"""Temperature-dependent refractive index of congruent LiNbO3.

The shipped model is the extraordinary-index Sellmeier fit of Jundt
(Opt. Lett. 22, 1553 (1997)), valid for 0.40-5.00 um and 20-250 degC.
Coefficients live in ``data/lithium_niobate_e.ini`` so an alternate fit
of the same functional form can be swapped in without touching code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ValidityRangeError

C_M_PER_S = 299_792_458.0

# Reference temperatures of the thermal term f = (T - T_A)(T + T_B).
_F_T_A = 24.5
_F_T_B = 570.82


@dataclass(frozen=True)
class SellmeierModel:
    """A named coefficient set for the thermal Sellmeier form above.

    ``coefficients`` is (a1..a6, b1..b4); wavelengths in um,
    temperatures in degC.
    """

    name: str
    coefficients: tuple[float, ...]
    wavelength_range_um: tuple[float, float]
    temperature_range_c: tuple[float, float]

    def __post_init__(self):
        if len(self.coefficients) != 10:
            raise ConfigError(
                f"model '{self.name}': expected 10 coefficients (a1..a6, b1..b4), "
                f"got {len(self.coefficients)}"
            )
        lo, hi = self.wavelength_range_um
        if not 0 < lo < hi:
            raise ConfigError(f"model '{self.name}': bad wavelength range {lo}..{hi} um")
        tlo, thi = self.temperature_range_c
        if not tlo < thi:
            raise ConfigError(f"model '{self.name}': bad temperature range {tlo}..{thi} C")


def _outside(model: SellmeierModel, what: str, values: np.ndarray):
    """(mask, error): the wavelengths (um) or temperatures (C) outside the model's
    validity range, and error(v), the ValidityRangeError that names one of them."""
    unit, (lo, hi) = {"wavelength": ("um", model.wavelength_range_um),
                      "temperature": ("C", model.temperature_range_c)}[what]
    return ~((lo <= values) & (values <= hi)), lambda v: ValidityRangeError(
        f"{what} {v:g} {unit} outside model '{model.name}' validity [{lo:g}, {hi:g}] {unit}")


def _check_range(model: SellmeierModel, **values):
    """ValidityRangeError for the first value outside the model's validity
    ranges, checking ``wavelength`` (um) before ``temperature`` (C)."""
    for what, given in values.items():
        mask, error = _outside(model, what, given := np.asarray(given))
        if (bad := given[mask]).size:
            raise error(bad[0])


def _thermal_terms(model: SellmeierModel, temperature_c):
    """The temperature-only factors of n_e, for _index: a1 + b1 f, a2 + b2 f, g * g, a4 + b4 f."""
    a1, a2, a3, a4, _, _, b1, b2, b3, b4 = model.coefficients
    f = (temperature_c - _F_T_A) * (temperature_c + _F_T_B)
    g = a3 + b3 * f
    return a1 + b1 * f, a2 + b2 * f, g * g, a4 + b4 * f


def _index(model: SellmeierModel, wavelength_um, c1, c2, g2, c4):
    """n_e from _thermal_terms, unchecked; a numpy float or array."""
    a5, a6 = model.coefficients[4:6]
    lam2 = wavelength_um * wavelength_um
    return np.sqrt(c1 + c2 / (lam2 - g2) + c4 / (lam2 - a5 * a5) - a6 * lam2)


def refractive_index(model: SellmeierModel, wavelength_um, temperature_c):
    """Extraordinary refractive index n_e(lambda, T). Pure function.

    Floats or float64 arrays, broadcast together; floats give a float.  Only
    + - * / and sqrt are used, so an array element equals the float result.
    """
    _check_range(model, wavelength=wavelength_um, temperature=temperature_c)
    n = _index(model, wavelength_um, *_thermal_terms(model, temperature_c))
    return n if isinstance(n, np.ndarray) else float(n)


@lru_cache(maxsize=None)
def default_model() -> SellmeierModel:
    """The shipped congruent-LiNbO3 extraordinary-index model."""
    from .config import load_sellmeier  # deferred: config imports this module
    return load_sellmeier("builtin:lithium_niobate_e")
