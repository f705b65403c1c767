import math

import numpy as np
import pytest

from pairsim.config import load_sellmeier
from pairsim.dispersion import SellmeierModel, default_model, refractive_index
from pairsim.errors import ConfigError, ValidityRangeError

# Golden constants frozen from an independent hand evaluation of the
# published closed form (plain-python script, before the module existed).
N_1064_24P5 = 2.1557974335465007
N_0532_142 = 2.2418881338405683


def test_golden_index_1064nm_room_temp(sellmeier):
    n = refractive_index(sellmeier, 1.064, 24.5)
    assert n == pytest.approx(N_1064_24P5, abs=1e-12)
    # published tabulated value rounds to 2.1558
    assert abs(n - 2.1558) < 1e-4


def test_golden_index_532nm_oven_temp(sellmeier):
    assert refractive_index(sellmeier, 0.532, 142.0) == pytest.approx(N_0532_142, abs=1e-12)


def test_pure_function_bitwise_repeatable(sellmeier):
    values = {refractive_index(sellmeier, 0.808, 142.0) for _ in range(10)}
    assert len(values) == 1


def test_index_physical_over_validity(sellmeier):
    wlo, whi = sellmeier.wavelength_range_um
    tlo, thi = sellmeier.temperature_range_c
    for i in range(21):
        lam = wlo + (whi - wlo) * i / 20
        for j in range(5):
            t = tlo + (thi - tlo) * j / 4
            n = refractive_index(sellmeier, lam, t)
            assert 1.0 < n < 3.5
            assert math.isfinite(n)


def test_wavelength_range_error_names_bound(sellmeier):
    with pytest.raises(ValidityRangeError, match="wavelength"):
        refractive_index(sellmeier, 0.2, 25.0)
    with pytest.raises(ValidityRangeError, match="wavelength"):
        refractive_index(sellmeier, 6.0, 25.0)


def test_temperature_range_error_names_bound(sellmeier):
    with pytest.raises(ValidityRangeError, match="temperature"):
        refractive_index(sellmeier, 1.0, 300.0)
    with pytest.raises(ValidityRangeError, match="temperature"):
        refractive_index(sellmeier, 1.0, 0.0)


def test_monotone_in_temperature(sellmeier):
    # thermo-optic coefficient is positive for the extraordinary index
    for lam in (0.45, 0.532, 0.808, 1.557, 3.0, 4.8):
        for t in (25.0, 80.0, 142.0, 200.0, 248.0):
            n_lo = refractive_index(sellmeier, lam, t)
            n_hi = refractive_index(sellmeier, lam, t + 1.0)
            assert n_hi > n_lo


def test_default_model_is_cached_and_valid():
    model = default_model()
    assert model is default_model()
    assert model.name == "cln_ne_jundt1997"
    assert len(model.coefficients) == 10


def test_loader_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_sellmeier(str(tmp_path / "nope.ini"))


def test_loader_rejects_wrong_coefficient_count(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[model]\nname = x\ncoefficients = 1, 2, 3\n"
        "wavelength_range_um = 0.4, 5\ntemperature_range_c = 20, 250\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError):
        load_sellmeier(str(bad))


def test_model_invariant_checks():
    with pytest.raises(ConfigError):
        SellmeierModel(name="x", coefficients=(1.0,) * 10,
                       wavelength_range_um=(2.0, 1.0),
                       temperature_range_c=(20.0, 250.0))


def test_array_index_equals_float_index_bit_for_bit(sellmeier):
    # + - * / and sqrt round alike in numpy's array loops and on floats
    rng = np.random.default_rng(11)
    lam, temp = rng.uniform(0.4, 5.0, 20_000), rng.uniform(20.0, 250.0, 20_000)
    floats = [refractive_index(sellmeier, a, b) for a, b in zip(lam.tolist(), temp.tolist())]
    assert refractive_index(sellmeier, lam, temp).tolist() == floats


def test_array_range_error_names_first_bad_element(sellmeier):
    with pytest.raises(ValidityRangeError, match=r"^wavelength 6 um"):
        refractive_index(sellmeier, np.array([1.0, 6.0, 0.2]), np.array([25.0, 300.0, 25.0]))
    with pytest.raises(ValidityRangeError, match=r"^temperature 300 C"):
        refractive_index(sellmeier, 1.0, np.array([25.0, 300.0, 10.0]))
