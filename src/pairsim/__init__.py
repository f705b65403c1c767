"""pairsim: desk-scale simulator for a highly nondegenerate photon-pair
source in periodically poled lithium niobate and its gated single-photon
coincidence detection chain."""

from .detector import GatedApdModel, SpcmModel, detect_in_gate_batch, qe_at_overbias
from .dispersion import SellmeierModel, refractive_index
from .montecarlo import (CoincidenceHistogram, ExperimentConfig, analytic_expectation,
                         coincidence_window_sum, simulate)
from .qpm import (CrystalSpec, PhaseMatchPoint, TuningCurve, calibrate_period,
                  fwhm_bandwidth, idler_from_energy, phase_mismatch, pm_spectrum,
                  solve_signal, tuning_curve)
from .source import (LossChain, chain_efficiency, infer_generation_rate,
                     mode_matching_ratio, spectral_brightness)

__version__ = "0.1.0"

__all__ = [
    "CoincidenceHistogram", "CrystalSpec", "ExperimentConfig", "GatedApdModel",
    "LossChain", "PhaseMatchPoint", "SellmeierModel", "SpcmModel", "TuningCurve",
    "analytic_expectation", "calibrate_period", "chain_efficiency",
    "coincidence_window_sum", "detect_in_gate_batch",
    "fwhm_bandwidth", "idler_from_energy", "infer_generation_rate",
    "mode_matching_ratio", "phase_mismatch", "pm_spectrum", "qe_at_overbias",
    "refractive_index", "simulate", "solve_signal", "spectral_brightness",
    "tuning_curve",
]
