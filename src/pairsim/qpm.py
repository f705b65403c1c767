"""Quasi-phase matching for a periodically poled crystal: mismatch, wavelength
solving, temperature tuning curves, and the sinc^2 conversion spectrum.

Conventions: wavelengths are vacuum values in nm at the API surface (um
internally, matching the dispersion model), temperatures in degC, mismatch
in rad/m.  All three waves use the extraordinary index; the grating
compensates the mismatch with its order-m Fourier harmonic.

Solver contract: every bracketed root (the phase-matched signal at each
temperature, the FWHM half-points) comes from one array solver, ``_brentq``,
which takes scipy.optimize.brentq's steps on each element of a float64 array
in the same floating-point order, so each root is scipy's bit for bit.  The
functions it solves use only + - * / and sqrt, which IEEE 754 rounds alike
in numpy's array loops and in Python floats; scipy is only the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sin
from sys import float_info

import numpy as np

from . import dispersion
from .dispersion import C_M_PER_S, SellmeierModel
from .errors import ConfigError, NoSolutionError, SolverError, SpectralAnomalyError

# |x| where sinc^2(x) = 1/2 (frozen from a bisection run; sinc(x) = sin(x)/x).
HALF_MAX_ARG = 1.3915573782515103

# Energy conservation residual allowed on stored phase-match points.
ENERGY_REL_TOL = 1e-9

# Solver contract: |delta_k| at a reported root stays below this.
RESIDUAL_TOL_RAD_PER_M = 1e-3

DEFAULT_SIGNAL_BRACKET_NM = (760.0, 860.0)

_SOLVER_XTOL_NM = 1e-6
_SOLVER_MAXITER = 200
_SOLVER_RTOL = 4 * float_info.epsilon  # scipy's brentq default

# Temperatures solved per block.
_BLOCK = 4096


@dataclass(frozen=True)
class CrystalSpec:
    """Geometry and poling of the nonlinear crystal.

    ``poling_period_um`` is the period at ``reference_temp_c``; thermal
    expansion scales it linearly with temperature (set the coefficient
    to 0 to disable).
    """

    length_mm: float
    poling_period_um: float
    qpm_order: int = 3
    thermal_expansion_per_c: float = 1.5e-5
    reference_temp_c: float = 25.0

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ConfigError(f"crystal length must be > 0 mm, got {self.length_mm}")
        if self.poling_period_um <= 0:
            raise ConfigError(f"poling period must be > 0 um, got {self.poling_period_um}")
        if self.qpm_order < 1 or self.qpm_order % 2 == 0:
            raise ConfigError(f"QPM order must be a positive odd integer, got {self.qpm_order}")

    def period_at(self, temperature_c: float) -> float:
        """Poling period (um) at the given temperature."""
        return self.poling_period_um * (
            1.0 + self.thermal_expansion_per_c * (temperature_c - self.reference_temp_c)
        )


@dataclass(frozen=True)
class PhaseMatchPoint:
    """One (pump, signal, idler, T) operating point with its residual mismatch."""

    pump_nm: float
    signal_nm: float
    idler_nm: float
    temperature_c: float
    mismatch_rad_per_m: float

    def __post_init__(self):
        residual = abs(1.0 / self.pump_nm - 1.0 / self.signal_nm - 1.0 / self.idler_nm)
        if residual > ENERGY_REL_TOL / self.pump_nm:
            raise ConfigError(
                "energy conservation violated: 1/pump - 1/signal - 1/idler = "
                f"{residual:.3e} 1/nm for ({self.pump_nm}, {self.signal_nm}, {self.idler_nm})"
            )
        if not self.signal_nm < self.idler_nm:
            raise ConfigError(
                f"signal ({self.signal_nm} nm) must be the short-wavelength output, "
                f"below the idler ({self.idler_nm} nm)"
            )


@dataclass
class TuningCurve:
    """The solved temperatures and their signal and idler wavelengths, as
    float64 columns; failed temperatures are kept separately as
    (temperature, reason)."""

    temperature_c: np.ndarray
    signal_nm: np.ndarray
    idler_nm: np.ndarray
    failures: list[tuple[float, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.temperature_c)


def idler_from_energy(pump_nm: float, signal_nm):
    """Idler wavelength conjugate to the signal: 1/idler = 1/pump - 1/signal.
    ``signal_nm`` is a float or a float64 array; a float gives a float."""
    if pump_nm <= 0:
        raise ConfigError(f"pump wavelength must be > 0, got {pump_nm}")
    signal = np.asarray(signal_nm)
    if (below := signal[signal <= pump_nm]).size:
        raise ConfigError(
            f"signal ({below[0].item()} nm) must exceed the pump ({pump_nm} nm); "
            "no downconverted pair exists otherwise"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def _temperature_terms(crystal: CrystalSpec, pump_nm: float, temperature_c, model):
    """delta_k's temperature-only factors: _thermal_terms, n_p/lp, m/Lambda(T) (1/um)."""
    lp = pump_nm * 1e-3
    dispersion._check_range(model, lp, temperature_c)
    thermal = dispersion._thermal_terms(model, temperature_c)
    return (*thermal, dispersion._index(model, lp, *thermal) / lp,
            crystal.qpm_order / crystal.period_at(temperature_c))


def _index_sum_per_um(terms, signal_nm, idler_nm, model: SellmeierModel):
    """n_p/lp - n_s/ls - n_i/li in 1/um, from _temperature_terms."""
    ls, li = signal_nm * 1e-3, idler_nm * 1e-3
    for wavelength_um in (ls, li):
        dispersion._check_range(model, wavelength_um, ())   # no temperature to check
    return (terms[4] - dispersion._index(model, ls, *terms[:4]) / ls
            - dispersion._index(model, li, *terms[:4]) / li)


def _mismatch(terms, signal_nm, idler_nm, model: SellmeierModel):
    """delta_k in rad/m from _temperature_terms: the one mismatch formula."""
    return 2.0 * pi * (_index_sum_per_um(terms, signal_nm, idler_nm, model) - terms[5]) * 1e6


def phase_mismatch(crystal: CrystalSpec, pump_nm: float, signal_nm, idler_nm,
                   temperature_c, model: SellmeierModel | None = None):
    """delta_k = 2*pi*(n_p/lp - n_s/ls - n_i/li - m/Lambda(T)) in rad/m, for
    floats (giving a float) or float64 arrays broadcast together."""
    model = model or dispersion.default_model()
    dk = _mismatch(_temperature_terms(crystal, pump_nm, temperature_c, model),
                   signal_nm, idler_nm, model)
    return dk if isinstance(dk, np.ndarray) else float(dk)


def _brentq(f, xpre, xcur, fpre, fcur, xtol: float, maxiter: int):
    """(root, f(root)) of f between xpre and xcur for float64 arrays of one
    shape, element by element; fpre = f(xpre) and fcur = f(xcur) must not
    have the same sign at any element.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) as scipy.optimize.brentq runs it
    (scipy/optimize/Zeros/brentq.c, rtol = 4 eps): np.where picks each
    element's branch, every branch keeps scipy's floating-point order, and an
    element retires on its own convergence test.  ``f(x, live)`` gets the
    live elements' iterates and indices.  Raises SolverError when an element
    has not converged in ``maxiter`` iterations.
    """
    root, froot = np.where(fpre == 0.0, [xpre, fpre], [xcur, fcur])
    live = np.flatnonzero((fpre != 0.0) & (fcur != 0.0))
    xpre, xcur, fpre, fcur = xpre[live], xcur[live], fpre[live], fcur[live]
    xblk = fblk = spre = scur = np.zeros(live.size)
    for _ in range(maxiter):
        flip = (fpre < 0.0) != (fcur < 0.0)
        xblk, fblk, spre, scur = (np.where(flip, a, b) for a, b in (
            (xpre, xblk), (fpre, fblk), (xcur - xpre, spre), (xcur - xpre, scur)))
        swap = np.abs(fblk) < np.abs(fcur)          # keep the best point in xcur
        xpre, xcur, xblk, fpre, fcur, fblk = (np.where(swap, a, b) for a, b in (
            (xcur, xpre), (xblk, xcur), (xcur, xblk), (fcur, fpre), (fblk, fcur), (fcur, fblk)))
        delta = (xtol + _SOLVER_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            root[live[done]], froot[live[done]] = xcur[done], fcur[done]
            live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[~done] for a in (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                   delta, sbis))
        if not live.size:
            return root, froot
        with np.errstate(divide="ignore", invalid="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk,
                            (nfcur := -fcur) * (xcur - xpre) / (fcur - fpre),         # secant
                            nfcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        accept = (((aspre := np.abs(spre)) > delta) & (np.abs(fcur) < np.abs(fpre))
                  & (2 * np.abs(stry) < np.minimum(aspre, 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(accept, scur, sbis), np.where(accept, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, live)
    raise SolverError(f"root solve did not converge in {maxiter} iterations")


def _solve(crystal: CrystalSpec, pump_nm: float, temps: np.ndarray,
           bracket_nm: tuple[float, float], model: SellmeierModel):
    """solve_signal at every temperature of a float64 array, through one
    _brentq call: (solved, signal_nm, idler_nm, mismatch, failures), where
    ``solved`` indexes the temperatures with a root and ``failures`` lists
    (index, exception) for the others, in index order, each with the
    exception solve_signal raises at that temperature alone."""
    lo, hi = bracket_nm

    def endpoints(idx):
        """([idx, delta_k at lo, at hi, *terms], failures); a ConfigError halves idx."""
        try:
            if not 0 < lo < hi:
                raise ConfigError(f"bad signal bracket {bracket_nm}")
            ends = [(s, idler_from_energy(pump_nm, s)) for s in (lo, hi)]
            terms = _temperature_terms(crystal, pump_nm, temps[idx], model)
            return [idx, *(_mismatch(terms, s, i, model) for s, i in ends), *terms], []
        except ConfigError as exc:
            if idx.size == 1:
                return [idx[:0], *[np.empty(0)] * 8], [(int(idx[0]), exc)]
        (left, left_failures), (right, right_failures) = map(endpoints, np.array_split(idx, 2))
        return list(map(np.concatenate, zip(left, right))), left_failures + right_failures

    (solved, f_lo, f_hi, *terms), failures = endpoints(np.arange(temps.size))
    same_sign = ((f_lo > 0) & (f_hi > 0)) | ((f_lo < 0) & (f_hi < 0))
    for k, a, b in zip(*(v[same_sign].tolist() for v in (solved, f_lo, f_hi))):
        failures.append((k, NoSolutionError(
            f"no phase-match root in signal bracket [{lo}, {hi}] nm at "
            f"{temps[k].item()} C: delta_k = {a:.6g} / {b:.6g} rad/m",
            endpoint_values=(a, b))))
    failures.sort(key=lambda failure: failure[0])
    solved, f_lo, f_hi, *terms = (v[~same_sign] for v in (solved, f_lo, f_hi, *terms))
    root, mismatch = _brentq(lambda x, live: _mismatch(  # gathered once an element retires
        terms if live.size == solved.size else [t[live] for t in terms], x,
        idler_from_energy(pump_nm, x), model), np.full(solved.size, lo),
        np.full(solved.size, hi), f_lo, f_hi, _SOLVER_XTOL_NM, _SOLVER_MAXITER)
    off = np.flatnonzero(~(np.abs(mismatch) < RESIDUAL_TOL_RAD_PER_M))
    if off.size:
        k = off[0]
        raise SolverError(
            f"signal root {root[k]:.9g} nm at {temps[solved[k]].item()} C leaves delta_k = "
            f"{mismatch[k]:.6g} rad/m, not below {RESIDUAL_TOL_RAD_PER_M:g}")
    return solved, root, idler_from_energy(pump_nm, root), mismatch, failures


def solve_signal(crystal: CrystalSpec, pump_nm: float, temperature_c: float,
                 bracket_nm: tuple[float, float] = DEFAULT_SIGNAL_BRACKET_NM,
                 model: SellmeierModel | None = None) -> PhaseMatchPoint:
    """Find the signal wavelength that phase-matches at this temperature.

    The idler is slaved to energy conservation.  Raises NoSolutionError
    (with the endpoint mismatches attached) when delta_k does not change
    sign over the bracket, and SolverError when |delta_k| at the root is not
    below RESIDUAL_TOL_RAD_PER_M.  This is the one-temperature case of the
    tuning-curve solve.
    """
    model = model or dispersion.default_model()
    _, signal, idler, mismatch, failures = _solve(
        crystal, pump_nm, np.array([temperature_c], dtype=float), bracket_nm, model)
    if failures:
        raise failures[0][1]
    return PhaseMatchPoint(float(pump_nm), signal.item(), idler.item(),
                           float(temperature_c), mismatch.item())


def calibrate_period(crystal: CrystalSpec, pump_nm: float, target_signal_nm: float,
                     temperature_c: float,
                     model: SellmeierModel | None = None) -> float:
    """Reference-temperature poling period that zeroes delta_k at the target.

    Closed form: Lambda(T) = m / (n_p/lp - n_s/ls - n_i/li), then referred
    back to the crystal's reference temperature through thermal expansion.
    """
    model = model or dispersion.default_model()
    idler_nm = idler_from_energy(pump_nm, target_signal_nm)
    terms = _temperature_terms(crystal, pump_nm, temperature_c, model)
    period_at_t = crystal.qpm_order / _index_sum_per_um(terms, target_signal_nm, idler_nm, model)
    expansion = 1.0 + crystal.thermal_expansion_per_c * (
        temperature_c - crystal.reference_temp_c)
    return float(period_at_t / expansion)


def tuning_curve(crystal: CrystalSpec, pump_nm: float,
                 temp_range_c: tuple[float, float], step_c: float,
                 bracket_nm: tuple[float, float] = DEFAULT_SIGNAL_BRACKET_NM,
                 model: SellmeierModel | None = None) -> TuningCurve:
    """solve_signal over the inclusive temperature grid lo + k * step_c,
    _BLOCK temperatures per solve.

    Temperatures whose solve fails are omitted from the columns and recorded
    in ``failures``.  An entirely empty curve raises NoSolutionError.
    """
    lo, hi = temp_range_c
    if hi < lo:
        raise ConfigError(f"inverted temperature range {lo}..{hi} C")
    if step_c <= 0:
        raise ConfigError(f"temperature step must be > 0, got {step_c}")
    model = model or dispersion.default_model()

    n_temps = int((hi - lo) / step_c + 1e-9) + 1
    columns, failures = [], []
    for start in range(0, n_temps, _BLOCK):
        temps = lo + np.arange(start, min(start + _BLOCK, n_temps)) * step_c
        solved, signal, idler, _, block_failures = _solve(crystal, pump_nm, temps,
                                                          bracket_nm, model)
        columns.append((temps[solved], signal, idler))
        failures += [(temps[k].item(), str(exc)) for k, exc in block_failures]
    curve = TuningCurve(*(np.concatenate(col) for col in zip(*columns)), failures=failures)
    if not len(curve):
        raise NoSolutionError(
            f"no temperature in {lo}..{hi} C produced a phase-match root; "
            f"first failure: {failures[0][1] if failures else 'n/a'}"
        )
    return curve


def tuning_coefficient(curve: TuningCurve, near_temp_c: float) -> tuple[float, float]:
    """(d signal / dT, d idler / dT) in nm/C from curve rows near a temperature.

    Central difference on the neighbouring rows where possible, one-sided
    at the curve ends.
    """
    if len(curve) < 2:
        raise ConfigError("tuning coefficient needs at least two curve rows")
    idx = int(np.argmin(np.abs(curve.temperature_c - near_temp_c)))
    ends = [max(idx - 1, 0), min(idx + 1, len(curve) - 1)]
    dt, ds, di = (np.diff(col[ends]).item()
                  for col in (curve.temperature_c, curve.signal_nm, curve.idler_nm))
    return ds / dt, di / dt


def _sinc2(x: float) -> float:
    if x == 0.0:
        return 1.0
    s = sin(x) / x
    return s * s


def pm_spectrum(crystal: CrystalSpec, solution: PhaseMatchPoint,
                idler_span_nm: float, n_points: int,
                model: SellmeierModel | None = None) -> list[tuple[float, float]]:
    """Relative conversion efficiency sinc^2(delta_k * L / 2) over an idler
    wavelength grid centred on the solution; the signal follows energy
    conservation at fixed pump."""
    if idler_span_nm <= 0:
        raise ConfigError(f"span must be > 0 nm, got {idler_span_nm}")
    if n_points < 3:
        raise ConfigError(f"need at least 3 spectrum points, got {n_points}")
    model = model or dispersion.default_model()
    half_l_m = crystal.length_mm * 1e-3 / 2.0

    idler_nm = solution.idler_nm + idler_span_nm * (np.arange(n_points) / (n_points - 1) - 0.5)
    signal_nm = 1.0 / (1.0 / solution.pump_nm - 1.0 / idler_nm)
    dk = phase_mismatch(crystal, solution.pump_nm, signal_nm, idler_nm,
                        solution.temperature_c, model)
    return [(i, _sinc2(x)) for i, x in zip(idler_nm.tolist(), (dk * half_l_m).tolist())]


def fwhm_bandwidth(crystal: CrystalSpec, solution: PhaseMatchPoint,
                   model: SellmeierModel | None = None) -> tuple[float, float]:
    """Full width at half maximum of the sinc^2 spectrum, in idler nm and GHz.

    Locates the half-maximum points |delta_k|*L/2 = HALF_MAX_ARG on both
    sides of the solution by bracketed root finding; the GHz figure is
    c * d_lambda / lambda^2.
    """
    model = model or dispersion.default_model()
    half_l_m = crystal.length_mm * 1e-3 / 2.0

    def envelope_arg(idler_nm):
        signal_nm = 1.0 / (1.0 / solution.pump_nm - 1.0 / idler_nm)
        dk = phase_mismatch(crystal, solution.pump_nm, signal_nm, idler_nm,
                            solution.temperature_c, model)
        return abs(dk) * half_l_m - HALF_MAX_ARG

    # Local slope gives the expected half-width scale.
    probe_nm = 1e-3
    slope = abs(envelope_arg(solution.idler_nm + probe_nm)
                - envelope_arg(solution.idler_nm)) / probe_nm
    if slope == 0.0:
        raise SpectralAnomalyError("flat spectrum: mismatch does not vary with idler wavelength")
    half_width_est_nm = HALF_MAX_ARG / slope

    def half_point(direction: float) -> float:
        step = half_width_est_nm / 8.0
        prev = solution.idler_nm
        f_prev = envelope_arg(prev)
        limit = 10.0 * half_width_est_nm
        k = 1
        while k * step <= limit:
            cur = solution.idler_nm + direction * k * step
            f_cur = envelope_arg(cur)
            if f_prev < 0.0 <= f_cur:
                (a, f_a), (b, f_b) = sorted([(prev, f_prev), (cur, f_cur)])
                root, _ = _brentq(lambda x, live: envelope_arg(x),
                                  *(np.array([v]) for v in (a, b, f_a, f_b)),
                                  1e-9, _SOLVER_MAXITER)
                return root.item()
            prev, f_prev = cur, f_cur
            k += 1
        raise SpectralAnomalyError(
            f"half-maximum not bracketed within {limit:.3g} nm of the peak "
            f"(direction {direction:+.0f})"
        )

    hi = half_point(+1.0)
    lo = half_point(-1.0)
    width_nm = hi - lo
    width_ghz = C_M_PER_S * (width_nm * 1e-9) / (solution.idler_nm * 1e-9) ** 2 / 1e9
    return width_nm, width_ghz
