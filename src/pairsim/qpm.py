"""Quasi-phase matching for a periodically poled crystal: mismatch, wavelength
solving, temperature tuning curves, and the sinc^2 conversion spectrum.

Conventions: wavelengths are vacuum values in nm at the API surface (um
internally, matching the dispersion model), temperatures in degC, mismatch
in rad/m.  All three waves use the extraordinary index; the grating
compensates the mismatch with its order-m Fourier harmonic.

Solver contract: the bracketed roots (phase-matched signal, FWHM half-points)
come from ``_brentq``, which takes scipy.optimize.brentq's steps in the same
floating-point order and so returns its roots bit for bit; scipy is used only
in the tests, as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sin
from sys import float_info

from . import dispersion
from .dispersion import C_M_PER_S, SellmeierModel, refractive_index
from .errors import ConfigError, NoSolutionError, SolverError, SpectralAnomalyError
from .formatting import format_number, write_lines

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
    """Rows of (temperature, signal, idler); failed temperatures are kept
    separately as (temperature, reason)."""

    rows: list[tuple[float, float, float]]
    failures: list[tuple[float, str]] = field(default_factory=list)


def idler_from_energy(pump_nm: float, signal_nm: float) -> float:
    """Idler wavelength conjugate to the signal: 1/idler = 1/pump - 1/signal."""
    if pump_nm <= 0:
        raise ConfigError(f"pump wavelength must be > 0, got {pump_nm}")
    if signal_nm <= pump_nm:
        raise ConfigError(
            f"signal ({signal_nm} nm) must exceed the pump ({pump_nm} nm); "
            "no downconverted pair exists otherwise"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def _index_sum_per_um(pump_nm, signal_nm, idler_nm, temperature_c,
                      model: SellmeierModel) -> float:
    """n_p/lp - n_s/ls - n_i/li in 1/um."""
    lp, ls, li = pump_nm * 1e-3, signal_nm * 1e-3, idler_nm * 1e-3
    return (refractive_index(model, lp, temperature_c) / lp
            - refractive_index(model, ls, temperature_c) / ls
            - refractive_index(model, li, temperature_c) / li)


def phase_mismatch(crystal: CrystalSpec, pump_nm: float, signal_nm: float,
                   idler_nm: float, temperature_c: float,
                   model: SellmeierModel | None = None) -> float:
    """delta_k = 2*pi*(n_p/lp - n_s/ls - n_i/li - m/Lambda(T)) in rad/m."""
    model = model or dispersion.default_model()
    bracket = _index_sum_per_um(pump_nm, signal_nm, idler_nm, temperature_c, model)
    grating = crystal.qpm_order / crystal.period_at(temperature_c)
    return 2.0 * pi * (bracket - grating) * 1e6


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float,
            xtol: float, maxiter: int) -> tuple[float, float]:
    """(root, f(root)) of f between xpre and xcur, given fpre = f(xpre) and
    fcur = f(xcur), which must not have the same sign.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) step for step as scipy.optimize.brentq runs it
    (scipy/optimize/Zeros/brentq.c, rtol = 4 eps).  Raises SolverError when
    ``maxiter`` iterations do not converge.
    """
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):       # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _SOLVER_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SolverError(f"root solve did not converge in {maxiter} iterations")


def solve_signal(crystal: CrystalSpec, pump_nm: float, temperature_c: float,
                 bracket_nm: tuple[float, float] = DEFAULT_SIGNAL_BRACKET_NM,
                 model: SellmeierModel | None = None) -> PhaseMatchPoint:
    """Find the signal wavelength that phase-matches at this temperature.

    The idler is slaved to energy conservation.  Raises NoSolutionError
    (with the endpoint mismatches attached) when delta_k does not change
    sign over the bracket, and SolverError when |delta_k| at the root is not
    below RESIDUAL_TOL_RAD_PER_M.
    """
    model = model or dispersion.default_model()
    lo, hi = bracket_nm
    if not 0 < lo < hi:
        raise ConfigError(f"bad signal bracket {bracket_nm}")

    def mismatch_at(signal_nm: float) -> float:
        idler_nm = idler_from_energy(pump_nm, signal_nm)
        return phase_mismatch(crystal, pump_nm, signal_nm, idler_nm,
                              temperature_c, model)

    f_lo, f_hi = mismatch_at(lo), mismatch_at(hi)
    if (f_lo > 0 and f_hi > 0) or (f_lo < 0 and f_hi < 0):
        raise NoSolutionError(
            f"no phase-match root in signal bracket [{lo}, {hi}] nm at "
            f"{temperature_c} C: delta_k = {f_lo:.6g} / {f_hi:.6g} rad/m",
            endpoint_values=(f_lo, f_hi),
        )
    root, mismatch = _brentq(mismatch_at, lo, hi, f_lo, f_hi, _SOLVER_XTOL_NM, _SOLVER_MAXITER)
    if not abs(mismatch) < RESIDUAL_TOL_RAD_PER_M:
        raise SolverError(
            f"signal root {root:.9g} nm at {temperature_c} C leaves delta_k = "
            f"{mismatch:.6g} rad/m, not below {RESIDUAL_TOL_RAD_PER_M:g}")
    idler_nm = idler_from_energy(pump_nm, root)
    return PhaseMatchPoint(
        pump_nm=pump_nm,
        signal_nm=root,
        idler_nm=idler_nm,
        temperature_c=temperature_c,
        mismatch_rad_per_m=mismatch,
    )


def calibrate_period(crystal: CrystalSpec, pump_nm: float, target_signal_nm: float,
                     temperature_c: float,
                     model: SellmeierModel | None = None) -> float:
    """Reference-temperature poling period that zeroes delta_k at the target.

    Closed form: Lambda(T) = m / (n_p/lp - n_s/ls - n_i/li), then referred
    back to the crystal's reference temperature through thermal expansion.
    """
    model = model or dispersion.default_model()
    idler_nm = idler_from_energy(pump_nm, target_signal_nm)
    bracket = _index_sum_per_um(pump_nm, target_signal_nm, idler_nm, temperature_c, model)
    period_at_t = crystal.qpm_order / bracket
    expansion = 1.0 + crystal.thermal_expansion_per_c * (
        temperature_c - crystal.reference_temp_c)
    return period_at_t / expansion


def tuning_curve(crystal: CrystalSpec, pump_nm: float,
                 temp_range_c: tuple[float, float], step_c: float,
                 bracket_nm: tuple[float, float] = DEFAULT_SIGNAL_BRACKET_NM,
                 model: SellmeierModel | None = None) -> TuningCurve:
    """solve_signal over an inclusive temperature grid.

    Temperatures whose solve fails are omitted from the rows and recorded
    in ``failures``.  An entirely empty curve raises NoSolutionError.
    """
    lo, hi = temp_range_c
    if hi < lo:
        raise ConfigError(f"inverted temperature range {lo}..{hi} C")
    if step_c <= 0:
        raise ConfigError(f"temperature step must be > 0, got {step_c}")
    model = model or dispersion.default_model()

    n_steps = int((hi - lo) / step_c + 1e-9)
    temps = [lo + k * step_c for k in range(n_steps + 1)]

    rows: list[tuple[float, float, float]] = []
    failures: list[tuple[float, str]] = []
    for t in temps:
        try:
            point = solve_signal(crystal, pump_nm, t, bracket_nm, model)
        except (NoSolutionError, ConfigError) as exc:
            failures.append((t, str(exc)))
            continue
        rows.append((t, point.signal_nm, point.idler_nm))
    if not rows:
        raise NoSolutionError(
            f"no temperature in {lo}..{hi} C produced a phase-match root; "
            f"first failure: {failures[0][1] if failures else 'n/a'}"
        )
    return TuningCurve(rows=rows, failures=failures)


def tuning_coefficient(curve: TuningCurve, near_temp_c: float) -> tuple[float, float]:
    """(d signal / dT, d idler / dT) in nm/C from curve rows near a temperature.

    Central difference on the neighbouring rows where possible, one-sided
    at the curve ends.
    """
    if len(curve.rows) < 2:
        raise ConfigError("tuning coefficient needs at least two curve rows")
    temps = [r[0] for r in curve.rows]
    idx = min(range(len(temps)), key=lambda i: abs(temps[i] - near_temp_c))
    i_lo = max(idx - 1, 0)
    i_hi = min(idx + 1, len(temps) - 1)
    t_lo, s_lo, i_lo_nm = curve.rows[i_lo]
    t_hi, s_hi, i_hi_nm = curve.rows[i_hi]
    dt = t_hi - t_lo
    return (s_hi - s_lo) / dt, (i_hi_nm - i_lo_nm) / dt


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

    out = []
    for k in range(n_points):
        idler_nm = solution.idler_nm + idler_span_nm * (k / (n_points - 1) - 0.5)
        signal_nm = 1.0 / (1.0 / solution.pump_nm - 1.0 / idler_nm)
        dk = phase_mismatch(crystal, solution.pump_nm, signal_nm, idler_nm,
                            solution.temperature_c, model)
        out.append((idler_nm, _sinc2(dk * half_l_m)))
    return out


def fwhm_bandwidth(crystal: CrystalSpec, solution: PhaseMatchPoint,
                   model: SellmeierModel | None = None) -> tuple[float, float]:
    """Full width at half maximum of the sinc^2 spectrum, in idler nm and GHz.

    Locates the half-maximum points |delta_k|*L/2 = HALF_MAX_ARG on both
    sides of the solution by bracketed root finding; the GHz figure is
    c * d_lambda / lambda^2.
    """
    model = model or dispersion.default_model()
    half_l_m = crystal.length_mm * 1e-3 / 2.0

    def envelope_arg(idler_nm: float) -> float:
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
                return _brentq(envelope_arg, a, b, f_a, f_b, 1e-9, _SOLVER_MAXITER)[0]
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


def write_tuning_csv(curve: TuningCurve, path) -> None:
    """CSV with fixed column order (T_C, lambda_s_nm, lambda_i_nm)."""
    lines = ["T_C,lambda_s_nm,lambda_i_nm"]
    for t, s, i in curve.rows:
        lines.append(f"{format_number(t)},{format_number(s)},{format_number(i)}")
    write_lines(path, lines)


def write_spectrum_csv(rows: list[tuple[float, float]], path) -> None:
    """CSV with fixed column order (lambda_i_nm, rel_eff)."""
    lines = ["lambda_i_nm,rel_eff"]
    for idler_nm, eff in rows:
        lines.append(f"{format_number(idler_nm)},{format_number(eff)}")
    write_lines(path, lines)
