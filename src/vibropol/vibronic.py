"""Finite-temperature vibronic emission lineshapes.

The production path builds the spectrum from the thermal generating
function

    G(t) = exp( sum_k S_k [ (n_k+1)(e^{-i w_k t} - 1)
                            + n_k (e^{+i w_k t} - 1) ] )

Fourier-transformed to the energy domain, convolved with the ZPL line
profile and with a phenomenological acoustic wing.  The verification
oracle sums explicit displaced-oscillator Franck-Condon factors with
thermal initial-state occupation instead; both share the same rendering
(profile, acoustic kernel, Fourier step), so they differ only in how the
vibronic line weights are generated.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import eval_genlaguerre, gammaln, erf

from .core import (EnergyGrid, EmitterModel, MAX_GRID_POINTS, NumericalError,
                   PhononMode, Spectrum, ValidationError, KB_MEV)


def bose_occupation(energy_mev: float, temperature: float) -> float:
    """Bose-Einstein occupation n(w, T); exactly 0 at T = 0."""
    if not (np.isfinite(energy_mev) and np.isfinite(temperature)):
        raise ValidationError("non-finite input to bose_occupation")
    if energy_mev <= 0:
        raise ValidationError("phonon energy must be > 0")
    if temperature < 0:
        raise ValidationError("temperature must be >= 0")
    kt = KB_MEV * temperature
    if kt == 0:                      # T = 0, or so small kT underflows
        return 0.0
    x = energy_mev / kt
    if x > 700:
        return 0.0
    return 1.0 / np.expm1(x)


def debye_waller(modes, temperature: float) -> float:
    """ZPL weight exp(-sum_k S_k (2 n_k + 1))."""
    if temperature < 0:
        raise ValidationError("temperature must be >= 0")
    s = 0.0
    for m in modes:
        s += m.partial_hr * (2.0 * bose_occupation(m.energy_mev, temperature) + 1.0)
    return float(np.exp(-s))


def total_dq(modes) -> float:
    """Total configuration coordinate displacement sqrt(sum dQ_k^2)."""
    return float(np.sqrt(sum(np.square(m.partial_dq) for m in modes)))


def spectral_function(modes, broadening_mev: float, grid: EnergyGrid) -> Spectrum:
    """Phonon spectral density S(hw) = sum_k S_k G(hw - w_k; broadening).

    G is a unit-area Gaussian; the integral over the grid equals the
    total HR factor.  The grid is a phonon-energy axis in meV.
    """
    if not broadening_mev > 0:
        raise ValidationError("broadening must be > 0")
    w = grid.points
    density = np.zeros_like(w)
    sig = broadening_mev
    for k, m in enumerate(modes):
        # captured weight of this mode inside the grid window
        lo = (grid.min_energy - m.energy_mev) / (sig * np.sqrt(2))
        hi = (grid.max_energy - m.energy_mev) / (sig * np.sqrt(2))
        captured = 0.5 * (erf(hi) - erf(lo))
        if captured < 1.0 - 1e-3:
            raise ValidationError(
                f"grid too narrow for mode {k} at {m.energy_mev} meV "
                f"(captures {captured:.6f} of its weight)")
        density += (m.partial_hr / (sig * np.sqrt(2 * np.pi))
                    * np.exp(-0.5 * ((w - m.energy_mev) / sig) ** 2))
    return Spectrum(grid, density)


# ------------------------------------------------------------------
# shared rendering: time-domain signal -> spectrum on an energy grid
# ------------------------------------------------------------------

def _profile_factor(tau, linewidth_mev: float, profile: str):
    """ZPL line profile in the time domain (tau in 1/meV)."""
    if profile == "lorentzian":
        return np.exp(-0.5 * linewidth_mev * np.abs(tau))
    sigma = linewidth_mev / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return np.exp(-0.5 * (sigma * tau) ** 2)


def _acoustic_kernel_weights(model: EmitterModel):
    """(stokes weight, anti-Stokes weight, normalization) of the wing."""
    w_s = model.acoustic_coupling
    if w_s == 0:
        return 0.0, 0.0, 1.0
    c = model.acoustic_cutoff
    if model.temperature > 0:
        kt = KB_MEV * model.temperature
        w_as = w_s * (kt / (kt + c)) ** 2      # integral of rho(d) e^{-d/kT}
    else:
        w_as = 0.0
    return w_s, w_as, 1.0 + w_s + w_as


def acoustic_wing_density(model: EmitterModel, delta_mev):
    """Un-normalized acoustic wing density at signed detuning (meV).

    Positive delta is the Stokes side (emission below the parent line);
    the anti-Stokes side is scaled by the Bose ratio e^{-d/kT}.
    """
    d = np.asarray(delta_mev, dtype=float)
    c = model.acoustic_cutoff
    rho = model.acoustic_coupling * np.abs(d) / (c * c) * np.exp(-np.abs(d) / c)
    if model.temperature > 0:
        kt = KB_MEV * model.temperature
        boltz = np.exp(-np.abs(d) / kt)
    else:
        boltz = 0.0
    return np.where(d >= 0, rho, rho * boltz)


def _span_estimate(model: EmitterModel):
    """Conservative shift range (meV) containing all spectral weight."""
    stokes = 50.0 * model.zpl_linewidth + 10.0
    anti = 50.0 * model.zpl_linewidth + 10.0
    var_s = var_a = 0.0
    for m in model.modes:
        n = bose_occupation(m.energy_mev, model.temperature)
        stokes += m.partial_hr * (n + 1) * m.energy_mev
        anti += m.partial_hr * n * m.energy_mev
        var_s += m.partial_hr * (n + 1) * np.square(m.energy_mev)
        var_a += m.partial_hr * n * np.square(m.energy_mev)
    if model.modes:
        wmax = max(m.energy_mev for m in model.modes)
        stokes += 8.0 * wmax
        if model.temperature > 0:
            anti += 6.0 * wmax
    stokes += 8.0 * np.sqrt(var_s)
    anti += 8.0 * np.sqrt(var_a)
    if model.acoustic_coupling > 0:
        stokes += 60.0 * model.acoustic_cutoff
        kt = KB_MEV * model.temperature
        if kt > 0:                   # T = 0, or so small kT underflows
            anti += 40.0 / (1.0 / model.acoustic_cutoff + 1.0 / kt)
    return anti, stokes


def _render_shift_spectrum(model: EmitterModel, shifts_mev, g_builder,
                           area_tol: float = 1e-6):
    """Spectrum density (1/meV) at shifts D = E_ZPL - E, any order.

    g_builder(tau) returns the vibronic time signal (without the ZPL
    profile or acoustic wing, both applied here).
    """
    shifts = np.asarray(shifts_mev, dtype=float)
    anti_ext, stokes_ext = _span_estimate(model)
    lo = min(float(shifts.min()), 0.0) - anti_ext
    hi = max(float(shifts.max()), 0.0) + stokes_ext
    # honor the span >= 4 x requested-span rule
    user_span = float(shifts.max() - shifts.min()) if shifts.size > 1 else 0.0
    pad = max(0.0, (4.0 * user_span - (hi - lo)) / 2.0)
    lo -= pad
    hi += pad
    d = model.zpl_linewidth / 8.0
    n = 2 ** np.ceil(np.log2((hi - lo) / d + 2))
    if not n <= MAX_GRID_POINTS:
        raise NumericalError(
            "internal grid would exceed 2^22 points; increase the "
            "linewidth or shrink the grid")
    n = int(n)
    d = (hi - lo) / n

    tau = 2.0 * np.pi * np.fft.fftfreq(n, d=d)          # 1/meV
    g = g_builder(tau) * _profile_factor(tau, model.zpl_linewidth,
                                         model.zpl_profile)

    w_s, w_as, norm = _acoustic_kernel_weights(model)
    if w_s > 0:
        # wing kernel in the shift domain, fft-ordered offsets
        offs = np.fft.fftfreq(n, d=1.0 / (n * d))
        kern = acoustic_wing_density(model, offs)
        kern[0] = 0.0
        # normalize with the discrete wing sum so total weight is exact
        khat = (np.fft.fft(kern) * d + 1.0) / (1.0 + kern.sum() * d)
        g = g * khat

    g = g * np.exp(1j * lo * tau)
    dens = np.fft.ifft(g).real / d
    area = dens.sum() * d
    if abs(area - 1.0) > area_tol:
        raise NumericalError(
            f"weight conservation check failed after transform "
            f"(area = {area:.8f})")
    axis = lo + d * np.arange(n)
    try:
        spline = CubicSpline(axis, dens)
    except ValueError as exc:        # spans near the float range overflow
        raise NumericalError(f"rendered spectrum not interpolable: {exc}"
                             ) from None
    out = spline(shifts)
    return np.clip(out, 0.0, None)


def _check_lineshape_grid(model: EmitterModel, grid: EnergyGrid):
    if model.temperature < 0:
        raise ValidationError("temperature must be >= 0")
    if not (grid.min_energy < model.zpl_energy < grid.max_energy):
        raise ValidationError("grid must cover the ZPL energy")
    if model.modes:
        wmax = max(m.energy_mev for m in model.modes) * 1e-3
        if grid.min_energy > model.zpl_energy - 5.0 * wmax:
            raise ValidationError(
                "grid must extend at least 5 phonon quanta below the ZPL")


def full_band_grid(model: EmitterModel, spacing_mev: float = 0.25) -> EnergyGrid:
    """Energy grid wide enough to hold all spectral weight of the model."""
    if not spacing_mev > 0:
        raise ValidationError("spacing must be > 0")
    anti, stokes = _span_estimate(model)
    lo = model.zpl_energy - stokes * 1e-3
    hi = model.zpl_energy + anti * 1e-3
    n = np.ceil((hi - lo) / (spacing_mev * 1e-3)) + 1
    return EnergyGrid(lo, lo + (n - 1) * spacing_mev * 1e-3, n)


def lineshape_density(model: EmitterModel, energies_ev) -> np.ndarray:
    """Normalized emission density (1/meV) at arbitrary photon energies.

    The normalization is global (integral over all energies = 1); no
    truncation check is made, so this is the right entry point when only
    part of the band is needed.
    """
    shifts = (model.zpl_energy - np.asarray(energies_ev, dtype=float)) * 1e3
    n_occ = [bose_occupation(m.energy_mev, model.temperature)
             for m in model.modes]

    def g_builder(tau):
        st = np.zeros_like(tau, dtype=complex)
        for m, n in zip(model.modes, n_occ):
            phase = np.exp(-1j * m.energy_mev * tau)
            st += m.partial_hr * ((n + 1.0) * (phase - 1.0)
                                  + n * (np.conj(phase) - 1.0))
        return np.exp(st)

    return _render_shift_spectrum(model, shifts, g_builder)


def lineshape(model: EmitterModel, grid: EnergyGrid) -> Spectrum:
    """Normalized emission spectrum from the generating-function method."""
    _check_lineshape_grid(model, grid)
    energies = grid.points
    dens = lineshape_density(model, energies)
    covered = np.trapezoid(dens, energies * 1e3)
    if abs(covered - 1.0) > 1e-3:
        raise NumericalError(
            f"grid truncates {abs(1.0 - covered):.2e} of the spectral "
            f"weight (limit 1e-3)")
    return Spectrum(grid, dens)


# ------------------------------------------------------------------
# brute-force Franck-Condon oracle
# ------------------------------------------------------------------

def _fc_factor(lo: int, hi: int, s: float) -> float:
    """|<hi|D(sqrt(s))|lo>|^2 for a displaced oscillator, hi >= lo."""
    if s == 0.0:
        return 1.0 if hi == lo else 0.0
    m = hi - lo
    lag = eval_genlaguerre(lo, m, s)
    logw = -s + m * np.log(s) + gammaln(lo + 1) - gammaln(hi + 1)
    return float(np.exp(logw) * lag * lag)


def mode_line_weights(mode: PhononMode, temperature: float,
                      max_quanta: int) -> tuple:
    """Net-quanta line weights for one thermally occupied mode.

    Returns (m_values, weights) with m the net number of phonons created
    (m > 0 is Stokes).  Initial-level occupation is Boltzmann; levels are
    included until the omitted population is below 1e-16, so the oracle
    stays accurate at the 1e-5 relative level even on points holding only
    1e-8 of the peak density.  Net quanta are capped at max_quanta.
    """
    s = mode.partial_hr
    n = bose_occupation(mode.energy_mev, temperature)
    if n > 0:
        q = n / (n + 1.0)                    # Boltzmann factor e^{-bw}
        # q rounds to 1 at huge occupation: every level population is 0
        i_max = int(np.ceil(np.log(1e-16) / np.log(q))) if 0 < q < 1 else 0
        i_max = min(i_max, 170)
    else:
        q = 0.0
        i_max = 0
    pops = (1.0 - q) * q ** np.arange(i_max + 1) if q > 0 else np.array([1.0])

    weights = {}
    for i, p in enumerate(pops):
        # walk final levels outward until the tail is negligible
        acc = 0.0
        for f in range(0, i + max_quanta + 1):
            lo, hi = min(i, f), max(i, f)
            w = p * _fc_factor(lo, hi, s)
            m = f - i
            if abs(m) <= max_quanta:
                weights[m] = weights.get(m, 0.0) + w
            acc += w
            if f > i + 2 and acc > p * (1.0 - 1e-15):
                break
    ms = np.array(sorted(weights))
    ws = np.array([weights[m] for m in ms])
    keep = ws > 0.0
    return ms[keep], ws[keep]


def _unit_circle_poly(z, ms, ws):
    """sum_m ws[m] z^m for |z| = 1: Horner in z for the Stokes powers
    m >= 0 and in conj(z) = 1/z for the anti-Stokes powers m < 0."""
    total = np.zeros_like(z)
    for base, sel in ((z, ms >= 0), (np.conj(z), ms < 0)):
        if not np.any(sel):
            continue
        c = np.zeros(int(np.abs(ms[sel]).max()) + 1)
        c[np.abs(ms[sel])] = ws[sel]
        acc = np.full_like(z, c[-1])
        for ck in c[-2::-1]:
            acc *= base
            acc += ck
        total += acc
    return total


def lineshape_bruteforce(model: EmitterModel, grid: EnergyGrid,
                         max_quanta: int = 12) -> Spectrum:
    """Oracle spectrum from explicit Franck-Condon sums per mode.

    Limited to 3 modes and max_quanta <= 40 net quanta per mode as a
    combinatorial guard; the per-mode rendering is shared with
    ``lineshape`` so the two differ only in the vibronic weights.
    """
    if len(model.modes) > 3:
        raise ValidationError("brute-force oracle supports at most 3 modes")
    if max_quanta < 1 or max_quanta > 40:
        raise ValidationError("max_quanta must lie in [1, 40]")
    _check_lineshape_grid(model, grid)

    tables = [mode_line_weights(m, model.temperature, max_quanta)
              for m in model.modes]

    def g_builder(tau):
        g = np.ones_like(tau, dtype=complex)
        for mode, (ms, ws) in zip(model.modes, tables):
            g *= _unit_circle_poly(np.exp(-1j * mode.energy_mev * tau), ms, ws)
        return g

    energies = grid.points
    dens = _render_shift_spectrum(model, (model.zpl_energy - energies) * 1e3,
                                  g_builder, area_tol=1e-3)
    return Spectrum(grid, dens)
