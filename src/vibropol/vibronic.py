"""Finite-temperature vibronic emission lineshapes.

The production path multiplies the thermal generating function

    G(t) = exp( sum_k S_k [ (n_k+1)(e^{-i w_k t} - 1)
                            + n_k (e^{+i w_k t} - 1) ] )

by the ZPL profile and the closed-form acoustic wing in the time domain;
one real inverse FFT gives exact samples of the density at the caller's
energy grid at one complex exponential per t (``_phase_ramp``).  ``_plan``
lays out the FFT lattice that holds the grid, and ``_render`` transforms a
time signal on it.  The verification oracle sums each mode's lines with
their closed-form weights (``mode_line_weights``) instead; both share the
same rendering, so they differ only in how the line weights are generated.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .core import (EnergyGrid, EmitterModel, MAX_GRID_POINTS, MAX_LINES,
                   NumericalError, PhononMode, Spectrum, ValidationError, KB_MEV)

TAIL_WEIGHT = 1e-13        # weight the full band may leave out on each side
PROFILE_FLOOR = 40.0       # the render leaves out tau where profile < e^{-40}
_Plan = namedtuple("_Plan", "lo d n tau window read")     # see ``_plan``


def _kt(temperature: float) -> float:
    """k_B T in meV; 0 at T = 0 and where the product underflows."""
    kt = KB_MEV * temperature
    return kt if kt >= np.finfo(float).tiny else 0.0


def bose_occupation(energy_mev: float, temperature: float) -> float:
    """Bose-Einstein occupation n(w, T); exactly 0 at T = 0."""
    if not (np.isfinite(energy_mev) and np.isfinite(temperature)):
        raise ValidationError("non-finite input to bose_occupation")
    if energy_mev <= 0:
        raise ValidationError("phonon energy must be > 0")
    if temperature < 0:
        raise ValidationError("temperature must be >= 0")
    kt = _kt(temperature)
    if kt == 0 or energy_mev / kt > 700:
        return 0.0
    return 1.0 / np.expm1(energy_mev / kt)


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
        captured = 0.5 * (math.erf(hi) - math.erf(lo))
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


def _profile_cut(model: EmitterModel, tau) -> int:
    """Number of leading tau (ascending) where ``_profile_factor`` >= e^{-40}
    (PROFILE_FLOOR): tau FWHM <= 80 (Lorentzian), 4 sqrt(40 ln 2) (Gaussian)."""
    edge = (2.0 * PROFILE_FLOOR if model.zpl_profile == "lorentzian" else
            4.0 * math.sqrt(PROFILE_FLOOR * math.log(2.0)))
    return int(np.searchsorted(tau, edge / model.zpl_linewidth, "right"))


def _phase_ramp(a: float, n: int) -> np.ndarray:
    """e^{-i a j}, j < n, from 2 ceil(sqrt n) phasors (an outer product); each
    phase rounds once, so entry j is within (|a| j + 8) 2^-53 of e^{-i a j}."""
    b = math.isqrt(max(n - 1, 0)) + 1
    j = np.arange(b, dtype=float)
    return (np.exp(-1j * a * (b * j))[:, None] * np.exp(-1j * a * j)).ravel()[:n]


def _acoustic_kernel_weights(model: EmitterModel):
    """Wing weights: Stokes w_s, anti-Stokes w_as = integral of
    rho(d) e^{-d/kT}, and the normalization 1 + w_s + w_as."""
    w_s = model.acoustic_coupling
    if w_s == 0:
        return 0.0, 0.0, 1.0
    kt = _kt(model.temperature)
    w_as = w_s * (kt / (kt + model.acoustic_cutoff)) ** 2 if kt > 0 else 0.0
    return w_s, w_as, 1.0 + w_s + w_as


def acoustic_wing_density(model: EmitterModel, delta_mev):
    """Un-normalized acoustic wing density at signed detuning (meV).

    Positive delta is the Stokes side (emission below the parent line);
    the anti-Stokes side is scaled by the Bose ratio e^{-d/kT}, so that it
    decays over 1/(1/c + 1/kT), a length of 0 at T = 0.
    """
    d = np.asarray(delta_mev, dtype=float)
    c, kt = model.acoustic_cutoff, _kt(model.temperature)
    length = np.where(d < 0, 1.0 / (1.0 / c + 1.0 / kt) if kt > 0 else 0.0, c)
    with np.errstate(divide="ignore"):
        decay = np.exp(-np.abs(d) / length)
    return model.acoustic_coupling * np.abs(d) / (c * c) * decay


def _mode_cgf(s, n, x):
    """A mode's net-quanta CGF at x = w t, S[(n+1) expm1(x) + n expm1(-x)],
    as S[expm1(x) + 4n sinh^2(x/2)], which cannot cancel."""
    return s * (np.expm1(x) + np.where(n > 0, 4 * n * np.sinh(x / 2) ** 2, 0))


def _chernoff(cgf, kappa2: float, rate: float):
    """Least x >= 0 with P(X >= x) <= e^{-rate} (Chernoff, Ann. Math. Stat.
    23, 493 (1952)), one per row of the CGF K = cgf (nan or inf off its
    strip): min over t > 0 of (K(t) + rate)/t.  Each t bounds; the ratio
    falls, then rises.  33 points span 16 decades about sqrt(2 rate/kappa2),
    kappa2 ~ K''(0), move 15 decades (at most 40 times) while the least is
    at an end, then twice span 1/16 of the last span about the least."""
    def bounds(log_t):
        t = 10.0 ** log_t
        return np.fmin((cgf(t) + rate) / t, np.inf)        # nan: no bound

    u = np.linspace(-8.0, 8.0, 33)
    mid = (math.log10(2 * rate) - math.log10(max(kappa2, 1e-300))) / 2
    with np.errstate(all="ignore"):
        for moves in range(41):
            f = bounds(mid + u)
            i = f.argmin(axis=-1)[..., None]
            end = i % 32 == 0
            if moves == 40 or not end.any():
                break
            mid = mid + np.where(i, 15.0, -15.0) * end
        for _ in range(2):
            mid, u = mid + u[i], u / 16.0
            f = bounds(mid + u)
            i = f.argmin(axis=-1)[..., None]
    return np.maximum(f.min(axis=-1), 0.0)


def _span_estimate(model: EmitterModel):
    """(anti, stokes) shifts (meV) past which each side of the ZPL holds at
    most TAIL_WEIGHT: ``_chernoff`` on the shift's CGF, sum_k ``_mode_cgf``
    + (sigma t)^2/2 (Gaussian) + ln W(t), W = (1 + w_s/(1 - ct)^2 + w_as/
    (1 + c't)^2)/knorm the ``_wing_factor`` at tau = it, c' = 1/(1/c +
    1/kT).  A Lorentzian has no CGF: it adds 500 FWHM a side, past which
    its tail holds 1/(1000 pi) = 3.2e-4 (``lineshape`` allows 1e-3).  At T =
    0 it is the only anti-Stokes shift, so that side is not searched."""
    s, w, n = np.array([(m.partial_hr, m.energy_mev, bose_occupation(
        m.energy_mev, model.temperature)) for m in model.modes]).reshape(-1, 3).T
    w_s, w_as, knorm = _acoustic_kernel_weights(model)
    c = model.acoustic_cutoff if w_s else 0.0
    c_as = 1.0 / (1.0 / c + 1.0 / _kt(model.temperature)) if w_as else 0.0
    lorentz = model.zpl_profile == "lorentzian"
    sigma = 0.0 if lorentz else model.zpl_linewidth / (8 * math.log(2)) ** 0.5
    cold = lorentz and _kt(model.temperature) == 0
    sides = np.array([[1.0]] if cold else [[-1.0], [1.0]])

    def cgf(t):                         # rows: anti-Stokes -t, Stokes t
        t = t * sides                   # W is inf off -1/c' < t < 1/c
        wing = (1 + w_s / np.maximum(1 - c * t, 0.0) ** 2
                + w_as / np.maximum(1 + c_as * t, 0.0) ** 2)
        return (np.log(wing / knorm) + (sigma * t) ** 2 / 2
                + _mode_cgf(s, n, t[..., None] * w).sum(axis=-1))

    with np.errstate(over="ignore"):            # inf: no finite span
        kappa2 = (sigma * sigma + np.sum(s * (2 * n + 1) * w * w)
                  + 6 * c * c * w_s)
    tails = _chernoff(cgf, kappa2, -math.log(TAIL_WEIGHT))
    anti, stokes = (np.concatenate(([0.0] if cold else [], tails))
                    + (500.0 * model.zpl_linewidth if lorentz else 0.0))
    return float(anti), float(stokes)


def _wing_factor(model: EmitterModel, tau):
    """(1 + wing) / knorm in the time domain: rho(d) = w_s d/c^2 e^{-d/c}
    (d > 0) transforms to w_s/(1 + i tau c)^2, its Bose-weighted mirror to
    w_s/(1 + c/kT - i tau c)^2; at tau = 0 they are w_s and w_as."""
    w_s, w_as, knorm = _acoustic_kernel_weights(model)
    if w_s == 0:
        return 1.0
    c, kt = model.acoustic_cutoff, _kt(model.temperature)
    f = 1.0 + w_s / np.square(1.0 + 1j * c * tau)
    if w_as > 1e-300 * w_s:     # else (c/kT)^2 may overflow; |mirror| <= w_as
        f += w_s / np.square(1.0 + c / kt - 1j * c * tau)
    return f / knorm


def _fft_size(n: int) -> int:
    """Smallest even 2^a 3^b 5^c >= n (b, c <= 2): a fast real FFT size."""
    return min(q << max(1, (-(-n // q) - 1).bit_length())
               for q in (1, 3, 5, 9, 15, 25, 45, 75, 225))


def _plan(model: EmitterModel, grid: EnergyGrid, reach: float = np.inf,
          limit: float = np.inf) -> _Plan:
    """The FFT lattice lo + j d, j < n, whose points ``read``, reversed, are
    the grid's shifts D = E_ZPL - E (meV); window is (D_min, D_max), and tau
    (1/meV, step 2 pi/P, P = n d) the frequencies ``_profile_cut`` keeps.
    d = s/k, s the grid spacing and k = ceil(8 s / linewidth); n is a fast
    FFT size.  At finite reach the lattice spans [D_min - reach, D_max +
    reach].  At infinite reach the band [-anti, stokes] holds all but
    TAIL_WEIGHT a side (``_span_estimate``):
      Gaussian: the lattice starts at D_min, with P = n d >= max(stokes -
        D_min, D_max + anti, D_max - D_min), so every periodic image of a
        window sample lies past the band, in a tail of at most TAIL_WEIGHT;
      Lorentzian: it spans [min(D_min, 0) - anti, max(D_max, 0) + stokes],
        since its periodized tail (``_render``) falls only as 1/(m P)^2:
        the shorter period would bring an image of each line within anti,
        as little as 500 FWHM, of the window's edge.
    Past min(limit, MAX_GRID_POINTS) points it raises, naming a spacing or
    linewidth that fits."""
    s = grid.spacing * 1e3
    d_min = (model.zpl_energy - grid.max_energy) * 1e3
    d_max = (model.zpl_energy - grid.min_energy) * 1e3
    k = np.ceil(8.0 * s / model.zpl_linewidth)
    d = s / k
    if not d > 0:                   # FWHM/8 underflowed: k = inf, d = 0
        raise NumericalError("renderer window is not finite")
    if np.isfinite(reach):
        below, top = reach, d_max + reach
    else:
        anti, stokes = _span_estimate(model)
        if model.zpl_profile == "gaussian":
            below, top = 0.0, d_min + max(stokes - d_min, d_max + anti,
                                          d_max - d_min)
        else:
            below = d_min - min(d_min, 0.0) + anti
            top = max(d_max, 0.0) + stokes
    m0 = np.ceil(below / d)
    lo = d_min - m0 * d
    span = top - lo
    need = np.ceil(span / d) + 1.0
    if not np.all(np.isfinite([lo, span, need])):
        raise NumericalError("renderer window is not finite")
    limit = min(limit, MAX_GRID_POINTS)
    if not need <= limit:
        finest = span / (limit - 3)               # d = s/k fits from here
        raise NumericalError(f"internal grid would need {need:.3g} points "
                             f"(limit {limit}); " + (
            f"the finest grid spacing allowed is {finest * 1e-3:.3g} eV"
            if model.zpl_linewidth / 8.0 >= finest else f"the {span:.3g} "
            "meV span needs a linewidth beyond the ZPL energy"
            if 8.0 * finest >= model.zpl_energy * 1e3 else "widen the "
            f"linewidth to {8.0 * s / (s // finest):.3g} meV" if s >= finest
            else f"widen the linewidth to {8.0 * finest:.3g} meV and the "
            f"grid spacing to {finest * 1e-3:.3g} eV"))
    n, k, m0 = _fft_size(int(need)), int(k), int(m0)
    tau = 2.0 * np.pi * np.fft.rfftfreq(n, d=d)
    return _Plan(lo, d, n, tau[:_profile_cut(model, tau)], (d_min, d_max),
                 slice(m0, m0 + (grid.n_points - 1) * k + 1, k))


def _render(model: EmitterModel, plan: _Plan, g) -> np.ndarray:
    """Exact samples of the density (1/meV, one per row of g) at the grid's
    points, from its time signal g at plan.tau in the lattice's frame (a
    line at shift D is e^{-i (D - lo) tau}), wing included; the ZPL profile
    multiplies g here.  They are those of the density periodized on P, up
    to the signal beyond pi/d:
      Gaussian (sigma = FWHM/2.3548): at most d e^{-(sigma pi/d)^2/2} /
        (pi sigma)^2 per sample, e^{-(sigma pi/d)^2/2} <= 1.9e-25;
      Lorentzian (FWHM Gamma): at most 2/(pi Gamma) e^{-Gamma pi/(2d)},
        e^{-Gamma pi/(2d)} <= e^{-4 pi} = 3.5e-6, plus the periodized tail,
        sum_{m != 0} Gamma/(2 pi (delta + m P)^2) per unit line weight.
    The tau past the cut hold at most e^{-40} (2 pi/P + 1/r)/pi per sample
    and unit weight, r = sqrt(80) sigma (Gaussian) or Gamma/2.  A signal of
    shifts from the ZPL moves them to the lattice by e^{i lo tau}, a
    ``_phase_ramp``: at most (|lo| pi/d + 8) 2^-53 of the profile's peak.
    Only the first row, the intensity, is clipped at 0."""
    g = g * _profile_factor(plan.tau, model.zpl_linewidth, model.zpl_profile)
    dens = np.fft.irfft(g, plan.n) / plan.d        # zero-padded past the cut
    out = np.array(dens[..., plan.read][..., ::-1])
    intensity = out if out.ndim == 1 else out[0]
    intensity[:] = np.clip(intensity, 0.0, None)
    return out


def _check_lineshape_grid(model: EmitterModel, grid: EnergyGrid):
    if not (grid.min_energy < model.zpl_energy < grid.max_energy):
        raise ValidationError("grid must cover the ZPL energy")
    if model.modes:
        wmax = max(m.energy_mev for m in model.modes) * 1e-3
        if grid.min_energy > model.zpl_energy - 5.0 * wmax:
            raise ValidationError(
                "grid must extend at least 5 phonon quanta below the ZPL")


def full_band_grid(model: EmitterModel,
                   spacing_mev: float | None = None) -> EnergyGrid:
    """Energy grid over the full band (``_span_estimate``), and over the 5
    quanta below the ZPL that ``lineshape`` asks for.  The spacing defaults
    to min(0.25 meV, FWHM/4): the trapezoid area of a line is then off by
    at most 2 e^{-4 pi} = 7e-6 (Lorentzian)."""
    if spacing_mev is None:
        spacing_mev = min(0.25, model.zpl_linewidth / 4.0)
    if not spacing_mev > 0:
        raise ValidationError("spacing must be > 0")
    anti, stokes = _span_estimate(model)
    lo = model.zpl_energy - max([stokes * 1e-3] + [
        5.0 * (m.energy_mev * 1e-3) for m in model.modes])
    hi = model.zpl_energy + anti * 1e-3
    if not np.isfinite(hi - lo):
        raise ValidationError("grid bounds must be finite")
    n = np.floor((hi - lo) / (spacing_mev * 1e-3)) + 2
    return EnergyGrid(lo, lo + (n - 1) * spacing_mev * 1e-3, n)


def lineshape_density(model: EmitterModel, grid: EnergyGrid) -> np.ndarray:
    """Normalized emission density (1/meV) at the photon energies of grid.

    The normalization is global (integral over all energies = 1); no
    truncation check is made, so this is the right entry point when only
    part of the band is needed.
    """
    plan = _plan(model, grid)
    tau = plan.tau
    # log G = sum_k S_k [(2 n_k + 1)(cos w_k t - 1) - i sin w_k t]
    g = np.zeros(tau.size, dtype=complex)
    for m in model.modes:
        z = _phase_ramp(m.energy_mev * tau[1], tau.size)
        n = bose_occupation(m.energy_mev, model.temperature)
        z.real = (2.0 * n + 1.0) * (z.real - 1.0)
        g += m.partial_hr * z
    return _render(model, plan, np.exp(g) * _wing_factor(model, tau)
                   * _phase_ramp(-plan.lo * tau[1], tau.size))


def lineshape(model: EmitterModel, grid: EnergyGrid) -> Spectrum:
    """Normalized emission spectrum from the generating-function method."""
    _check_lineshape_grid(model, grid)
    dens = lineshape_density(model, grid)
    covered = np.trapezoid(dens, grid.points * 1e3)
    if abs(covered - 1.0) > 1e-3:   # a line's area is off by <= 2 P(2 pi/h)
        h, fwhm = grid.spacing * 1e3, model.zpl_linewidth
        off = 2.0 * _profile_factor(2.0 * np.pi / h, fwhm, model.zpl_profile)
        raise NumericalError((
            f"grid spacing {h:.3g} meV is too coarse for the {fwhm:.3g} meV "
            f"linewidth: the trapezoid area is off by up to {off:.2e}" if off
            > 1e-3 else f"grid truncates {abs(1.0 - covered):.2e} of the "
            "spectral weight") + " (limit 1e-3)")
    return Spectrum(grid, dens)


# ------------------------------------------------------------------
# vibronic line weights and the line-sum oracle
# ------------------------------------------------------------------

def mode_line_weights(mode: PhononMode, temperature: float) -> tuple:
    """Net-quanta line weights of one thermally occupied mode.

    Returns (m_values, weights > 0 summing to 1), m > 0 the Stokes lines:
    W_m = e^{-S(2n+1)} ((n+1)/n)^{m/2} I_m(2S sqrt(n(n+1))) (Huang & Rhys,
    Proc. R. Soc. A 204, 406 (1950)), the law of N - N' for N, N' Poisson
    of means a = S(n+1), Sn.  With q = n/(n+1), W_{-m} = q^m W_m; Miller's
    backward recurrence (Gautschi, SIAM Rev. 9, 24 (1967)) runs r_m =
    W_m/W_{m-1} = 1/(m/a + q r_{m+1}) (S/m at T = 0) down from r_{M+1} = 0,
    off by the relative q^{M-m+1} W_M W_{M+1}/(W_{m-1} W_m).  M is the
    ``_chernoff`` bound at rate 40 on the one-mode ``_mode_cgf``, so P(N - N'
    >= M) <= e^{-40}; the anti-Stokes tail is q^M of that.  Raises past M =
    MAX_LINES.
    """
    s, n = mode.partial_hr, float(bose_occupation(mode.energy_mev, temperature))
    if s == 0.0:
        return np.zeros(1, dtype=int), np.ones(1)
    q, a = n / (n + 1.0), s * (n + 1.0)
    top = float(_chernoff(lambda t: _mode_cgf(s, n, t), s * (2 * n + 1), 40))
    if not top <= MAX_LINES:
        raise NumericalError(f"the {mode.energy_mev:g} meV mode needs "
                             f"more than {MAX_LINES} quanta")
    ratios, r = np.empty(math.ceil(top)), 0.0
    for m in range(ratios.size, 0, -1):
        r = 1.0 / (m / a + q * r)
        ratios[m - 1] = r
    p = np.count_nonzero(ratios >= 1.0)   # the peak: the ratios fall past 1
    w = np.concatenate((np.cumprod(1.0 / ratios[:p][::-1])[::-1], [1.0],
                        np.cumprod(ratios[p:])))
    ms = np.arange(-ratios.size, ratios.size + 1)
    ws = w[np.abs(ms)] * q ** np.maximum(-ms, 0)
    ws /= ws.sum()
    return ms[ws > 0.0], ws[ws > 0.0]


def lineshape_bruteforce(model: EmitterModel, grid: EnergyGrid,
                         max_quanta: int = 12) -> Spectrum:
    """Oracle spectrum: sums over each mode's closed-form line weights.

    Limited to 3 modes and max_quanta <= 40 net quanta per mode as a
    combinatorial guard; the rendering is shared with ``lineshape`` so the
    two differ only in how the vibronic weights are generated.
    """
    if len(model.modes) > 3:
        raise ValidationError("brute-force oracle supports at most 3 modes")
    if max_quanta < 1 or max_quanta > 40:
        raise ValidationError("max_quanta must lie in [1, 40]")
    _check_lineshape_grid(model, grid)

    tables = [(ms[np.abs(ms) <= max_quanta], ws[np.abs(ms) <= max_quanta])
              for ms, ws in (mode_line_weights(m, model.temperature)
                             for m in model.modes)]
    kept = math.prod(float(ws.sum()) for _, ws in tables)
    if not abs(kept - 1.0) <= 1e-3:
        raise NumericalError(f"the tables keep {kept:.8f} of the weight")

    plan = _plan(model, grid)
    tau = plan.tau
    g = np.ones_like(tau, dtype=complex)
    for mode, (ms, ws) in zip(model.modes, tables):
        g *= sum(w * _phase_ramp(m * mode.energy_mev * tau[1], tau.size)
                 for m, w in zip(ms, ws))
    return Spectrum(grid, _render(model, plan, g * _wing_factor(model, tau)
                                  * _phase_ramp(-plan.lo * tau[1], tau.size)))
