"""Coordinate-dependent transition dipole and energy-resolved orientation.

The dipole is expanded to first order in the mode displacements:

    mu(q) = mu0 * u(psi0) + sum_k g_k q_k dQ_k u(alpha_k)

with u(a) the in-plane unit vector of angle a.  Since q_k takes both
signs, each angle is a vector angle (period 360 deg), and a gradient at
alpha + 180 turns the dipole the other way.  Emission at a given photon
energy mixes vibronic channels incoherently (Stokes-vector addition);
each channel carries the dipole axis of its characteristic displaced
geometry.  Stokes replicas sample q_k = -sqrt(n), anti-Stokes
replicas +sqrt(n) with a fixed amplification factor of 2 (thermally
populated initial levels sample larger displacements).  The acoustic
wing is a pseudo-channel whose displacement grows as sqrt(delta/cutoff),
scaled by a thermal amplification that vanishes as T -> 0 and whose
rotation sense follows the sign of the strain bias.

The channel sums are planned and rendered as the lineshape is
(``vibronic._plan``, ``vibronic._render``), with its ZPL profile P and
wing factor (1 + k)/knorm.  Line i (shift s_i, weight w_i, dipole b_i) is
a stick w_i (1, J cos 2psi_i, J sin 2psi_i), J the jitter DOLP ceiling,
that the wing factor dresses with its parent-axis wing; the wing's
rotation adds r_ik(d) = w_i J rho(d) [c_k(b_i + g q(d)) - c_k(b_i)] /
knorm to s1 and s2 (c_1 = cos 2psi, c_2 = sin 2psi).  So the channel s0
is the lineshape up to the weight left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (MAX_LINES, EmitterModel, EnergyGrid, NumericalError,
                   OrientationCurve, ValidationError, _stokes_psi_dop_chi,
                   wrap_orientation_scalar)
from .vibronic import (_acoustic_kernel_weights, _plan, _render, _wing_factor,
                       acoustic_wing_density, bose_occupation,
                       lineshape_density, mode_line_weights)

# anti-Stokes channels sample displacement sqrt(n) * (1 + this factor)
ANTI_STOKES_AMPLIFICATION = 1.0

# a grid point is invalid when its intensity is below this fraction of peak
LOW_SIGNAL_FRACTION = 1e-6

# line tails left out of the orientation sums add at most TAIL_FRACTION of
# the low-signal threshold at any grid point; lines of weight at or below
# LINE_CUTOFF are left out of them
TAIL_FRACTION = 1e-12
LINE_CUTOFF = 1e-9

_ELEMENT_CAP = 65536    # wing residual block (cache-sized: 2x faster than 4M)
_PRODUCT_CAP = 2 ** 23  # elements per array of a line product (64 MiB)
_CHANNEL_POINTS = 2 ** 28 // 96  # 256 MiB: 3 rows x (2 reals + 1 complex)


@dataclass(frozen=True)
class ModeRotation:
    """Dipole-axis deviation at the one-phonon displaced geometry."""

    mode_index: int
    phonon_energy: float     # meV
    delta_theta: float       # degrees, signed, canonical branch

    def __post_init__(self):
        if abs(self.delta_theta) > 90.0:
            raise ValidationError("|delta_theta| must be <= 90 deg")


def thermal_amplification(model: EmitterModel) -> float:
    """Thermal boost of the acoustic displacement; 0 at T = 0.

    sqrt(2 n(cutoff, T) + 1) - 1 with n the Bose occupation at the
    acoustic cutoff energy: the width of the thermally sampled nuclear
    distribution relative to the zero-point spread.
    """
    n = bose_occupation(model.acoustic_cutoff, model.temperature)
    return float(np.sqrt(2.0 * n + 1.0) - 1.0)


def _vector(magnitude: float, angle_deg: float) -> complex:
    """magnitude u(angle) as x + iy, the angle a vector angle in deg."""
    a = np.deg2rad(angle_deg)
    return complex(magnitude * np.cos(a), magnitude * np.sin(a))


def dipole_at_displacement(model: EmitterModel, q) -> tuple:
    """Dipole axis angle (deg) and magnitude at mode displacements q.

    q_k is in units of that mode's partial displacement dQ_k, so q_k = 1
    is the one-phonon-projected geometry.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (len(model.modes),):
        raise ValidationError(
            f"q must have one entry per mode ({len(model.modes)})")
    vec = _vector(model.equilibrium_dipole, model.equilibrium_angle)
    for mode, qk in zip(model.modes, q):
        vec += qk * _vector(mode.grad_magnitude * mode.partial_dq,
                            mode.grad_direction)
    if abs(vec) < 1e-12 * model.equilibrium_dipole:
        raise NumericalError(
            "transition dipole cancels at this displacement; axis undefined")
    angle = wrap_orientation_scalar(np.rad2deg(np.arctan2(vec.imag, vec.real)))
    return angle, float(abs(vec))


def mode_rotations(model: EmitterModel) -> list:
    """Per-mode dipole rotation at the one-phonon displaced geometry."""
    out = []
    for k, q in enumerate(np.eye(len(model.modes))):
        angle, _ = dipole_at_displacement(model, q)
        delta = wrap_orientation_scalar(angle - model.equilibrium_angle)
        out.append(ModeRotation(k, model.modes[k].energy_mev, delta))
    return out


def solve_gradient_for_rotation(delta_theta_deg: float, alpha_deg: float,
                                psi0_deg: float, dipole: float,
                                dq: float) -> float:
    """Gradient magnitude g so the one-phonon rotation equals the target.

    Closed form from tan(dtheta) = g dq sin(a-psi0) / (mu0 + g dq cos(a-psi0)).
    """
    t = np.tan(np.deg2rad(delta_theta_deg))
    rel = np.deg2rad(alpha_deg - psi0_deg)
    denom = np.sin(rel) - t * np.cos(rel)
    if abs(denom) < 1e-12:
        raise ValidationError("gradient direction cannot produce this rotation")
    g = t * dipole / (dq * denom)
    if g < 0:
        raise ValidationError(
            "target rotation has the wrong sign for this gradient direction")
    return float(g)


def apply_strain_bias(model: EmitterModel) -> EmitterModel:
    """Blend mode gradient directions toward a common rotation sense.

    Each alpha_k whose one-phonon rotation opposes the sense of the bias
    turns toward its mirror 2 psi0 - alpha_k about the equilibrium dipole
    (which flips the sign of the mode's rotation while preserving its
    magnitude), by the fraction |strain_bias| of the shorter turn between
    the two vectors; the sign of the bias selects the shared sense.  bias
    = 0 is the identity.
    """
    b = model.strain_bias
    if b == 0.0 or not model.modes:
        return model
    new_modes = []
    for mode, rot in zip(model.modes, mode_rotations(model)):
        if rot.delta_theta * b < 0 and mode.grad_magnitude > 0:
            alpha = mode.grad_direction
            mirror = 2.0 * model.equilibrium_angle - alpha
            step = (mirror - alpha + 180.0) % 360.0 - 180.0
            mode = replace(mode, grad_direction=alpha + abs(b) * step)
        new_modes.append(mode)
    return replace(model, modes=tuple(new_modes))


def _enumerate_lines(model: EmitterModel):
    """Vibronic lines: positions (meV below ZPL), weights, dipoles.

    Returns (shift, weight, dipole) arrays, one entry per multi-mode
    replica with weight above LINE_CUTOFF; the dipole is x + iy.
    """
    shifts, weights = np.zeros(1), np.ones(1)
    dip = np.array([_vector(model.equilibrium_dipole,
                            model.equilibrium_angle)])
    for mode in model.modes:
        ms, ws = mode_line_weights(mode, model.temperature)
        # a product weight is at most each factor: drop this mode's lines
        # below the cutoff first, then bound the product's size
        ms, ws = ms[ws > LINE_CUTOFF], ws[ws > LINE_CUTOFF]
        if (size := shifts.size * ms.size) > _PRODUCT_CAP:
            raise NumericalError(f"the line product would hold {size} "
                                 f"elements (limit {_PRODUCT_CAP})")
        # channel displacement per net quanta: Stokes -sqrt(m),
        # anti-Stokes +sqrt(|m|) amplified
        qs = np.where(ms >= 0, -np.sqrt(np.abs(ms)),
                      (1.0 + ANTI_STOKES_AMPLIFICATION) * np.sqrt(np.abs(ms)))
        grad = _vector(mode.grad_magnitude * mode.partial_dq,
                       mode.grad_direction)
        shifts = (shifts[:, None] + ms[None, :] * mode.energy_mev).ravel()
        weights = (weights[:, None] * ws[None, :]).ravel()
        dip = (dip[:, None] + qs[None, :] * grad).ravel()
        keep = weights > LINE_CUTOFF
        shifts, weights, dip = shifts[keep], weights[keep], dip[keep]
        if shifts.size > MAX_LINES:
            raise NumericalError(f"more than {MAX_LINES} vibronic lines")
    if shifts.size == 0:
        raise NumericalError("no vibronic line above the weight cutoff")
    return shifts, weights, dip


def _axis_cos_sin(x, y):
    """(cos 2a, sin 2a) of the axis through (x, y); (0, 0) at the origin,
    NaN where x^2 + y^2 overflows (the Stokes sums' finiteness check)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = x * x + y * y
        inv = np.where(r2 > 0, 1.0 / np.where(r2 > 0, r2, 1.0), 0.0)
        return (x * x - y * y) * inv, 2.0 * x * y * inv


def _line_reach(model: EmitterModel, budget: float) -> tuple:
    """(profile, wing) reach in meV of one line of unit weight.

    The wing reach R_w has rho(R_w) <= budget/16 on the falling side of the
    wing rho(d) = w_s d/c^2 e^{-d/c} (the anti-Stokes wing is lower): R_w =
    c (L + ln(L + ln L + 1)), L = ln(16 w_s/(budget c)), or c where L <= 1.
    x0 = L + ln L + 1 is not below the root of x - ln x = L, as ln L + 1 <=
    (e - 1) L, and x0 -> L + ln x0 stays above it: R_w is never short, by
    1.4e-3 c or more down to budget c/(16 w_s) = 1e-300, and over-reaches
    by at most c ln 2, and by at most 0.3% where budget c/(16 w_s) <= 1e-6.
    The profile reach R_p has (1/FWHM + 2 rho_max) e^{-R_p^2 / 2 sigma^2} =
    budget/16 (Gaussian; its peak is below 1/FWHM), rho_max = w_s/(e c);
    the Lorentzian tail is algebraic, so its R_p is infinite.  ``budget``
    is a float, so a ratio that overflows is inf, not a warning.
    """
    if not budget > 0:
        return np.inf, np.inf
    w_s, c = model.acoustic_coupling, model.acoustic_cutoff
    reach_w = 0.0
    if w_s > 0:
        a = budget * c / (16.0 * w_s)
        big = -math.log(a) if a > 0 else math.inf                   # L
        reach_w = c * (big + math.log(big + math.log(big) + 1.0)
                       if big > 1 else 1.0)
    if model.zpl_profile != "gaussian":
        return np.inf, reach_w
    sig = model.zpl_linewidth / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    ratio = 16.0 * (1.0 / model.zpl_linewidth + 2.0 * w_s / (math.e * c)) / budget
    return sig * np.sqrt(2.0 * np.log(max(ratio, 1.0))), reach_w


def _jitter_dolp(model: EmitterModel) -> float:
    """Per-channel DOLP ceiling from thermal orientation wobble."""
    sigma_jit = (model.acoustic_gradient * model.orientation_jitter
                 * thermal_amplification(model) / model.equilibrium_dipole)
    return float(np.exp(-2.0 * sigma_jit * sigma_jit))  # float: no warning


def _stick_signal(shifts, coef, plan):
    """sum_i coef[:, i] e^{-i (shifts_i - lo) tau} at plan.tau, in the frame
    of plan's lattice lo + j d, j < n: a type-1 NUFFT (Greengard & Lee,
    SIAM Rev. 46, 443 (2004)) spreads each stick periodically onto the 2n
    points lo + j h, h = d/2, by e^{-x^2 / 2 (2h)^2} cut at +-16 h, and
    divides the real FFT at tau, up to the Nyquist pi/d, by the kernel's
    transform.  The cut drops 4e-15 of a stick (2 e^{-16.5^2/8}), aliasing
    adds 7e-18 (e^{-4 pi^2}); the division raises both 139-fold (e^{pi^2/2})
    at pi/d, where the profile is below e^{-5.8 pi^2} (Gaussian, d <=
    FWHM/8) or e^{-4 pi} (Lorentzian)."""
    lo, d, n, tau = plan.lo, plan.d, plan.n, plan.tau
    u = 2.0 * (shifts - lo) / d
    near = np.rint(u)
    steps = np.arange(-16, 17)
    idx = ((near[:, None] + steps) % (2 * n)).astype(np.int64)
    kern = np.exp(-np.square((near - u)[:, None] + steps) / 8.0)
    f = np.stack([np.bincount(idx.ravel(), (kern * c[:, None]).ravel(),
                              minlength=2 * n) for c in coef])
    deconv = np.exp(0.5 * np.square(d * tau)) / (2.0 * np.sqrt(2.0 * np.pi))
    return np.fft.rfft(f)[:, :tau.size] * deconv


def _wing_residual(model: EmitterModel, shifts, weights, dip, plan,
                   reach_p: float, reach_w: float):
    """Time signal at plan.tau of the (s1, s2) wing rotation residual, taken
    at plan's lattice points within reach_p of its window from the lines
    within reach_w of each."""
    g = _vector(model.acoustic_gradient, model.acoustic_direction)
    bx, by = dip.real, dip.imag    # the loop stays real: complex is slower
    q_unit = (thermal_amplification(model) * np.sign(model.strain_bias)
              / np.sqrt(model.acoustic_cutoff))
    scale = weights * _jitter_dolp(model) / _acoustic_kernel_weights(model)[2]
    c2_0, s2_0 = _axis_cos_sin(bx, by)
    lo, d, n = plan.lo, plan.d, plan.n
    j_lo = max(0, np.ceil((plan.window[0] - reach_p - lo) / d))
    j_hi = min(n - 1, np.floor((plan.window[1] + reach_p - lo) / d))
    width = int(min(np.floor(2.0 * reach_w / d) + 2.0, j_hi - j_lo + 1))
    first = np.clip(np.ceil((shifts - reach_w - lo) / d), j_lo, j_hi)
    count = np.minimum(np.floor((shifts + reach_w - lo) / d), j_hi) - first
    offset = lo + first * d - shifts
    steps = np.arange(width)
    out = np.zeros((2, n))
    block = max(1, _ELEMENT_CAP // width)
    for i0 in range(0, shifts.size, block):
        sl = slice(i0, i0 + block)
        delta = offset[sl, None] + steps * d       # >0: Stokes side of line
        rho = acoustic_wing_density(model, delta) * np.where(
            steps <= count[sl, None], scale[sl, None], 0.0)
        # acoustic displacement: Stokes -q, anti-Stokes +q amplified
        q_ac = np.sqrt(np.abs(delta)) * np.where(
            delta >= 0, -q_unit, (1.0 + ANTI_STOKES_AMPLIFICATION) * q_unit)
        c2, sn2 = _axis_cos_sin(bx[sl, None] + g.real * q_ac,
                                by[sl, None] + g.imag * q_ac)
        j = np.minimum(first[sl, None] + steps, j_hi).astype(np.int64).ravel()
        out[0] += np.bincount(j, (rho * (c2 - c2_0[sl, None])).ravel(), n)
        out[1] += np.bincount(j, (rho * (sn2 - s2_0[sl, None])).ravel(), n)
    return d * np.fft.rfft(out)[:, :plan.tau.size]


def _stokes_sums(model: EmitterModel, grid: EnergyGrid,
                 weight: np.ndarray) -> np.ndarray:
    """Channel-summed (s0, s1, s2) of the biased model on the grid, whose
    lineshape is ``weight`` (see ``orientation_vs_energy``)."""
    shifts, weights, dip = _enumerate_lines(model)
    # weight the cutoff left out (+ spreading, rounding: 1e-14)
    dropped = abs(1.0 - weights.sum()) + 1e-12
    c2, sn2 = _axis_cos_sin(dip.real, dip.imag)
    coef = weights * np.stack([np.ones_like(c2), c2, sn2])
    coef[1:] *= _jitter_dolp(model)
    _, _, knorm = _acoustic_kernel_weights(model)
    tol = TAIL_FRACTION * LOW_SIGNAL_FRACTION * float(weight.max())
    reach_p, reach_w = _line_reach(model, float(tol * knorm / weights.sum()))
    reach = reach_p + reach_w
    plan = _plan(model, grid, reach, _CHANNEL_POINTS)
    d_lo, d_hi = plan.window                              # meV below ZPL
    kept = (shifts >= d_lo - reach) & (shifts <= d_hi + reach)
    shifts, coef, dip = shifts[kept], coef[:, kept], dip[kept]
    g = _stick_signal(shifts, coef, plan) * _wing_factor(model, plan.tau)
    if thermal_amplification(model) * model.strain_bias != 0:
        g[1:] += _wing_residual(model, shifts, coef[0], dip, plan, reach_p,
                                reach_w)
    s = _render(model, plan, g)
    if not np.all(np.isfinite(s)):
        raise NumericalError("channel Stokes sums overflow")
    if not np.abs(s[0] - weight).max() <= dropped / model.zpl_linewidth + tol:
        raise NumericalError("channel s0 departs from the lineshape by more "
                             "than the dropped line weight allows")
    return s


def orientation_vs_energy(model: EmitterModel, grid: EnergyGrid,
                          ) -> OrientationCurve:
    """Orientation angle and DOLP across the vibronic manifold.

    Channel Stokes vectors (module docstring) are summed at each photon
    energy and converted to (psi, DOLP) (``core._stokes_psi_dop_chi``);
    points where the channel s0 is below the low-signal threshold, or
    below the transforms' rounding floor 1e-12/FWHM, or that have no
    defined axis, are invalid, and DOLP is capped at 1, the bound of every
    channel.  The curve's ``weight`` is ``lineshape_density``.  One
    ``_render`` on the channel plan gives (s0, s1, s2), the sticks spread
    within the bound of ``_stick_signal``, and:

    - Lines farther than R = R_p + R_w from the window are left out; the
      residual is sampled within R_p of the window from the lines within
      R_w (``_line_reach``, budget b = TAIL_FRACTION x LOW_SIGNAL_FRACTION
      x max(weight) x knorm / total line weight).  The tails beyond R,
      their periodic images (the lattice spans the window +- R), the
      residual beyond R_w (|c_k| <= 1) and its profile tail beyond R_p add
      at most b/8 + b/4 + b/8 + b/8 per unit line weight.  A Lorentzian
      R_p is infinite: the lattice is then the lineshape's full band, with
      its periodization bound (``vibronic._render``).
    - Near line i the residual is a_i+- |d|^{3/2}, |a_i+| <= 2 g a w_s w_i
      J / (knorm c^{5/2} |b_i|), |a_i-| <= (1 + A) |a_i+| (a the thermal, A
      the anti-Stokes amplification).  Sampled at the lattice step d and
      convolved with P, it is off by |e_k(x)| <= 0.0722 d^{5/2} sum_i
      (|a_i+| + |a_i-|) p(x - s_i): twice the leading term, as 0.0361 =
      2 Gamma(5/2) zeta(5/2) / (2 pi)^{5/2} >= |zeta(-3/2, theta)| in the
      Euler-Maclaurin formula for a branch singularity (Navot, J. Math.
      Phys. 40, 271 (1961)).
    - s0 has no residual: a NumericalError is raised where |s0 - weight|
      exceeds (the weight of the lines at or below LINE_CUTOFF + 1e-12) x
      1/FWHM (above the profile's peak) plus the tail budget, which covers
      the lines beyond R.
    """
    weight = lineshape_density(model, grid)
    s0, s1, s2 = _stokes_sums(apply_strain_bias(model), grid, weight)
    psi, dolp, _ = _stokes_psi_dop_chi(s0, s1, s2)
    valid = (s0 > max(LOW_SIGNAL_FRACTION * s0.max(),
                      1e-12 / model.zpl_linewidth)) & ~np.isnan(psi)
    return OrientationCurve(grid, np.where(valid, psi, np.nan),
                            np.where(valid, dolp, 0.0), weight, valid)


def opsb_offset(model: EmitterModel) -> float:
    """Orientation offset (deg) of the one-phonon optical sideband center
    relative to the ZPL."""
    if not model.modes:
        raise ValidationError("model has no optical modes")
    w_lo = min(m.energy_mev for m in model.modes)
    w_hi = max(m.energy_mev for m in model.modes)
    pad = 6.0 * model.zpl_linewidth + 2.0
    lo = model.zpl_energy - (w_hi + pad) * 1e-3
    hi = model.zpl_energy - max(w_lo - pad, 1.0) * 1e-3
    n = max(101, int((hi - lo) / (0.2e-3)) + 1)
    grid = EnergyGrid(lo, hi, n)
    curve = orientation_vs_energy(model, grid)
    if not np.any(curve.valid) or curve.weight.sum() <= 0:
        raise NumericalError("no optical sideband weight in the window")
    center = float(np.sum(curve.weight * grid.points) / np.sum(curve.weight))
    zgrid = EnergyGrid(model.zpl_energy - 2e-3, model.zpl_energy + 2e-3, 41)
    zcurve = orientation_vs_energy(model, zgrid)
    iz = np.argmin(np.abs(zgrid.points - model.zpl_energy))
    psi_zpl = zcurve.psi[iz]
    ic = np.argmin(np.abs(grid.points - center))
    if not curve.valid[ic]:
        raise NumericalError("sideband center falls on an invalid point")
    return wrap_orientation_scalar(float(curve.psi[ic] - psi_zpl))
